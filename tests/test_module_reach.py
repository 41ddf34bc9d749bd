"""Every module of the package is reached from the command line: following
the package-relative imports from ``cli.py`` and ``suites.py`` (the suites
and the acceptance gate run through ``suites``) reaches each module file.
``__init__.py`` re-exports everything and is not followed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unitcat"
ROOTS = ("cli", "suites")


def _imported_modules(name: str) -> set[str]:
    """The package modules ``name`` imports by ``from .x import ...`` or
    ``from . import x``, anywhere in the file."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_every_module_is_reached_from_the_cli_or_the_suites():
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    reached, todo = set(), list(ROOTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_imported_modules(name) & modules)
    assert set(ROOTS) <= modules
    assert modules - reached == set()
