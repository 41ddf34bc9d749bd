"""Everything the package defines is reached from the command line.

Per module: following the package-relative imports from ``cli.py`` and
``suites.py`` (the suites and the acceptance gate run through ``suites``)
reaches each module file.  Per name: following, from those two modules,
every reference a module-level function, class or assignment makes to a
package name (its own, one imported by ``from .x import name``, or
``module.name`` after ``from . import module``) reaches every module-level
function and class, private ones included, or one of ``ALLOWED``, kept
for the reason given; what an allowed name references counts as reached.
``__init__.py`` re-exports everything and is not followed.  Per method:
a method of a class counts as reached when its name is read as an
attribute anywhere in that reached code (by name only, whatever the
object); dunder methods are exempt, and ``ALLOWED_METHODS`` keeps the
rest for the reason given."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unitcat"
ROOTS = ("cli", "suites")

# name -> why it stays although no suite reaches it
ALLOWED = {
    "duality.check_conditions": "acceptance gate: criteria 5 to 7",
    "duality.make_corpus": "acceptance gate: criterion 6",
    "enriched.tensor_maximality_audit": "acceptance gate: criterion 11",
    "reports.strip_timing": "acceptance gate: criterion 12",
    "posets.is_irreducible_by_splitting": "oracle: the splitting test that is_irreducible's closed form must match",
    "posets.vietoris_map": "pending gate: V-functoriality in monad-laws (ROADMAP item 7)",
    "posets.monotone_maps": "pending gate: V-functoriality in monad-laws (ROADMAP item 7)",
    "posets.chain": "public constructor",
    "posets.antichain": "public constructor",
    "posets.vee": "public constructor",
    "vcat.vcategory": "public constructor",
}

# module.Class.method -> why it stays although no reached code reads it
ALLOWED_METHODS = {
    "duality.ConditionReport.holds": "acceptance gate: criteria 5 and 7 read check_conditions through it",
    "duality.Functional.table": "demo output: the table as Fractions (demo 04)",
    "reports.CheckReport.summary": "demo output: how the demos print a report",
}


class _Module:
    """A module's top-level definitions and the package names it imports."""

    def __init__(self, name: str):
        self.name = name
        self.tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        self.defs: dict[str, ast.stmt] = {}
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            self.defs[n.id] = node
        self.names: dict[str, str] = {}  # local name -> "module.name"
        self.modules: dict[str, str] = {}  # local name -> module
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        self.names[local] = f"{node.module}.{alias.name}"
                    else:
                        self.modules[local] = alias.name

    def imported_modules(self) -> set[str]:
        """The package modules this one imports by ``from .x import ...``
        or ``from . import x``, anywhere in the file."""
        return {key.partition(".")[0] for key in self.names.values()} | set(
            self.modules.values()
        )

    def references(self, node: ast.AST) -> set[str]:
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                if n.id in self.defs:
                    out.add(f"{self.name}.{n.id}")
                elif n.id in self.names:
                    out.add(self.names[n.id])
            elif (
                isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id in self.modules
            ):
                out.add(f"{self.modules[n.value.id]}.{n.attr}")
        return out


def _modules() -> dict[str, _Module]:
    return {p.stem: _Module(p.stem) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}


def _reach(modules: dict[str, _Module], start: set[str]) -> set[str]:
    reached, todo = set(), list(start)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            module, _, name = key.partition(".")
            if name in modules[module].defs:
                todo.extend(modules[module].references(modules[module].defs[name]))
    return reached


def test_every_module_is_reached_from_the_cli_or_the_suites():
    modules = _modules()
    reached, todo = set(), list(ROOTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(modules[name].imported_modules() & set(modules))
    assert set(ROOTS) <= set(modules)
    assert set(modules) - reached == set()


def _roots(modules: dict[str, _Module]) -> set[str]:
    roots = set()
    for root in ROOTS:
        roots |= modules[root].references(modules[root].tree)
        roots |= {f"{root}.{name}" for name in modules[root].defs}
    return roots


def test_every_function_and_class_is_reached_or_allowed():
    modules = _modules()
    roots = _roots(modules)
    defined = {
        f"{m.name}.{name}"
        for m in modules.values()
        for name, node in m.defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached = _reach(modules, roots)
    assert set(ALLOWED) <= defined
    # an allowed name the suites reach needs no entry
    assert set(ALLOWED) & reached == set()
    assert defined - _reach(modules, roots | set(ALLOWED)) == set()


def test_every_method_is_read_or_allowed():
    modules = _modules()
    read = set()
    for root in ROOTS:
        read |= {n.attr for n in ast.walk(modules[root].tree) if isinstance(n, ast.Attribute)}
    for key in _reach(modules, _roots(modules) | set(ALLOWED)):
        module, _, name = key.partition(".")
        node = modules[module].defs.get(name)
        if node is not None:
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    methods = {
        f"{m.name}.{cls.name}.{node.name}": node.name
        for m in modules.values()
        for cls in m.defs.values()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    unread = {key for key, name in methods.items() if name not in read}
    assert set(ALLOWED_METHODS) <= set(methods)
    # an allowed method that reached code reads needs no entry
    assert set(ALLOWED_METHODS) <= unread
    assert unread - set(ALLOWED_METHODS) == set()
