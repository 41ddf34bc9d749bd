"""Every target of the benchmark's outside-in tracer (perfbench/tracer.py)
names a function the program still has; a renamed or removed one would
make the traced run fail.  The tracer is read, not imported as a module."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    assert targets
    for name, module_name, attr, _, _ in targets:
        module = importlib.import_module(f"unitcat.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert member in vars(owner), name
        assert callable(getattr(owner, member)), name
