"""Every demo runs and prints the same text, pinned by the SHA-256 of its
stdout.  A change that alters a demo's output on purpose updates the
digest here and says so in the change log."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_tnorm_arithmetic.py": "ef7e6995a9dfba0990436ce9854f496753f2f4bb6c492333e701ea15f00944c7",
    "03_vietoris_monad.py": "8e261577069f52f0210070260e4953cae20ab002569b2e0100d1e96ff785e440",
    "04_functional_duality.py": "87abdcf7e1a2050c23a308f3e2e345b6d47645de9fa861166d479c519530b176",
    "05_density.py": "3b20361864992ab78c0516006e6ed4539de6b1cb5481b58ede7d582b2f870b16",
    "06_enriched_roundtrip.py": "b63daf69b15fbf5f8da119b54ad22aeacaa4cc85e0e159ea0be4e9989c7a5150",
}


def test_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
