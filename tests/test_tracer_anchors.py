"""One traced pass of every benchmark workload config reads every count
anchor: the check a traced benchmark run makes (perfbench/run.py's
``check_trace`` and ``check_records``), made here on one pass.

The pass runs ``perfbench/worker.py`` with the outside-in tracer in a
subprocess, over every config in ``perfbench/workloads.WORKLOADS`` at
once.  It fails when a tracer target is missing from the program, a
module binding of one was left unwrapped, a recorded anchor
(``perfbench/anchors.json``) reads 0, or a run's record differs from its
expected record.  An anchor that moved but is not 0 passes, as it does in
the benchmark.  Nothing under ``perfbench/`` is written: the spans go to
a temporary file and no bytecode is cached.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_one_traced_pass_reads_every_anchor(tmp_path):
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    runs = [run for configs in workloads["WORKLOADS"].values() for run in configs]
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--seed", "21"]
    for run in runs:
        cmd += ["--run", run.arg]
    cmd += ["--trace-out", str(tmp_path / "spans.jsonl"), "--trace-header", "{}"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["trace"]["missing"] == []
    assert result["trace"]["unwrapped"] == []
    anchors = workloads["ANCHORS"]
    zero = []
    for run, record in zip(runs, result["runs"], strict=True):
        got = {key: record.get(key) for key in run.expected()}
        assert got == run.expected(), (run.label, record.get("error"))
        zero += [
            f"{run.label} {name}"
            for name in anchors.get(run.label, {})
            if record["counts"].get(name, 0) == 0
        ]
    assert zero == []
