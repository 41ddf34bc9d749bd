"""The benchmark's own test, on the smoke configs (max-size 1-2).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert list(SMOKE) == list(WORKLOADS)
    assert all(run.max_size <= 2 for runs in SMOKE.values() for run in runs)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(SMOKE[workload])
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        assert "counts repeat" in proc.stdout
    else:
        assert "error_rate 0 " in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "scan", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_trace_check_fails_on_a_missed_binding():
    import run
    from workloads import ANCHORS

    label, anchors = next(iter(ANCHORS.items()))
    runs = [next(r for rs in WORKLOADS.values() for r in rs if r.label == label)]

    def traced(counts, missing=(), unwrapped=()):
        trace = {"missing": list(missing), "unwrapped": list(unwrapped)}
        return [{"runs": [{"counts": counts}], "trace": trace}]

    assert run.check_trace(traced(dict(anchors)), runs)
    moved = {name: calls + 1 for name, calls in anchors.items()}
    assert run.check_trace(traced(moved), runs)
    dropped = dict(anchors)
    dropped.pop(next(iter(anchors)))
    assert not run.check_trace(traced(dropped), runs)
    assert not run.check_trace(traced(dict(anchors), missing=["duality.passes_cut"]), runs)
    assert not run.check_trace(
        traced(dict(anchors), unwrapped=["unitcat.suites.run_suite (suites.run_suite)"]), runs
    )
