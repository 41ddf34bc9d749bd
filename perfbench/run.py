"""unitcat benchmark: fixed suite configs run as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each pass runs the workload's suite list once in a
fresh interpreter (``worker.py``), so the program's ``lru_cache``s start
empty; passes run one after another, never in parallel, until the next
one would end after ``--seconds``.  Timings are medians over passes, in
units of a yardstick loop timed next to them (``yardstick.py``), because
the machine may slow down for seconds at a time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics; ``trace.overhead_ratio`` is traced over untraced
``wall_calib``.  Every suite run is checked against its expected record; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TARGET_NAMES
from workloads import ANCHORS, SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_UNTRACED_PASSES = 3
NOMINAL_YARDSTICK_S = 0.01
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    pass


def environment_stamp() -> dict:
    """Where the figures come from; figures from different stamps do not compare."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def run_pass(args, runs, trace_out: Path | None = None, header: dict | None = None,
             setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", str(args.seed)]
    for run in runs:
        cmd += ["--run", run.arg]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out), "--trace-header", json.dumps(header)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def spread(values, what: str) -> str:
    if len(values) < 2:
        return f"1 {what}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} {what}, quartiles {q1:.4g}..{q3:.4g}"


def wall_calib(passes) -> float:
    """The suite list's wall time in yardsticks: each suite's wall time over
    the yardstick timed around it, median over passes, summed over suites."""
    return sum(
        statistics.median(p["runs"][i]["elapsed_s"] / p["runs"][i]["yardstick_s"] for p in passes)
        for i in range(len(passes[0]["runs"]))
    )


def check_records(passes, runs) -> tuple[int, int]:
    """(attempted, failed) suite runs; a run fails if its record differs."""
    attempted = failed = 0
    mismatches: dict[str, int] = {}
    for p in passes:
        for record, run in zip(p["runs"], runs):
            attempted += 1
            got = {k: record.get(k) for k in run.expected()}
            if got != run.expected():
                failed += 1
                text = (f"{run.label}: expected {run.expected()}, got {got}"
                        + (f" ({record['error']})" if "error" in record else ""))
                mismatches[text] = mismatches.get(text, 0) + 1
    for text, count in mismatches.items():
        print(f"FAILED x{count} {text}", file=sys.stderr)
    return attempted, failed


def check_trace(traced, runs) -> bool:
    """Whether the tracer saw every call: no target is missing from the
    program, no module binding of one was left unwrapped, no recorded
    anchor reads 0, and the counts repeat across traced passes.  A
    recorded anchor that moved but is not 0 is listed and does not fail,
    since a change to the program may move it on purpose."""
    ok = True
    trace = traced[0]["trace"]
    for name in trace["missing"]:
        ok = False
        print(f"FAILED: {name} is not in the program; its metrics would read 0", file=sys.stderr)
    for binding in sorted({b for p in traced for b in p["trace"]["unwrapped"]}):
        ok = False
        print(f"FAILED: {binding} was not wrapped by the tracer", file=sys.stderr)
    first = [r["counts"] for r in traced[0]["runs"]]
    repeat = all([r["counts"] for r in p["runs"]] == first for p in traced[1:])
    if not repeat:
        ok = False
        print("FAILED: traced call counts differ between passes of one run", file=sys.stderr)
    checked = moved = 0
    for run, counts in zip(runs, first):
        for name, recorded in ANCHORS.get(run.label, {}).items():
            checked += 1
            got = counts.get(name, 0)
            if got == 0:
                ok = False
                print(f"FAILED: anchor {run.label} {name}.calls reads 0 "
                      f"(recorded {recorded}): a binding was missed", file=sys.stderr)
            elif got != recorded:
                moved += 1
                print(f"anchor moved: {run.label} {name}.calls = {got} (recorded {recorded})")
    print(f"anchors: {checked} checked, {moved} moved; counts "
          + ("repeat" if repeat else "DIFFER") + f" across {len(traced)} traced passes")
    return ok


def end_to_end_metrics(untraced, setups) -> dict:
    walls = [p["wall_s"] for p in untraced]
    print(f"wall_s {statistics.median(walls):.6g} s, not bounded ({spread(walls, 'passes')})")
    setups = setups + untraced
    raw = [p["setup_s"] for p in setups]
    print(f"setup_s as measured {statistics.median(raw):.6g} s ({spread(raw, 'set-ups')})")
    rss = [p["peak_rss_mb"] for p in untraced]
    return {
        "wall_calib": wall_calib(untraced),
        "setup_s": statistics.median(
            p["setup_s"] / p["setup_yardstick_s"] * NOMINAL_YARDSTICK_S for p in setups
        ),
        "peak_rss_mb": statistics.median(rss),
    }


def layer_metrics(traced, untraced) -> dict:
    metrics = {}
    first = traced[0]["trace"]
    for name in TARGET_NAMES:
        calls = first["calls"][name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = statistics.median(p["trace"]["self_s"][name] for p in traced)
        metrics[f"{name}.pass_ratio"] = first["passes"][name] / calls if calls else 0.0
        if name in first["distinct"]:
            metrics[f"{name}.useful_ratio"] = first["distinct"][name] / calls if calls else 0.0
    intervals = [ms for p in traced for ms in p["trace"]["instance_ms"]]
    metrics["suites.instance_ms.p50"] = percentile(intervals, 50) if intervals else 0.0
    metrics["suites.instance_ms.p99"] = percentile(intervals, 99) if intervals else 0.0
    metrics["suites.instances"] = sum(r.get("instances", 0) for r in traced[0]["runs"])
    metrics["trace.overhead_ratio"] = wall_calib(traced) / wall_calib(untraced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="unitcat benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="max-size 1-2 configs that finish in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "unitcat").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'unitcat'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stamp = environment_stamp()
    print("env " + json.dumps(stamp))
    runs = (SMOKE if args.smoke else WORKLOADS)[args.workload]

    header = {"env": stamp, "workload": args.workload, "smoke": args.smoke}
    trace_out = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_out = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"

    deadline = time.monotonic() + args.seconds
    untraced, traced, setups, rounds = [], [], [], []
    try:
        while True:
            began = time.monotonic()
            if not args.trace:
                setups.append(run_pass(args, runs, setup_only=True))
            untraced.append(run_pass(args, runs))
            if args.trace:
                traced.append(run_pass(args, runs, trace_out, header))
            rounds.append(time.monotonic() - began)
            enough = args.trace or len(untraced) >= MIN_UNTRACED_PASSES
            if enough and time.monotonic() + statistics.median(rounds) > deadline:
                break
    except PassFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted, failed = check_records(untraced + traced, runs)
    correct = failed == 0
    print(f"error_rate {failed / attempted:.4g} ratio ({failed} of {attempted} suite runs)")
    if args.trace:
        correct = check_trace(traced, runs) and correct
        computed = layer_metrics(traced, untraced)
        wanted = bench["per_layer"]
    else:
        computed = end_to_end_metrics(untraced, setups)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
