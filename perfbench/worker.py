"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --seed N --run SUITE/TNORM/GRID/MAX_SIZE/CORPUS ...
                                [--setup-only] [--trace-out FILE --trace-header JSON]

Imports ``unitcat`` from the ``src`` directory of this checkout, builds
one config per ``--run``, runs each with ``suites.run_suite`` (the call
``unitcat verify`` makes) and prints one JSON line: set-up time and the
yardstick timed after it, peak RSS, and one record per suite run with
its wall time and the yardstick timed around it.  With
``--trace-out`` the suite list runs under the outside-in tracer, the
spans are written to that file and the line also carries the per-layer
counts and self times.  With ``--setup-only`` it stops after set-up.

Set-up is timed from before anything ``unitcat`` might import too: this
module imports only ``sys`` and ``time`` ahead of it and reads the
configs from plain ``--run`` values, so a standard-library module the
program starts or stops importing shows in ``setup_s``.
"""

import sys
import time


def plain_args(argv: list) -> tuple:
    """The ``--seed`` value and the ``--run`` values as plain tuples, read
    with ``str`` methods only, so that nothing is imported before set-up."""
    seed, runs = 0, []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seed":
            seed = int(value)
        elif flag == "--run":
            suite, tnorm, grid, max_size, corpus = value.split("/")
            runs.append((suite, tnorm, int(grid), int(max_size), int(corpus)))
    return seed, runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    start = time.perf_counter()
    seed, runs = plain_args(argv)
    import unitcat
    from unitcat import suites
    from unitcat.instances import parse_tnorm

    configs = [
        suites.SuiteConfig(
            suite=suite,
            quantale=parse_tnorm(tnorm),
            grid=grid,
            max_size=max_size,
            seed=seed,
            corpus=corpus,
        )
        for suite, tnorm, grid, max_size, corpus in runs
    ]
    setup_s = time.perf_counter() - start

    # Imported only now, so that what they load is not counted as set-up.
    import argparse
    import json
    import resource
    import statistics
    from pathlib import Path

    from tracer import Tracer, install
    from yardstick import Yardstick

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run", action="append", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--trace-header", default="{}")
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(unitcat.__file__).resolve().parents:
        print(f"unitcat imported from {unitcat.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    stick = Yardstick(ticks=tracer is None)
    stick.before()
    setup = {"setup_s": setup_s, "setup_yardstick_s": statistics.fmean(stick.samples)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    records = []
    intervals_ms: list[float] = []
    wall_s = 0.0
    for config in configs:
        before = {name: stat[0] for name, stat in tracer.stats.items()} if tracer else {}
        if tracer:
            tracer.absorb_marks.clear()
        record = {"suite": config.suite}
        stick.before()
        began = time.perf_counter()
        stick.start_ticks()
        try:
            report = suites.run_suite(config)
        except Exception as exc:  # a suite that raises is a failed run; the pass goes on
            report = None
            record.update(exit_code=None, error=f"{type(exc).__name__}: {exc}")
        finally:
            stick.stop_ticks()
            ended = time.perf_counter()
        if report is not None:
            record.update(
                exit_code=report.exit_code(),
                instances=report.instances,
                failures=len(report.failures),
                findings=len(report.findings),
            )
        elapsed = ended - began - stick.inside_s
        wall_s += elapsed
        record["elapsed_s"] = elapsed
        record["yardstick_s"] = stick.after()
        if tracer:
            marks = [began] + tracer.absorb_marks
            intervals_ms.extend((b - a) * 1000 for a, b in zip(marks, marks[1:]))
            record["counts"] = {
                name: stat[0] - before[name]
                for name, stat in tracer.stats.items()
                if stat[0] != before[name]
            }
        records.append(record)

    result = {
        **setup,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": records,
    }
    if tracer:
        result["trace"] = {
            "calls": {name: stat[0] for name, stat in tracer.stats.items()},
            "self_s": {name: stat[1] for name, stat in tracer.stats.items()},
            "passes": {name: stat[2] for name, stat in tracer.stats.items()},
            "distinct": {name: len(keys) for name, keys in tracer.keys.items()},
            "instance_ms": intervals_ms,
            "missing": tracer.missing,
            "unwrapped": tracer.unwrapped(),
        }
        header = json.loads(args.trace_header)
        header.update(seed=args.seed, bindings=tracer.bindings)
        tracer.write(args.trace_out, header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
