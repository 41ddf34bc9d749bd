"""Workloads of the unitcat benchmark: fixed ``run_suite`` configs.

Each workload is a list of suite runs made one after another in one
fresh interpreter.  Every run carries its expected record: exit code,
instance count, failure count and finding count.  Check counts and
notes are left out of the record on purpose, because a sharper scan
may change them without changing what is verified.

The sizes are below the acceptance-test configs (criteria 8 and 10 take
about 40 s and 20 s on a 2-core machine) so that one pass takes a few
seconds and a measured run holds several passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class SuiteRun:
    suite: str
    tnorm: str = "lukasiewicz"
    grid: int = 2
    max_size: int = 2
    corpus: int = 1000
    instances: int = 0
    exit_code: int = 0
    failures: int = 0
    findings: int = 0

    @property
    def label(self) -> str:
        text = f"{self.suite} {self.tnorm} g{self.grid} m{self.max_size}"
        if self.suite == "functoriality":
            text += f" c{self.corpus}"
        return text

    @property
    def arg(self) -> str:
        """The worker's ``--run`` value."""
        return f"{self.suite}/{self.tnorm}/{self.grid}/{self.max_size}/{self.corpus}"

    def expected(self) -> dict:
        return {
            "exit_code": self.exit_code,
            "instances": self.instances,
            "failures": self.failures,
            "findings": self.findings,
        }


# Why each workload is here is stated in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[SuiteRun, ...]] = {
    "distributors": (
        SuiteRun("total-partial", grid=2, max_size=2, instances=98),
        SuiteRun("total-partial", grid=3, max_size=2, instances=98),
        SuiteRun("total-partial", grid=4, max_size=2, instances=98),
        SuiteRun("total-partial", grid=5, max_size=2, instances=98),
        SuiteRun("total-partial", "min", grid=2, max_size=2, instances=98),
        SuiteRun("total-partial", "min", grid=3, max_size=2, instances=98),
        SuiteRun("total-partial", "min", grid=4, max_size=2, instances=98),
        SuiteRun("functoriality", grid=2, max_size=4, corpus=500, instances=3240),
    ),
    "roundtrip": (
        SuiteRun("enriched-roundtrip", grid=2, max_size=2, instances=26),
        SuiteRun("enriched-roundtrip", grid=3, max_size=2, instances=58),
    ),
    "scan": (
        SuiteRun("representability", grid=3, max_size=2, instances=4),
        SuiteRun("representability", "min", grid=3, max_size=2, instances=4),
    ),
    "sweep": (
        SuiteRun("stone-weierstrass", grid=2, max_size=4, instances=484),
        SuiteRun("stone-weierstrass", "min", grid=2, max_size=4, instances=484),
        SuiteRun("lemma1", grid=2, max_size=3, instances=288),
        SuiteRun("lemma1", "min", grid=2, max_size=3, instances=199),
        SuiteRun("monad-laws", max_size=4, instances=242),
    ),
}

# Smoke mode: the same suites at max-size 1-2, for the benchmark's own test.
SMOKE: dict[str, tuple[SuiteRun, ...]] = {
    "distributors": (
        SuiteRun("total-partial", grid=2, max_size=1, instances=2),
        SuiteRun("functoriality", grid=2, max_size=2, corpus=50, instances=2790),
    ),
    "roundtrip": (
        SuiteRun("enriched-roundtrip", grid=2, max_size=2, instances=26),
    ),
    "scan": (
        SuiteRun("representability", grid=2, max_size=2, instances=4),
        SuiteRun("representability", "min", grid=2, max_size=2, instances=4),
    ),
    "sweep": (
        SuiteRun("stone-weierstrass", grid=2, max_size=2, instances=8),
        SuiteRun("lemma1", grid=2, max_size=2, instances=13),
        SuiteRun("monad-laws", max_size=2, instances=4),
    ),
}

# Count anchors: traced call counts per suite run (label -> target ->
# calls), recorded at the commit that introduced the benchmark from two
# seeds; counts that differ between seeds are left out.  A binding the
# tracer missed reads short or zero here.  An anchor that reads 0 fails
# the traced run.  A program change may move them on purpose (a scan that
# visits fewer tables), so an anchor that moved but is not 0 is reported,
# not failed; a count that differs between two traced passes of one run
# fails the run.
ANCHORS: dict[str, dict[str, int]] = json.loads(
    (Path(__file__).resolve().parent / "anchors.json").read_text(encoding="utf-8")
)
