"""Named verification sweeps over enumerated instances.

Every suite is deterministic for a fixed (config, seed): instances are
enumerated in a fixed order, sampling uses one seeded generator, and the
witness sections of two runs with the same config compare byte-for-byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from . import duality, enriched, posets, stone, tnorms
from .instances import GRID_CAP, POSET_SIZE_CAP, InstanceDoc, InstanceError
from .posets import FinPoset, all_posets, kleisli_compose, upper_sets
from .reports import SuiteReport
from .tnorms import GridChain, Quantale, SampleSpec, grid_closed, lukasiewicz
from .vcat import from_poset, unit_category

# Per-suite bounds on the config: run_suite refuses a config above one
# before the runner, so a report is always of the config asked for.
SUITE_CAPS = {
    "total-partial": {"max_size": 3},
    "enriched-roundtrip": {"max_size": 3},
    "lemma1": {"max_size": 3},
    "tensor-maximality": {"grid": 2, "max_size": 2},
}

# The instance document kinds each suite reads; run_suite refuses the rest.
DOCUMENT_KINDS = {
    "monad-laws": ("poset",),
    "representability": ("poset",),
    "twovalued": ("poset",),
    "stone-weierstrass": ("poset", "generators"),
}


@dataclass
class SuiteConfig:
    suite: str
    quantale: Quantale = field(default_factory=lukasiewicz)
    grid: int = 2
    max_size: int = 2
    seed: int = 0
    corpus: int = 1000
    instance: Optional[InstanceDoc] = None

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "tnorm": self.quantale.name,
            "grid": self.grid,
            "max-size": self.max_size,
            "seed": self.seed,
            "corpus": self.corpus,
        }


def run_suite(config: SuiteConfig) -> SuiteReport:
    if config.suite not in SUITES:
        raise InstanceError("unknown-suite", f"unknown suite {config.suite!r}")
    for key, low in (("grid", 1), ("max_size", 1), ("corpus", 0)):
        if getattr(config, key) < low:
            raise InstanceError("bad-config", f"{key.replace('_', '-')} must be at least {low}")
    if config.max_size > POSET_SIZE_CAP:
        raise InstanceError("cap-exceeded", f"max size capped at {POSET_SIZE_CAP}")
    if config.grid > GRID_CAP:
        raise InstanceError("cap-exceeded", f"grid capped at {GRID_CAP}")
    for key, cap in SUITE_CAPS.get(config.suite, {}).items():
        if getattr(config, key) > cap:
            flag = key.replace("_", "-")
            raise InstanceError("cap-exceeded", f"{config.suite} caps --{flag} at {cap}")
    doc = config.instance
    if doc is not None and doc.kind not in DOCUMENT_KINDS.get(config.suite, ()):
        raise InstanceError("unsupported-document", f"{config.suite} reads no {doc.kind} document")
    if doc is not None and (
        doc.quantale not in (None, config.quantale) or doc.grid not in (None, config.grid)
    ):
        raise InstanceError(
            "document-mismatch",
            f"document tensor or grid differs from the run's ({config.quantale.name}, n={config.grid})",
        )
    report = SuiteReport(suite=config.suite, config=config.echo())
    start = time.perf_counter()
    _RUNNERS[config.suite](config, report)
    report.elapsed_s = time.perf_counter() - start
    return report


def _poset_sweep(config: SuiteConfig):
    if config.instance is not None:
        yield "instance", config.instance.poset
        return
    for size in range(1, config.max_size + 1):
        for k, P in enumerate(all_posets(size)):
            yield f"poset {size}.{k}", P


def _run_quantale_axioms(config: SuiteConfig, report: SuiteReport):
    q = config.quantale
    if grid_closed(q, config.grid):
        for n in range(1, config.grid + 1):
            report.absorb(tnorms.verify_quantale_axioms(q, GridChain(n)), f"Q_{n}")
            report.absorb(tnorms.no_zero_divisor_audit(q, GridChain(n)), f"Q_{n}")
    else:
        if config.corpus < 1:
            raise InstanceError(
                "bad-config", f"corpus must be at least 1 to sample an open grid under {q.name}"
            )
        report.absorb(
            tnorms.verify_quantale_axioms_sampled(q, config.seed, config.corpus),
            "sampled-triples",
        )
        pair_count = max(2, int(round(config.corpus ** 0.5)))
        report.absorb(
            tnorms.no_zero_divisor_audit(
                q, SampleSpec(seed=config.seed + 1, count=pair_count)
            ),
            "sampled-pairs",
        )


def _run_monad_laws(config: SuiteConfig, report: SuiteReport):
    for label, P in _poset_sweep(config):
        report.absorb(posets.verify_monad_laws(P), label)


def _run_representability(config: SuiteConfig, report: SuiteReport):
    q = config.quantale
    _require_closed(q, config.grid)
    for label, P in _poset_sweep(config):
        report.absorb(duality.representability_audit(P, q, config.grid), label)


def _run_functoriality(config: SuiteConfig, report: SuiteReport):
    """C(psi . phi) = C(phi) . C(psi) on composable pairs of 0/1 distributors.

    The exhaustive part takes every pair over the posets of size <= 2 and
    computes each distinct (phi, Y, X)'s map once: the composite of a pair
    is a distributor over the same posets, so its map is usually kept
    already, and is computed on a miss.  The sampled part draws seeded
    pairs over the configured size bound and computes its three maps
    directly; its distributors rarely repeat, so it keeps none.
    """
    q = config.quantale
    _require_closed(q, config.grid)
    n = config.grid
    spaces: dict = {}

    def space(P: FinPoset):
        if P.leq not in spaces:
            spaces[P.leq] = duality.function_space(P, q, n)
        return spaces[P.leq]

    def c_map(phi, Y: FinPoset, X: FinPoset):
        return duality.c_of_distributor(phi, space(Y), space(X))

    def check(label, via_composite, lhs, rhs):
        composed = tuple(map(lhs.__getitem__, rhs))
        report.instances += 1
        report.checks += len(composed)
        if via_composite != composed:
            report.failures.append(f"[{label}] composite map mismatch")

    # exhaustive over tiny posets: each distinct (phi, Y, X) is mapped once
    small = [P for size in (1, 2) for P in all_posets(size)]
    maps: dict = {}

    def kept_map(phi, Y: FinPoset, X: FinPoset):
        key = (phi, Y.leq, X.leq)
        cmap = maps.get(key)
        if cmap is None:
            cmap = maps[key] = c_map(phi, Y, X)
        return cmap

    for xi, X in enumerate(small):
        for yi, Y in enumerate(small):
            lhss = [(phi, kept_map(phi, Y, X)) for phi in posets.continuous_distributors(X, Y)]
            for zi, Z in enumerate(small):
                rhss = [
                    (phi2, kept_map(phi2, Z, Y)) for phi2 in posets.continuous_distributors(Y, Z)
                ]
                for a, (phi, lhs) in enumerate(lhss):
                    for b, (phi2, rhs) in enumerate(rhss):
                        via_composite = kept_map(kleisli_compose(phi2, phi), Z, X)
                        check(f"exhaustive {xi}.{yi}.{zi}.{a}.{b}", via_composite, lhs, rhs)

    # seeded composable pairs over the configured size bound; nothing kept
    rng = random.Random(config.seed)
    pool = [P for _, P in _poset_sweep(config)]
    for k in range(config.corpus):
        X, Y, Z = (pool[rng.randrange(len(pool))] for _ in range(3))
        phi = _random_distributor(rng, X, Y)
        phi2 = _random_distributor(rng, Y, Z)
        via_composite = c_map(kleisli_compose(phi2, phi), Z, X)
        check(f"sampled {k}", via_composite, c_map(phi, Y, X), c_map(phi2, Z, Y))


def _random_distributor(rng: random.Random, X: FinPoset, Y: FinPoset):
    """Random rows repaired to be upper in Y and antitone along X."""
    ups = upper_sets(Y)
    raw = [ups[rng.randrange(len(ups))] for _ in range(X.size)]
    rows = []
    for x in range(X.size):
        acc = (1 << Y.size) - 1
        for x2 in range(X.size):
            if X.leq[x2][x]:
                acc &= raw[x2]
        rows.append(acc)
    return tuple(
        tuple(int(rows[x] >> y & 1) for y in range(Y.size)) for x in range(X.size)
    )


def _run_total_partial(config: SuiteConfig, report: SuiteReport):
    q = config.quantale
    _require_closed(q, config.grid)
    pool = [P for _, P in _poset_sweep(config)]
    # held for the run, so each audit of the X x Y loop is served the
    # space of its posets, not a rebuild
    held = [duality.function_space(P, q, config.grid) for P in pool]
    for xi, X in enumerate(pool):
        for yi, Y in enumerate(pool):
            for k, phi in enumerate(posets.continuous_distributors(X, Y)):
                rep = duality.total_partial_audit(phi, X, Y, q, config.grid)
                report.absorb(rep, f"{xi}.{yi}.{k}")


def _run_stone(config: SuiteConfig, report: SuiteReport):
    q = config.quantale
    doc = config.instance
    if doc is not None and doc.kind == "generators":
        _require_closed(q, config.grid)
        space = duality.function_space(doc.poset, q, config.grid)
        try:
            gens = [space.index[f] for f in doc.functions]
        except KeyError as exc:
            raise InstanceError(
                "bad-document", f"generator {exc.args[0]} is not in the function space"
            )
        report.absorb(stone.sw_audit(doc.poset, q, config.grid, generators=gens), "instance")
        return
    _require_closed(q, *range(1, config.grid + 1))
    for label, P in _poset_sweep(config):
        for n in range(1, config.grid + 1):
            report.absorb(stone.sw_audit(P, q, n), f"{label} n={n}")


def _enriched_sweep(config: SuiteConfig):
    q = config.quantale
    for size in range(1, config.max_size + 1):
        for n in range(1, config.grid + 1):
            for k, X in enumerate(
                enriched.enumerate_enriched_categories(size, q, n)
            ):
                yield f"size {size} n={n} #{k}", X, n


def _run_enriched_roundtrip(config: SuiteConfig, report: SuiteReport):
    _require_closed(config.quantale, *range(1, config.grid + 1))
    for label, X, n in _enriched_sweep(config):
        # held, so both audits are served one space
        held = enriched.enumerate_cx(X, n)
        report.absorb(enriched.adjunction_audit(X, n), label)
        report.absorb(enriched.pointsep_extension_audit(X, n), label)


def _run_lemma1(config: SuiteConfig, report: SuiteReport):
    _require_closed(config.quantale, *range(1, config.grid + 1))
    for label, X, n in _enriched_sweep(config):
        report.absorb(enriched.lemma1_audit(X, n), label)


def _run_twovalued(config: SuiteConfig, report: SuiteReport):
    q = config.quantale
    _require_closed(q, config.grid)
    g = unit_category(q)
    for label, P in _poset_sweep(config):
        X = from_poset(P, q)
        # held, so grid_distributors and every row's audit share one space
        held = enriched.enumerate_cx(X, config.grid)
        for k, phi in enumerate(enriched.grid_distributors(g, X, config.grid)):
            rep = enriched.twovalued_audit(phi, g, X, config.grid)
            report.absorb(rep, f"{label} row {k}")


def _run_tensor_maximality(config: SuiteConfig, report: SuiteReport):
    q = config.quantale
    n = config.grid
    _require_closed(q, n)
    for label, P in _poset_sweep(config):
        X = from_poset(P, q)
        # held, so the audits are served the space that psi0s index into
        space = enriched.enumerate_cx(X, n)
        reps = enriched.tensor_maximality_audits(X, range(space.size), n)
        for fi, rep in enumerate(reps):
            report.absorb(rep, f"{label} psi0={fi}")


def _require_closed(q: Quantale, *grids: int):
    """Refuse, before any work, the first grid of the run that is not closed."""
    for n in grids:
        if not grid_closed(q, n):
            raise InstanceError(
                "grid-not-closed",
                f"Q_{n} is not closed under the {q.name} tensor: exhaustive suites need closure",
            )


_RUNNERS = {
    "quantale-axioms": _run_quantale_axioms,
    "monad-laws": _run_monad_laws,
    "representability": _run_representability,
    "functoriality": _run_functoriality,
    "total-partial": _run_total_partial,
    "stone-weierstrass": _run_stone,
    "enriched-roundtrip": _run_enriched_roundtrip,
    "lemma1": _run_lemma1,
    "twovalued": _run_twovalued,
    "tensor-maximality": _run_tensor_maximality,
}

SUITES = tuple(_RUNNERS)
