"""Continuous t-norms on [0,1] and their residuals, in exact arithmetic.

Implements the minimum, product and Lukasiewicz tensors plus the piecewise
ordinal-sum construction, each a ``Quantale`` with its right adjoint hom,
and the audit helpers (axiom sweeps, zero-divisor checks, grid closure)
that the exhaustive suites are built on.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Optional, Union

from .reports import CheckReport
from .values import ONE, ZERO, as_value, format_value


class MalformedOrdinalSum(ValueError):
    """Ordinal-sum segments must satisfy a < b with disjoint open intervals."""


@dataclass(frozen=True)
class Quantale:
    """[0,1] with a chosen continuous t-norm and its residual: each
    subclass is one t-norm, with its ``name``, ``tensor`` and ``hom``."""

    # every continuous t-norm has unit 1; not a field
    unit: ClassVar[Fraction] = ONE
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grid(self, n: int) -> "GridOps":
        """The GridOps of Q_n, built on first use and kept on this quantale;
        raises GridNotClosed, keeping nothing, when Q_n is not closed."""
        gops = self._grids.get(n)
        if gops is None:
            gops = self._grids[n] = GridOps(self, n)
        return gops

    def tensor_ranks(self, values: tuple[Fraction, ...]) -> list[list[int]]:
        """For ascending distinct ``values``: row i, column j counts the
        values below values[i] tensor values[j], so the tensor exceeds
        values[k] exactly when k is less than the count.  Taken in exact
        Fractions on first use and kept on this quantale, one table per
        tuple."""
        table = self._ranks.get(values)
        if table is None:
            table = self._ranks[values] = [
                [bisect_left(values, self.tensor(u, v)) for v in values] for u in values
            ]
        return table


@dataclass(frozen=True)
class Minimum(Quantale):
    name: str = "minimum"

    def tensor(self, u: Fraction, v: Fraction) -> Fraction:
        return u if u <= v else v

    def hom(self, u: Fraction, v: Fraction) -> Fraction:
        return ONE if u <= v else v


@dataclass(frozen=True)
class Product(Quantale):
    name: str = "product"

    def tensor(self, u: Fraction, v: Fraction) -> Fraction:
        return u * v

    def hom(self, u: Fraction, v: Fraction) -> Fraction:
        if u == 0:
            return ONE
        q = v / u
        return q if q < 1 else ONE


@dataclass(frozen=True)
class Lukasiewicz(Quantale):
    name: str = "lukasiewicz"

    def tensor(self, u: Fraction, v: Fraction) -> Fraction:
        s = u + v - 1
        return s if s > 0 else ZERO

    def hom(self, u: Fraction, v: Fraction) -> Fraction:
        s = 1 - u + v
        return s if s < 1 else ONE


@dataclass(frozen=True)
class OrdinalSum(Quantale):
    """Piecewise tensor: rescaled inner quantales on [a_i, b_i], minimum elsewhere."""

    segments: tuple[tuple[Fraction, Fraction, Quantale], ...]
    name: str = "ordinal-sum"

    def __post_init__(self):
        segs = []
        for a, b, inner in self.segments:
            a, b = as_value(a), as_value(b)
            if not a < b:
                raise MalformedOrdinalSum(f"segment needs a < b, got [{a}, {b}]")
            segs.append((a, b, inner))
        segs.sort(key=lambda s: s[0])
        for (_, b1, _), (a2, _, _) in zip(segs, segs[1:]):
            if a2 < b1:
                raise MalformedOrdinalSum(f"open intervals overlap near {a2}")
        object.__setattr__(self, "segments", tuple(segs))

    def _segment_for(self, u: Fraction, v: Fraction):
        for a, b, inner in self.segments:
            if a <= u <= b and a <= v <= b:
                return a, b, inner
        return None

    def tensor(self, u: Fraction, v: Fraction) -> Fraction:
        seg = self._segment_for(u, v)
        if seg is None:
            return u if u <= v else v
        a, b, inner = seg
        w = b - a
        return a + w * inner.tensor((u - a) / w, (v - a) / w)

    def hom(self, u: Fraction, v: Fraction) -> Fraction:
        if u <= v:
            return ONE
        seg = self._segment_for(u, v)
        if seg is None:
            return v
        a, b, inner = seg
        w = b - a
        return a + w * inner.hom((u - a) / w, (v - a) / w)


minimum, product, lukasiewicz = Minimum, Product, Lukasiewicz


def ordinal_sum(*segments) -> OrdinalSum:
    """Each segment is (a, b, inner) with inner a Quantale."""
    return OrdinalSum(segments)


def is_nilpotent(q: Quantale, u) -> tuple[bool, Optional[int]]:
    """Whether some finite tensor power of u (u != 0) hits 0; returns the least n.

    Decided exactly per variant: minimum and product have no nilpotents,
    Lukasiewicz has least power ceil(1/(1-u)), and ordinal sums reduce to
    the rescaled element of their zero-based segment.
    """
    u = as_value(u)
    if u == 0 or isinstance(q, (Minimum, Product)):
        return False, None
    if isinstance(q, Lukasiewicz):
        if u == 1:
            return False, None
        gap = 1 - u
        n = (gap.denominator + gap.numerator - 1) // gap.numerator  # ceil(1/(1-u))
        return True, n
    if isinstance(q, OrdinalSum):
        for a, b, inner in q.segments:
            if a == 0 and u <= b:
                return is_nilpotent(inner, u / b)
        return False, None
    raise TypeError(f"unknown t-norm {q!r}")


def nilpotent_free(q: Quantale) -> bool:
    """True when no element of [0,1] is nilpotent for this tensor."""
    if isinstance(q, (Minimum, Product)):
        return True
    if isinstance(q, Lukasiewicz):
        return False
    return all(a != 0 or nilpotent_free(inner) for a, b, inner in q.segments)


@dataclass(frozen=True)
class GridChain:
    """The chain Q_n = {0, 1/n, ..., 1}; the carrier of every exhaustive sweep."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("grid needs n >= 1")

    @property
    def elements(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.n) for k in range(self.n + 1))


class GridNotClosed(ValueError):
    """The chosen tensor does not keep Q_n closed under tensor/hom/minus."""

    code = "grid-not-closed"


def grid_closed(q: Quantale, n: int) -> bool:
    """True iff Q_n is closed under tensor, hom and truncated minus."""
    try:
        q.grid(n)
    except GridNotClosed:
        return False
    return True


class GridOps:
    """Integer-level tensor/hom/minus/join tables over a closed grid Q_n.

    Level i stands for the value i/n.  The one place that decides closure
    (raising GridNotClosed) and converts Fractions to levels and back.
    ``Quantale.grid(n)`` builds one per quantale and grid.
    """

    def __init__(self, q: Quantale, n: int):
        self.quantale = q
        self.n = n
        self.values = GridChain(n).elements
        self._levels = {v: i for i, v in enumerate(self.values)}
        try:
            self.tensor_t = [
                [self.index(q.tensor(u, v)) for v in self.values] for u in self.values
            ]
            self.hom_t = [
                [self.index(q.hom(u, v)) for v in self.values] for u in self.values
            ]
        except GridNotClosed:
            raise GridNotClosed(f"Q_{n} is not closed under the {q.name} tensor") from None
        # truncated minus and join of grid points always stay on the grid
        self.minus_t = [[max(i - j, 0) for j in range(n + 1)] for i in range(n + 1)]
        self.join_t = [[max(i, j) for j in range(n + 1)] for i in range(n + 1)]

    def index(self, v: Fraction) -> int:
        """The level of the grid point v, looked up among ``values``."""
        i = self._levels.get(v)
        if i is None:
            raise GridNotClosed(f"{v} is not a point of Q_{self.n}")
        return i


# the largest denominator a sampled rational is drawn with
SAMPLE_MAX_DEN = 60


@dataclass(frozen=True)
class SampleSpec:
    """Seeded rational sample: the honest domain for non-grid-closed tensors."""

    seed: int
    count: int


def rational_sample(spec: SampleSpec) -> tuple[Fraction, ...]:
    """Deterministic sample of unit-interval rationals, always containing 0 and 1."""
    rng = random.Random(spec.seed)
    out = [ZERO, ONE]
    while len(out) < spec.count:
        den = rng.randint(1, SAMPLE_MAX_DEN)
        out.append(Fraction(rng.randint(0, den), den))
    return tuple(out[: spec.count])


Domain = Union[GridChain, SampleSpec]


def _domain_values(domain: Domain) -> tuple[Fraction, ...]:
    if isinstance(domain, GridChain):
        return domain.elements
    return rational_sample(domain)


def verify_quantale_axioms(q, domain: Domain) -> CheckReport:
    """Check the commutative-quantale laws and the tensor/hom adjunction.

    Exhaustive over all triples of the domain; failures are reported with
    the offending tuple, never raised.  ``q`` only needs tensor/hom/unit,
    so corrupted tables can be audited as negative controls.
    """
    values = _domain_values(domain)
    failures = []
    checked = 0

    def wit(law, *args):
        rendered = ", ".join(format_value(a) for a in args)
        failures.append(f"{law} at ({rendered})")

    unit = q.unit
    for u in values:
        checked += 1
        if q.tensor(unit, u) != u and len(failures) < 5:
            wit("unit", unit, u)
    for u in values:
        for v in values:
            checked += 1
            if q.tensor(u, v) != q.tensor(v, u) and len(failures) < 5:
                wit("commutativity", u, v)
    for u in values:
        for v in values:
            tuv = q.tensor(u, v)
            for w in values:
                checked += 3
                if q.tensor(tuv, w) != q.tensor(u, q.tensor(v, w)):
                    if len(failures) < 5:
                        wit("associativity", u, v, w)
                if (tuv <= w) != (v <= q.hom(u, w)):
                    if len(failures) < 5:
                        wit("adjunction", u, v, w)
                if v <= w and q.tensor(u, v) > q.tensor(u, w):
                    if len(failures) < 5:
                        wit("monotonicity", u, v, w)
                join = v if v >= w else w
                if q.tensor(u, join) != max(q.tensor(u, v), q.tensor(u, w)):
                    if len(failures) < 5:
                        wit("join-distribution", u, v, w)
    return CheckReport(
        name=f"quantale-axioms[{getattr(q, 'name', 'custom')}]",
        checked=checked,
        failures=tuple(failures),
    )


def verify_quantale_axioms_sampled(q: Quantale, seed: int, count: int) -> CheckReport:
    """Check every law on `count` independent seeded rational triples.

    The honest mode for tensors whose grids are not closed (product,
    general ordinal sums).  An empty sample would check nothing, so
    ``count`` below 1 raises ValueError.
    """
    if count < 1:
        raise ValueError(f"sampled axiom audit needs count >= 1, got {count}")
    # the draws after the sample's fixed 0 and 1, three to a triple
    drawn = iter(rational_sample(SampleSpec(seed, 2 + 3 * count))[2:])
    failures = []
    checked = 0
    unit = q.unit
    for u, v, w in zip(drawn, drawn, drawn):
        checked += 1
        ok = (
            q.tensor(unit, u) == u
            and q.tensor(u, v) == q.tensor(v, u)
            and q.tensor(q.tensor(u, v), w) == q.tensor(u, q.tensor(v, w))
            and (q.tensor(u, v) <= w) == (v <= q.hom(u, w))
            and q.tensor(u, max(v, w)) == max(q.tensor(u, v), q.tensor(u, w))
        )
        if not ok and len(failures) < 5:
            failures.append(
                f"law violated at ({format_value(u)}, {format_value(v)}, {format_value(w)})"
            )
    return CheckReport(
        name=f"quantale-axioms-sampled[{q.name}]",
        checked=checked,
        failures=tuple(failures),
    )


def no_zero_divisor_audit(q: Quantale, domain: Domain) -> CheckReport:
    """For every pair with u tensor v = 0: u = 0 or some power of v is 0.

    Nilpotent-free tensors must satisfy the sharper u = 0 or v = 0.
    """
    values = _domain_values(domain)
    failures = []
    notes = []
    checked = 0
    free = nilpotent_free(q)
    witnesses = 0
    for u in values:
        for v in values:
            if q.tensor(u, v) != 0:
                continue
            checked += 1
            if u == 0 or v == 0:
                continue
            if free:
                failures.append(
                    f"zero divisor ({format_value(u)}, {format_value(v)}) in nilpotent-free tensor"
                )
                continue
            nil, n = is_nilpotent(q, v)
            if not nil:
                failures.append(f"{format_value(v)} not nilpotent but annihilates {format_value(u)}")
            elif witnesses < 5:
                notes.append(f"nilpotency witness: {format_value(v)}^{n} = 0")
                witnesses += 1
    return CheckReport(
        name=f"no-zero-divisors[{q.name}]",
        checked=checked,
        failures=tuple(failures),
        notes=tuple(notes),
    )
