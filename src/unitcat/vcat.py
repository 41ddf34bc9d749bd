"""Finite [0,1]-categories: carriers with a unit-interval structure matrix.

Carriers are index sets 0..m-1; user-facing labels ride along in a side
table.  Structure values live on a declared grid whenever an exhaustive
suite runs, arbitrary rationals otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence

from .posets import FinPoset
from .reports import CheckReport
from .tnorms import GridChain, GridOps, Quantale
from .values import ONE, ZERO, as_value, format_value


@dataclass(frozen=True)
class VCategory:
    quantale: Quantale
    matrix: tuple[tuple[Fraction, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    @property
    def size(self) -> int:
        return len(self.matrix)

    def a(self, x: int, y: int) -> Fraction:
        return self.matrix[x][y]

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)


def vcategory(q: Quantale, rows, labels=None) -> VCategory:
    """Coerce a matrix of rationals into a VCategory (shape-checked only;
    run validate_vcategory for the axioms)."""
    matrix = tuple(tuple(as_value(v) for v in row) for row in rows)
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("structure matrix must be square")
    return VCategory(q, matrix, tuple(labels) if labels else None)


def validate_vcategory(X: VCategory) -> CheckReport:
    """Reflexivity (a(x,x) = 1) and the tensor triangle inequality."""
    failures = []
    checked = 0
    q = X.quantale
    for x in range(X.size):
        checked += 1
        if X.a(x, x) != ONE:
            failures.append(f"reflexivity: a({x},{x}) = {format_value(X.a(x, x))}")
    for x in range(X.size):
        for y in range(X.size):
            for z in range(X.size):
                checked += 1
                if q.tensor(X.a(x, y), X.a(y, z)) > X.a(x, z):
                    failures.append(
                        f"transitivity at ({x},{y},{z}): "
                        f"{format_value(X.a(x, y))} (x) {format_value(X.a(y, z))} "
                        f"> {format_value(X.a(x, z))}"
                    )
    return CheckReport(
        name="vcategory-axioms", checked=checked, failures=tuple(failures[:8])
    )


def is_vfunctor(f: Sequence[int], X: VCategory, Y: VCategory) -> bool:
    return all(
        X.a(x, y) <= Y.a(f[x], f[y]) for x in range(X.size) for y in range(X.size)
    )


def natural_order(X: VCategory) -> tuple[tuple[bool, ...], ...]:
    """x <= y whenever the structure reaches the unit."""
    return tuple(
        tuple(X.a(x, y) == ONE for y in range(X.size)) for x in range(X.size)
    )


def is_separated(X: VCategory) -> bool:
    order = natural_order(X)
    return not any(
        order[x][y] and order[y][x]
        for x in range(X.size)
        for y in range(X.size)
        if x != y
    )


def underlying_poset(X: VCategory) -> FinPoset:
    """Natural order of a separated category as a FinPoset."""
    if not is_separated(X):
        raise ValueError("natural order is a poset only for separated categories")
    return FinPoset(natural_order(X))


def dual(X: VCategory) -> VCategory:
    return VCategory(
        X.quantale,
        tuple(tuple(X.a(y, x) for y in range(X.size)) for x in range(X.size)),
        X.labels,
    )


def unit_category(q: Quantale) -> VCategory:
    return VCategory(q, ((ONE,),), ("*",))


def from_poset(P: FinPoset, q: Quantale) -> VCategory:
    matrix = tuple(
        tuple(ONE if P.leq[x][y] else ZERO for y in range(P.size))
        for x in range(P.size)
    )
    return VCategory(q, matrix)


def is_poset_based(X: VCategory) -> bool:
    return all(v in (ZERO, ONE) for row in X.matrix for v in row)


def power_functions(s: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """All tables S -> Q_n in lexicographic order (the power-space carrier)."""
    values = GridChain(n).elements
    return tuple(iproduct(values, repeat=s))


def power_space(q: Quantale, s: int, n: int) -> VCategory:
    """The S-fold power of the quantale restricted to Q_n.

    Structure [h,l] = meet over S of hom(h(s), l(s)); the carrier order
    matches power_functions(s, n).
    """
    gops = GridOps(q, n)
    ht, values = gops.hom_t, gops.values
    tables = tuple(iproduct(range(n + 1), repeat=s))
    matrix = tuple(
        tuple(values[min((ht[a][b] for a, b in zip(h, l)), default=n)] for l in tables)
        for h in tables
    )
    labels = tuple("(" + ",".join(format_value(values[a]) for a in h) + ")" for h in tables)
    return VCategory(q, matrix, labels)


def grid_chain_category(q: Quantale, n: int) -> VCategory:
    """Q_n with structure hom: the one-generator power space."""
    gops = GridOps(q, n)
    values = gops.values
    matrix = tuple(tuple(values[h] for h in row) for row in gops.hom_t)
    return VCategory(q, matrix, tuple(format_value(v) for v in values))
