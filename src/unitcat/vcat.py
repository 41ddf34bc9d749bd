"""Finite [0,1]-categories: carriers with a unit-interval structure matrix.

Carriers are index sets 0..m-1.  Structure values live on a declared
grid whenever an exhaustive suite runs, arbitrary rationals otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .posets import FinPoset
from .reports import CheckReport
from .tnorms import Quantale
from .values import ONE, ZERO, as_value, format_value


@dataclass(frozen=True)
class VCategory:
    quantale: Quantale
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)

    def a(self, x: int, y: int) -> Fraction:
        return self.matrix[x][y]


def vcategory(q: Quantale, rows) -> VCategory:
    """Coerce a matrix of rationals into a VCategory (shape-checked only;
    run validate_vcategory for the axioms)."""
    matrix = tuple(tuple(as_value(v) for v in row) for row in rows)
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("structure matrix must be square")
    return VCategory(q, matrix)


def validate_vcategory(X: VCategory) -> CheckReport:
    """Reflexivity (a(x,x) = 1) and the tensor triangle inequality, on
    every point and triple, in the quantale's exact Fraction tensor and
    order.  The matrix is read as positions of its distinct values, and
    each pair of those is tensored once per call."""
    failures = []
    checked = 0
    q = X.quantale
    matrix = X.matrix
    for x in range(X.size):
        checked += 1
        if matrix[x][x] != ONE:
            failures.append(f"reflexivity: a({x},{x}) = {format_value(matrix[x][x])}")
    position: dict[Fraction, int] = {}
    rows = [[position.setdefault(v, len(position)) for v in row] for row in matrix]
    values = list(position)
    tensors = [[q.tensor(u, v) for v in values] for u in values]
    for x, row in enumerate(rows):
        for y, i in enumerate(row):
            for z, j in enumerate(rows[y]):
                checked += 1
                if tensors[i][j] > matrix[x][z]:
                    failures.append(
                        f"transitivity at ({x},{y},{z}): "
                        f"{format_value(values[i])} (x) {format_value(values[j])} "
                        f"> {format_value(matrix[x][z])}"
                    )
    return CheckReport(
        name="vcategory-axioms", checked=checked, failures=tuple(failures[:8])
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


def unit_category(q: Quantale) -> VCategory:
    return VCategory(q, ((ONE,),))


def from_poset(P: FinPoset, q: Quantale) -> VCategory:
    matrix = tuple(
        tuple(ONE if P.leq[x][y] else ZERO for y in range(P.size))
        for x in range(P.size)
    )
    return VCategory(q, matrix)


def is_poset_based(X: VCategory) -> bool:
    return all(v in (ZERO, ONE) for row in X.matrix for v in row)
