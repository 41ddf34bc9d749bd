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
    order.  The matrix is read as ranks of its distinct values, so the
    triangle test compares ranks in ``Quantale.tensor_ranks``, whose
    tensors are taken once per quantale and set of values."""
    failures = []
    q = X.quantale
    matrix = X.matrix
    size = X.size
    for x in range(size):
        if matrix[x][x] != ONE:
            failures.append(f"reflexivity: a({x},{x}) = {format_value(matrix[x][x])}")
    position: dict[Fraction, int] = {}
    cells = [[position.setdefault(v, len(position)) for v in row] for row in matrix]
    values = tuple(sorted(position))
    rank = [values.index(v) for v in position]
    rows = [[rank[p] for p in row] for row in cells]
    below = q.tensor_ranks(values)
    for x, row in enumerate(rows):
        for y, i in enumerate(row):
            limit = below[i]
            for z, j in enumerate(rows[y]):
                if row[z] < limit[j]:
                    failures.append(
                        f"transitivity at ({x},{y},{z}): "
                        f"{format_value(values[i])} (x) {format_value(values[j])} "
                        f"> {format_value(matrix[x][z])}"
                    )
    return CheckReport(
        name="vcategory-axioms",
        checked=size + size**3,
        failures=tuple(failures[:8]),
    )


def is_separated(X: VCategory) -> bool:
    """No two points reach each other at the unit: a(x,y) = a(y,x) = 1
    for no x < y."""
    m = X.matrix
    return not any(
        m[x][y] == ONE and m[y][x] == ONE
        for x in range(len(m))
        for y in range(x + 1, len(m))
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
