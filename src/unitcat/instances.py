"""Instance documents: JSON-syntax text with rationals as "p/q" strings.

Each document carries a kind (poset | generators), an optional tensor +
grid pair, and a payload validated against the owning module's checker.
Every rejection carries a distinct error code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .posets import FinPoset, InvalidPoset, poset
from .tnorms import Quantale, grid_closed, lukasiewicz, minimum, ordinal_sum, product
from .values import RationalFormatError, UnitRangeError, as_value

KINDS = ("poset", "generators")

# The largest grid a suite runs on or a document may name; checked before
# any GridOps is built, since building one is quadratic in the grid.
GRID_CAP = 12

# The most points a suite's or a document's poset may have; checked before
# the cubic order check.  V(V(X)) passes 7 million members at 6 points.
POSET_SIZE_CAP = 5


class InstanceError(ValueError):
    """Parse/validation failure with a stable error code and location."""

    def __init__(self, code: str, message: str, where: str = ""):
        super().__init__(f"[{code}] {message}" + (f" at {where}" if where else ""))
        self.code = code
        self.where = where


@dataclass
class InstanceDoc:
    kind: str
    quantale: Optional[Quantale]
    grid: Optional[int]
    poset: Optional[FinPoset] = None
    functions: Optional[tuple[tuple[Fraction, ...], ...]] = None


# every tensor name a document may give, at the top level and as the
# inner tensor of an ordinal segment
TNORM_NAMES = {
    "min": minimum,
    "minimum": minimum,
    "product": product,
    "lukasiewicz": lukasiewicz,
    "luk": lukasiewicz,
}


def parse_tnorm(spec: str) -> Quantale:
    """min | product | lukasiewicz | ordinal:a-b-inner[,a-b-inner...]"""
    if not isinstance(spec, str):
        raise InstanceError("bad-document", f"tensor must be a name, got {spec!r}")
    name = spec.strip().lower()
    if name in TNORM_NAMES:
        return TNORM_NAMES[name]()
    if name.startswith("ordinal:"):
        segments = []
        for part in name[len("ordinal:"):].split(","):
            pieces = part.split("-")
            if len(pieces) != 3 or pieces[2] not in TNORM_NAMES:
                raise InstanceError("bad-document", f"malformed ordinal segment {part!r}")
            a, b = _value(pieces[0], part), _value(pieces[1], part)
            segments.append((a, b, TNORM_NAMES[pieces[2]]()))
        try:
            return ordinal_sum(*segments)
        except ValueError as exc:
            raise InstanceError("bad-document", str(exc))
    raise InstanceError("bad-document", f"unknown tensor {spec!r}")


def _value(text, where="") -> Fraction:
    try:
        return as_value(text)
    except RationalFormatError as exc:
        raise InstanceError("bad-rational", str(exc), where) from exc
    except UnitRangeError as exc:
        raise InstanceError("value-out-of-range", str(exc), where) from exc


def _matrix(rows, where) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceError("bad-document", "matrix must be a list of rows", where)
    return tuple(
        tuple(_value(v, f"{where}[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )


def parse_instance(text: str) -> InstanceDoc:
    """Validate a JSON instance document.  A grid above ``GRID_CAP`` is
    refused first, a poset above ``POSET_SIZE_CAP`` before its order; a
    tensor/grid pair must leave the grid closed."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise InstanceError("bad-document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InstanceError("bad-document", "document must be an object with a 'kind'")
    kind = doc["kind"]
    if kind not in KINDS:
        raise InstanceError("unknown-kind", f"kind must be one of {KINDS}, got {kind!r}")

    q = parse_tnorm(doc["tensor"]) if "tensor" in doc else None
    grid = doc.get("grid")
    if grid is not None and (type(grid) is not int or grid < 1):
        raise InstanceError("bad-document", "grid must be a positive integer")
    if grid is not None and grid > GRID_CAP:
        raise InstanceError("cap-exceeded", f"grid capped at {GRID_CAP}")
    if q is not None and grid is not None and not grid_closed(q, grid):
        raise InstanceError(
            "grid-not-closed",
            f"Q_{grid} is not closed under the {q.name} tensor: exhaustive suites need closure",
        )

    out = InstanceDoc(kind=kind, quantale=q, grid=grid)
    if kind == "poset":
        out.poset = _parse_poset(doc.get("leq"), "leq")
    elif kind == "generators":
        out.poset = _parse_poset(doc.get("poset"), "poset")
        out.functions = _matrix(doc.get("functions"), "functions")
    return out


def read_instance(path: str) -> InstanceDoc:
    """Read and validate the instance document in the file at ``path``.
    A file that cannot be opened or read is refused as ``unreadable-file``,
    and one that is not UTF-8 text as ``bad-document``, as invalid JSON is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InstanceError("bad-document", f"not UTF-8 text: {exc.reason}", path) from exc
    except OSError as exc:
        raise InstanceError("unreadable-file", exc.strerror or type(exc).__name__, path) from exc
    return parse_instance(text)


def _parse_poset(rows, where) -> FinPoset:
    if isinstance(rows, dict):
        rows = rows.get("leq")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InstanceError("bad-document", "poset needs a 'leq' matrix", where)
    if len(rows) > POSET_SIZE_CAP:
        raise InstanceError("cap-exceeded", f"poset size capped at {POSET_SIZE_CAP}", where)
    try:
        return poset(rows)
    except InvalidPoset as exc:
        raise InstanceError("bad-poset", str(exc), where) from exc
