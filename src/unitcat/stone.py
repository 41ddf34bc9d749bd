"""Finite-grid approximation machinery for function-space density.

Substructures of CX are generated by closing under a chosen set of
pointwise operations; separation and graded density are then checked
exhaustively.  On finite separated carriers the exact closure operator is
discrete, so the graded predicate is the meaningful surrogate; every
report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .duality import FunctionSpace, function_space
from .posets import FinPoset
from .reports import CheckReport
from .tnorms import Lukasiewicz, Minimum, Product, Quantale
from .values import format_value

KNOWN_OPS = ("join", "tensor", "act", "power", "minus", "constants")

DEGENERACY_NOTE = (
    "finite separated function spaces are closed as subsets; "
    "graded density at the stated level is the quantitative surrogate"
)


@dataclass(frozen=True)
class SubStructure:
    """A generated subset of a function space plus its generation trace."""

    space: FunctionSpace
    members: tuple[int, ...]
    trace: tuple[str, ...]

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)


def down_set_indicators(space: FunctionSpace) -> tuple[int, ...]:
    """Indices of the indicator functions of the principal down sets."""
    P: FinPoset = space.base
    n = space.n
    out = []
    for x in range(P.size):
        table = tuple(n if P.leq[y][x] else 0 for y in range(P.size))
        out.append(space.iindex[table])
    return tuple(out)


def generate_closure(
    space: FunctionSpace, generators: Iterable[int], ops: Sequence[str]
) -> SubStructure:
    """Least subset containing the generators closed under the chosen ops.

    ops is a subset of {join, tensor, act, power, minus, constants};
    'tensor' also seeds the unit constant (it is the monoid structure),
    'constants' seeds both constants.  A worklist: each member meets
    itself and every earlier member in the space's ``op_table``, then
    the unary tables.  The trace records one line per new member:
    operation, operand indices, result index.  A reached pair whose
    tensor leaves the space raises ValueError naming the pair.
    """
    unknown = set(ops) - set(KNOWN_OPS)
    if unknown:
        raise ValueError(f"unknown closure ops {sorted(unknown)}")
    ops = set(ops)
    members: list[int] = []
    seen = set()
    trace = []

    def add(i: int, how: str):
        if i not in seen:
            seen.add(i)
            members.append(i)
            trace.append(f"{how} -> f{i}")

    for g in generators:
        add(g, "generator")
    if "constants" in ops:
        add(space.constant_index(0), "constant 0")
        add(space.constant_index(space.n), "constant 1")
    if "tensor" in ops:
        add(space.top_index, "monoid unit")

    binary = [
        (op, space.op_table[k]) for k, op in enumerate(("join", "tensor")) if op in ops
    ]
    unary = [(op, space.closed_unary(op)) for op in ("act", "power", "minus") if op in ops]
    n = space.n
    # members grows while it is walked: it is the worklist
    for k, i in enumerate(members):
        for op, table in binary:
            row = table[i]
            for j in members[: k + 1]:
                r = row[j]
                if r not in seen:
                    if r < 0:
                        raise _tensor_escape(i, j)
                    add(r, f"{op}(f{i},f{j})")
        for u in range(n + 1):
            for op, table in unary:
                r = table[u][i]
                if r not in seen:
                    add(r, f"act({u}/{n},f{i})" if op == "act" else f"{op}(f{i},{u}/{n})")
    return SubStructure(space, tuple(sorted(members)), tuple(trace))


def _tensor_escape(i: int, j: int) -> ValueError:
    return ValueError(f"tensor of f{i} and f{j} leaves the function space")


def check_sep(L: SubStructure) -> CheckReport:
    """For every pair x not>= y: some member is 1 at x and 0 at y.

    The finite/discrete reading of the separation condition: the open
    neighbourhood of y is {y} itself.
    """
    space = L.space
    P: FinPoset = space.base
    n = space.n
    failures = []
    notes = []
    checked = 0
    fs = space.ifuncs
    for x in range(P.size):
        for y in range(P.size):
            if P.leq[y][x]:
                continue
            checked += 1
            witness = next(
                (i for i in L.members if fs[i][x] == n and fs[i][y] == 0), None
            )
            if witness is None:
                failures.append(f"no separator for x={x}, y={y}")
            elif len(notes) < 4:
                notes.append(f"({x},{y}) separated by f{witness}")
    return CheckReport(
        name="separation", checked=checked, failures=tuple(failures), notes=tuple(notes)
    )


def density_at_level(
    space: FunctionSpace, L: SubStructure, u: Fraction
) -> CheckReport:
    """Every function of CX is two-sidedly within hom-distance u of a member."""
    gops = space.gops
    level = u * gops.n
    if level.denominator != 1:
        raise ValueError(f"density level {u} must be a grid point")
    level = level.numerator
    ht = gops.hom_t
    fs = space.ifuncs
    failures = []
    checked = 0
    exact = True
    member_set = set(L.members)
    for i in range(space.size):
        checked += 1
        if i in member_set:
            continue
        exact = False
        fi = fs[i]
        good = False
        for j in L.members:
            fj = fs[j]
            if all(ht[a][b] >= level for a, b in zip(fi, fj)) and all(
                ht[b][a] >= level for a, b in zip(fi, fj)
            ):
                good = True
                break
        if not good:
            failures.append(f"f{i} has no member within level {format_value(u)}")
    notes = [DEGENERACY_NOTE]
    if exact:
        notes.append("exact equality: the substructure is all of the space")
    return CheckReport(
        name=f"density@{format_value(u)}",
        checked=checked,
        failures=tuple(failures),
        notes=tuple(notes),
    )


def sep_premise_audit(L: SubStructure) -> CheckReport:
    """Premises of the separation lemmas, then the implication itself.

    For the Lukasiewicz tensor: closure under the monoid structure and
    powers, plus an initial cone, forces separation.  For multiplication:
    closure under powers and truncated minus, plus an initial cone.  If a
    premise fails the implication is reported vacuous, not failed.
    """
    space = L.space
    tn = space.quantale.tnorm
    if isinstance(tn, Lukasiewicz):
        required = ("tensor", "power")
    elif isinstance(tn, Product):
        required = ("power", "minus")
    elif isinstance(tn, Minimum):
        return CheckReport(
            name="sep-premises",
            checked=0,
            notes=("separation lemmas do not cover the minimum tensor",),
        )
    else:
        required = ("tensor", "power")
    notes = []
    failures = []
    closed = _closed_under(L, required)
    if closed is not None:
        notes.append(f"premise fails: not closed under {closed}")
    initial = _initial_cone(L)
    if not initial:
        notes.append("premise fails: cone not initial")
    if closed is None and initial:
        sep = check_sep(L)
        if not sep.passed:
            failures.append("premises hold but separation fails: " + sep.failures[0])
        notes.append("premises hold; separation " + ("holds" if sep.passed else "FAILS"))
    else:
        notes.append("implication vacuous (premise failure recorded above)")
    return CheckReport(
        name="sep-premises", checked=1, failures=tuple(failures), notes=tuple(notes)
    )


def _closed_under(L: SubStructure, required) -> Optional[str]:
    space = L.space
    members = set(L.members)
    minus_t, power_t = (
        space.closed_unary(op) if op in required else None
        for op in ("minus", "power")
    )
    for i in L.members:
        for u in range(space.n + 1):
            if "power" in required and power_t[u][i] not in members:
                return "power"
            if "minus" in required and minus_t[u][i] not in members:
                return "minus"
        if "tensor" in required:
            if space.top_index not in members:
                return "tensor"
            row = space.op_table[1][i]
            for j in L.members:
                if row[j] < 0:
                    raise _tensor_escape(i, j)
                if row[j] not in members:
                    return "tensor"
    return None


def _initial_cone(L: SubStructure) -> bool:
    """x >= y iff every member is antitone across the pair."""
    space = L.space
    P: FinPoset = space.base
    fs = space.ifuncs
    for x in range(P.size):
        for y in range(P.size):
            observed = all(fs[i][x] <= fs[i][y] for i in L.members)
            if observed != P.leq[y][x]:
                return False
    return True


def sw_audit(
    P: FinPoset, q: Quantale, n: int, generators: Optional[Sequence[int]] = None
) -> CheckReport:
    """Close the down-set indicators under join/tensor/action, check
    separation, then graded density at level (n-1)/n, reporting exact
    equality when it holds."""
    space = function_space(P, q, n)
    if generators is None:
        generators = down_set_indicators(space)
    L = generate_closure(space, generators, ("join", "tensor", "act"))
    failures = []
    findings = []
    notes = [DEGENERACY_NOTE]
    sep = check_sep(L)
    checked = sep.checked
    if not sep.passed:
        notes.append("hypothesis failed: generators do not separate; density not asserted")
        return CheckReport(
            name=f"stone-weierstrass[n={n}]",
            checked=checked,
            findings=("separation hypothesis failed for the given generators",),
            notes=tuple(notes),
        )
    level = Fraction(n - 1, n)
    dens = density_at_level(space, L, level)
    checked += dens.checked
    failures.extend(dens.failures)
    if len(L.members) == space.size:
        notes.append("exact equality: closure is all of the function space")
    else:
        findings.append(
            f"closure has {len(L.members)} of {space.size} functions (density only)"
        )
    return CheckReport(
        name=f"stone-weierstrass[n={n}]",
        checked=checked,
        failures=tuple(failures),
        findings=tuple(findings),
        notes=tuple(notes),
    )
