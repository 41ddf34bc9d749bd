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
from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import Iterable, Optional, Sequence

from .duality import FunctionSpace, function_space
from .posets import FinPoset, mask_elements
from .reports import CheckReport
from .tnorms import Quantale
from .values import format_value

KNOWN_OPS = ("join", "tensor", "act", "power", "minus", "constants")

DEGENERACY_NOTE = (
    "finite separated function spaces are closed as subsets; "
    "graded density at the stated level is the quantitative surrogate"
)


@dataclass(frozen=True)
class SubStructure:
    """A generated subset of a function space.

    ``mask`` is the subset as a bitmask over the enumeration, and
    ``members`` its function indices, ascending, read off the mask on
    first use.
    """

    space: FunctionSpace
    mask: int

    def __contains__(self, i: int) -> bool:
        return i >= 0 and self.mask >> i & 1 == 1

    @cached_property
    def members(self) -> tuple[int, ...]:
        return mask_elements(self.mask)


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
    'constants' seeds both constants.

    Computed in two phases.  First the worklist (``_worklist``) closes
    the seeds under the ops other than join, giving T.  Every op is
    monotone on the chain of levels, so pointwise it distributes over
    joins, and the join-closure of T is closed under all of them (the
    space itself is join-closed).  So with join among the ops the members
    are the joins of nonempty subsets of T, found by per-point level
    bitmasks (``_join_closure``); without it they are T.

    The worklist's rule of stopping at the full space holds here one
    step earlier.  On a ``tensor_closed`` space with join among the ops,
    the seeds (the generators, both constants with 'constants', the top
    with 'tensor') are first closed under the unary ops alone, and the
    join-closure of that is taken.  If it is every function, so is the
    closure, which contains it, and no tensor pair is gathered: nothing
    reached can leave such a space, so nothing that could raise is
    skipped.  On the swept posets this always happens, since every
    antitone f is the join over x of f(x) tensor the indicator of the
    down set of x.  Without tensor among the ops that unary closure is
    already T, and its join-closure is the answer.  Otherwise the two
    phases run as above, phase one seeded with the unary closure, which
    lies inside T.

    A reached pair whose tensor leaves the space raises ValueError naming
    the first such pair the worklist over all the ops reaches.  A pair
    of joins escapes only if a pair of their T-operands does, so phase
    one finds every escape, and that worklist then runs for its message.
    """
    unknown = set(ops) - set(KNOWN_OPS)
    if unknown:
        raise ValueError(f"unknown closure ops {sorted(unknown)}")
    generators, ops = tuple(generators), frozenset(ops)
    seeds = generators
    if "join" in ops and space.tensor_closed:
        seeds += (space.top_index,) if "tensor" in ops else ()
        U = _worklist(space, seeds, ops - {"join", "tensor"})
        mask = _join_closure(space, U)
        if mask == (1 << space.size) - 1 or "tensor" not in ops:
            return SubStructure(space, mask)
        seeds = U
    try:
        T = _worklist(space, seeds, ops - {"join"})
    except ValueError:
        _worklist(space, generators, ops)  # raises, naming its own first pair
        raise
    mask = _join_closure(space, T) if "join" in ops else sum(1 << t for t in T)
    return SubStructure(space, mask)


def _join_closure(space: FunctionSpace, T: Sequence[int]) -> int:
    """The bitmask over the enumeration of the joins of nonempty subsets
    of T.

    f is such a join iff at every point x some t in T lies below f and
    agrees with it at x (then f is the join of those t).  With eq[x][l]
    the functions whose level at x is l (``FunctionSpace.level_masks``)
    and ge[x][l] those at least l, the functions above t are
    up(t) = AND over x of ge[x][t(x)], and the members are the AND over x
    of the OR over t of up(t) & eq[x][t(x)].
    """
    fs = space.ifuncs
    eq = space.level_masks
    ge = [list(accumulate(reversed(masks), or_))[::-1] for masks in eq]
    up = []
    for t in T:
        above = -1
        for x, a in enumerate(fs[t]):
            above &= ge[x][a]
        up.append(above)
    members = (1 << space.size) - 1 if T else 0
    for x, masks in enumerate(eq):
        reach = 0
        for t, above in zip(T, up):
            reach |= above & masks[fs[t][x]]
        members &= reach
    return members


def _worklist(space: FunctionSpace, generators, ops) -> tuple[int, ...]:
    """The members, ascending, of the closure under ``ops`` by one worklist.

    Each member meets itself and every earlier member, by one
    ``pair_indices`` row gather per binary op (join, then tensor), then
    the unary tables.  New results join in operand order.  A reached pair
    whose tensor leaves the space raises ValueError naming the first such
    pair.  On a ``tensor_closed`` space the worklist stops once every
    function is a member: nothing new can be reached and no tensor can
    escape.  Any other space is scanned to the end, so an escaping pair
    is still found.  (``generate_closure`` stops earlier still, once the
    joins of the seeds' unary closure are every function.)
    """
    members: list[int] = []
    seen = set()

    def add(i: int):
        if i not in seen:
            seen.add(i)
            members.append(i)

    for g in generators:
        add(g)
    if "constants" in ops:
        add(space.constant_index(0))
        add(space.constant_index(space.n))
    if "tensor" in ops:
        add(space.top_index)

    tables = {"join": space.gops.join_t, "tensor": space.gops.tensor_t}
    binary = [tables[op] for op in ("join", "tensor") if op in ops]
    unary = [space.unary_ops(op) for op in ("act", "power", "minus") if op in ops]
    levels = range(space.n + 1)
    full = space.size if space.tensor_closed else None
    # members grows while it is walked: it is the worklist
    for k, i in enumerate(members):
        if len(members) == full:
            break
        for table in binary:
            js = members[: k + 1]
            for j, r in zip(js, space.pair_indices(table, i, js)):
                if r not in seen:
                    if r < 0:
                        raise ValueError(f"tensor of f{i} and f{j} leaves the function space")
                    add(r)
        for u in levels:
            for table in unary:
                add(table[u][i])
    return tuple(sorted(members))


def check_sep(L: SubStructure) -> CheckReport:
    """For every pair x not>= y: some member is 1 at x and 0 at y.

    The finite/discrete reading of the separation condition: the open
    neighbourhood of y is {y} itself.  The members that separate the pair
    are the member mask AND the functions at level n at x AND those at 0
    at y (``FunctionSpace.level_masks``); the witness noted is the lowest
    of them.
    """
    space = L.space
    P: FinPoset = space.base
    eq = space.level_masks
    failures = []
    notes = []
    checked = 0
    for x in range(P.size):
        ones = L.mask & eq[x][space.n]
        for y in range(P.size):
            if P.leq[y][x]:
                continue
            checked += 1
            separators = ones & eq[y][0]
            if not separators:
                failures.append(f"no separator for x={x}, y={y}")
            elif len(notes) < 4:
                witness = (separators & -separators).bit_length() - 1
                notes.append(f"({x},{y}) separated by f{witness}")
    return CheckReport(
        name="separation", checked=checked, failures=tuple(failures), notes=tuple(notes)
    )


def density_at_level(
    space: FunctionSpace, L: SubStructure, u: Fraction
) -> CheckReport:
    """Every function of CX is two-sidedly within hom-distance u of a member.

    Levels a and b are within u when hom(a, b) and hom(b, a) are both at
    least u.  The band mask of a point x and level a holds the functions
    whose level at x is within u of a, so the members near f are the
    member mask AND the band masks at f's levels.  Every function counts
    as checked; only the non-members are walked, ascending.
    """
    gops = space.gops
    level = u * gops.n
    if level.denominator != 1:
        raise ValueError(f"density level {u} must be a grid point")
    level = level.numerator
    failures = []
    outside = ((1 << space.size) - 1) & ~L.mask
    if outside:
        ht = gops.hom_t
        grid = range(gops.n + 1)
        close = [[b for b in grid if ht[a][b] >= level and ht[b][a] >= level] for a in grid]
        bands = [[sum(masks[b] for b in near) for near in close] for masks in space.level_masks]
        fs = space.ifuncs
        for i in mask_elements(outside):
            near = L.mask
            for band, a in zip(bands, fs[i]):
                near &= band[a]
            if not near:
                failures.append(f"f{i} has no member within level {format_value(u)}")
    notes = [DEGENERACY_NOTE]
    if not outside:
        notes.append("exact equality: the substructure is all of the space")
    return CheckReport(
        name=f"density@{format_value(u)}",
        checked=space.size,
        failures=tuple(failures),
        notes=tuple(notes),
    )


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
    if L.mask == (1 << space.size) - 1:
        notes.append("exact equality: closure is all of the function space")
    else:
        findings.append(
            f"closure has {L.mask.bit_count()} of {space.size} functions (density only)"
        )
    return CheckReport(
        name=f"stone-weierstrass[n={n}]",
        checked=checked,
        failures=tuple(failures),
        findings=tuple(findings),
        notes=tuple(notes),
    )
