"""Finite posets, their upper sets, and the lower-Vietoris monad on them.

Upper sets are integer bitmasks (bit i <-> element i), listed in ascending
bitmask order everywhere; that ordering is part of the report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from itertools import product as iproduct
from typing import Iterator

from .reports import CheckReport


class InvalidPoset(ValueError):
    code = "bad-poset"


@dataclass(frozen=True)
class FinPoset:
    """Reflexive, transitive, antisymmetric boolean matrix."""

    leq: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return len(self.leq)


def poset(rows) -> FinPoset:
    """Validate and build a finite poset from a 0/1 (or bool) matrix; any
    other entry is refused, naming its cell."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if type(v) not in (int, bool) or v not in (0, 1):
                raise InvalidPoset(f"leq entry {v!r} at ({i},{j}) is neither 0 nor 1")
    leq = tuple(tuple(bool(v) for v in row) for row in rows)
    n = len(leq)
    if any(len(row) != n for row in leq):
        raise InvalidPoset("leq matrix must be square")
    for i in range(n):
        if not leq[i][i]:
            raise InvalidPoset(f"not reflexive at {i}")
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                raise InvalidPoset(f"not antisymmetric at ({i},{j})")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise InvalidPoset(f"not transitive at ({i},{j},{k})")
    return FinPoset(leq)


def chain(k: int) -> FinPoset:
    return FinPoset(tuple(tuple(i <= j for j in range(k)) for i in range(k)))


def antichain(k: int) -> FinPoset:
    return FinPoset(tuple(tuple(i == j for j in range(k)) for i in range(k)))


def vee() -> FinPoset:
    """Three points a, b < c."""
    return poset([[1, 0, 1], [0, 1, 1], [0, 0, 1]])


@lru_cache(maxsize=None)
def _point_ups(leq: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    n = len(leq)
    return tuple(
        sum(1 << y for y in range(n) if leq[x][y]) for x in range(n)
    )


def up_closure(P: FinPoset, mask: int) -> int:
    """Least upper set containing the given elements (bitmask in, bitmask out)."""
    ups = _point_ups(P.leq)
    out = 0
    while mask:
        x = (mask & -mask).bit_length() - 1
        out |= ups[x]
        mask &= mask - 1
    return out


def mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    x = 0
    while mask >> x:
        if mask >> x & 1:
            out.append(x)
        x += 1
    return tuple(out)


@lru_cache(maxsize=4096)
def _upper_sets_of(leq: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    """Grown one point at a time: point k may stay out only while no earlier
    point below it is in, and come in only while every earlier point above
    it is in.  Masks without k precede those with it, so the list stays
    ascending without a sort."""
    masks = [0]
    for k in range(len(leq)):
        below = sum(1 << j for j in range(k) if leq[j][k])
        above = sum(1 << j for j in range(k) if leq[k][j])
        bit = 1 << k
        masks = [m for m in masks if not m & below] + [
            m | bit for m in masks if m & above == above
        ]
    return tuple(masks)


def upper_sets(P: FinPoset) -> tuple[int, ...]:
    """All upper sets, ascending by bitmask (the contract ordering), built
    point by point without scanning the 2^|X| masks."""
    return _upper_sets_of(P.leq)


@dataclass(frozen=True)
class VietorisSpace:
    """Upper sets of a poset, ordered by reverse containment."""

    base: FinPoset
    poset: FinPoset
    members: tuple[int, ...]

    def index(self, mask: int) -> int:
        return self.members.index(mask)


def vietoris(P: FinPoset) -> VietorisSpace:
    members = upper_sets(P)
    leq = tuple(
        tuple(a | b == a for b in members) for a in members
    )
    return VietorisSpace(base=P, poset=FinPoset(leq), members=members)


def is_monotone(f, P: FinPoset, R: FinPoset) -> bool:
    return all(
        R.leq[f[x]][f[y]]
        for x in range(P.size)
        for y in range(P.size)
        if P.leq[x][y]
    )


def monotone_maps(P: FinPoset, R: FinPoset) -> Iterator[tuple[int, ...]]:
    for f in iproduct(range(R.size), repeat=P.size):
        if is_monotone(f, P, R):
            yield f


def vietoris_map(f, P: FinPoset, R: FinPoset) -> dict[int, int]:
    """Image of each upper set under f, up-closed in R (A -> up f[A])."""
    if not is_monotone(f, P, R):
        raise InvalidPoset("vietoris_map needs a monotone map")
    out = {}
    for a in upper_sets(P):
        image = 0
        for x in mask_elements(a):
            image |= 1 << f[x]
        out[a] = up_closure(R, image)
    return out


def unit_map(P: FinPoset) -> dict[int, int]:
    """x -> principal upper set of x."""
    ups = _point_ups(P.leq)
    return {x: ups[x] for x in range(P.size)}


def mult_map(P: FinPoset, V: VietorisSpace) -> dict[int, int]:
    """Union of members: upper sets of VX (masks over VX indices) -> upper sets of X.

    Each nonempty s is its lower cover s - {e} plus one member e minimal
    in s, so its union is the cover's union with member e.  The highest
    index in s is minimal: members ascend by bitmask, so a strict superset
    of a member comes after it.  The cover is a smaller mask, done first.
    """
    out = {}
    for s in upper_sets(V.poset):
        e = s.bit_length() - 1
        out[s] = out[s ^ 1 << e] | V.members[e] if s else 0
    return out


def verify_monad_laws(P: FinPoset) -> CheckReport:
    """Unit and associativity laws of the upper-set monad, by enumeration.

    Associativity is checked on the principal members of the triple space
    plus the empty one; both composites preserve unions and every member
    is a union of principals, so this covers all of it.  At the principal
    of s, m . mV reads m_x[s]: the union of the members t <= s of VVX is s
    itself.  m . Vm reads the union of their images under V(m), from
    ``_principal_unions``.  The unions of ``mult_map`` come from one lower
    cover each.  The m.Ve check ORs, per member, the masks of the members
    inside each of its points' principal up-sets.
    """
    failures = []
    checked = 0
    V = vietoris(P)
    m_x = mult_map(P, V)
    principals = [_principal_in_vx(V, i) for i in range(len(V.members))]

    # m . eV = id: the principal upper set of A in (VX, reverse containment)
    # collects exactly the subsets of A, whose union is A again.
    for i, a in enumerate(V.members):
        checked += 1
        if m_x[principals[i]] != a:
            failures.append(f"m.eV != id at upper set {mask_elements(a)}")

    # m . Ve = id: Ve(A) up-closes {principal up of x : x in A} inside VX,
    # the members inside some up(x), x in A: the OR of the principals in
    # VX of the members up(x).
    e_x = unit_map(P)
    inside = [principals[V.index(e_x[x])] for x in range(P.size)]
    for a in V.members:
        checked += 1
        hits = 0
        for x in mask_elements(a):
            hits |= inside[x]
        if m_x[hits] != a:
            failures.append(f"m.Ve != id at upper set {mask_elements(a)}")

    # m . mV = m . Vm on principal members of VVVX, then the empty one,
    # where both unions are empty.
    mapped = _principal_unions(V, m_x, principals)
    for seed, union in mapped.items():
        checked += 1
        if m_x[seed] != m_x[union]:
            failures.append(f"associativity fails at principal of {seed}")
    checked += 1
    return CheckReport(
        name=f"vietoris-monad-laws[{P.size} points]",
        checked=checked,
        failures=tuple(failures),
    )


def _principal_unions(V: VietorisSpace, m_x: dict[int, int], principals: list[int]):
    """For each member s of VVX, ascending: the union of the images under
    V(m) of the members t <= s of VVX, the m . Vm side of associativity at
    the principal of s in VVVX.

    The t <= s are s itself and those below a lower cover s - {e}, for e
    minimal in s; each cover is a smaller mask, done before s.  V(m) sends
    t to the principal in VX of its union, ``principals[i]`` for member i.
    """
    # strictly_below[e]: the VX members strictly below member e (its supersets)
    strictly_below = [
        sum(1 << j for j, b in enumerate(V.members) if a | b == b != a)
        for a in V.members
    ]
    principal_of = dict(zip(V.members, principals))
    mapped: dict[int, int] = {}
    for s in upper_sets(V.poset):
        g = principal_of[m_x[s]]
        rest = s
        while rest:
            e = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not s & strictly_below[e]:
                g |= mapped[s ^ 1 << e]
        mapped[s] = g
    return mapped


def _principal_in_vx(V: VietorisSpace, i: int) -> int:
    """Members above member i in (VX, reverse containment): its subsets."""
    a = V.members[i]
    out = 0
    for j, b in enumerate(V.members):
        if a | b == a:
            out |= 1 << j
    return out


def kleisli_compose(phi2, phi1) -> tuple[tuple[int, ...], ...]:
    """Relational composite of continuous distributors (phi2 after phi1).

    Row x is the elementwise max of the rows of phi2 at the y with
    phi1[x][y] = 1; two zero rows give ``max`` at least two arguments and
    make the row 0 where there is no such y."""
    zero = (0,) * len(phi2[0]) if phi2 else ()
    return tuple(
        tuple(map(max, zero, zero, *compress(phi2, row1))) for row1 in phi1
    )


def continuous_distributors(P: FinPoset, R: FinPoset) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All 0/1 continuous distributors X -|-> Y, in lexicographic order of
    their rows (each row an upper set of Y, read as its bitmask).

    Rows are upper sets of Y, antitone along X: the distributors are the
    upper sets of the order X^op x Y, with cell (x, y) at bit
    (|X|-1-x)|Y| + y.  Row 0 takes the highest bits, so ascending masks
    are the lexicographic order of the rows.
    """
    m, k = P.size, R.size
    shifts = [(m - 1 - x) * k for x in range(m)]
    cells = [(x, y) for x in reversed(range(m)) for y in range(k)]
    product = FinPoset(
        tuple(tuple(P.leq[x2][x] and R.leq[y][y2] for x2, y2 in cells) for x, y in cells)
    )
    full = (1 << k) - 1
    rows = [tuple(a >> y & 1 for y in range(k)) for a in range(full + 1)]
    for mask in upper_sets(product):
        yield tuple(rows[mask >> shift & full] for shift in shifts)


def is_irreducible(P: FinPoset, a: int) -> bool:
    """Empty or principal: the closed form of the no-proper-decomposition test."""
    if a == 0:
        return True
    ups = _point_ups(P.leq)
    for x in mask_elements(a):
        if ups[x] == a:
            return True
    return False


def is_irreducible_by_splitting(P: FinPoset, a: int) -> bool:
    """Direct decomposition test: any two upper sets covering a must include it."""
    subs = [u for u in upper_sets(P) if u | a == a]
    for a1 in subs:
        if a1 == a:
            continue
        for a2 in subs:
            if a1 | a2 == a and a2 != a:
                return False
    return True


@lru_cache(maxsize=8)
def all_posets(n: int) -> tuple[FinPoset, ...]:
    """Every labeled poset on n elements (1, 3, 19, 219, 4231 for n=1..5).

    Backtracks per unordered pair: a pair already related by transitivity
    has no choice left; an incomparable one stays so or is ordered either
    way, closing transitively (every point below lo comes below every
    point above hi).  Closing an incomparable pair of a partial order
    never makes a cycle.  A pair left incomparable can be related later,
    so duplicates are removed at the end.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    leq = [[i == j for j in range(n)] for i in range(n)]
    found: list[tuple[tuple[bool, ...], ...]] = []

    def place(idx: int):
        if idx == len(pairs):
            found.append(tuple(tuple(row) for row in leq))
            return
        i, j = pairs[idx]
        place(idx + 1)
        if leq[i][j] or leq[j][i]:
            return
        for lo, hi in ((i, j), (j, i)):
            added = [
                (a, b)
                for a in range(n)
                if leq[a][lo]
                for b in range(n)
                if leq[hi][b] and not leq[a][b]
            ]
            for a, b in added:
                leq[a][b] = True
            place(idx + 1)
            for a, b in added:
                leq[a][b] = False

    place(0)
    seen = set()
    unique = []
    for mat in found:
        if mat not in seen:
            seen.add(mat)
            unique.append(FinPoset(mat))
    return tuple(unique)
