"""Finite posets, their upper sets, and the lower-Vietoris monad on them.

Upper sets are integer bitmasks (bit i <-> element i), listed in ascending
bitmask order everywhere; that ordering is part of the report format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterable, Iterator

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
    """Validate and build a finite poset from a 0/1 (or bool) matrix."""
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


@lru_cache(maxsize=None)
def _point_downs(leq: tuple[tuple[bool, ...], ...]) -> tuple[int, ...]:
    n = len(leq)
    return tuple(
        sum(1 << y for y in range(n) if leq[y][x]) for x in range(n)
    )


def up_closure(P: FinPoset, members: Iterable[int] | int) -> int:
    """Least upper set containing the given elements (bitmask in, bitmask out)."""
    mask = members if isinstance(members, int) else _to_mask(members)
    ups = _point_ups(P.leq)
    out = 0
    while mask:
        x = (mask & -mask).bit_length() - 1
        out |= ups[x]
        mask &= mask - 1
    return out


def down_closure(P: FinPoset, members: Iterable[int] | int) -> int:
    mask = members if isinstance(members, int) else _to_mask(members)
    downs = _point_downs(P.leq)
    out = 0
    while mask:
        x = (mask & -mask).bit_length() - 1
        out |= downs[x]
        mask &= mask - 1
    return out


def _to_mask(members: Iterable[int]) -> int:
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


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
    n = len(leq)
    ups = _point_ups(leq)
    out = []
    for m in range(1 << n):
        mm = m
        good = True
        while mm:
            x = (mm & -mm).bit_length() - 1
            if ups[x] | m != m:
                good = False
                break
            mm &= mm - 1
        if good:
            out.append(m)
    return tuple(out)


def upper_sets(P: FinPoset) -> tuple[int, ...]:
    """All upper sets, ascending by bitmask (the contract ordering)."""
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
    """Union of members: upper sets of VX (masks over VX indices) -> upper sets of X."""
    out = {}
    for script_a in upper_sets(V.poset):
        union = 0
        for i in mask_elements(script_a):
            union |= V.members[i]
        out[script_a] = union
    return out


def verify_monad_laws(P: FinPoset) -> CheckReport:
    """Unit and associativity laws of the upper-set monad, by enumeration.

    Associativity is checked on the principal members of the triple space
    plus the empty one; both composites preserve unions and every member
    is a union of principals, so this covers all of it.
    """
    failures = []
    checked = 0
    V = vietoris(P)
    m_x = mult_map(P, V)

    # m . eV = id: the principal upper set of A in (VX, reverse containment)
    # collects exactly the subsets of A, whose union is A again.
    for i, a in enumerate(V.members):
        checked += 1
        principal = _principal_in_vx(V, i)
        if m_x[principal] != a:
            failures.append(f"m.eV != id at upper set {mask_elements(a)}")

    # m . Ve = id: Ve(A) up-closes {principal up of x : x in A} inside VX.
    e_x = unit_map(P)
    for a in V.members:
        checked += 1
        hits = 0
        for j, b in enumerate(V.members):
            if any(e_x[x] | b == e_x[x] for x in mask_elements(a)):
                hits |= 1 << j
        if m_x[hits] != a:
            failures.append(f"m.Ve != id at upper set {mask_elements(a)}")

    # m . mV = m . Vm on principal members of VVVX (and the empty one).
    vv_members = upper_sets(V.poset)
    vm = {s: _down_of_upper(V, m_x[s]) for s in vv_members}
    for seed in list(vv_members) + [None]:
        if seed is None:
            xi = 0
        else:
            xi = 0
            for j, other in enumerate(vv_members):
                if seed | other == seed:  # other subset of seed
                    xi |= 1 << j
        checked += 1
        flat = 0
        mapped = 0
        jj = xi
        while jj:
            j = (jj & -jj).bit_length() - 1
            flat |= vv_members[j]
            mapped |= vm[vv_members[j]]
            jj &= jj - 1
        if m_x[flat] != m_x[mapped]:
            failures.append(f"associativity fails at principal of {seed}")
    return CheckReport(
        name=f"vietoris-monad-laws[{P.size} points]",
        checked=checked,
        failures=tuple(failures),
    )


def _principal_in_vx(V: VietorisSpace, i: int) -> int:
    """Members above member i in (VX, reverse containment): its subsets."""
    a = V.members[i]
    out = 0
    for j, b in enumerate(V.members):
        if a | b == a:
            out |= 1 << j
    return out


def _down_of_upper(V: VietorisSpace, a: int) -> int:
    """V(m) image of a principal: everything below `a` in containment."""
    return _principal_in_vx(V, V.members.index(a))


def kleisli_identity(P: FinPoset) -> tuple[tuple[int, ...], ...]:
    """The identity continuous distributor on a poset is its order relation."""
    return tuple(tuple(int(v) for v in row) for row in P.leq)


def is_continuous_distributor(phi, P: FinPoset, R: FinPoset) -> bool:
    """0/1 relation X -|-> Y: down-closed in X, up-closed in Y."""
    for x in range(P.size):
        for y in range(R.size):
            if not phi[x][y]:
                continue
            for x2 in range(P.size):
                if P.leq[x2][x] and not phi[x2][y]:
                    return False
            for y2 in range(R.size):
                if R.leq[y][y2] and not phi[x][y2]:
                    return False
    return True


def kleisli_compose(phi2, phi1) -> tuple[tuple[int, ...], ...]:
    """Relational composite of continuous distributors (phi2 after phi1)."""
    rows = len(phi1)
    mid = len(phi2)
    cols = len(phi2[0]) if mid else 0
    return tuple(
        tuple(
            int(any(phi1[x][y] and phi2[y][z] for y in range(mid)))
            for z in range(cols)
        )
        for x in range(rows)
    )


def graph_distributor(f, P: FinPoset, R: FinPoset) -> tuple[tuple[int, ...], ...]:
    """The continuous distributor of a monotone map: x phi y iff f(x) <= y."""
    return tuple(
        tuple(int(R.leq[f[x]][y]) for y in range(R.size)) for x in range(P.size)
    )


def continuous_distributors(P: FinPoset, R: FinPoset) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All 0/1 continuous distributors X -|-> Y.

    Rows are upper sets of Y, antitone along X; enumerated
    lexicographically over the per-element row choices.
    """
    ups = upper_sets(R)
    n = P.size
    if n == 0:
        yield ()
        return
    for choice in iproduct(range(len(ups)), repeat=n):
        rows = [ups[c] for c in choice]
        ok = True
        for x in range(n):
            for x2 in range(n):
                if P.leq[x2][x] and rows[x] | rows[x2] != rows[x2]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(
                tuple(int(rows[x] >> y & 1) for y in range(R.size)) for x in range(n)
            )


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

    Backtracks over strict-order choices per unordered pair, closing
    transitively as it goes; duplicates from forced consequences are
    removed at the end.
    """
    if n == 0:
        return (FinPoset(()),)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    leq = [[i == j for j in range(n)] for i in range(n)]
    found: list[tuple[tuple[bool, ...], ...]] = []

    def close_with(lo, hi):
        # add lo<hi plus consequences; undo and bail on an antisymmetry clash
        queue = [(lo, hi)]
        added = []
        while queue:
            x, y = queue.pop()
            if leq[x][y]:
                continue
            if leq[y][x]:
                for a, b in added:
                    leq[a][b] = False
                return None
            leq[x][y] = True
            added.append((x, y))
            for k in range(n):
                if leq[k][x] and not leq[k][y]:
                    queue.append((k, y))
                if leq[y][k] and not leq[x][k]:
                    queue.append((x, k))
        return added

    def place(idx: int):
        if idx == len(pairs):
            found.append(tuple(tuple(row) for row in leq))
            return
        i, j = pairs[idx]
        place(idx + 1)
        for lo, hi in ((i, j), (j, i)):
            added = close_with(lo, hi)
            if added is not None:
                place(idx + 1)
                for x, y in added:
                    leq[x][y] = False

    place(0)
    seen = set()
    unique = []
    for mat in found:
        if mat not in seen:
            seen.add(mat)
            unique.append(FinPoset(mat))
    return tuple(unique)
