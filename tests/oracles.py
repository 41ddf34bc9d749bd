"""Reference implementations for the J-first and mask-based code.

The first group is the formula the library used before J was read off
the pointwise meets: the join-irreducibles and their order from the full
pair table, the memo walk over J for the count, the full pair scans of
the functional checks, and the generator formulas of the enriched maps.
They walk every pair (or every function) on purpose, so they share no
code with what they check beyond ``pair_ops`` and the unary tables.
``pair_ops_by_pairs`` is the per-pair loop that ``pair_ops`` replaced
with row gathers; J's order is read off it.

The second group is the scan each bitmask reading replaced: C(X) by
filtering every extension of every table (``cx_levels_by_filter``),
separation and density by scanning the members
(``check_sep_by_members``, ``density_at_level_by_members``),
cogeneration and structure recovery by scanning every function, and the
monad laws with each union taken member by member
(``verify_monad_laws_by_scan``).  They read the functions and the
members directly, never ``level_masks``.

Three references that no suite needs are kept here, not in the library:
``truncated_minus``, the value reference for ``GridOps.minus_t``,
``is_continuous_distributor``, the membership oracle for
``posets.continuous_distributors``, and
``continuous_distributors_by_filter``, the product-and-filter loop that
enumerator replaced by the upper sets of X^op x Y.

Run as a script to compare the first group on the 1,971 spaces named in
``full_comparison_spaces``, then the second on the C(X) of every poset
of size <= 5 and enriched category of size <= 3 at n <= 4, the closures
of every poset space of size <= 3 at n <= 4 and of size 4 at n <= 2,
the 2,697 enriched categories of size <= 2 at n <= 4 and of size 3 at
n <= 3, and every poset of size <= 5:
``PYTHONPATH=src python tests/oracles.py``.  Both take about 20 minutes
together on one core of a 2-core x86_64 machine, the second about 50 s
of it.
"""

import random
from itertools import product as iproduct

from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import stone as S
from unitcat import tnorms as T
from unitcat import vcat as VC
from unitcat.reports import CheckReport
from unitcat.values import ZERO, as_value, format_value

LUK = T.lukasiewicz()
MIN = T.minimum()


def truncated_minus(u, v):
    """u minus v, clamped at 0; independent of the chosen tensor."""
    d = as_value(u) - as_value(v)
    return d if d > 0 else ZERO


def is_continuous_distributor(phi, X, Y):
    """0/1 relation X -|-> Y: down-closed in X, up-closed in Y."""
    for x in range(X.size):
        for y in range(Y.size):
            if not phi[x][y]:
                continue
            for x2 in range(X.size):
                if X.leq[x2][x] and not phi[x2][y]:
                    return False
            for y2 in range(Y.size):
                if Y.leq[y][y2] and not phi[x][y2]:
                    return False
    return True


def continuous_distributors_by_filter(X, Y):
    """Every choice of one upper set of Y per point of X, lexicographic in
    the choices (each row's upper sets ascending by bitmask), kept when
    the rows are antitone along X."""
    ups = P.upper_sets(Y)
    out = []
    for choice in iproduct(range(len(ups)), repeat=X.size):
        rows = [ups[c] for c in choice]
        if all(
            rows[x] | rows[x2] == rows[x2]
            for x in range(X.size)
            for x2 in range(X.size)
            if X.leq[x2][x]
        ):
            out.append(
                tuple(tuple(int(rows[x] >> y & 1) for y in range(Y.size)) for x in range(X.size))
            )
    return out


def pair_ops_by_pairs(space):
    """``FunctionSpace.pair_ops`` one pair at a time: (i, j, k_join, k_tens)
    for i <= j, the indices of the pointwise join and tensor of f_i and
    f_j, k_tens -1 where the tensor leaves the space."""
    fs, idx, tt = space.ifuncs, space.iindex, space.gops.tensor_t
    out = []
    for i in range(len(fs)):
        fi = fs[i]
        for j in range(i, len(fs)):
            fj = fs[j]
            join = tuple(a if a >= b else b for a, b in zip(fi, fj))
            tens = tuple(tt[a][b] for a, b in zip(fi, fj))
            out.append((i, j, idx[join], idx.get(tens, -1)))
    return out


def le_pairs_by_pairs(space):
    """(i, j) with f_i <= f_j pointwise, i != j, ascending: the pairs of
    ``pair_ops_by_pairs`` whose join is f_j."""
    return [(i, j) for i, j, k_join, _ in pair_ops_by_pairs(space) if k_join == j != i]


def join_order_by_pairs(space):
    """``FunctionSpace.join_order`` from one pass over ``le_pairs_by_pairs``.

    A function is join-irreducible when it is not the bottom and not the
    join of two functions other than itself: in a finite lattice, when the
    functions strictly below it have a greatest one.  The enumeration is a
    linear extension of the pointwise order, so that one can only be the
    last of them, and it is greatest when exactly the others lie below it.
    """
    strictly_all = [[] for _ in range(space.size)]
    for i, j in le_pairs_by_pairs(space):
        strictly_all[j].append(i)
    J = tuple(
        k for k, b in enumerate(strictly_all) if b and len(strictly_all[b[-1]]) == len(b) - 1
    )
    position = {j: p for p, j in enumerate(J)}
    below = [[position[i] for i in (*b, k) if i in position] for k, b in enumerate(strictly_all)]
    strictly = [set(below[j][:-1]) for j in J]

    def maximal(b):
        return [q for q in b if not any(q in strictly[r] for r in b)]

    return J, [maximal(b) for b in below], [maximal(below[j][:-1]) for j in J]


def count_by_walk(space, order=None):
    """The number of join-preserving tables by the walk over J that
    ``join_homomorphisms`` makes, with J from ``join_order_by_pairs`` unless
    ``order`` passes it in: the count below each position is kept per
    value of the earlier positions the rest of the walk reads, and the
    n + 1 - (lower bound) values of the last position are counted at once."""
    n = space.n
    J, _, covers = order or join_order_by_pairs(space)
    last = len(J) - 1
    # live[p]: the positions before p that a cover at p or later reads
    live = [
        sorted({q for r in range(p, len(J)) for q in covers[r] if q < p}) for p in range(len(J))
    ]
    g = [0] * len(J)
    memo = {}

    def count(p):
        low = max((g[q] for q in covers[p]), default=0)
        if p == last:
            return n + 1 - low
        key = (p, *(g[q] for q in live[p]))
        total = memo.get(key)
        if total is None:
            total = 0
            for v in range(low, n + 1):
                g[p] = v
                total += count(p + 1)
            memo[key] = total
        return total

    return count(0) if J else 1


def acts_and_joins_by_pairs(space, t):
    """The level table commutes with the action at every u and function,
    and with every binary join of the pair table."""
    tt = space.gops.tensor_t
    for u, au in enumerate(space.unary_ops("act")):
        tu = tt[u]
        for i in range(space.size):
            if t[au[i]] != tu[t[i]]:
                return False
    for i, j, k_join, _ in space.pair_ops():
        a, b = t[i], t[j]
        if t[k_join] != (a if a >= b else b):
            return False
    return True


def passes_cut_by_pairs(space, t, drop_tenlax=False):
    """The representability cut scanned over every function and pair:
    act, sup, minus and, unless dropped, tenlax."""
    minus_t = space.unary_ops("minus")  # refuses an escaping minus before any check
    if not acts_and_joins_by_pairs(space, t):
        return False
    for u, mu in enumerate(minus_t):
        for i in range(space.size):
            ti = t[i]
            if t[mu[i]] != (ti - u if ti > u else 0):
                return False
    if not drop_tenlax:
        tt = space.gops.tensor_t
        for i, j, _, k_tens in space.pair_ops():
            if k_tens >= 0 and t[k_tens] > tt[t[i]][t[j]]:
                return False
    return True


def enriched_c_by_generator(phi, space):
    """The sup of psi tensor phi, one generator ``max`` per function."""
    tt = space.gops.tensor_t
    return tuple(max((tt[a][b] for a, b in zip(f, phi)), default=0) for f in space.ifuncs)


def c_of_levels_by_generator(phi_matrix, cy, cx):
    """psi |-> (x |-> sup_y psi(y) tensor phi(x,y)), one image tuple per
    function of CY, looked up in CX."""
    tt = cy.gops.tensor_t
    return tuple(
        cx.iindex[
            tuple(max((tt[a][b] for a, b in zip(f, row)), default=0) for row in phi_matrix)
        ]
        for f in cy.ifuncs
    )


def retract_phi_by_generator(space, t):
    """inf over psi of hom(psi(x), t(psi)), one generator ``min`` per point."""
    ht = space.gops.hom_t
    pairs = list(zip(space.ifuncs, t))
    return tuple(
        min((ht[f[x]][v] for f, v in pairs), default=space.n) for x in range(space.carrier_size)
    )


def cx_levels_by_filter(gops, ia):
    """``duality.cx_levels`` by filtering each extension v of each table
    against every constrained earlier coordinate in turn."""
    ht = gops.hom_t
    levels = range(gops.n + 1)
    tables = [()]
    for k in range(len(ia)):
        cons = [(x, ia[x][k], ia[k][x]) for x in range(k) if ia[x][k] or ia[k][x]]
        tables = [
            f + (v,)
            for f in tables
            for v in levels
            if all(a <= ht[v][f[x]] and b <= ht[f[x]][v] for x, a, b in cons)
        ]
    return tables


def check_sep_by_members(L):
    """``stone.check_sep`` by scanning the members in ascending order for
    each pair."""
    space = L.space
    Q = space.base
    n = space.n
    fs = space.ifuncs
    failures, notes, checked = [], [], 0
    for x in range(Q.size):
        for y in range(Q.size):
            if Q.leq[y][x]:
                continue
            checked += 1
            witness = next((i for i in L.members if fs[i][x] == n and fs[i][y] == 0), None)
            if witness is None:
                failures.append(f"no separator for x={x}, y={y}")
            elif len(notes) < 4:
                notes.append(f"({x},{y}) separated by f{witness}")
    return CheckReport(
        name="separation", checked=checked, failures=tuple(failures), notes=tuple(notes)
    )


def density_at_level_by_members(space, L, u):
    """``stone.density_at_level`` by comparing each function with every
    member, point by point."""
    level = u * space.n
    if level.denominator != 1:
        raise ValueError(f"density level {u} must be a grid point")
    level = level.numerator
    ht = space.gops.hom_t
    fs = space.ifuncs
    failures = []
    exact = True
    member_set = set(L.members)
    for i in range(space.size):
        if i in member_set:
            continue
        exact = False
        if not any(
            all(ht[a][b] >= level and ht[b][a] >= level for a, b in zip(fs[i], fs[j]))
            for j in L.members
        ):
            failures.append(f"f{i} has no member within level {format_value(u)}")
    notes = [S.DEGENERACY_NOTE]
    if exact:
        notes.append("exact equality: the substructure is all of the space")
    return CheckReport(
        name=f"density@{format_value(u)}",
        checked=space.size,
        failures=tuple(failures),
        notes=tuple(notes),
    )


def mult_map_by_masks(V):
    """``posets.mult_map``: the union of each upper set of VX, member by
    member."""
    out = {}
    for s in P.upper_sets(V.poset):
        union = 0
        for i in P.mask_elements(s):
            union |= V.members[i]
        out[s] = union
    return out


def verify_monad_laws_by_scan(Q):
    """``posets.verify_monad_laws`` with the unions of ``mult_map_by_masks``
    and Ve(A) found by testing every member of VX against every point of
    A; associativity reads ``_principal_unions`` as the library does."""
    failures = []
    checked = 0
    V = P.vietoris(Q)
    m_x = mult_map_by_masks(V)
    principals = [P._principal_in_vx(V, i) for i in range(len(V.members))]
    for i, a in enumerate(V.members):
        checked += 1
        if m_x[principals[i]] != a:
            failures.append(f"m.eV != id at upper set {P.mask_elements(a)}")
    e_x = P.unit_map(Q)
    for a in V.members:
        checked += 1
        hits = 0
        points = P.mask_elements(a)
        for j, b in enumerate(V.members):
            if any(e_x[x] | b == e_x[x] for x in points):
                hits |= 1 << j
        if m_x[hits] != a:
            failures.append(f"m.Ve != id at upper set {P.mask_elements(a)}")
    mapped = P._principal_unions(V, m_x, principals)
    for seed, union in mapped.items():
        checked += 1
        if m_x[seed] != m_x[union]:
            failures.append(f"associativity fails at principal of {seed}")
    checked += 1
    return CheckReport(
        name=f"vietoris-monad-laws[{Q.size} points]",
        checked=checked,
        failures=tuple(failures),
    )


def is_cogenerated_by_scan(space):
    """``enriched.is_cogenerated`` by the infimum of hom gaps over every
    function, pair by pair, and a separation scan over every function."""
    ht = space.gops.hom_t
    fs = space.ifuncs
    ia = space.structure
    pairs = [(x, y) for x in range(len(ia)) for y in range(len(ia))]
    if any(min((ht[f[y]][f[x]] for f in fs), default=space.n) != ia[x][y] for x, y in pairs):
        return False
    return not any(x != y and all(f[x] == f[y] for f in fs) for x, y in pairs)


def lemma1_audit_by_scan(X, n):
    """``enriched.lemma1_audit`` with the least level at y found by scanning
    every function that hits 1 at x."""
    space = E.enumerate_cx(X, n)
    gops = space.gops
    if not E.is_cogenerated(space):
        return CheckReport(
            name="structure-recovery",
            checked=0,
            notes=("skipped: category is not cogenerated by the interval",),
        )
    failures = []
    checked = 0
    for x in range(X.size):
        for y in range(X.size):
            checked += 1
            best = min((f[y] for f in space.ifuncs if f[x] == gops.n), default=gops.n)
            if best != space.structure[y][x]:
                failures.append(
                    f"a({y},{x}) = {format_value(X.a(y, x))} but infimum gives "
                    f"{format_value(gops.values[best])}"
                )
    return CheckReport(name="structure-recovery", checked=checked, failures=tuple(failures))


def thinned_copies(space):
    """Up to three nonempty spaces over the same base, each holding every
    third function; mostly not cogenerated."""
    return [
        D.FunctionSpace(space.base, space.gops, space.ifuncs[k::3])
        for k in range(min(3, space.size))
    ]


def compare_cogeneration(X, n):
    """``lemma1_audit`` and ``is_cogenerated`` against the scans on C(X)
    and on its ``thinned_copies``; returns how many spaces are
    cogenerated."""
    assert E.lemma1_audit(X, n) == lemma1_audit_by_scan(X, n), (X.matrix, n)
    cogenerated = 0
    for sub in [E.enumerate_cx(X, n), *thinned_copies(E.enumerate_cx(X, n))]:
        got = E.is_cogenerated(sub)
        assert got == is_cogenerated_by_scan(sub), (X.matrix, n, sub.ifuncs)
        cogenerated += got
    return cogenerated


def compare_cx_levels(structures):
    """``cx_levels`` against the filter on each (gops, structure levels);
    returns the number of tables compared."""
    compared = 0
    for gops, ia in structures:
        got = D.cx_levels(gops, ia)
        assert got == cx_levels_by_filter(gops, ia), (gops.quantale.name, gops.n, ia)
        compared += len(got)
    return compared


def cx_structures(poset_size, category_size, grids, tensors):
    """(gops, structure levels) of every poset of size 1 to
    ``poset_size`` and every enriched category of size 1 to
    ``category_size``, on each closed grid Q_n, n in ``grids``, of each
    tensor."""
    for q in tensors:
        for n in grids:
            if not T.grid_closed(q, n):
                continue
            gops = q.grid(n)
            for size in range(1, poset_size + 1):
                for Q in P.all_posets(size):
                    yield gops, D.structure_levels(Q, gops)
            for size in range(1, category_size + 1):
                for X in E.enumerate_enriched_categories(size, q, n):
                    yield gops, D.structure_levels(X, gops)


def compare_stone_checks(L):
    """``check_sep`` and ``density_at_level`` at every grid level against
    the member scans."""
    space = L.space
    assert S.check_sep(L) == check_sep_by_members(L), (space.base, space.n, L.members)
    for u in T.GridChain(space.n).elements:
        got = S.density_at_level(space, L, u)
        assert got == density_at_level_by_members(space, L, u), (space.base, space.n, L.members, u)


OP_SUBSETS = (
    ("join", "tensor", "act"),
    ("join",),
    ("tensor", "act"),
    ("join", "power"),
    ("act", "minus"),
    ("constants",),
    ("join", "constants"),
    (),
)


def stone_closures(sizes, grids, tensors, seed):
    """Closures of every poset space of the given sizes and grids: from
    the down-set indicators, from a seeded random generator set, and from
    nothing, under each op subset of ``OP_SUBSETS``."""
    rng = random.Random(seed)
    for q in tensors:
        for n in grids:
            for size in sizes:
                for Q in P.all_posets(size):
                    space = D.function_space(Q, q, n)
                    picks = rng.randint(1, min(3, space.size))
                    seeds = (
                        S.down_set_indicators(space),
                        tuple(rng.sample(range(space.size), picks)),
                        (),
                    )
                    for gens in seeds:
                        for ops in OP_SUBSETS:
                            yield S.generate_closure(space, gens, ops)


def _outcome(check, *args):
    """The check's verdict, or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def compare_certificates(space, bound):
    """``passes_cut`` (both branches) and ``is_finsup_functional`` against
    the full scans, on every grid table when (n+1)^|CX| <= ``bound`` and
    on every join-preserving table otherwise; returns the number of tables
    compared.  An escaping minus must raise the same ValueError on both
    sides.  Where the tensor of two join-irreducibles leaves the space,
    the cut with tenlax must be refused instead of decided."""
    J = join_order_by_pairs(space)[0]
    tensor = space.tensor_table()
    refuses_tenlax = any(tensor[j][k] < 0 for j in J for k in J)
    if (space.n + 1) ** space.size <= bound:
        tables = iproduct(range(space.n + 1), repeat=space.size)
    else:
        tables = D.join_homomorphisms(space)
    compared = 0
    for t in tables:
        for drop in (True, False):
            got = _outcome(D.passes_cut, space, t, drop)
            want = _outcome(passes_cut_by_pairs, space, t, drop)
            case = (space.base, space.quantale.name, space.n, t, drop)
            if refuses_tenlax and not drop and not isinstance(want, str):
                assert "tenlax is not decided" in str(got), case
            else:
                assert got == want, case
        func = D.Functional.from_levels(space, t)
        assert E.is_finsup_functional(func) == acts_and_joins_by_pairs(space, t), (
            space.base, space.quantale.name, space.n, t
        )
        compared += 1
    return compared


def compare_enriched_maps(X, n):
    """``enriched_c`` and ``retract_phi`` against the generator formulas on
    every grid distributor out of the unit into X; returns the number of
    distributors compared."""
    space = E.enumerate_cx(X, n)
    compared = 0
    for (phi,) in E.grid_distributors(VC.unit_category(X.quantale), X, n):
        rep = E.enriched_c(phi, space)
        assert rep.itable == enriched_c_by_generator(phi, space), (X.matrix, n, phi)
        assert E.retract_phi(rep) == retract_phi_by_generator(space, rep.itable), (X.matrix, n)
        compared += 1
    return compared


def full_comparison_spaces():
    """Every poset space of size 1 to 4 at n <= 3 under lukasiewicz and
    min (1,452), and every enriched C(X) under both of size <= 2 at n <= 3
    and of size 3 at n <= 2 (519), as (space, X or None) pairs."""
    for q in (LUK, MIN):
        for n in (1, 2, 3):
            for size in (1, 2, 3, 4):
                for Q in P.all_posets(size):
                    yield D.function_space(Q, q, n), None
    for q in (LUK, MIN):
        for size, grids in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2))):
            for n in grids:
                for X in E.enumerate_enriched_categories(size, q, n):
                    yield E.enumerate_cx(X, n), X


def _full_comparison():
    spaces = tables = distributors = 0
    for space, X in full_comparison_spaces():
        order = join_order_by_pairs(space)
        assert space.join_order == order, (space.base, space.n)
        assert D.count_join_homomorphisms(space) == count_by_walk(space, order), (space.base, space.n)
        tables += compare_certificates(space, 20_000)
        if X is not None:
            distributors += compare_enriched_maps(X, space.n)
        spaces += 1
    print(f"{spaces} spaces, {tables} tables, {distributors} distributors: all agree")


def _sweep_comparison():
    tables = compare_cx_levels(
        cx_structures(5, 3, (1, 2, 3, 4), (LUK, MIN, T.product()))
    )
    closures = 0
    for sizes, grids in (((1, 2, 3), (1, 2, 3, 4)), ((4,), (1, 2))):
        for L in stone_closures(sizes, grids, (LUK, MIN), seed=11):
            compare_stone_checks(L)
            closures += 1
    categories = 0
    for q in (LUK, MIN):
        for size, grids in ((1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3))):
            for n in grids:
                for X in E.enumerate_enriched_categories(size, q, n):
                    compare_cogeneration(X, n)
                    categories += 1
    posets = [Q for size in range(1, 6) for Q in P.all_posets(size)]
    for Q in posets:
        assert P.verify_monad_laws(Q) == verify_monad_laws_by_scan(Q), Q.leq
    print(
        f"{tables} C(X) tables, {closures} closures, {categories} categories, "
        f"{len(posets)} posets: all agree"
    )


if __name__ == "__main__":
    _full_comparison()
    _sweep_comparison()
