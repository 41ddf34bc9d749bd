"""Reference implementations for the J-first function-space code.

Each one is the formula the library used before J was read off the
pointwise meets: the join-irreducibles and their order from the full
pair table, the memo walk over J for the count, the full pair scans of
the functional checks, and the generator formulas of the enriched maps.
They walk every pair (or every function) on purpose, so they share no
code with what they check beyond ``pair_ops``/``le_pairs`` and the unary
tables.

Run as a script to compare everything on the 1,971 spaces named in
``full_comparison_spaces``: ``PYTHONPATH=src python tests/oracles.py``
(about 27 minutes on one core of a 2-core x86_64 machine).
"""

from itertools import product as iproduct

from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import tnorms as T

LUK = T.lukasiewicz()
MIN = T.minimum()


def join_order_by_pairs(space):
    """``FunctionSpace.join_order`` from one pass over ``le_pairs``.

    A function is join-irreducible when it is not the bottom and not the
    join of two functions other than itself: in a finite lattice, when the
    functions strictly below it have a greatest one.  The enumeration is a
    linear extension of the pointwise order, so that one can only be the
    last of them, and it is greatest when exactly the others lie below it.
    """
    strictly_all = [[] for _ in range(space.size)]
    for i, j in space.le_pairs():
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


def enriched_c_map_by_generator(phi_matrix, cy, cx):
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
    for phi in E.grid_distributors_into(X, n):
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


if __name__ == "__main__":
    _full_comparison()
