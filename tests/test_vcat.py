import random
from fractions import Fraction as F
from itertools import product as iproduct

import pytest
from oracles import is_separated_by_order, natural_order, validate_vcategory_by_positions

from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import tnorms as T
from unitcat import vcat as VC

LUK = T.lukasiewicz()


def power_space(q, s, n):
    """The power [0,1]-category Q_n^s: the C(X) of the discrete category on
    s points, with a(h, l) the pointwise infimum of hom(h(i), l(i)), read
    off the grid's hom levels.  Returns the space and the category."""
    space = D.cx_space(VC.from_poset(P.antichain(s), q), q.grid(n))
    ht, values = space.gops.hom_t, space.gops.values
    rows = [
        [values[min((ht[a][b] for a, b in zip(h, l)), default=n)] for l in space.ifuncs]
        for h in space.ifuncs
    ]
    return space, VC.vcategory(q, rows)


def test_validate_discrete_and_enriched():
    disc = VC.from_poset(P.antichain(3), LUK)
    assert VC.validate_vcategory(disc).passed
    X = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
    assert VC.validate_vcategory(X).passed


def test_validate_rejects_weak_diagonal():
    bad = VC.vcategory(LUK, [["1/2"]])
    rep = VC.validate_vcategory(bad)
    assert not rep.passed and "reflexivity" in rep.failures[0]


def test_validate_rejects_broken_triangle():
    bad = VC.vcategory(LUK, [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]])
    rep = VC.validate_vcategory(bad)
    assert not rep.passed and "transitivity" in rep.failures[0]


def _agree(X):
    """The rank check and the separation test against their references,
    whole reports compared; returns the report."""
    got = VC.validate_vcategory(X)
    assert got == validate_vcategory_by_positions(X), X.matrix
    assert VC.is_separated(X) == is_separated_by_order(X), X.matrix
    return got


def test_validation_matches_the_reference_on_enumerated_categories():
    counted = 0
    for q in (LUK, T.minimum()):
        for n in (1, 2, 3):
            for size in (1, 2, 3):
                for X in E.enumerate_enriched_categories(size, q, n):
                    assert _agree(X).passed
                    counted += 1
    assert counted == 2647  # 1,748 under Lukasiewicz, 899 under min


def test_validation_matches_the_reference_on_every_small_matrix():
    # every 2x2 and 3x3 matrix over Q_2, diagonal included
    values = T.GridChain(2).elements
    for q in (T.lukasiewicz(), T.minimum()):
        outcomes = set()
        for size in (2, 3):
            for flat in iproduct(values, repeat=size * size):
                X = VC.VCategory(q, tuple(flat[i : i + size] for i in range(0, len(flat), size)))
                outcomes.add(_agree(X).passed)
        assert outcomes == {True, False}
        # 3 reflexivity and 6 transitivity failures, the first 8 kept
        swapped = VC.vcategory(q, [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]])
        assert len(VC.validate_vcategory(swapped).failures) == 8
        # one table per set of values, whatever their order in the matrix
        assert len(q._ranks) == 7


def test_validation_matches_the_reference_on_arbitrary_rationals():
    rng = random.Random(24)
    q = T.product()
    outcomes = set()
    for _ in range(400):
        size = rng.randint(1, 4)
        pool = [F(1), F(0)] + [F(rng.randint(0, d), d) for d in rng.choices(range(1, 13), k=3)]
        rows = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.5:
            for x in range(size):
                rows[x][x] = F(1)
        rep = _agree(VC.vcategory(q, rows))
        outcomes.add(rep.passed)
    assert outcomes == {True, False}


def test_quantales_never_share_a_rank_table():
    # the same values, passing under Lukasiewicz (1/2 (x) 1/2 = 0) and
    # failing under min: the min check must not read Lukasiewicz's table
    rows = [["1", "1/2", "0"], ["0", "1", "1/2"], ["0", "0", "1"]]
    assert VC.validate_vcategory(VC.vcategory(T.lukasiewicz(), rows)).passed
    rep = VC.validate_vcategory(VC.vcategory(T.minimum(), rows))
    assert rep.failures == ("transitivity at (0,1,2): 1/2 (x) 1/2 > 0",)


def test_natural_order_and_separation():
    disc = VC.from_poset(P.antichain(2), LUK)
    assert natural_order(disc) == ((True, False), (False, True))
    assert VC.is_separated(disc)
    glued = VC.vcategory(LUK, [["1", "1"], ["1", "1"]])
    assert not VC.is_separated(glued)
    # Q_3 with structure hom: level i reaches level j at the unit iff i <= j
    chain = VC.vcategory(LUK, [[LUK.hom(F(i, 3), F(j, 3)) for j in range(4)] for i in range(4)])
    order = natural_order(chain)
    assert all(order[i][j] == (i <= j) for i in range(4) for j in range(4))
    assert VC.is_separated(chain)


def test_from_poset_roundtrip():
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            X = VC.from_poset(Q, LUK)
            assert VC.validate_vcategory(X).passed
            assert VC.is_separated(X)
            assert natural_order(X) == Q.leq


def test_unit_category():
    g = VC.unit_category(LUK)
    assert g.size == 1 and g.a(0, 0) == 1


def test_functors_are_monotone():
    # the rows out of the unit are the functors into the interval, the
    # C(X) tables the functors into its opposite
    X = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
    cats = [X] + [VC.from_poset(Q, LUK) for Q in P.all_posets(3)]
    for Y in cats:
        order = natural_order(Y)
        below = [(x, y) for x in range(Y.size) for y in range(Y.size) if order[x][y]]
        rows = [phi for (phi,) in E.grid_distributors(VC.unit_category(LUK), Y, 2)]
        assert rows
        for phi in rows:
            assert all(phi[x] <= phi[y] for x, y in below)
        for f in E.enumerate_cx(Y, 2).ifuncs:
            assert all(f[y] <= f[x] for x, y in below)


def test_power_space_empty_and_singleton():
    space, empty = power_space(LUK, 0, 2)
    assert space.ifuncs == ((),)
    assert empty.size == 1 and empty.matrix == ((F(1),),)
    _, ps1 = power_space(LUK, 1, 2)
    assert ps1.matrix == tuple(
        tuple(LUK.hom(F(i, 2), F(j, 2)) for j in range(3)) for i in range(3)
    )


def test_power_space_structure_example():
    space, ps2 = power_space(LUK, 2, 2)
    h = space.index[(F(1), F(1, 2))]
    l = space.index[(F(1, 2), F(1, 2))]
    assert ps2.a(h, l) == F(1, 2)


def test_power_space_separated_pointwise_order():
    for q in (LUK, T.minimum()):
        space, ps = power_space(q, 2, 2)
        assert VC.validate_vcategory(ps).passed
        assert VC.is_separated(ps)
        funcs = space.functions
        order = natural_order(ps)
        for i, h in enumerate(funcs):
            for j, l in enumerate(funcs):
                assert order[i][j] == all(a <= b for a, b in zip(h, l))
        strict = {(i, j) for i in range(ps.size) for j in range(ps.size) if i != j and order[i][j]}
        assert strict == {(i, j) for i, j, k, _ in space.pair_ops() if k == j != i}


def test_power_space_needs_closed_grid():
    with pytest.raises(T.GridNotClosed):
        power_space(T.product(), 1, 2)


def test_power_space_matches_fraction_formula():
    for q in (LUK, T.minimum()):
        for s in (1, 2):
            for n in (1, 2, 3):
                tables = tuple(iproduct(T.GridChain(n).elements, repeat=s))
                want = tuple(
                    tuple(min(q.hom(a, b) for a, b in zip(h, l)) for l in tables)
                    for h in tables
                )
                space, ps = power_space(q, s, n)
                assert space.functions == tables
                assert ps.matrix == want
