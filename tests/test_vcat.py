from fractions import Fraction as F
from itertools import product as iproduct

import pytest

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


def test_natural_order_and_separation():
    disc = VC.from_poset(P.antichain(2), LUK)
    assert VC.natural_order(disc) == ((True, False), (False, True))
    assert VC.is_separated(disc)
    glued = VC.vcategory(LUK, [["1", "1"], ["1", "1"]])
    assert not VC.is_separated(glued)
    # Q_3 with structure hom: level i reaches level j at the unit iff i <= j
    chain = VC.vcategory(LUK, [[LUK.hom(F(i, 3), F(j, 3)) for j in range(4)] for i in range(4)])
    order = VC.natural_order(chain)
    assert all(order[i][j] == (i <= j) for i in range(4) for j in range(4))
    assert VC.is_separated(chain)


def test_from_poset_roundtrip():
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            X = VC.from_poset(Q, LUK)
            assert VC.validate_vcategory(X).passed
            assert VC.is_separated(X)
            assert VC.natural_order(X) == Q.leq


def test_unit_category():
    g = VC.unit_category(LUK)
    assert g.size == 1 and g.a(0, 0) == 1


def test_functors_are_monotone():
    # the rows out of the unit are the functors into the interval, the
    # C(X) tables the functors into its opposite
    X = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
    cats = [X] + [VC.from_poset(Q, LUK) for Q in P.all_posets(3)]
    for Y in cats:
        order = VC.natural_order(Y)
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
        order = VC.natural_order(ps)
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
