from fractions import Fraction as F

import pytest

from unitcat import posets as P
from unitcat import tnorms as T
from unitcat import vcat as VC

LUK = T.lukasiewicz()


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


def test_vfunctor():
    X = VC.from_poset(P.chain(2), LUK)
    Y = VC.from_poset(P.antichain(2), LUK)
    assert VC.is_vfunctor((0, 1), X, X)
    assert VC.is_vfunctor((0, 0), X, Y)  # constant
    assert not VC.is_vfunctor((0, 1), X, Y)  # forgets the relation


def test_natural_order_and_separation():
    disc = VC.from_poset(P.antichain(2), LUK)
    assert VC.natural_order(disc) == ((True, False), (False, True))
    assert VC.is_separated(disc)
    glued = VC.vcategory(LUK, [["1", "1"], ["1", "1"]])
    assert not VC.is_separated(glued)
    chain = VC.grid_chain_category(LUK, 3)
    order = VC.natural_order(chain)
    assert all(order[i][j] == (i <= j) for i in range(4) for j in range(4))
    assert VC.is_separated(chain)


def test_dual_involutive():
    X = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
    assert VC.dual(VC.dual(X)).matrix == X.matrix
    disc = VC.from_poset(P.antichain(2), LUK)
    assert VC.dual(disc).matrix == disc.matrix
    chain2 = VC.from_poset(P.chain(2), LUK)
    assert VC.dual(chain2).matrix == tuple(
        tuple(row) for row in zip(*chain2.matrix)
    )


def test_power_space_empty_and_singleton():
    empty = VC.power_space(LUK, 0, 2)
    assert empty.size == 1 and empty.matrix == ((F(1),),)
    ps1 = VC.power_space(LUK, 1, 2)
    assert ps1.matrix == VC.grid_chain_category(LUK, 2).matrix


def test_power_space_structure_example():
    ps2 = VC.power_space(LUK, 2, 2)
    funcs = VC.power_functions(2, 2)
    h = funcs.index((F(1), F(1, 2)))
    l = funcs.index((F(1, 2), F(1, 2)))
    assert ps2.a(h, l) == F(1, 2)


def test_power_space_separated_pointwise_order():
    for q in (LUK, T.minimum()):
        ps = VC.power_space(q, 2, 2)
        assert VC.validate_vcategory(ps).passed
        assert VC.is_separated(ps)
        funcs = VC.power_functions(2, 2)
        order = VC.natural_order(ps)
        for i, h in enumerate(funcs):
            for j, l in enumerate(funcs):
                assert order[i][j] == all(a <= b for a, b in zip(h, l))


def test_power_space_needs_closed_grid():
    with pytest.raises(T.GridNotClosed):
        VC.power_space(T.product(), 1, 2)


def test_from_poset_roundtrip():
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            X = VC.from_poset(Q, LUK)
            assert VC.validate_vcategory(X).passed
            assert VC.is_separated(X)
            assert VC.natural_order(X) == Q.leq
            assert VC.underlying_poset(X).leq == Q.leq


def test_unit_category():
    g = VC.unit_category(LUK)
    assert g.size == 1 and g.a(0, 0) == 1


def test_functors_are_monotone():
    from itertools import product as iproduct

    X = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
    Y = VC.grid_chain_category(LUK, 2)
    ox, oy = VC.natural_order(X), VC.natural_order(Y)
    for f in iproduct(range(Y.size), repeat=X.size):
        if VC.is_vfunctor(f, X, Y):
            for x in range(X.size):
                for y in range(X.size):
                    if ox[x][y]:
                        assert oy[f[x]][f[y]]


def test_power_space_matches_fraction_formula():
    for q in (LUK, T.minimum()):
        for s in (1, 2):
            for n in (1, 2, 3):
                tables = VC.power_functions(s, n)
                want = tuple(
                    tuple(min(q.hom(a, b) for a, b in zip(h, l)) for l in tables)
                    for h in tables
                )
                assert VC.power_space(q, s, n).matrix == want
