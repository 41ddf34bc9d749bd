from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitcat import tnorms as T

LUK = T.lukasiewicz()
MIN = T.minimum()
PROD = T.product()
OSUM = T.ordinal_sum((F(1, 4), F(3, 4), T.Lukasiewicz()))

units = st.fractions(min_value=0, max_value=1, max_denominator=24)
quantales = st.sampled_from([LUK, MIN, PROD, OSUM])


def test_lukasiewicz_tensor_example():
    assert T.tensor(LUK, F(7, 10), F(6, 10)) == F(3, 10)


def test_unit_law_every_variant():
    for q in (LUK, MIN, PROD, OSUM):
        for v in (F(0), F(1, 3), F(5, 8), F(1)):
            assert T.tensor(q, F(1), v) == v


def test_ordinal_sum_single_segment():
    assert T.tensor(OSUM, F(1, 2), F(5, 8)) == F(3, 8)


def test_ordinal_sum_outside_segment_is_min():
    assert T.tensor(OSUM, F(1, 8), F(7, 8)) == F(1, 8)
    assert T.tensor(OSUM, F(7, 8), F(15, 16)) == F(7, 8)


def test_ordinal_sum_zero_segments_is_minimum():
    empty = T.Quantale(T.OrdinalSum(()))
    for u in (F(0), F(1, 3), F(1)):
        for v in (F(0), F(2, 5), F(1)):
            assert empty.tensor(u, v) == MIN.tensor(u, v)
            assert empty.hom(u, v) == MIN.hom(u, v)


def test_ordinal_sum_rejects_overlap():
    with pytest.raises(T.MalformedOrdinalSum):
        T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz()), (F(1, 4), F(3, 4), T.Product()))
    with pytest.raises(T.MalformedOrdinalSum):
        T.ordinal_sum((F(1, 2), F(1, 2), T.Lukasiewicz()))


def test_hom_examples():
    assert T.hom(PROD, F(1, 2), F(1, 4)) == F(1, 2)
    assert T.hom(PROD, 0, 0) == 1
    assert T.hom(LUK, F(1, 2), F(1, 4)) == F(3, 4)
    assert T.hom(MIN, F(1, 2), F(1, 4)) == F(1, 4)
    assert T.hom(MIN, F(1, 4), F(1, 2)) == 1


def test_truncated_minus():
    assert T.truncated_minus(F(8, 10), F(5, 10)) == F(3, 10)
    assert T.truncated_minus(F(3, 10), F(5, 10)) == 0
    for u in (F(0), F(2, 7), F(1)):
        assert T.truncated_minus(u, 0) == u


@given(quantales, units, units, units)
@settings(max_examples=300)
def test_adjunction_property(q, u, v, w):
    assert (q.tensor(u, v) <= w) == (v <= q.hom(u, w))


@given(quantales, units, units)
@settings(max_examples=200)
def test_tensor_below_meet(q, u, v):
    assert q.tensor(u, v) <= min(u, v)
    assert q.tensor(u, v) == q.tensor(v, u)


@given(quantales, units, units, units)
@settings(max_examples=200)
def test_hom_monotone_antitone(q, u, v, w):
    if v <= w:
        assert q.hom(u, v) <= q.hom(u, w)
        assert q.hom(w, u) <= q.hom(v, u)


def test_hom_of_unit_is_identity():
    for q in (LUK, MIN, PROD, OSUM):
        for v in (F(0), F(1, 6), F(11, 12), F(1)):
            assert q.hom(F(1), v) == v


def test_nilpotency():
    assert T.is_nilpotent(LUK, F(1, 2)) == (True, 2)
    assert T.is_nilpotent(LUK, F(3, 4)) == (True, 4)
    assert T.is_nilpotent(LUK, F(0)) == (False, None)
    assert T.is_nilpotent(LUK, F(1)) == (False, None)
    assert T.is_nilpotent(PROD, F(1, 2)) == (False, None)
    assert T.is_nilpotent(MIN, F(2, 3)) == (False, None)


def test_nilpotency_in_ordinal_segment_matches_iteration():
    q = T.ordinal_sum((F(0), F(10, 11), T.Lukasiewicz()))
    nil, n = T.is_nilpotent(q, F(9, 10))
    assert nil
    acc, k = F(9, 10), 1
    while acc != 0:
        acc = q.tensor(acc, F(9, 10))
        k += 1
    assert n == k == 100


def test_idempotents():
    for u in (F(0), F(1, 3), F(1)):
        assert T.is_idempotent(MIN, u)
    assert not T.is_idempotent(LUK, F(1, 2))
    assert T.is_idempotent(LUK, F(0)) and T.is_idempotent(LUK, F(1))


def test_nilpotent_free():
    assert T.nilpotent_free(MIN) and T.nilpotent_free(PROD)
    assert not T.nilpotent_free(LUK)
    assert not T.nilpotent_free(T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz())))
    assert T.nilpotent_free(T.ordinal_sum((F(1, 4), F(3, 4), T.Lukasiewicz())))


def test_grid_closed():
    assert T.grid_closed(LUK, 4)
    assert T.grid_closed(MIN, 4)
    assert not T.grid_closed(PROD, 2)
    assert T.grid_closed(PROD, 1)
    for n in range(1, 9):
        assert T.grid_closed(LUK, n) and T.grid_closed(MIN, n)


def test_axioms_exhaustive():
    assert T.verify_quantale_axioms(LUK, T.GridChain(12)).passed
    assert T.verify_quantale_axioms(MIN, T.GridChain(12)).passed


def test_axioms_sampled_product_and_ordinal():
    assert T.verify_quantale_axioms_sampled(PROD, seed=7, count=500).passed
    two_seg = T.ordinal_sum(
        (F(0), F(1, 2), T.Lukasiewicz()), (F(1, 2), F(1), T.Product())
    )
    assert T.verify_quantale_axioms_sampled(two_seg, seed=7, count=500).passed


def test_axioms_negative_control_bad_unit():
    corrupt = SimpleNamespace(
        tensor=LUK.tensor, hom=LUK.hom, unit=F(1, 2), name="corrupt"
    )
    rep = T.verify_quantale_axioms(corrupt, T.GridChain(2))
    assert not rep.passed
    assert any("unit" in f for f in rep.failures)


def test_zero_divisors():
    rep = T.no_zero_divisor_audit(LUK, T.GridChain(6))
    assert rep.passed and rep.notes
    assert T.no_zero_divisor_audit(MIN, T.GridChain(6)).passed
    rep = T.no_zero_divisor_audit(PROD, T.SampleSpec(seed=3, count=100))
    assert rep.passed


def test_grid_ops_tables_match_fractions():
    for q in (LUK, MIN):
        ops = T.GridOps(q, 5)
        for i in range(6):
            for j in range(6):
                u, v = F(i, 5), F(j, 5)
                assert ops.values[ops.tensor_t[i][j]] == q.tensor(u, v)
                assert ops.values[ops.hom_t[i][j]] == q.hom(u, v)
                assert ops.values[ops.minus_t[i][j]] == T.truncated_minus(u, v)


def test_grid_ops_rejects_open_grid():
    with pytest.raises(T.GridNotClosed):
        T.GridOps(PROD, 3)
    for _ in range(2):  # an open grid is refused again, not remembered as built
        with pytest.raises(T.GridNotClosed):
            PROD.grid(3)


def test_grid_is_built_once_per_quantale():
    q = T.lukasiewicz()
    assert q.grid(3) is q.grid(3)
    assert q.grid(3) is not q.grid(2)
    assert q.grid(3) is not T.lukasiewicz().grid(3)
    assert q == T.lukasiewicz() and hash(q) == hash(T.lukasiewicz())
    assert repr(q) == repr(T.lukasiewicz())


def test_rational_sample_deterministic():
    a = T.rational_sample(T.SampleSpec(seed=11, count=40))
    b = T.rational_sample(T.SampleSpec(seed=11, count=40))
    assert a == b and F(0) in a and F(1) in a


def _grid_closed_by_membership(q, n):
    """Oracle: every tensor and hom of two grid points is a grid point."""
    grid = T.GridChain(n).elements
    on_grid = set(grid)
    return all(
        q.tensor(u, v) in on_grid and q.hom(u, v) in on_grid
        for u in grid
        for v in grid
    )


def test_grid_closed_agrees_with_membership_scan():
    ordinals = (
        T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz())),
        T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz()), (F(1, 2), F(1), T.Product())),
    )
    for q in (MIN, LUK, PROD) + ordinals:
        for n in range(1, 9):
            closed = _grid_closed_by_membership(q, n)
            assert T.grid_closed(q, n) == closed, (q.name, n)
            if not closed:
                with pytest.raises(
                    T.GridNotClosed, match=f"Q_{n} is not closed under the {q.name} tensor"
                ):
                    T.GridOps(q, n)
