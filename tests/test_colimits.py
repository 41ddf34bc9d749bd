"""Copowers and powers in the function spaces C(X): the "act" and "power"
tables of ``duality.FunctionSpace``, against the pointwise formulas and the
universal property of the copower in the power category."""

from fractions import Fraction as F

from unitcat import duality as D
from unitcat import posets as P
from unitcat import tnorms as T
from unitcat import vcat as VC

LUK = T.lukasiewicz()


def discrete_cx(q, s, n):
    """C(X) of the discrete category on s points: every table s -> Q_n."""
    return D.cx_space(VC.from_poset(P.antichain(s), q), q.grid(n))


def idx4(v):
    return int(F(v) * 4)


def test_copower_on_power_space_is_pointwise_tensor():
    space = discrete_cx(LUK, 2, 2)
    funcs, values = space.functions, space.gops.values
    act = space.unary_ops("act")

    def a(h, l):
        return min(LUK.hom(x, y) for x, y in zip(h, l))

    for i, h in enumerate(funcs):
        for u, uv in enumerate(values):
            c = funcs[act[u][i]]
            assert c == tuple(LUK.tensor(v, uv) for v in h)
            # a(u . h, l) = hom(u, a(h, l)) for every l
            assert all(a(c, l) == LUK.hom(uv, a(h, l)) for l in funcs)


def test_copower_units_and_bottom():
    space = discrete_cx(LUK, 1, 4)
    act = space.unary_ops("act")
    bottom = space.constant_index(0)
    assert bottom == 0
    for x in range(5):
        assert act[4][x] == x
        assert act[0][x] == bottom


def test_upower_examples():
    chain = discrete_cx(LUK, 1, 4)
    power = chain.unary_ops("power")
    assert power[idx4(F(1, 2))][idx4(F(1, 4))] == idx4(F(3, 4))
    for x in range(5):
        assert power[4][x] == x
    space = discrete_cx(LUK, 2, 2)
    funcs = space.functions
    power = space.unary_ops("power")
    for i, h in enumerate(funcs):
        for u, uv in enumerate(space.gops.values):
            assert funcs[power[u][i]] == tuple(LUK.hom(uv, v) for v in h)
