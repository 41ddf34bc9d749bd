"""Grid distributors between [0,1]-categories, as ``enriched`` enumerates
them: checked against the 0/1 distributors of ``posets`` and against the
identity distributor, whose C(.) map is the identity."""

from itertools import product as iproduct

from oracles import is_continuous_distributor
from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import tnorms as T
from unitcat import vcat as VC

LUK = T.lukasiewicz()


def compose_levels(tt, phi2, phi):
    """phi then phi2 on level matrices: (x, z) |-> sup_y phi(x, y) tensor phi2(y, z)."""
    m = len(phi)
    return tuple(
        tuple(max((tt[phi[x][y]][phi2[y][z]] for y in range(m)), default=0) for z in range(m))
        for x in range(m)
    )


def test_identity_distributor_is_unit():
    X = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
    spx = E.enumerate_cx(X, 2)
    tt = spx.gops.tensor_t
    ident = tuple(tuple(row) for row in spx.structure)
    dists = E.grid_distributors(X, X, 2)
    assert ident in dists
    assert D.c_of_levels(ident, spx, spx) == tuple(range(spx.size))
    # the identity absorbs exactly the distributors, and makes one of anything
    for phi in dists:
        assert compose_levels(tt, ident, phi) == phi == compose_levels(tt, phi, ident)
    for flat in iproduct(range(3), repeat=4):
        r = (flat[:2], flat[2:])
        absorbed = compose_levels(tt, ident, compose_levels(tt, r, ident))
        assert absorbed in dists
        assert (r in dists) == (absorbed == r)


def test_distributor_rejects_unclosed_01_matrix():
    c2 = P.chain(2)
    X = VC.from_poset(c2, LUK)
    bad = ((0, 0), (1, 0))  # not down-closed in the source
    assert not is_continuous_distributor(bad, c2, c2)
    assert ((0, 0), (2, 0)) not in E.grid_distributors(X, X, 2)
    # out of the unit a row must be up-closed: 0 <= 1 carries phi(0) to phi(1)
    rows = [phi for (phi,) in E.grid_distributors(VC.unit_category(LUK), X, 2)]
    assert (2, 0) not in rows and (0, 2) in rows


def test_distributors_match_kleisli_morphisms():
    # the 0/1-valued grid distributors X -|-> Y are the continuous ones,
    # for every pair of posets of size <= 2 (X = Y too); the orders differ,
    # lexicographic in the levels against ascending row bitmasks
    posets = [Q for size in (1, 2) for Q in P.all_posets(size)]
    pairs = 0
    for Q in posets:
        for R in posets:
            X, Y = VC.from_poset(Q, LUK), VC.from_poset(R, LUK)
            crisp = {
                tuple(tuple(v // 2 for v in row) for row in phi)
                for phi in E.grid_distributors(X, Y, 2)
                if all(v in (0, 2) for row in phi for v in row)
            }
            assert crisp == set(P.continuous_distributors(Q, R)), (Q.leq, R.leq)
            for flat in iproduct((0, 1), repeat=Q.size * R.size):
                mat = tuple(flat[x * R.size : (x + 1) * R.size] for x in range(Q.size))
                assert (mat in crisp) == is_continuous_distributor(mat, Q, R)
            pairs += 1
    assert pairs == 16
