import random

import pytest
from oracles import (
    all_posets_by_clash,
    continuous_distributors_by_filter,
    is_continuous_distributor,
    verify_monad_laws_by_scan,
)
from test_duality import _up_to_isomorphism, graph_distributor, kleisli_identity

from unitcat import posets as P
from unitcat.suites import _random_distributor


def test_poset_validation():
    P.poset([[1, 1], [0, 1]])
    with pytest.raises(P.InvalidPoset):
        P.poset([[0, 1], [0, 1]])  # irreflexive
    with pytest.raises(P.InvalidPoset):
        P.poset([[1, 1], [1, 1]])  # not antisymmetric
    with pytest.raises(P.InvalidPoset):
        P.poset([[1, 1, 0], [0, 1, 1], [0, 0, 1]])  # not transitive


def test_closures():
    c2 = P.chain(2)
    assert P.up_closure(c2, 0b1) == 0b11
    assert P.up_closure(c2, 0) == 0
    v = P.vee()
    assert P.up_closure(v, 0b1) == 0b101


def test_upper_sets_ordering_contract():
    assert P.upper_sets(P.chain(2)) == (0, 2, 3)
    assert P.upper_sets(P.antichain(2)) == (0, 1, 2, 3)
    assert P.upper_sets(P.vee()) == (0, 4, 5, 6, 7)


def test_vietoris_shapes():
    one = P.chain(1)
    v1 = P.vietoris(one)
    assert len(v1.members) == 2  # the two-element chain
    assert P.poset(v1.poset.leq)  # valid poset
    for k in range(1, 5):
        assert len(P.vietoris(P.antichain(k)).members) == 2 ** k
    # A subset of B means B below A in the reverse-containment order
    c2 = P.chain(2)
    v = P.vietoris(c2)
    i_empty, i_full = v.index(0), v.index(3)
    assert v.poset.leq[i_full][i_empty]


def test_unit_and_mult_examples():
    c2 = P.chain(2)
    assert P.unit_map(c2) == {0: 0b11, 1: 0b10}
    v = P.vietoris(c2)
    m = P.mult_map(c2, v)
    script = (1 << v.index(0)) | (1 << v.index(2))
    assert m[script] == 2


def test_vietoris_map_collapse():
    ac2, one = P.antichain(2), P.chain(1)
    f = (0, 0)
    vf = P.vietoris_map(f, ac2, one)
    assert vf[0b01] == 0b1 and vf[0b10] == 0b1 and vf[0] == 0
    with pytest.raises(P.InvalidPoset):
        P.vietoris_map((1, 0), P.chain(2), P.antichain(2))


def test_monad_laws_small_sweep():
    for n in range(1, 4):
        for Q in P.all_posets(n):
            assert P.verify_monad_laws(Q).passed


def test_monad_laws_match_the_scan_oracle():
    # unions from lower covers and Ve from the principals give the reports
    # of the member-by-member scans on every poset of size <= 4, every
    # 16th of size 5 and the 5-antichain; the script run of oracles.py
    # compares all 4,473 posets of size <= 5
    posets = [Q for size in range(1, 5) for Q in P.all_posets(size)]
    posets += [*P.all_posets(5)[::16], P.antichain(5)]
    assert len(posets) == 242 + 265 + 1
    for Q in posets:
        assert P.verify_monad_laws(Q) == verify_monad_laws_by_scan(Q), Q.leq


def test_monad_laws_at_the_five_antichain():
    # VX has 32 members and VVX 7,581 (the Dedekind number M(5))
    rep = P.verify_monad_laws(P.antichain(5))
    assert rep.passed and rep.checked == 32 + 32 + 7581 + 1 == 7646


def _upper_sets_by_mask_scan(leq):
    """Reference: test every one of the 2^|X| masks for up-closure."""
    n = len(leq)
    ups = [sum(1 << y for y in range(n) if leq[x][y]) for x in range(n)]
    return tuple(
        m for m in range(1 << n) if all(ups[x] | m == m for x in range(n) if m >> x & 1)
    )


def test_upper_sets_match_the_mask_scan():
    checked = 0
    for size in range(6):
        for Q in P.all_posets(size):
            assert P.upper_sets(Q) == _upper_sets_by_mask_scan(Q.leq), Q.leq
            checked += 1
            if size <= 4:
                V = P.vietoris(Q).poset
                assert P.upper_sets(V) == _upper_sets_by_mask_scan(V.leq), Q.leq
    assert checked == 1 + 1 + 3 + 19 + 219 + 4231


def test_associativity_unions_match_the_pairwise_scan():
    """mapped built from lower covers equals the union over each principal
    of VVVX found by testing every pair of VVX members, for the true
    multiplication and for an arbitrary map VVX -> VX, where the unions at
    the covers are not implied by s.  The other side of associativity reads
    s itself: the scanned union of the members t <= s is s."""
    for size in range(5):
        for Q in P.all_posets(size):
            V = P.vietoris(Q)
            true_m = P.mult_map(Q, V)
            # any upper set per member, far from monotone
            arbitrary_m = {s: V.members[s % len(V.members)] for s in true_m}
            principals = [P._principal_in_vx(V, i) for i in range(len(V.members))]
            vv = P.upper_sets(V.poset)
            for m_x in (true_m, arbitrary_m):
                mapped = P._principal_unions(V, m_x, principals)
                assert list(mapped) == list(vv)
                vm = {s: principals[V.members.index(m_x[s])] for s in vv}
                for seed in vv:
                    xi = [other for other in vv if seed | other == seed]
                    want_flat = want_mapped = 0
                    for other in xi:
                        want_flat |= other
                        want_mapped |= vm[other]
                    assert want_flat == seed, (Q.leq, seed)
                    assert mapped[seed] == want_mapped, (Q.leq, seed)


def test_monad_laws_catch_corrupted_mult(monkeypatch):
    real = P.mult_map

    def corrupted(base, V):
        out = real(base, V)
        key = max(k for k, v in out.items() if v)
        out[key] = 0  # drop the union at one member
        return out

    monkeypatch.setattr(P, "mult_map", corrupted)
    assert not P.verify_monad_laws(P.chain(2)).passed


def test_vietoris_functoriality_and_naturality_small():
    for Q in P.all_posets(2):
        for R in P.all_posets(2):
            vq, vr = P.vietoris(Q), P.vietoris(R)
            for f in P.monotone_maps(Q, R):
                vf = P.vietoris_map(f, Q, R)
                # naturality of the unit: V f . e = e . f
                for x in range(Q.size):
                    assert vf[P.unit_map(Q)[x]] == P.unit_map(R)[f[x]]
                # functoriality against the identity
                assert P.vietoris_map(tuple(range(R.size)), R, R) == {
                    a: a for a in vr.members
                }
                for g in P.monotone_maps(R, R):
                    vg = P.vietoris_map(g, R, R)
                    gf = tuple(g[f[x]] for x in range(Q.size))
                    vgf = P.vietoris_map(gf, Q, R)
                    assert all(vgf[a] == vg[vf[a]] for a in vq.members)


def test_mult_naturality_small():
    for Q in P.all_posets(2):
        vq = P.vietoris(Q)
        for R in P.all_posets(2):
            vr = P.vietoris(R)
            mq, mr = P.mult_map(Q, vq), P.mult_map(R, vr)
            for f in P.monotone_maps(Q, R):
                vf = P.vietoris_map(f, Q, R)
                vvf = P.vietoris_map(
                    tuple(vr.index(vf[a]) for a in vq.members), vq.poset, vr.poset
                )
                for script in P.upper_sets(vq.poset):
                    assert vf[mq[script]] == mr[vvf[script]]


def test_continuous_distributors_match_the_product_and_filter_oracle():
    # the same sequence, order included, for every pair of posets of size
    # 0 to 3 (1 + 1 + 3 + 19 of them)
    posets = [Q for size in range(4) for Q in P.all_posets(size)]
    pairs = 0
    for X in posets:
        for Y in posets:
            expected = continuous_distributors_by_filter(X, Y)
            assert list(P.continuous_distributors(X, Y)) == expected, (X.leq, Y.leq)
            pairs += 1
    assert pairs == 576


def test_kleisli_identity_and_composition():
    c2 = P.chain(2)
    idm = kleisli_identity(c2)
    assert is_continuous_distributor(idm, c2, c2)
    phi = ((1, 1), (0, 1))
    assert P.kleisli_compose(phi, idm) == phi
    assert P.kleisli_compose(idm, phi) == phi
    total = tuple(tuple(1 for _ in range(2)) for _ in range(2))
    assert P.kleisli_compose(total, total) == total


def test_kleisli_graphs_compose():
    c2, v = P.chain(2), P.vee()
    f = (0, 2)  # monotone chain -> vee
    g = (2, 2, 2)  # collapse vee to its top, monotone vee -> vee
    gf = tuple(g[f[x]] for x in range(2))
    lhs = P.kleisli_compose(graph_distributor(g, v, v), graph_distributor(f, c2, v))
    assert lhs == graph_distributor(gf, c2, v)


def _kleisli_compose_by_any(phi2, phi1):
    """The composite cell by cell: x relates to z when some y links them."""
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


def test_kleisli_compose_matches_the_cell_by_cell_oracle():
    # posets of size <= 2 and one per class at size 3: every composable
    # pair with at most one size-3 poset among X, Y and Z, and every pair
    # out of the point, whose one row ranges over every upper set of Y,
    # for all Y and Z (rows compose independently).  All 2,109,560 pairs
    # take about a minute on a 2-core machine.
    posets = [Q for size in (1, 2) for Q in P.all_posets(size)]
    posets += _up_to_isomorphism(P.all_posets(3))
    dists = {
        (X.leq, Y.leq): list(P.continuous_distributors(X, Y)) for X in posets for Y in posets
    }
    compared = 0
    for X in posets:
        for Y in posets:
            for Z in posets:
                if X.size == 1 or (X.size, Y.size, Z.size).count(3) <= 1:
                    for phi in dists[X.leq, Y.leq]:
                        for phi2 in dists[Y.leq, Z.leq]:
                            expected = _kleisli_compose_by_any(phi2, phi)
                            assert P.kleisli_compose(phi2, phi) == expected, (phi, phi2)
                            compared += 1
    assert compared == 69_610
    # empty X, Y or Z: (phi2, phi1, composite)
    for phi2, phi, expected in (
        ((), (), ()),
        (((1, 1),), (), ()),
        ((), ((), ()), ((), ())),
        (((), ()), ((1, 0),), ((),)),
    ):
        assert P.kleisli_compose(phi2, phi) == expected == _kleisli_compose_by_any(phi2, phi)
    # the 1,000 seeded pairs of acceptance criterion 8
    rng = random.Random(0)
    pool = [Q for size in range(1, 5) for Q in P.all_posets(size)]
    for _ in range(1000):
        X, Y, Z = (pool[rng.randrange(len(pool))] for _ in range(3))
        phi = _random_distributor(rng, X, Y)
        phi2 = _random_distributor(rng, Y, Z)
        assert P.kleisli_compose(phi2, phi) == _kleisli_compose_by_any(phi2, phi)


def test_kleisli_associativity_exhaustive_small():
    posets2 = P.all_posets(2)
    for X in posets2:
        for Y in posets2:
            phis = list(P.continuous_distributors(X, Y))[:6]
            for Z in posets2:
                psis = list(P.continuous_distributors(Y, Z))[:6]
                rhos = list(P.continuous_distributors(Z, Z))[:4]
                for a in phis:
                    for b in psis:
                        for c in rhos:
                            assert P.kleisli_compose(
                                c, P.kleisli_compose(b, a)
                            ) == P.kleisli_compose(P.kleisli_compose(c, b), a)


def test_irreducibility():
    assert P.is_irreducible(P.vee(), 0)
    assert P.is_irreducible(P.vee(), 0b100)
    assert not P.is_irreducible(P.antichain(2), 0b11)
    for size in range(1, 6):
        for Q in P.all_posets(size):
            for a in P.upper_sets(Q):
                assert P.is_irreducible(Q, a) == P.is_irreducible_by_splitting(Q, a)


def test_labeled_poset_counts():
    assert [len(P.all_posets(k)) for k in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_all_posets_match_the_clash_and_undo_oracle():
    # skipping related pairs drops only duplicates: the same posets in the
    # same order
    for k in range(6):
        assert [Q.leq for Q in P.all_posets(k)] == [Q.leq for Q in all_posets_by_clash(k)], k
