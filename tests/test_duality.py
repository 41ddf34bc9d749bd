from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from unitcat import duality as D
from unitcat import posets as P
from unitcat import tnorms as T

LUK = T.lukasiewicz()
MIN = T.minimum()

CHAIN2 = P.chain(2)
POINT = P.chain(1)


def test_function_space_counts():
    assert D.function_space(CHAIN2, LUK, 2).size == 6
    assert D.function_space(POINT, LUK, 2).size == 3
    assert D.function_space(P.antichain(2), LUK, 1).size == 4
    # empty poset: one empty function
    empty = P.FinPoset(())
    sp = D.function_space(empty, LUK, 2)
    assert sp.size == 1 and sp.carrier_size == 0


def test_function_space_is_antitone_and_closed():
    sp = D.function_space(P.vee(), LUK, 2)
    for f in sp.functions:
        for x in range(3):
            for y in range(3):
                if P.vee().leq[x][y]:
                    assert f[x] >= f[y]
    # closure under join, action, minus, powers and both constants
    act, minus, power = sp.unary_ops()
    for table in (act, minus, power):
        for u in range(3):
            assert all(0 <= k < sp.size for k in table[u])
    for i, j, k_join, k_tens in sp.pair_ops():
        assert k_join >= 0 and k_tens >= 0
    assert sp.top_index >= 0 and sp.bottom_index >= 0


def test_function_space_matches_fraction_enumeration():
    # witness indices f{i} depend on this lexicographic order
    for q in (LUK, MIN):
        for n in (1, 2, 3):
            values = T.GridChain(n).elements
            for size in (1, 2, 3):
                for Q in P.all_posets(size):
                    want = tuple(
                        f
                        for f in iproduct(values, repeat=size)
                        if all(
                            f[x] >= f[y]
                            for x in range(size)
                            for y in range(size)
                            if Q.leq[x][y]
                        )
                    )
                    sp = D.function_space(Q, q, n)
                    assert sp.functions == want
                    assert all(sp.index[f] == i for i, f in enumerate(want))


def test_functional_rejects_off_grid_values():
    sp = D.function_space(CHAIN2, LUK, 2)
    with pytest.raises(T.GridNotClosed):
        D.Functional(sp, [F(1, 3)] * sp.size)


def test_phi_of_examples():
    sp = D.function_space(CHAIN2, LUK, 2)
    psi = sp.index[(F(1), F(1, 2))]
    assert D.phi_of(0, sp).table == (F(0),) * 6
    assert D.phi_of(0b10, sp)(psi) == F(1, 2)
    assert D.phi_of(0b11, sp)(psi) == F(1)


def test_phi_conditions_on_upper_sets():
    for q in (LUK, MIN):
        for size in (1, 2, 3):
            for Q in P.all_posets(size):
                sp = D.function_space(Q, q, 2)
                for a in P.upper_sets(Q):
                    rep = D.check_conditions(D.phi_of(a, sp))
                    assert rep.holds("mon", "act", "sup", "tenlax", "minus")
                    assert (rep.top is None) == (a != 0)
                    assert (rep.ten is None) == P.is_irreducible(Q, a)


def test_empty_functional_fails_top():
    sp = D.function_space(CHAIN2, LUK, 2)
    rep = D.check_conditions(D.phi_of(0, sp))
    assert rep.top is not None


def test_meet_counterexample_regression():
    sp = D.function_space(POINT, MIN, 2)
    phi = D.Functional(sp, [min(F(1, 2), f[0]) for f in sp.functions])
    rep = D.check_conditions(phi)
    assert rep.holds("mon", "act", "sup")
    assert rep.minus is not None
    assert all(phi != D.phi_of(a, sp) for a in P.upper_sets(POINT))
    # the two inverse constructions disagree here
    assert D.zero_set(phi) == 0b1
    assert D.anti_set(phi) == 0


def test_condition_a_followed_by_act_tenlax():
    # exhaustive implication check on the smallest spaces
    sp = D.function_space(POINT, LUK, 2)
    for table in iproduct(range(3), repeat=sp.size):
        phi = D.Functional.from_levels(sp, table)
        rep = D.check_conditions(phi)
        if rep.holds("mon", "act", "tenlax"):
            assert rep.zero_witness is None
    spm = D.function_space(POINT, MIN, 2)
    for table in iproduct(range(3), repeat=spm.size):
        phi = D.Functional.from_levels(spm, table)
        rep = D.check_conditions(phi)
        if rep.holds("mon", "act"):  # nilpotent-free: tenlax not needed
            assert rep.zero_witness is None
    # and over the full 729-functional space of the 2-chain
    sp2 = D.function_space(CHAIN2, LUK, 2)
    for table in iproduct(range(3), repeat=sp2.size):
        phi = D.Functional.from_levels(sp2, table)
        rep = D.check_conditions(phi)
        if rep.holds("mon", "act", "tenlax"):
            assert rep.zero_witness is None


def test_zero_set_examples():
    sp = D.function_space(CHAIN2, LUK, 2)
    assert D.zero_set(D.phi_of(0b10, sp)) == 0b10
    assert D.zero_set(D.phi_of(0, sp)) == 0
    top = D.Functional(sp, [F(1)] * sp.size)
    assert D.zero_set(top) == 0b11
    assert D.anti_set(top) == 0b11


def test_zero_anti_roundtrip_on_upper_sets():
    for q in (LUK, MIN):
        for size in (1, 2, 3):
            for Q in P.all_posets(size):
                sp = D.function_space(Q, q, 2)
                for a in P.upper_sets(Q):
                    phi = D.phi_of(a, sp)
                    assert D.zero_set(phi) == a == D.anti_set(phi)


def test_sandwich_inequalities():
    # anti-side bound always; zero-side bound under the cut conditions
    sp = D.function_space(CHAIN2, LUK, 2)
    for table in iproduct(range(3), repeat=sp.size):
        phi = D.Functional.from_levels(sp, table)
        below = D.phi_of(D.anti_set(phi), sp)
        assert all(b <= t for b, t in zip(below.itable, phi.itable))
        rep = D.check_conditions(phi)
        if rep.holds("mon", "act", "sup") and rep.zero_witness is None:
            above = D.phi_of(D.zero_set(phi), sp)
            assert all(t <= a for t, a in zip(phi.itable, above.itable))


def test_embedding_order_reflecting():
    sp = D.function_space(P.vee(), LUK, 2)
    ups = P.upper_sets(P.vee())
    for a in ups:
        for b in ups:
            pa, pb = D.phi_of(a, sp), D.phi_of(b, sp)
            dominates = all(x >= y for x, y in zip(pa.itable, pb.itable))
            assert dominates == (a | b == a)


def test_flagship_729_scan():
    rep = D.representability_audit(CHAIN2, LUK, 2)
    assert rep.passed and not rep.findings
    sp = D.function_space(CHAIN2, LUK, 2)
    passing = [
        t for t in iproduct(range(3), repeat=6) if D.passes_cut(sp, t)
    ]
    expected = sorted(D.phi_of(a, sp).itable for a in P.upper_sets(CHAIN2))
    assert sorted(passing) == expected and len(passing) == 3


def test_flagship_point_minimum():
    sp = D.function_space(POINT, MIN, 2)
    passing = [
        t for t in iproduct(range(3), repeat=3) if D.passes_cut(sp, t, drop_tenlax=True)
    ]
    expected = sorted(D.phi_of(a, sp).itable for a in P.upper_sets(POINT))
    assert sorted(passing) == expected and len(passing) == 2


def test_representability_corpus_mode():
    corpus = D.make_corpus(D.function_space(P.vee(), LUK, 2), 200, seed=5)
    rep = D.representability_audit(P.vee(), LUK, 2, corpus=corpus)
    assert rep.passed and not rep.findings
    again = D.make_corpus(D.function_space(P.vee(), LUK, 2), 200, seed=5)
    assert [f.itable for f in corpus] == [f.itable for f in again]


def test_c_of_distributor():
    sp = D.function_space(CHAIN2, LUK, 2)
    ident = P.kleisli_identity(CHAIN2)
    assert D.c_of_distributor(ident, sp, sp) == tuple(range(sp.size))
    empty = ((0, 0), (0, 0))
    assert all(
        i == sp.bottom_index for i in D.c_of_distributor(empty, sp, sp)
    )


def test_c_functoriality_sampled_pair():
    v = P.vee()
    spv = D.function_space(v, LUK, 2)
    spc = D.function_space(CHAIN2, LUK, 2)
    phi = P.graph_distributor((0, 2), CHAIN2, v)  # chain -> vee
    phi2 = P.graph_distributor((2, 2, 2), v, v)
    lhs = D.c_of_distributor(P.kleisli_compose(phi2, phi), spv, spc)
    c1 = D.c_of_distributor(phi, spv, spc)
    c2 = D.c_of_distributor(phi2, spv, spv)
    assert lhs == tuple(c1[i] for i in c2)


def test_c_lands_in_antitone_space_and_is_finsup():
    v = P.vee()
    spv = D.function_space(v, LUK, 2)
    spc = D.function_space(CHAIN2, LUK, 2)
    for phi in P.continuous_distributors(CHAIN2, v):
        cmap = D.c_of_distributor(phi, spv, spc)
        # join and action preservation of the induced map
        act_v, minus_v, _ = spv.unary_ops()
        act_c, minus_c, _ = spc.unary_ops()
        for u in range(3):
            for i in range(spv.size):
                assert cmap[act_v[u][i]] == act_c[u][cmap[i]]
                assert cmap[minus_v[u][i]] == minus_c[u][cmap[i]]
        for i, j, k_join, _ in spv.pair_ops():
            joined = tuple(
                a if a >= b else b
                for a, b in zip(spc.ifuncs[cmap[i]], spc.ifuncs[cmap[j]])
            )
            assert cmap[k_join] == spc.iindex[joined]


def test_total_partial_audit_examples():
    ident = P.kleisli_identity(CHAIN2)
    assert D.total_partial_audit(ident, CHAIN2, CHAIN2, LUK, 2).passed
    empty = ((0, 0), (0, 0))
    assert D.total_partial_audit(empty, CHAIN2, CHAIN2, LUK, 2).passed
    assert not D.is_total(empty, 2)
    # the two-antichain row {a,b} is not principal: not deterministic
    full_row = ((1, 1), (1, 1))
    assert not D.is_deterministic(full_row, P.antichain(2))
    assert D.total_partial_audit(full_row, P.antichain(2), P.antichain(2), LUK, 2).passed


def _brute_force_cut(sp, drop_tenlax):
    return [
        t
        for t in iproduct(range(sp.n + 1), repeat=sp.size)
        if D.passes_cut(sp, t, drop_tenlax)
    ]


def test_join_homomorphism_scan_matches_brute_force():
    # every poset of size <= 3 at n <= 2 and the chains at n = 3, wherever
    # the brute-force scan over (n+1)^|CX| tables stays at 60,000 or below
    cases = [(Q, n) for size in (1, 2, 3) for Q in P.all_posets(size) for n in (1, 2)]
    cases += [(P.chain(size), 3) for size in (1, 2, 3)]
    scanned = 0
    for Q, n in cases:
        for q in (LUK, MIN):
            sp = D.function_space(Q, q, n)
            if (n + 1) ** sp.size > 60_000:
                continue
            drop = T.nilpotent_free(q)
            fast = [t for t in D.join_homomorphisms(sp) if D.passes_cut(sp, t, drop)]
            assert fast == _brute_force_cut(sp, drop), (Q.leq, n, q.name)
            scanned += 1
    assert scanned == 68


def test_join_homomorphisms_are_the_join_preserving_tables():
    # brute force: bottom at 0 and every binary join preserved
    for Q, n in ((POINT, 3), (CHAIN2, 2), (P.antichain(2), 2), (P.vee(), 1)):
        sp = D.function_space(Q, LUK, n)
        brute = [
            t
            for t in iproduct(range(n + 1), repeat=sp.size)
            if t[sp.bottom_index] == 0
            and all(t[k] == max(t[i], t[j]) for i, j, k, _ in sp.pair_ops())
        ]
        assert list(D.join_homomorphisms(sp)) == brute, (Q.leq, n)


def test_join_homomorphism_counts_on_antichains():
    # monotone maps J -> {0..n} on the k-antichain: C(2n, n)^k of them
    for k, n, count in ((3, 2, 216), (2, 3, 400), (1, 1, 2)):
        sp = D.function_space(P.antichain(k), LUK, n)
        assert len(D.join_irreducibles(sp)) == k * n
        tables = list(D.join_homomorphisms(sp))
        assert len(tables) == count
        assert tables == sorted(set(tables))


def test_representability_corpus_past_the_bound():
    # 4^12 monotone maps on the 12 join-irreducibles exceed the cap
    rep = D.representability_audit(P.chain(4), LUK, 3)
    assert rep.passed and rep.checked == 512
    assert rep.notes == (
        "corpus mode (512 functionals): 4^12 exceeds cap 2000000 "
        "(|J| = 12, 4^35 grid tables)",
    )


def test_minus_leaving_the_space_is_refused():
    from unitcat import enriched as E
    from unitcat import vcat as VC

    X = VC.vcategory(MIN, [["1", "1/2"], ["0", "1"]])
    sp = E.enumerate_cx(X, 2)
    _, minus, _ = sp.unary_ops()
    assert -1 in minus[1]
    # refused before any table is read: the all-ones table fails the action
    for level in (0, 1):
        with pytest.raises(ValueError, match="minus of f3 at 1/2 leaves"):
            D.passes_cut(sp, (level,) * sp.size)
    with pytest.raises(ValueError, match="leaves the function space"):
        D.check_conditions(D.Functional.from_levels(sp, (0,) * sp.size))
    assert len(sp.closed_unary("act")) == 3
