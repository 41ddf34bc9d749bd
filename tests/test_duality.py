import random
import re
import time
from fractions import Fraction as F
from itertools import chain, permutations
from itertools import product as iproduct

import pytest

from oracles import (
    compare_certificates,
    compare_cx_levels,
    count_by_walk,
    cx_structures,
    enriched_c_by_generator,
    join_order_by_pairs,
    pair_ops_by_pairs,
    truncated_minus,
)
from unitcat import duality as D
from unitcat import posets as P
from unitcat import suites as SU
from unitcat import tnorms as T
from unitcat.instances import parse_tnorm
from unitcat.suites import _random_distributor

LUK = T.lukasiewicz()
MIN = T.minimum()

CHAIN2 = P.chain(2)
POINT = P.chain(1)


def kleisli_identity(X):
    """The identity continuous distributor on a poset: its order relation."""
    return tuple(tuple(int(v) for v in row) for row in X.leq)


def graph_distributor(f, X, Y):
    """The continuous distributor of a monotone map: x phi y iff f(x) <= y."""
    return tuple(tuple(int(Y.leq[f[x]][y]) for y in range(Y.size)) for x in range(X.size))


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
    for op in ("act", "minus", "power"):
        table = sp.unary_ops(op)
        for u in range(3):
            assert all(0 <= k < sp.size for k in table[u])
    for i, j, k_join, k_tens in sp.pair_ops():
        assert k_join >= 0 and k_tens >= 0
    assert sp.top_index >= 0 and sp.constant_index(0) >= 0


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
    assert D.phi_of(0b10, sp).table[psi] == F(1, 2)
    assert D.phi_of(0b11, sp).table[psi] == F(1)


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
    sp = D.function_space(P.vee(), LUK, 2)
    corpus = D.make_corpus(sp, 200, seed=5)
    again = D.make_corpus(sp, 200, seed=5)
    assert [f.itable for f in corpus] == [f.itable for f in again]
    # the corpus reaches the cut-passing stratum, and only upper-set
    # functionals live there
    expected = {D.phi_of(a, sp).itable for a in P.upper_sets(P.vee())}
    drop = T.nilpotent_free(LUK)
    passing = {f.itable for f in corpus if D.passes_cut(sp, f.itable, drop_tenlax=drop)}
    assert passing and passing <= expected


def test_c_of_distributor():
    sp = D.function_space(CHAIN2, LUK, 2)
    ident = kleisli_identity(CHAIN2)
    assert D.c_of_distributor(ident, sp, sp) == tuple(range(sp.size))
    empty = ((0, 0), (0, 0))
    assert all(
        i == sp.constant_index(0) for i in D.c_of_distributor(empty, sp, sp)
    )


def test_c_functoriality_sampled_pair():
    v = P.vee()
    spv = D.function_space(v, LUK, 2)
    spc = D.function_space(CHAIN2, LUK, 2)
    phi = graph_distributor((0, 2), CHAIN2, v)  # chain -> vee
    phi2 = graph_distributor((2, 2, 2), v, v)
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
        act_v, minus_v = spv.unary_ops("act"), spv.unary_ops("minus")
        act_c, minus_c = spc.unary_ops("act"), spc.unary_ops("minus")
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
    ident = kleisli_identity(CHAIN2)
    assert D.total_partial_audit(ident, CHAIN2, CHAIN2, LUK, 2).passed
    empty = ((0, 0), (0, 0))
    assert D.total_partial_audit(empty, CHAIN2, CHAIN2, LUK, 2).passed
    assert not D.is_total(empty, 2)
    # the two-antichain row {a,b} is not principal: not deterministic
    full_row = ((1, 1), (1, 1))
    assert not D.is_deterministic(full_row, P.antichain(2))
    assert D.total_partial_audit(full_row, P.antichain(2), P.antichain(2), LUK, 2).passed


def _c_of_distributor_by_rows(phi01, cy, cx):
    """The row-by-row map: one sup per (function, point), looked up in CX."""
    rows = [
        [y for y in range(cy.carrier_size) if phi01[x][y]]
        for x in range(cx.carrier_size)
    ]
    return tuple(
        cx.iindex[tuple(max((f[y] for y in row), default=0) for row in rows)]
        for f in cy.ifuncs
    )


def _total_partial_by_tuples(phi01, X, Y, q, n, cmap, tensors):
    """total_partial_audit on the map cmap, with the tensor of two images
    built as a level tuple and looked up in CX; ``tensors`` keeps each
    such lookup, by CX and the two image indices."""
    cy, cx = D.function_space(Y, q, n), D.function_space(X, q, n)
    known = tensors.setdefault((q.name, n, X.leq), {})
    failures = []
    checked = 2
    preserves_top = cmap[cy.top_index] == cx.top_index
    if D.is_total(phi01, X.size) != preserves_top:
        failures.append(
            f"totality {D.is_total(phi01, X.size)} vs top-preservation {preserves_top}"
        )
    preserves_tensor = True
    tt = cx.gops.tensor_t
    for i, j, _, k_tens in cy.pair_ops():
        checked += 1
        images = (cmap[i], cmap[j])
        target = known.get(images)
        if target is None:
            gi, gj = cx.ifuncs[images[0]], cx.ifuncs[images[1]]
            target = known[images] = cx.iindex[tuple(tt[a][b] for a, b in zip(gi, gj))]
        if cmap[k_tens] != target:
            preserves_tensor = False
            break
    if D.is_deterministic(phi01, Y) != preserves_tensor:
        failures.append(
            f"determinism {D.is_deterministic(phi01, Y)} vs tensor-preservation {preserves_tensor}"
        )
    return D.CheckReport(name="total-partial", checked=checked, failures=tuple(failures))


def _up_to_isomorphism(posets):
    """One poset per isomorphism class, the first in the given order."""
    classes = {}
    for Q in posets:
        m = Q.size
        key = min(
            tuple(tuple(Q.leq[p[x]][p[y]] for y in range(m)) for x in range(m))
            for p in permutations(range(m))
        )
        classes.setdefault(key, Q)
    return list(classes.values())


def test_distributor_maps_match_the_row_by_row_oracle():
    # every labelling of size <= 2 and one poset per class at size 3 (the
    # audited claims do not depend on the labelling): all 23 labelled
    # posets give 24,286 distributors per (tensor, n), about 20 s on a
    # 2-core machine; the sampled test below reaches relabelled posets up
    # to size 4.  The map does not depend on the tensor: one oracle map
    # serves both.
    posets = [Q for size in (1, 2) for Q in P.all_posets(size)]
    posets += _up_to_isomorphism(P.all_posets(3))
    tensors: dict = {}
    compared = 0
    for n in (1, 2, 3):
        for X in posets:
            for Y in posets:
                for phi in P.continuous_distributors(X, Y):
                    expected = None
                    for q in (LUK, MIN):
                        cy, cx = D.function_space(Y, q, n), D.function_space(X, q, n)
                        if expected is None:
                            expected = _c_of_distributor_by_rows(phi, cy, cx)
                        case = (q.name, n, X.leq, Y.leq, phi)
                        assert D.c_of_distributor(phi, cy, cx) == expected, case
                        assert D.total_partial_audit(phi, X, Y, q, n) == (
                            _total_partial_by_tuples(phi, X, Y, q, n, expected, tensors)
                        ), case
                        compared += 1
    assert len(posets) == 9 and compared == 2 * 3 * 3194


def test_sampled_functoriality_maps_match_the_row_by_row_oracle():
    # the 1,000 composable pairs functoriality draws at --max-size 4
    # --corpus 1000 --seed 0
    rng = random.Random(0)
    pool = [Q for size in range(1, 5) for Q in P.all_posets(size)]
    for _ in range(1000):
        X, Y, Z = (pool[rng.randrange(len(pool))] for _ in range(3))
        phi = _random_distributor(rng, X, Y)
        phi2 = _random_distributor(rng, Y, Z)
        cz, cy, cx = (D.function_space(Q, LUK, 2) for Q in (Z, Y, X))
        for psi, source, target in (
            (phi, cy, cx),
            (phi2, cz, cy),
            (P.kleisli_compose(phi2, phi), cz, cx),
        ):
            assert D.c_of_distributor(psi, source, target) == (
                _c_of_distributor_by_rows(psi, source, target)
            )


def test_c_of_distributor_refuses_a_misshapen_phi():
    sp = D.function_space(CHAIN2, LUK, 2)
    with pytest.raises(ValueError, match="lengths \\[2\\] are not 2 rows of 2"):
        D.c_of_distributor(((1, 1),), sp, sp)
    with pytest.raises(ValueError, match="lengths \\[2, 3\\] are not 2 rows of 2"):
        D.c_of_distributor(((1, 1), (0, 1, 1)), sp, sp)


def test_c_of_distributor_refuses_an_image_outside_cx():
    # the empty row under a full one is not antitone along the 2-chain
    sp = D.function_space(CHAIN2, LUK, 2)
    first = next(i for i, f in enumerate(sp.ifuncs) if max(f) > 0)
    image = (0, max(sp.ifuncs[first]))
    with pytest.raises(ValueError, match=re.escape(f"C(phi) of f{first} is {image}")):
        D.c_of_distributor(((0, 0), (1, 1)), sp, sp)


def _serve(monkeypatch, spaces):
    """Make total_partial_audit read the hand-built spaces (by carrier)."""
    monkeypatch.setattr(D, "function_space", lambda Q, q, n: spaces[Q])


def test_total_partial_refuses_a_tensor_leaving_cy(monkeypatch):
    # 1/2 tensor 1/2 is 0 under Lukasiewicz, and 0 is not in the space
    sp = D.FunctionSpace(POINT, LUK.grid(2), [(1,), (2,)])
    _serve(monkeypatch, {POINT: sp})
    with pytest.raises(ValueError, match=re.escape("tensor of (f0, f0) of CY")):
        D.total_partial_audit(((1,),), POINT, POINT, LUK, 2)


def test_total_partial_refuses_a_tensor_leaving_cx(monkeypatch):
    # both spaces are closed under joins and CY under the tensor; the
    # images (1/2, 1/2) and (1, 0) of f1 and f2 are in CX, their tensor
    # (1/2, 0) is not
    Y, X = P.antichain(2), CHAIN2
    gops = LUK.grid(2)
    cy = D.FunctionSpace(Y, gops, [(0, 0), (0, 1), (2, 0), (2, 1), (2, 2)])
    cx = D.FunctionSpace(X, gops, [(0, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    _serve(monkeypatch, {Y: cy, X: cx})
    assert D.c_of_distributor(((1, 1), (0, 1)), cy, cx) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError, match=re.escape("tensor of (f1, f2) of CX")):
        D.total_partial_audit(((1, 1), (0, 1)), X, Y, LUK, 2)


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
            if t[sp.constant_index(0)] == 0
            and all(t[k] == max(t[i], t[j]) for i, j, k, _ in sp.pair_ops())
        ]
        assert list(D.join_homomorphisms(sp)) == brute, (Q.leq, n)


def test_join_homomorphism_counts_on_antichains():
    # monotone maps J -> {0..n} on the k-antichain: C(2n, n)^k of them
    for k, n, count in ((3, 2, 216), (2, 3, 400), (1, 1, 2)):
        sp = D.function_space(P.antichain(k), LUK, n)
        assert len(sp.join_order[0]) == k * n
        tables = list(D.join_homomorphisms(sp))
        assert len(tables) == count
        assert tables == sorted(set(tables))


ORDINAL = T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz()))


def _pruning_spaces():
    """Every poset space of size <= 3 at n <= 3 and one poset per
    isomorphism class at size 4, n <= 2, under lukasiewicz, min and the
    ordinal sum, wherever the grid is closed; size 0 is the space whose J
    is empty.  The 219 labelled posets of size 4 take about 12 s on a
    2-core machine, against about 1 s for their 16 classes; size 3 keeps
    every labelling, so J's order is still varied."""
    for q in (LUK, MIN, ORDINAL):
        for size in range(5):
            posets = P.all_posets(size)
            if size == 4:
                posets = _up_to_isomorphism(posets)
            for n in (1, 2, 3) if size < 4 else (1, 2):
                if T.grid_closed(q, n):
                    for Q in posets:
                        yield D.function_space(Q, q, n)


def test_pruned_search_matches_the_full_cut_and_the_count():
    # the survivors of the pruned search that pass the full cut are the
    # unpruned tables that pass it, in both branches of the audit, and
    # the count is the number of unpruned tables
    spaces = tables = 0
    for sp in _pruning_spaces():
        full = list(D.join_homomorphisms(sp))
        assert D.count_join_homomorphisms(sp) == len(full), (sp.base, sp.n)
        # the cut with tenlax is the cut without it plus one more check
        cut = [t for t in full if D.passes_cut(sp, t, drop_tenlax=True)]
        for drop, conditions, want in (
            (True, ("act", "minus"), cut),
            (False, ("act", "minus", "tenlax"), [t for t in cut if D.passes_cut(sp, t)]),
        ):
            survivors = D.join_homomorphisms(sp, conditions)
            got = [t for t in survivors if D.passes_cut(sp, t, drop)]
            assert got == want, (sp.base, sp.quantale.name, sp.n, drop)
        spaces += 1
        tables += len(full)
    assert (spaces, tables) == (288, 121_807)
    empty = D.function_space(P.FinPoset(()), LUK, 2)
    assert empty.join_order[0] == ()
    assert list(D.join_homomorphisms(empty)) == [(0,)]
    assert D.count_join_homomorphisms(empty) == 1


def test_count_join_homomorphisms_on_antichains_without_enumerating(monkeypatch):
    # C(2n, n)^k monotone maps on the k-antichain; the count builds no table
    monkeypatch.setattr(D, "join_homomorphisms", None)
    for k, n, count in ((4, 3, 160_000), (4, 2, 1296), (3, 2, 216), (2, 3, 400), (1, 1, 2)):
        sp = D.function_space(P.antichain(k), LUK, n)
        assert D.count_join_homomorphisms(sp) == count


def _small_spaces():
    """Every poset space of size <= 3 at n <= 3 under both tensors, and
    every enriched C(X) of size <= 2 at n <= 3: 202 spaces."""
    from unitcat import enriched as E

    spaces = [
        D.function_space(Q, q, n)
        for q in (LUK, MIN)
        for n in (1, 2, 3)
        for size in range(4)
        for Q in P.all_posets(size)
    ]
    spaces += [
        E.enumerate_cx(X, n)
        for q in (LUK, MIN)
        for n in (1, 2, 3)
        for size in (1, 2)
        for X in E.enumerate_enriched_categories(size, q, n)
    ]
    assert len(spaces) == 202
    return spaces


def _oracle_spaces():
    """``_small_spaces`` and every poset space of size 4 at n <= 2 under
    both tensors: 1,078 spaces."""
    yield from _small_spaces()
    for q in (LUK, MIN):
        for n in (1, 2):
            for Q in P.all_posets(4):
                yield D.function_space(Q, q, n)


def test_cx_levels_match_the_filter():
    # the admissible-level masks give the filter's tables in its order, on
    # every poset of size <= 4 on each closed grid up to n = 4 (product is
    # closed at n = 1 only), and every enriched category of size <= 3 up
    # to n = 3 and of size <= 2 at n = 4; the script run of oracles.py
    # adds the posets of size 5 and the categories of size 3 at n = 4
    tensors = (LUK, MIN, T.product())
    tables = compare_cx_levels(
        chain(cx_structures(4, 3, (1, 2, 3), tensors), cx_structures(4, 2, (4,), tensors))
    )
    assert tables == 200_689


def test_join_order_and_count_match_the_pair_oracles():
    # J, tops and covers from the meets equal those from the pair table,
    # down to list order, and the prefix sums over the grid equal the memo
    # walk over that J
    compared = 0
    for sp in _oracle_spaces():
        case = (sp.base, sp.quantale.name, sp.n)
        order = join_order_by_pairs(sp)
        assert sp.join_order == order, case
        assert D.count_join_homomorphisms(sp) == count_by_walk(sp, order), case
        compared += 1
    assert compared == 1078


def test_a_meet_leaving_the_space_is_refused():
    # closed under joins, but (1/2, 2/2) meet (2/2, 1/2) = (1/2, 1/2) is not
    # a member: the least function reaching 1/2 at point 0 does not exist
    sp = D.FunctionSpace(P.antichain(2), LUK.grid(2), [(0, 0), (1, 2), (2, 1), (2, 2)])
    with pytest.raises(ValueError, match="at least 1/2 at point 0 leaves"):
        sp.join_order


def test_row_columns_match_the_per_function_oracle():
    # every level row, not only the indicator rows of upper sets: per
    # (tensor, n), (n+1)^|X| rows on each poset space (sizes 0 to 3) and
    # on each enriched C(X) (1, 3, 8 and 15 categories of size 1 and 2 at
    # n = 1, 2, 3)
    compared = 0
    for sp in _small_spaces():
        for row in iproduct(range(sp.n + 1), repeat=sp.carrier_size):
            assert sp.row_column(row) == enriched_c_by_generator(row, sp), (sp.base, row)
            compared += 1
    posets = sum(1 + (n + 1) + 3 * (n + 1) ** 2 + 19 * (n + 1) ** 3 for n in (1, 2, 3))
    enriched = (2 + 3 * 4) + (3 + 8 * 9) + (4 + 15 * 16)
    assert compared == 2 * (posets + enriched)


def test_multichain_count_is_fast_where_the_walk_is_not():
    # the walk takes tens of seconds on this space; the multichain sum
    # takes n - 1 passes over its order
    sp = D.function_space(P.all_posets(3)[18], LUK, 6)
    start = time.perf_counter()
    assert D.count_join_homomorphisms(sp) == 98_062_800
    assert time.perf_counter() - start < 2


def test_join_order_is_derived_once_per_space(monkeypatch):
    # J and the order on it are read off the meets, with no pair table,
    # and kept on the space: no reader of J builds one either
    calls = [0]
    original = D.FunctionSpace.pair_ops

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(D.FunctionSpace, "pair_ops", counted)
    sp = D.FunctionSpace(P.vee(), LUK.grid(2), D.function_space(P.vee(), LUK, 2).ifuncs)
    J, tops, covers = sp.join_order
    assert len(J) == 3 * 2
    assert D.count_join_homomorphisms(sp) == len(list(D.join_homomorphisms(sp)))
    assert list(D.join_homomorphisms(sp, D.PRUNING_CONDITIONS))
    assert sp.join_order == (J, tops, covers)
    assert calls[0] == 0


@pytest.mark.parametrize("suite", ["representability", "enriched-roundtrip"])
def test_functional_scans_build_no_pair_table(monkeypatch, suite):
    # both functional scans at grid 3, max-size 2 read J and the unary
    # tables only
    calls = [0]
    original = D.FunctionSpace.pair_ops

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(D.FunctionSpace, "pair_ops", counted)
    config = SU.SuiteConfig(suite=suite, quantale=parse_tnorm("lukasiewicz"), grid=3, max_size=2)
    report = SU.run_suite(config)
    assert report.passed and report.instances == {"representability": 4}.get(suite, 58)
    assert calls[0] == 0


def test_certificates_match_the_full_pair_scans():
    # passes_cut and is_finsup_functional against the pair scans they
    # replace: every grid table where (n+1)^|CX| <= 1,000, every
    # join-preserving table elsewhere, on the poset spaces of size <= 3 and
    # the enriched C(X) of size <= 2, at n <= 2 (118 spaces); the full
    # comparison (tests/oracles.py as a script) covers 1,971 spaces
    from unitcat import enriched as E

    spaces = [
        D.function_space(Q, q, n)
        for q in (LUK, MIN)
        for n in (1, 2)
        for size in (1, 2, 3)
        for Q in P.all_posets(size)
    ]
    spaces += [
        E.enumerate_cx(X, n)
        for q in (LUK, MIN)
        for n in (1, 2)
        for size in (1, 2)
        for X in E.enumerate_enriched_categories(size, q, n)
    ]
    tables = sum(compare_certificates(sp, 1_000) for sp in spaces)
    assert (len(spaces), tables) == (118, 12_593)


def test_cut_with_tenlax_is_refused_where_a_tensor_of_J_leaves():
    # under lukasiewicz with a(1,0) = 1/2, two join-irreducibles of C(X)
    # have a tensor outside it: a table can fail tenlax on a pair of
    # functions while every instance on J holds, so the cut with tenlax is
    # refused, and the cut without it still decides
    from unitcat import enriched as E
    from unitcat import vcat as VC

    sp = E.enumerate_cx(VC.vcategory(LUK, [["1", "0"], ["1/2", "1"]]), 2)
    assert not sp.tensor_closed
    table = (0, 0, 0, 0, 0, 0, 1, 1)
    with pytest.raises(ValueError, match="tenlax is not decided on the join-irreducibles"):
        D.passes_cut(sp, table)
    assert D.passes_cut(sp, table, drop_tenlax=True)


def _instances_hold(sp, t, conditions):
    """Oracle on a whole table: every instance at the join-irreducibles J
    of each condition named, at every u, and tenlax on every pair of J
    whose tensor stays in the space."""
    tt, n = sp.gops.tensor_t, sp.n
    J = sp.join_order[0]
    if "act" in conditions:
        act = sp.unary_ops("act")
        if any(t[act[u][j]] != tt[u][t[j]] for u in range(n + 1) for j in J):
            return False
    if "minus" in conditions:
        minus = sp.unary_ops("minus")
        if any(t[minus[u][j]] != max(t[j] - u, 0) for u in range(n + 1) for j in J):
            return False
    if "tenlax" in conditions:
        fs = sp.ifuncs
        for j in J:
            for k in J:
                f = sp.iindex.get(tuple(tt[a][b] for a, b in zip(fs[j], fs[k])), -1)
                if f >= 0 and t[f] > tt[t[j]][t[k]]:
                    return False
    return True


def test_pruned_search_keeps_exactly_the_tables_whose_instances_on_J_hold():
    # no survivor fails an instance at J, and no table that passes them
    # all is dropped: checked on poset spaces of size <= 3 at n <= 2 and
    # on the size-2 enriched C(X) at n <= 2 (minus only where it stays
    # in the space)
    from unitcat import enriched as E

    spaces = [
        D.function_space(Q, q, n)
        for q in (LUK, MIN)
        for n in (1, 2)
        for size in (1, 2, 3)
        for Q in P.all_posets(size)
    ]
    spaces += [
        E.enumerate_cx(X, n)
        for q in (LUK, MIN, ORDINAL)
        for n in (1, 2)
        for X in E.enumerate_enriched_categories(2, q, n)
    ]
    subsets = [("act",), ("minus",), ("tenlax",), ("act", "minus"), D.PRUNING_CONDITIONS]
    checked = 0
    for sp in spaces:
        full = list(D.join_homomorphisms(sp))
        try:
            sp.unary_ops("minus")
        except ValueError:
            usable = [c for c in subsets if "minus" not in c]
        else:
            usable = subsets
        for conditions in usable:
            want = [t for t in full if _instances_hold(sp, t, conditions)]
            assert list(D.join_homomorphisms(sp, conditions)) == want, (
                sp.base, sp.n, conditions
            )
            checked += 1
    assert checked == 595


def test_pruned_search_refuses_an_escaping_minus_and_unknown_names():
    from unitcat import enriched as E
    from unitcat import vcat as VC

    sp = E.enumerate_cx(VC.vcategory(MIN, [["1", "1/2"], ["0", "1"]]), 2)
    # raised on the call, before any table is built
    with pytest.raises(ValueError, match="minus of f3 at 1/2 leaves"):
        D.join_homomorphisms(sp, ("act", "minus"))
    with pytest.raises(ValueError, match="no pruning on"):
        D.join_homomorphisms(sp, ("sup",))


def test_representability_cuts_only_the_survivors(monkeypatch):
    # at grid 3 the pruned search leaves exactly the upper-set functionals
    # of the four posets of size <= 2 (2 + 3 + 3 + 4), under both tensors,
    # while the reports still count all 770 join-preserving tables
    original = D.passes_cut
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(D, "passes_cut", counted)
    for q in (LUK, MIN):
        calls[0] = 0
        checked = 0
        for size in (1, 2):
            for Q in P.all_posets(size):
                rep = D.representability_audit(Q, q, 3)
                assert rep.passed
                checked += rep.checked
        assert (calls[0], checked) == (12, 770)


def test_representability_exhaustive_at_twelve_irreducibles():
    # |J| = 12 on both: 4^12 monotone maps on J bound the search, the
    # multichain count gives the number of join-preserving tables
    for q in (LUK, MIN):
        rep = D.representability_audit(P.chain(4), q, 3)
        assert rep.passed and not rep.findings
        assert rep.checked == 4116 == D.count_join_homomorphisms(
            D.function_space(P.chain(4), q, 3)
        )
        assert rep.notes == (
            "exhaustive scan of 4116 join-preserving functionals "
            "(|J| = 12, 4^35 grid tables)",
        )
        rep = D.representability_audit(P.antichain(4), q, 3)
        assert rep.passed and not rep.findings and rep.checked == 160000


def test_minus_leaving_the_space_is_refused():
    from unitcat import enriched as E
    from unitcat import vcat as VC

    X = VC.vcategory(MIN, [["1", "1/2"], ["0", "1"]])
    sp = E.enumerate_cx(X, 2)
    with pytest.raises(ValueError, match="minus of f3 at 1/2 leaves"):
        sp.unary_ops("minus")
    # refused before any table is read: the all-ones table fails the action
    for level in (0, 1):
        with pytest.raises(ValueError, match="minus of f3 at 1/2 leaves"):
            D.passes_cut(sp, (level,) * sp.size)
    with pytest.raises(ValueError, match="leaves the function space"):
        D.check_conditions(D.Functional.from_levels(sp, (0,) * sp.size))
    assert len(sp.unary_ops("act")) == 3


def _spaces():
    """Every poset space of size <= 3 at n <= 3 under lukasiewicz and min,
    and every size-2 enriched C(X) at n <= 2."""
    from unitcat import enriched as E

    for q in (LUK, MIN):
        for n in (1, 2, 3):
            for size in (1, 2, 3):
                for Q in P.all_posets(size):
                    yield D.function_space(Q, q, n)
        for n in (1, 2):
            for X in E.enumerate_enriched_categories(2, q, n):
                yield E.enumerate_cx(X, n)


def test_pair_ops_match_the_pair_by_pair_oracle():
    # the row gathers against the per-pair loop they replaced, escaping
    # tensors (-1) included on the enriched spaces; the pairs whose join
    # is f_j, which make_corpus reads as the order, are the pointwise order
    escaping = 0
    for sp in _spaces():
        ops = sp.pair_ops()
        assert ops == pair_ops_by_pairs(sp), (sp.base, sp.n)
        escaping += sum(k < 0 for *_, k in ops)
        fs = sp.functions
        want = [
            (i, j)
            for i in range(sp.size)
            for j in range(sp.size)
            if i != j and all(a <= b for a, b in zip(fs[i], fs[j]))
        ]
        assert [(i, j) for i, j, k, _ in ops if k == j != i] == want, (sp.base, sp.n)
    assert escaping > 0
    # a hand-built space without (2,1), the join of (1,1) and (2,0)
    sp = D.function_space(CHAIN2, LUK, 2)
    thinned = D.FunctionSpace(sp.base, sp.gops, [f for f in sp.ifuncs if f != (2, 1)])
    with pytest.raises(ValueError, match="join of f2 and f3 leaves"):
        thinned.pair_ops()


def test_unary_tables_match_fraction_computation():
    formulas = {
        "act": lambda q, u, v: q.tensor(u, v),
        "minus": lambda q, u, v: truncated_minus(v, u),
        "power": lambda q, u, v: q.hom(u, v),
    }
    escapes = 0
    for sp in _spaces():
        for op, formula in formulas.items():
            want, escape = [], None
            for level, u in enumerate(sp.gops.values):
                row = [
                    sp.index.get(tuple(formula(sp.quantale, u, v) for v in f))
                    for f in sp.functions
                ]
                if None in row:
                    escape = f"{op} of f{row.index(None)} at {level}/{sp.n} leaves"
                    break
                want.append(tuple(row))
            if escape is None:
                assert sp.unary_ops(op) == want, (sp.base, sp.n, op)
            else:
                escapes += 1
                with pytest.raises(ValueError, match=escape):
                    sp.unary_ops(op)
    assert escapes > 0
