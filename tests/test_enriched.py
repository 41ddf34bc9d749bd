import re
from fractions import Fraction as F
from itertools import product as iproduct

import pytest

from oracles import (
    c_of_levels_by_generator,
    compare_cogeneration,
    compare_enriched_maps,
    compare_twovalued,
    is_cogenerated_by_scan,
    lemma1_audit_by_scan,
    retract_phi_by_generator,
    thinned_copies,
)
from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import suites as SU
from unitcat import tnorms as T
from unitcat import vcat as VC

LUK = T.lukasiewicz()
ONE = VC.unit_category(LUK)
HALF_PAIR = VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]])
CHAIN2 = VC.from_poset(P.chain(2), LUK)
ORDINAL = T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz()))


def fraction_distributors_into(X, n):
    """Oracle: every Fraction row phi over Q_n with phi(y) tensor a(y,z) <= phi(z)."""
    q = X.quantale
    return [
        phi
        for phi in iproduct(T.GridChain(n).elements, repeat=X.size)
        if all(
            q.tensor(phi[y], X.a(y, z)) <= phi[z]
            for y in range(X.size)
            for z in range(X.size)
        )
    ]


def fraction_distributors(X, Y, n):
    """Oracle: every Fraction matrix phi over Q_n, row x, column y, with
    a(x2,x) tensor phi(x,y) tensor b(y,y2) <= phi(x2,y2)."""
    q = X.quantale
    m, k = X.size, Y.size
    out = []
    for flat in iproduct(T.GridChain(n).elements, repeat=m * k):
        mat = tuple(flat[i * k : (i + 1) * k] for i in range(m))
        if all(
            q.tensor(q.tensor(X.a(x2, x), mat[x][y]), Y.a(y, y2)) <= mat[x2][y2]
            for x in range(m)
            for y in range(k)
            for x2 in range(m)
            for y2 in range(k)
        ):
            out.append(mat)
    return out


def fraction_enriched_categories(size, q, n):
    """Oracle: every Fraction matrix with unit diagonal and off-diagonal
    cells on Q_n, row-major in lexicographic order, that passes
    ``validate_vcategory`` and ``is_separated``."""
    cells = [(x, y) for x in range(size) for y in range(size) if x != y]
    for combo in iproduct(T.GridChain(n).elements, repeat=len(cells)):
        matrix = [[F(1)] * size for _ in range(size)]
        for (x, y), v in zip(cells, combo):
            matrix[x][y] = v
        X = VC.VCategory(q, tuple(tuple(row) for row in matrix))
        if VC.validate_vcategory(X).passed and VC.is_separated(X):
            yield X


def levels(gops, rows):
    return [tuple(gops.index(v) for v in row) for row in rows]


def test_enumerate_cx_point():
    sp = E.enumerate_cx(ONE, 2)
    assert sp.functions == ((F(0),), (F(1, 2),), (F(1),))


def test_enumerate_cx_half_pair_filters_one_table():
    sp = E.enumerate_cx(HALF_PAIR, 2)
    assert sp.size == 8
    assert (F(0), F(1)) not in sp.index
    assert (F(0), F(1, 2)) in sp.index


def test_enumerate_cx_agrees_with_poset_space():
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            got = set(E.enumerate_cx(VC.from_poset(Q, LUK), 2).functions)
            want = set(D.function_space(Q, LUK, 2).functions)
            assert got == want


def test_enumerate_cx_matches_fraction_enumeration():
    # witness indices f{i} depend on this lexicographic order
    for q in (LUK, T.minimum()):
        for n in (1, 2):
            values = T.GridChain(n).elements
            for X in E.enumerate_enriched_categories(2, q, n):
                want = tuple(
                    f
                    for f in iproduct(values, repeat=2)
                    if all(X.a(x, y) <= q.hom(f[y], f[x]) for x in range(2) for y in range(2))
                )
                assert E.enumerate_cx(X, n).functions == want


def test_cx_contains_representables():
    for X in (HALF_PAIR, CHAIN2):
        sp = E.enumerate_cx(X, 2)
        for x in range(X.size):
            assert tuple(X.a(y, x) for y in range(X.size)) in sp.index


def test_cogeneration():
    assert E.is_cogenerated(E.enumerate_cx(ONE, 2))
    assert E.is_cogenerated(E.enumerate_cx(HALF_PAIR, 2))
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            assert E.is_cogenerated(E.enumerate_cx(VC.from_poset(Q, LUK), 2))


def test_cogeneration_and_recovery_match_the_scans(monkeypatch):
    # the level-mask readings equal the scans over every function, on each
    # C(X) and on thinned copies of it, which are mostly not cogenerated;
    # lemma1 on a thinned copy (taken as cogenerated) reports the scan's
    # failures
    cogenerated = failing = 0
    for q in (LUK, T.minimum()):
        for size, n in ((1, 3), (2, 3), (3, 2)):
            for X in E.enumerate_enriched_categories(size, q, n):
                cogenerated += compare_cogeneration(X, n)
                for sub in thinned_copies(E.enumerate_cx(X, n)):
                    with monkeypatch.context() as patch:
                        patch.setattr(E, "enumerate_cx", lambda X, n: sub)
                        patch.setattr(E, "is_cogenerated", lambda space: True)
                        report = E.lemma1_audit(X, n)
                        assert report == lemma1_audit_by_scan(X, n), (X.matrix, sub.ifuncs)
                        failing += not report.passed
    # 455 categories, each C(X) cogenerated, and 254 of the thinned copies
    assert cogenerated == 455 + 254 and failing > 0
    # categories with two equivalent points: the infimum holds, the
    # separation fails
    for rows in ([[1, 1], [1, 1]], [[1, 1, "1/2"], [1, 1, "1/2"], [0, 0, 1]]):
        X = VC.vcategory(LUK, rows)
        assert not VC.is_separated(X) and compare_cogeneration(X, 2) == 0
    # spaces with no functions, which have all-zero level masks: every
    # third function from the third of the two-function C(ONE) at n = 1,
    # and none of C(HALF_PAIR)
    for X, n, cut in ((ONE, 1, slice(2, None, 3)), (HALF_PAIR, 2, slice(0))):
        space = E.enumerate_cx(X, n)
        empty = D.FunctionSpace(X, space.gops, space.ifuncs[cut])
        assert empty.size == 0
        assert E.is_cogenerated(empty) == is_cogenerated_by_scan(empty)
        with monkeypatch.context() as patch:
            patch.setattr(E, "enumerate_cx", lambda X, n: empty)
            patch.setattr(E, "is_cogenerated", lambda space: True)
            assert E.lemma1_audit(X, n) == lemma1_audit_by_scan(X, n)


def test_cogeneration_fails_on_truncated_space():
    sp = E.enumerate_cx(HALF_PAIR, 2)
    constants = [i for i, f in enumerate(sp.ifuncs) if len(set(f)) == 1]
    truncated = D.FunctionSpace(
        HALF_PAIR, sp.gops, [sp.ifuncs[i] for i in constants]
    )
    assert not E.is_cogenerated(truncated)


def test_enriched_c_point_example():
    sp = E.enumerate_cx(ONE, 2)
    f = E.enriched_c((1,), sp)
    assert f.table == (F(0), F(0), F(1, 2))
    zero = E.enriched_c((0,), sp)
    assert set(zero.table) == {F(0)}


def test_enriched_c_identity_on_poset_base():
    sp = E.enumerate_cx(CHAIN2, 2)
    assert D.c_of_levels(((2, 2), (0, 2)), sp, sp) == tuple(range(sp.size))


def test_c_of_levels_refuses_an_image_outside_cx():
    # the identity endodistributor maps C(X) onto itself; on a CX thinned
    # to every function but one, the map from the full space has an image
    # outside it, and the error names that function
    sp = E.enumerate_cx(CHAIN2, 2)
    ident = ((2, 2), (0, 2))
    dropped = sp.size - 1
    thinned = D.FunctionSpace(sp.base, sp.gops, sp.ifuncs[:dropped])
    image = sp.ifuncs[dropped]
    with pytest.raises(ValueError, match=re.escape(f"C(phi) of f{dropped} is {image}")):
        D.c_of_levels(ident, sp, thinned)


def test_retract_formulas_agree_and_invert():
    sp = E.enumerate_cx(ONE, 2)
    f = E.enriched_c((1,), sp)
    assert E.retract_phi(f) == (1,)
    assert E.retract_phi_simplified(f) == (1,)
    zero = D.Functional(sp, [F(0)] * sp.size)
    assert E.retract_phi(zero) == (0,)


def test_enriched_maps_match_the_generator_formulas():
    # enriched_c and retract_phi read off cached columns equal the
    # generator formulas on every grid distributor of every enriched C(X)
    # of size <= 2 at n <= 3 and of size 3 at n = 1, under both tensors
    # (tests/oracles.py as a script adds size 3 at n = 2); retract_phi
    # also on every join-preserving table the fullness scan reads at size
    # <= 2, n <= 2; c_of_levels on every endodistributor
    # tensor-maximality maps
    spaces = distributors = tables = endomaps = 0
    for q in (LUK, T.minimum()):
        for size, grids in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1,))):
            for n in grids:
                for X in E.enumerate_enriched_categories(size, q, n):
                    distributors += compare_enriched_maps(X, n)
                    spaces += 1
                    if size == 3 or n == 3:
                        continue
                    sp = E.enumerate_cx(X, n)
                    for t in D.join_homomorphisms(sp):
                        func = D.Functional.from_levels(sp, t)
                        assert E.retract_phi(func) == retract_phi_by_generator(sp, t)
                        tables += 1
        for size in (1, 2):
            for Q in P.all_posets(size):
                X = VC.from_poset(Q, q)
                sp = E.enumerate_cx(X, 2)
                for mat in E.grid_distributors(X, X, 2):
                    assert D.c_of_levels(mat, sp, sp) == c_of_levels_by_generator(mat, sp, sp)
                    endomaps += 1
    assert (spaces, distributors, tables, endomaps) == (96, 648, 390, 248)


def test_retract_of_upper_set_functional_is_indicator():
    Q = P.chain(2)
    X = VC.from_poset(Q, LUK)
    sp = E.enumerate_cx(X, 2)
    for a in P.upper_sets(Q):
        phi_func = D.phi_of(a, D.function_space(Q, LUK, 2))
        aligned = D.Functional(sp, [phi_func.table[D.function_space(Q, LUK, 2).index[f]] for f in sp.functions])
        row = E.retract_phi(aligned)
        assert row == tuple(2 if a >> x & 1 else 0 for x in range(2))


def test_grid_distributors():
    rows = [phi for (phi,) in E.grid_distributors(ONE, CHAIN2, 2)]
    # monotone rows toward the top of the chain
    assert all(r[0] <= r[1] for r in rows)
    assert (0, 1) in rows and (2, 2) in rows
    assert len(rows) == 6


def test_grid_distributors_match_fraction_oracle():
    # same rows, same lexicographic order, for every enumerated category
    cases = [
        (q, n, size) for q in (LUK, T.minimum(), ORDINAL) for n in (1, 2) for size in (1, 2, 3)
    ]
    cases += [(q, 3, size) for q in (LUK, T.minimum()) for size in (1, 2)]
    counted = 0
    for q, n, size in cases:
        gops = q.grid(n)
        for X in E.enumerate_enriched_categories(size, q, n):
            want = levels(gops, fraction_distributors_into(X, n))
            got = [phi for (phi,) in E.grid_distributors(VC.unit_category(q), X, n)]
            assert got == want, (q.name, n, X.matrix)
            counted += 1
    assert counted == 718


def test_grid_endodistributors_match_fraction_oracle():
    # every poset of size <= 2 at n <= 2 under each tensor, and of size 3
    # at n = 1, where all three tensors are the Boolean meet
    cases = [
        (q, size, n) for q in (LUK, T.minimum(), ORDINAL) for size in (1, 2) for n in (1, 2)
    ]
    cases += [(T.minimum(), 3, 1)]
    counted = 0
    for q, size, n in cases:
        gops = q.grid(n)
        for Q in P.all_posets(size):
            X = VC.from_poset(Q, q)
            want = [tuple(levels(gops, mat)) for mat in fraction_distributors(X, X, n)]
            assert E.grid_distributors(X, X, n) == want, (q.name, n, Q.leq)
            counted += 1
    assert counted == 3 * 2 * (1 + 3) + 19


def test_grid_distributors_between_two_categories_match_fraction_oracle():
    # every ordered pair X != Y of categories of size <= 2 at n <= 2 under
    # each tensor: the size-1 category is the unit, so it stands on either
    # side (4 categories at n = 1, 9 at n = 2)
    counted = 0
    for q in (LUK, T.minimum()):
        for n in (1, 2):
            gops = q.grid(n)
            cats = [X for size in (1, 2) for X in E.enumerate_enriched_categories(size, q, n)]
            assert cats[0].matrix == VC.unit_category(q).matrix
            for X in cats:
                for Y in cats:
                    if X is Y:
                        continue
                    want = [tuple(levels(gops, mat)) for mat in fraction_distributors(X, Y, n)]
                    assert E.grid_distributors(X, Y, n) == want, (q.name, n, X.matrix, Y.matrix)
                    counted += 1
    assert counted == 2 * (4 * 3 + 9 * 8)


def test_adjunction_audit_examples():
    for X in (ONE, HALF_PAIR, CHAIN2):
        rep = E.adjunction_audit(X, 2)
        assert rep.passed and not rep.findings


def test_adjunction_audit_scans_fullness_on_the_discrete_three_points():
    # 4^9 monotone maps on J: the fullness scan runs over all of them
    X = VC.from_poset(P.antichain(3), LUK)
    rep = E.adjunction_audit(X, 3)
    assert rep.passed and not rep.findings
    assert rep.notes == (
        "fullness direction max gap 0/3 over 8000 join-preserving tables "
        "(|J| = 9, 4^64 grid tables)",
    )


def test_adjunction_audit_skips_non_cogenerated(monkeypatch):
    monkeypatch.setattr(E, "is_cogenerated", lambda space: False)
    rep = E.adjunction_audit(HALF_PAIR, 2)
    assert rep.checked == 0 and any("skipped" in x for x in rep.notes)


def test_off_grid_category_is_rejected():
    with pytest.raises(T.GridNotClosed):
        E.enumerate_cx(VC.vcategory(LUK, [["1", "1/2"], ["0", "1"]]), 1)


def test_lemma1():
    Xc = CHAIN2
    sp = E.enumerate_cx(Xc, 2)
    assert E.lemma1_audit(Xc, 2).passed
    assert E.lemma1_audit(HALF_PAIR, 2).passed
    assert E.lemma1_audit(ONE, 2).passed
    # also across the minimum tensor, which the statement admits
    Xm = VC.from_poset(P.chain(2), T.minimum())
    assert E.lemma1_audit(Xm, 2).passed


def test_pointsep():
    for X in (ONE, HALF_PAIR, CHAIN2):
        assert E.pointsep_extension_audit(X, 2).passed


def test_twovalued():
    assert E.twovalued_audit(((2, 2), (0, 2)), CHAIN2, CHAIN2, 2).passed
    rep = E.twovalued_audit(((0, 1),), ONE, CHAIN2, 2)
    assert rep.passed and rep.notes  # fractional row: lax fails, equivalence holds
    assert E.twovalued_audit(((0, 0),), ONE, CHAIN2, 2).passed
    with pytest.raises(ValueError):
        E.twovalued_audit(((2, 2),), ONE, HALF_PAIR, 2)


def test_twovalued_lax_exactly_on_idempotent_rows():
    # under min every grid value is idempotent, so a row of 1/2 is lax
    chain = VC.from_poset(P.chain(2), T.minimum())
    rep = E.twovalued_audit(((1, 1),), VC.unit_category(T.minimum()), chain, 2)
    assert rep.passed and not rep.notes
    # under the ordinal sum 1/2 is idempotent and 1/4 is not
    chain = VC.from_poset(P.chain(2), ORDINAL)
    unit = VC.unit_category(ORDINAL)
    rep = E.twovalued_audit(((2, 4),), unit, chain, 4)
    assert rep.passed and not rep.notes
    rep = E.twovalued_audit(((1, 4),), unit, chain, 4)
    assert rep.passed and rep.notes


def test_twovalued_matches_the_pair_scan():
    # verdict, first failing row and check count on every row the suite
    # enumerates at size <= 3 and n <= 3 (the script goes to size 4)
    for q in (LUK, T.minimum(), ORDINAL):
        assert compare_twovalued(q, (1, 2, 3), (1, 2, 3)) > 0


def test_twovalued_builds_no_pair_table(monkeypatch):
    def refuse(self):
        raise AssertionError("pair table built")

    monkeypatch.setattr(D.FunctionSpace, "pair_ops", refuse)
    rep = E.twovalued_audit(((0, 1),), ONE, CHAIN2, 2)
    assert rep.passed and rep.checked == 1 and rep.notes == ("lax tensor fails at row 0",)
    for q in (LUK, T.minimum()):
        assert SU.run_suite(SU.SuiteConfig(suite="twovalued", quantale=q, max_size=3)).passed


def test_twovalued_refuses_a_matrix_that_is_not_a_distributor():
    for matrix, dst, row in [
        (((0, 1), (2, 2)), ONE, "row 1 is extra"),
        (((0, 1), (2, 2), (1, 1)), ONE, "row 1 is extra"),
        ((), CHAIN2, "row 0 is missing"),
        (((2, 0),), CHAIN2, "row 0 (2, 0) is not a distributor"),
        (((0, 3),), CHAIN2, "row 0 (0, 3) is not 2 levels"),
        (((0,),), CHAIN2, "row 0 (0,) is not 2 levels"),
    ]:
        with pytest.raises(ValueError, match=re.escape(row)):
            E.twovalued_audit(matrix, ONE, dst, 2)
    # over posets of size <= 2, a level matrix is audited exactly when
    # grid_distributors lists it
    carriers = [VC.from_poset(Q, LUK) for size in (1, 2) for Q in P.all_posets(size)]
    audited = 0
    for X in carriers:
        for Y in carriers:
            listed = set(E.grid_distributors(X, Y, 2))
            for flat in iproduct(range(3), repeat=X.size * Y.size):
                matrix = tuple(flat[x * Y.size : (x + 1) * Y.size] for x in range(X.size))
                try:
                    E.twovalued_audit(matrix, X, Y, 2)
                except ValueError as exc:
                    assert matrix not in listed and "is not a distributor" in str(exc)
                else:
                    assert matrix in listed
                    audited += 1
    assert audited == sum(len(E.grid_distributors(X, Y, 2)) for X in carriers for Y in carriers)


@pytest.fixture
def decisions(monkeypatch):
    """In call order, ("certify", table) for each table ``certify`` is
    asked about and ("survivor", table) for each table the pruned search
    yields, through both modules' bindings."""
    events = []
    certify, search = D.certify, D.join_homomorphisms

    def recorded_certify(space, itable, conditions):
        events.append(("certify", tuple(itable)))
        return certify(space, itable, conditions)

    def recorded_search(space, conditions=()):
        for itable in search(space, conditions):
            events.append(("survivor", itable))
            yield itable

    for module in (D, E):
        monkeypatch.setattr(module, "certify", recorded_certify)
        monkeypatch.setattr(module, "join_homomorphisms", recorded_search)
    return events


def test_representability_decides_each_upper_set_once(decisions):
    # the pruned search's survivors are the verdict: certify is asked only
    # about the upper-set functionals, once each in upper-set order, after
    # the search, so never about a survivor as it is found
    for Q, q, n in ((P.vee(), LUK, 2), (P.chain(3), LUK, 3), (P.antichain(2), T.minimum(), 3)):
        decisions.clear()
        space = D.function_space(Q, q, n)
        assert D.representability_audit(Q, q, n).passed
        ups = [("certify", D.phi_of(a, space).itable) for a in P.upper_sets(Q)]
        survivors = decisions[: len(decisions) - len(ups)]
        assert decisions[len(survivors) :] == ups
        assert {kind for kind, _ in survivors} == {"survivor"}


def test_adjunction_decides_each_distributor_once(decisions):
    # certify is asked about c(phi) for each grid distributor out of the
    # unit, in order, before the fullness scan, and never about a survivor
    vee = VC.from_poset(P.vee(), T.minimum())
    for X, n in ((CHAIN2, 2), (HALF_PAIR, 2), (vee, 2)):
        decisions.clear()
        space = E.enumerate_cx(X, n)
        assert E.adjunction_audit(X, n).passed
        phis = [phi for (phi,) in E.grid_distributors(VC.unit_category(X.quantale), X, n)]
        reps = [("certify", E.enriched_c(phi, space).itable) for phi in phis]
        assert decisions[: len(reps)] == reps
        assert {kind for kind, _ in decisions[len(reps) :]} == {"survivor"}


def test_adjunction_reports_a_representation_that_breaks_joins(monkeypatch):
    original = E.enriched_c

    def bottom_at_top(phi, space):
        itable = list(original(phi, space).itable)
        itable[0] = space.n
        return D.Functional.from_levels(space, itable)

    monkeypatch.setattr(E, "enriched_c", bottom_at_top)
    rep = E.adjunction_audit(CHAIN2, 2)
    assert "c(phi) is not finitely cocontinuous at phi=(0,0)" in rep.failures


def test_tensor_maximality_flagship():
    rep = E.tensor_maximality_audit(CHAIN2, (F(1), F(1, 2)), 2)
    assert rep.passed
    rep = E.tensor_maximality_audit(CHAIN2, (F(1), F(1)), 2)
    assert rep.passed
    rep = E.tensor_maximality_audit(CHAIN2, (F(0), F(0)), 2)
    assert rep.passed


def test_tensor_maximality_guards():
    with pytest.raises(ValueError):
        E.tensor_maximality_audit(HALF_PAIR, (F(1), F(1)), 2)


def test_category_enumeration_includes_half_pair():
    cats = list(E.enumerate_enriched_categories(2, LUK, 2))
    assert any(X.matrix == HALF_PAIR.matrix for X in cats)
    for X in cats:
        assert VC.is_separated(X)
        assert E.is_cogenerated(E.enumerate_cx(X, 2))


def test_enriched_c_functorial_on_grid_distributors():
    q = LUK
    X = CHAIN2
    m = X.size
    spx = E.enumerate_cx(X, 2)
    gops = spx.gops

    dists = fraction_distributors(X, X, 2)
    assert len(dists) > 1
    for phi in dists[:12]:
        for phi2 in dists[:12]:
            # phi then phi2: (x, z) |-> sup over y of phi(x, y) tensor phi2(y, z)
            composite = [
                [max(q.tensor(phi[x][y], phi2[y][z]) for y in range(m)) for z in range(m)]
                for x in range(m)
            ]
            via = D.c_of_levels(levels(gops, composite), spx, spx)
            c1 = D.c_of_levels(levels(gops, phi), spx, spx)
            c2 = D.c_of_levels(levels(gops, phi2), spx, spx)
            assert via == tuple(c1[i] for i in c2)


def test_enriched_product_mode_needs_unit_grid():
    with pytest.raises(T.GridNotClosed):
        E.enumerate_cx(VC.unit_category(T.product()), 2)
    sp = E.enumerate_cx(VC.unit_category(T.product()), 1)
    assert sp.size == 2
    rep = E.adjunction_audit(VC.unit_category(T.product()), 1)
    assert rep.passed


def test_fullness_scan_matches_brute_force():
    # the finitely cocontinuous functionals found among the join-preserving
    # tables are exactly those of the brute-force scan over all tables
    from itertools import product as iproduct

    scanned = 0
    for q in (LUK, T.minimum()):
        for size in (1, 2):
            for n in (1, 2):
                for X in E.enumerate_enriched_categories(size, q, n):
                    sp = E.enumerate_cx(X, n)

                    def finsup(tables):
                        return [
                            t
                            for t in tables
                            if E.is_finsup_functional(D.Functional.from_levels(sp, t))
                        ]

                    brute = finsup(iproduct(range(n + 1), repeat=sp.size))
                    assert finsup(D.join_homomorphisms(sp)) == brute, (X.matrix, n)
                    scanned += 1
    assert scanned == 26


def test_pruned_fullness_scan_matches_the_full_check():
    # the survivors of the search pruned on the action that pass
    # is_finsup_functional are the unpruned tables that pass it, and the
    # count is the number of unpruned tables: every enriched C(X) of size
    # <= 2 at n <= 3 and of size 3 at n <= 2, wherever the grid is closed
    spaces = tables = 0
    for q in (LUK, T.minimum(), ORDINAL):
        for size, grids in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2))):
            for n in grids:
                if not T.grid_closed(q, n):
                    continue
                for X in E.enumerate_enriched_categories(size, q, n):
                    sp = E.enumerate_cx(X, n)

                    def finsup(tables):
                        return [
                            t
                            for t in tables
                            if E.is_finsup_functional(D.Functional.from_levels(sp, t))
                        ]

                    full = list(D.join_homomorphisms(sp))
                    assert D.count_join_homomorphisms(sp) == len(full), (X.matrix, n)
                    pruned = finsup(D.join_homomorphisms(sp, ("act",)))
                    assert pruned == finsup(full), (q.name, X.matrix, n)
                    spaces += 1
                    tables += len(full)
    assert (spaces, tables) == (718, 51_038)


def test_fullness_scan_builds_only_the_survivors(monkeypatch):
    # the categories enriched-roundtrip sweeps at grid 3, max-size 2: 245
    # functionals reach the full check (70,023 before the pruning)
    original = E.is_finsup_functional
    calls = [0]

    def counted(func):
        calls[0] += 1
        return original(func)

    monkeypatch.setattr(E, "is_finsup_functional", counted)
    checked = 0
    for n in (1, 2, 3):
        for size in (1, 2):
            for X in E.enumerate_enriched_categories(size, LUK, n):
                rep = E.adjunction_audit(X, n)
                assert rep.passed
                checked += rep.checked
    # checked: the 245 distributors and the 245 functionals
    assert (calls[0], checked) == (245, 490)


def test_adjunction_audit_under_minimum():
    # minus and power tables leave the space here; the audit reads neither
    X = VC.vcategory(T.minimum(), [["1", "1/2"], ["0", "1"]])
    rep = E.adjunction_audit(X, 2)
    assert rep.passed and not rep.findings
    assert rep.notes == (
        "fullness direction max gap 0/2 over 25 join-preserving tables "
        "(|J| = 4, 3^7 grid tables)",
    )


def test_enumerated_categories_are_cogenerated():
    # the representables a(-, x) separate points and attain the infimum,
    # so no separated category fails cogeneration
    ordinal = T.ordinal_sum((F(0), F(1, 2), T.Lukasiewicz()))
    cases = [
        (q, n, size)
        for q in (LUK, T.minimum(), ordinal)
        for n in (1, 2)
        for size in (1, 2, 3)
    ]
    cases += [(q, 3, size) for q in (LUK, T.minimum()) for size in (1, 2)]
    counted = 0
    for q, n, size in cases:
        for X in E.enumerate_enriched_categories(size, q, n):
            assert E.is_cogenerated(E.enumerate_cx(X, n)), (q.name, X.matrix)
            counted += 1
    assert counted == 718


def test_category_enumeration_matches_fraction_oracle():
    # the same matrices in the same order, wherever the grid is closed
    counted = 0
    for q in (LUK, T.minimum(), ORDINAL):
        for n in (1, 2, 3):
            if not T.grid_closed(q, n):
                continue
            for size in (1, 2, 3):
                got = [X.matrix for X in E.enumerate_enriched_categories(size, q, n)]
                want = [X.matrix for X in fraction_enriched_categories(size, q, n)]
                assert got == want, (q.name, n, size)
                counted += len(got)
    assert counted == 2846


@pytest.mark.parametrize("check", ["validate_vcategory", "is_separated"])
def test_category_enumeration_rechecks_every_output(monkeypatch, check):
    refused = {
        "validate_vcategory": lambda X: VC.CheckReport(name="refused", checked=1, failures=("no",)),
        "is_separated": lambda X: False,
    }
    monkeypatch.setattr(E, check, refused[check])
    with pytest.raises(RuntimeError, match="axiom check refuses"):
        next(E.enumerate_enriched_categories(2, LUK, 2))
