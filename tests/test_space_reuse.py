"""C(X) reuse: ``duality.cx_space`` serves ``function_space`` and
``enumerate_cx`` the space of a base object on a grid while something
holds that space, and builds it again once nothing does.

The build counts below are exact: every build goes through
``duality.cx_levels`` as called by ``cx_space``, which is wrapped there.
``enriched`` binds ``cx_levels`` too, to enumerate grid distributors;
those calls build no space and are not counted.
"""

import dataclasses
import gc

import pytest

from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import suites as SU
from unitcat import tnorms as T
from unitcat import vcat as VC


@pytest.fixture
def builds(monkeypatch):
    """The number of C(X) enumerations made so far."""
    original = D.cx_levels
    count = [0]

    def counted(gops, ia):
        count[0] += 1
        return original(gops, ia)

    monkeypatch.setattr(D, "cx_levels", counted)
    return count


@pytest.mark.parametrize(
    "suite, grid, max_size, expected",
    [
        # the run holds the space of each poset in its pool
        ("total-partial", 2, 2, 4),
        ("total-partial", 2, 3, 23),
        # the run-local dict asks for each poset once: one build per poset
        ("functoriality", 2, 3, 23),
        ("enriched-roundtrip", 2, 2, 13),
        ("tensor-maximality", 2, 2, 4),
        ("twovalued", 2, 3, 23),
        # every stone-weierstrass space is distinct: nothing to reuse
        ("stone-weierstrass", 2, 3, 46),
    ],
)
def test_cx_builds_per_suite_run(builds, suite, grid, max_size, expected):
    config = SU.SuiteConfig(
        suite=suite, quantale=T.lukasiewicz(), grid=grid, max_size=max_size
    )
    assert SU.run_suite(config).passed
    assert builds[0] == expected


def test_consecutive_requests_share_one_space():
    # the first result is still referenced while the second is requested
    q = T.lukasiewicz()
    Q = P.vee()
    assert D.function_space(Q, q, 2) is D.function_space(Q, q, 2)
    X = VC.from_poset(P.chain(2), q)
    assert E.enumerate_cx(X, 2) is E.enumerate_cx(X, 2)


CARRIERS = (P.chain(1), P.chain(2), P.antichain(2), P.vee(), P.chain(3))


def test_a_held_space_is_served_in_any_order(builds):
    q = T.lukasiewicz()
    held = [D.function_space(Q, q, 2) for Q in CARRIERS]
    for order in (range(4, -1, -1), (2, 0, 4, 1, 3), range(5)):
        assert all(D.function_space(CARRIERS[k], q, 2) is held[k] for k in order)
    assert builds[0] == len(CARRIERS)


def test_an_unheld_space_is_rebuilt(builds):
    q = T.lukasiewicz()
    a, b, c = CARRIERS[:3]
    sa, sb = D.function_space(a, q, 2), D.function_space(b, q, 2)
    D.function_space(c, q, 2)  # held by nothing once returned
    del sa
    gc.collect()
    assert builds[0] == 3
    rebuilt = [D.function_space(Q, q, 2) for Q in (a, b, c)]
    assert rebuilt[1] is sb and builds[0] == 5
    assert [sp.base for sp in rebuilt] == [a, b, c]


def _registered(q, grids):
    """The live registry entries of this quantale's grids."""
    ids = {id(q.grid(n)) for n in grids}
    return [ref for (_, gops), ref in D._SPACES.items() if gops in ids and ref() is not None]


def test_a_sweep_that_holds_nothing_leaves_no_space_registered():
    q = T.lukasiewicz()
    config = SU.SuiteConfig(suite="stone-weierstrass", quantale=q, grid=2, max_size=3)
    assert SU.run_suite(config).passed
    gc.collect()
    assert _registered(q, (1, 2)) == []
    # what a caller holds stays registered, and only that
    held = D.function_space(P.vee(), q, 2)
    assert [ref() for ref in _registered(q, (1, 2))] == [held]


def test_an_audit_leaves_no_cycle_holding_its_space():
    # with the cyclic collector off, an unheld space must die with the
    # last reference the audit dropped, not wait for a collection
    q = T.lukasiewicz()
    gc.collect()
    gc.disable()
    try:
        assert D.representability_audit(P.chain(2), q, 2).passed
        assert _registered(q, (2,)) == []
        assert E.adjunction_audit(VC.from_poset(P.chain(2), q), 2).passed
        assert _registered(q, (2,)) == []
    finally:
        gc.enable()


def test_the_category_search_leaves_no_cycle():
    # the same shape as join_homomorphisms' search, holding no space: a
    # search run to its end, or dropped after its first category, leaves
    # nothing for the cyclic collector
    q = T.lukasiewicz()
    gc.collect()
    gc.disable()
    try:
        assert len(list(E.enumerate_enriched_categories(2, q, 2))) > 1
        next(E.enumerate_enriched_categories(3, q, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_space_is_never_served_for_another_base():
    # each base is a temporary copy, freed with its space before the next
    # is made, so later copies get freed ids; every request still gets
    # its own base's space
    q = T.lukasiewicz()
    gops = q.grid(2)
    originals = [Q for size in (1, 2, 3) for Q in P.all_posets(size)]
    originals += E.enumerate_enriched_categories(2, q, 2)
    expected = [D.cx_space(base, gops).ifuncs for base in originals]
    ids, bases = set(), 0
    for _ in range(3):
        for original, ifuncs in zip(originals, expected):
            base = dataclasses.replace(original)
            space = D.cx_space(base, gops)
            assert space.base is base and space.ifuncs == ifuncs
            ids.add(id(base))
            bases += 1
            del base, space
    assert len(ids) < bases  # some ids were reused


def test_distinct_bases_with_equal_structure_get_distinct_spaces(builds):
    # a space is shared by base object, not by structure: demo 06's
    # enriched pair, built from its matrix, is not the enumerated category
    # with that matrix, and two vee posets are two carriers
    q = T.lukasiewicz()
    built = VC.vcategory(q, [["1", "1/2"], ["0", "1"]])
    (enumerated,) = (
        X for X in E.enumerate_enriched_categories(2, q, 2) if X.matrix == built.matrix
    )
    assert built == enumerated and built is not enumerated
    s1, s2 = E.enumerate_cx(built, 2), E.enumerate_cx(enumerated, 2)
    assert s1 is not s2 and s1.ifuncs == s2.ifuncs
    v1, v2 = P.vee(), P.vee()
    t1, t2 = D.function_space(v1, q, 2), D.function_space(v2, q, 2)
    assert t1 is not t2 and t1.ifuncs == t2.ifuncs
    assert builds[0] == 4


def test_quantales_grids_and_base_kinds_never_share_a_space():
    Q = P.vee()
    q, other = T.lukasiewicz(), T.lukasiewicz()
    assert D.function_space(Q, q, 2) is not D.function_space(Q, other, 2)
    assert D.function_space(Q, q, 2) is not D.function_space(Q, q, 3)
    X = VC.from_poset(Q, q)
    poset_space, category_space = D.function_space(Q, q, 2), E.enumerate_cx(X, 2)
    assert poset_space is not category_space
    assert poset_space.base is Q and category_space.base is X
    assert D.function_space(Q, q, 2) is poset_space
    assert E.enumerate_cx(X, 2) is category_space


def _fresh(Q, gops):
    m = Q.size
    ia = [[gops.n if Q.leq[x][y] else 0 for y in range(m)] for x in range(m)]
    return D.FunctionSpace(Q, gops, D.cx_levels(gops, ia))


def _same_tables(served, fresh):
    return (
        served.ifuncs == fresh.ifuncs
        and served.pair_ops() == fresh.pair_ops()
        and served.unary_ops("act") == fresh.unary_ops("act")
        and served.tensor_table() == fresh.tensor_table()
        and all(
            served.row_column(row) == fresh.row_column(row)
            for row in _indicator_rows(served.base, served.n)
        )
    )


def _indicator_rows(Q, n):
    """The indicator row of each upper set: n on the set, 0 off it."""
    return [tuple(n if a >> x & 1 else 0 for x in range(Q.size)) for a in P.upper_sets(Q)]


def test_served_spaces_match_fresh_builds():
    # each poset space is checked when built, when served again with its
    # tables built (reuse), and when requested again once nothing holds
    # it: at step k, poset k - 2's
    posets = [Q for size in (1, 2, 3) for Q in P.all_posets(size)]
    served = 0
    for q in (T.lukasiewicz(), T.minimum()):
        for n in (1, 2, 3):
            gops = q.grid(n)
            for k, Q in enumerate(posets):
                first = D.function_space(Q, q, n)
                assert _same_tables(first, _fresh(Q, gops)), (q.name, n, Q.leq)
                again = D.function_space(Q, q, n)
                assert again is first and _same_tables(again, _fresh(Q, gops))
                if k >= 2:
                    dropped = posets[k - 2]
                    rebuilt = D.function_space(dropped, q, n)
                    assert _same_tables(rebuilt, _fresh(dropped, gops))
                    served += 1
                served += 2
    assert served == 2 * 3 * (2 * 23 + 21)


def test_total_partial_reports_match_fresh_quantales(monkeypatch):
    # the direct audits hold no space between calls; the suite run, which
    # holds its spaces, must report each instance as the fresh audit does
    absorbed = []
    absorb = SU.SuiteReport.absorb

    def recorded(report, rep, instance=None):
        absorbed.append((instance, rep))
        absorb(report, rep, instance)

    monkeypatch.setattr(SU.SuiteReport, "absorb", recorded)
    posets = [Q for size in (1, 2) for Q in P.all_posets(size)]
    compared = 0
    for make in (T.lukasiewicz, T.minimum):
        for n in (1, 2, 3):
            q = make()
            fresh_reports = []
            for xi, X in enumerate(posets):
                for yi, Y in enumerate(posets):
                    for k, phi in enumerate(P.continuous_distributors(X, Y)):
                        shared = D.total_partial_audit(phi, X, Y, q, n)
                        fresh = D.total_partial_audit(phi, X, Y, make(), n)
                        assert shared == fresh, (make.__name__, n, X.leq, Y.leq, phi)
                        fresh_reports.append((f"{xi}.{yi}.{k}", fresh))
                        compared += 1
            absorbed.clear()
            config = SU.SuiteConfig(suite="total-partial", quantale=q, grid=n, max_size=2)
            SU.run_suite(config)
            assert absorbed == fresh_reports, (make.__name__, n)
    assert compared == 2 * 3 * 98


def test_total_partial_builds_each_tensor_lookup_once_per_kept_space(builds, monkeypatch):
    original = D.FunctionSpace.tensor_table
    built = []

    def counted(space):
        if space._tensor_table is None:
            built.append(space)
        return original(space)

    monkeypatch.setattr(D.FunctionSpace, "tensor_table", counted)
    config = SU.SuiteConfig(
        suite="total-partial", quantale=T.lukasiewicz(), grid=2, max_size=2
    )
    assert SU.run_suite(config).passed
    # only the source spaces CX are read; the run holds the space of each
    # poset in its pool, so each is built once
    assert len({id(space) for space in built}) == len(built) == 4
    assert builds[0] == 4


@pytest.fixture
def structures(monkeypatch):
    """The number of structure-level matrices built so far, through
    ``duality`` or any binding of ``structure_levels`` in ``enriched``."""
    original = D.structure_levels
    count = [0]

    def counted(base, gops):
        count[0] += 1
        return original(base, gops)

    monkeypatch.setattr(D, "structure_levels", counted)
    if hasattr(E, "structure_levels"):
        monkeypatch.setattr(E, "structure_levels", counted)
    return count


def test_a_kept_space_builds_no_structure_levels(structures):
    q = T.lukasiewicz()
    X = VC.vcategory(q, [["1", "1/2"], ["0", "1"]])
    space = E.enumerate_cx(X, 2)
    assert structures[0] == 1 and space.structure == [[2, 1], [0, 2]]
    # a request for the held space, and every reader of the structure,
    # build none
    assert E.enumerate_cx(X, 2) is space
    assert E.is_cogenerated(space) and E.lemma1_audit(X, 2).passed
    assert [tuple(row[x] for row in space.structure) for x in range(2)] == [(2, 0), (1, 2)]
    Q = P.vee()
    assert D.function_space(Q, q, 2) is D.function_space(Q, q, 2)
    assert structures[0] == 2
    # a space built directly reads its base's structure on first use
    direct = D.FunctionSpace(X, space.gops, space.ifuncs)
    assert direct.structure == space.structure and structures[0] == 3


@pytest.mark.parametrize(
    "suite, max_size",
    [
        ("total-partial", 2),
        ("lemma1", 3),
        ("enriched-roundtrip", 2),
        ("twovalued", 3),
        ("tensor-maximality", 2),
    ],
)
def test_structure_levels_are_built_once_per_space(builds, structures, suite, max_size):
    config = SU.SuiteConfig(
        suite=suite, quantale=T.lukasiewicz(), grid=2, max_size=max_size
    )
    assert SU.run_suite(config).passed
    assert structures[0] == builds[0] > 0
