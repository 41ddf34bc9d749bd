"""C(X) reuse: ``duality.cx_space`` keeps the two most recently requested
spaces of each grid, finds any other space still alive through the grid's
``held`` registry, and serves ``function_space`` and ``enumerate_cx``.

The build counts below are exact: every build goes through
``duality.cx_levels`` as called by ``cx_space``, which is wrapped there.
``enriched`` binds ``cx_levels`` too, to enumerate grid distributors;
those calls build no space and are not counted.
"""

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
    q = T.lukasiewicz()
    assert D.function_space(P.vee(), q, 2) is D.function_space(P.vee(), q, 2)
    X = VC.from_poset(P.chain(2), q)
    assert E.enumerate_cx(X, 2) is E.enumerate_cx(X, 2)


def test_third_carrier_evicts_the_least_recently_requested(builds):
    q = T.lukasiewicz()
    a, b, c = P.chain(1), P.chain(2), P.antichain(2)
    sa = D.function_space(a, q, 2)
    sb = D.function_space(b, q, 2)
    assert D.function_space(a, q, 2) is sa  # a is now the most recent
    sc = D.function_space(c, q, 2)  # evicts b
    assert q.grid(2).spaces == [sa, sc]
    assert D.function_space(a, q, 2) is sa
    assert D.function_space(b, q, 2) is sb  # held, so served, evicting c
    assert q.grid(2).spaces == [sa, sb]
    assert builds[0] == 3
    D.function_space(c, q, 2)  # evicts a
    D.function_space(a, q, 2)  # evicts b
    del sb
    D.function_space(b, q, 2)  # no longer held, so rebuilt
    assert builds[0] == 4
    assert len(q.grid(2).spaces) == 2


def test_a_held_space_survives_eviction(builds):
    q = T.lukasiewicz()
    carriers = [P.chain(1), P.chain(2), P.antichain(2), P.vee(), P.chain(3)]
    held = [D.function_space(Q, q, 2) for Q in carriers]
    assert q.grid(2).spaces == held[-2:]
    # every carrier is evicted and requested again, in reverse order
    assert all(D.function_space(Q, q, 2) is sp for Q, sp in zip(carriers, held))
    assert builds[0] == len(carriers)
    assert len(q.grid(2).held) == len(carriers)


def test_a_sweep_that_holds_nothing_keeps_no_more_than_the_kept_spaces():
    q = T.lukasiewicz()
    config = SU.SuiteConfig(suite="stone-weierstrass", quantale=q, grid=2, max_size=3)
    assert SU.run_suite(config).passed
    for n in (1, 2):
        gops = q.grid(n)
        assert gops.spaces and len(gops.held) <= D.SPACES_KEPT


def test_a_larger_limit_keeps_as_many_spaces(monkeypatch, builds):
    # the oldest space is dropped only once the list is full, whatever
    # the limit
    monkeypatch.setattr(D, "SPACES_KEPT", 4)
    q = T.lukasiewicz()
    carriers = [P.chain(1), P.chain(2), P.antichain(2), P.vee()]
    spaces = [D.function_space(Q, q, 2) for Q in carriers]
    assert q.grid(2).spaces == spaces
    assert all(D.function_space(Q, q, 2) is sp for Q, sp in zip(carriers, spaces))
    assert builds[0] == 4
    D.function_space(P.chain(3), q, 2)  # evicts the least recently requested
    assert q.grid(2).spaces[:3] == spaces[1:]
    assert len(q.grid(2).spaces) == 4


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


def test_a_built_category_and_an_enumerated_one_share_a_space():
    # demo 06's enriched pair, built from its matrix, is the same base as
    # the enumerated category with that matrix
    q = T.lukasiewicz()
    built = VC.vcategory(q, [["1", "1/2"], ["0", "1"]])
    (enumerated,) = (
        X for X in E.enumerate_enriched_categories(2, q, 2) if X.matrix == built.matrix
    )
    assert E.enumerate_cx(built, 2) is E.enumerate_cx(enumerated, 2)


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
    # tables built (reuse), and when built again after eviction: at step k
    # the two kept spaces are posets k - 3 and k, so poset k - 2 is rebuilt
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
                    evicted = posets[k - 2]
                    rebuilt = D.function_space(evicted, q, n)
                    assert _same_tables(rebuilt, _fresh(evicted, gops))
                    served += 1
                served += 2
    assert served == 2 * 3 * (2 * 23 + 21)


def test_total_partial_reports_match_fresh_quantales(monkeypatch):
    # the direct audits share the kept spaces; the suite run, which holds
    # its spaces, must report each instance as the fresh audit does
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
    # a hit, and every reader of the structure, build none
    assert E.enumerate_cx(X, 2) is space
    assert E.is_cogenerated(space) and E.lemma1_audit(X, 2).passed
    assert [tuple(row[x] for row in space.structure) for x in range(2)] == [(2, 0), (1, 2)]
    assert D.function_space(P.vee(), q, 2) is D.function_space(P.vee(), q, 2)
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
