import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import compare_stone_checks, stone_closures
from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import stone as S
from unitcat import suites as SU
from unitcat import tnorms as T
from unitcat import vcat as VC

LUK = T.lukasiewicz()
CHAIN2 = P.chain(2)


def chain2_space(n=2):
    return D.function_space(CHAIN2, LUK, n)


def test_flagship_closure_reaches_everything():
    sp = chain2_space()
    gens = [sp.index[(F(1), F(0))], sp.index[(F(1), F(1))]]
    L = S.generate_closure(sp, gens, ("join", "tensor", "act"))
    assert len(P.mask_elements(L.mask)) == sp.size == 6


def test_closure_of_everything_is_everything():
    sp = chain2_space()
    L = S.generate_closure(sp, range(sp.size), ("join",))
    assert P.mask_elements(L.mask) == tuple(range(sp.size))


def test_constants_closure():
    sp = chain2_space()
    L = S.generate_closure(sp, [], ("constants",))
    assert set(P.mask_elements(L.mask)) == {sp.constant_index(0), sp.top_index}


def test_closure_rejects_unknown_op():
    with pytest.raises(ValueError):
        S.generate_closure(chain2_space(), [], ("frobnicate",))


subsets = st.lists(st.integers(min_value=0, max_value=5), max_size=4)


@given(subsets, subsets)
@settings(max_examples=60, deadline=None)
def test_closure_monotone_and_idempotent(g1, g2):
    sp = chain2_space()
    ops = ("join", "act")
    small = S.generate_closure(sp, set(g1), ops)
    big = S.generate_closure(sp, set(g1) | set(g2), ops)
    assert set(P.mask_elements(small.mask)) <= set(P.mask_elements(big.mask))
    again = S.generate_closure(sp, P.mask_elements(small.mask), ops)
    assert P.mask_elements(again.mask) == P.mask_elements(small.mask)


def test_sep_examples():
    sp = chain2_space()
    gens = S.down_set_indicators(sp)
    L = S.generate_closure(sp, gens, ("join", "tensor", "act"))
    assert S.check_sep(L).passed
    assert S.check_sep(S.generate_closure(sp, range(sp.size), ())).passed
    spa = D.function_space(P.antichain(2), LUK, 2)
    rep = S.check_sep(S.generate_closure(spa, [], ("constants",)))
    assert not rep.passed


def test_sep_stable_under_superset():
    sp = chain2_space()
    gens = S.down_set_indicators(sp)
    L = S.generate_closure(sp, gens, ())
    assert S.check_sep(L).passed
    bigger = S.generate_closure(sp, list(gens) + [sp.constant_index(0)], ())
    assert S.check_sep(bigger).passed


def test_density_levels():
    sp = chain2_space()
    full = S.generate_closure(sp, range(sp.size), ())
    assert S.density_at_level(sp, full, F(1, 2)).passed
    # spec negative control: the 0/1 constants miss (1,0) at level 1/2
    consts = S.generate_closure(sp, [], ("constants",))
    rep = S.density_at_level(sp, consts, F(1, 2))
    assert not rep.passed
    bad = sp.index[(F(1), F(0))]
    assert any(f"f{bad}" in w for w in rep.failures)


def test_density_antitone_in_level():
    sp = D.function_space(CHAIN2, LUK, 4)
    gens = S.down_set_indicators(sp)
    L = S.generate_closure(sp, gens, ("join", "act"))
    passing = [
        u for u in T.GridChain(4).elements if S.density_at_level(sp, L, u).passed
    ]
    # the passing set must be downward closed
    for u in T.GridChain(4).elements:
        if any(u <= p for p in passing):
            assert S.density_at_level(sp, L, u).passed


def test_density_level_must_be_on_grid():
    sp = chain2_space()
    full = S.generate_closure(sp, range(sp.size), ())
    with pytest.raises(ValueError):
        S.density_at_level(sp, full, F(1, 3))


def test_separation_and_density_match_the_member_scans():
    # the mask checks equal the member scans, witness and failure text
    # included, at every level, on closures from the indicators, a seeded
    # random generator set and nothing, full and not
    closures = 0
    for L in stone_closures((1, 2, 3), (1, 2, 3), (LUK, T.minimum()), seed=7):
        compare_stone_checks(L)
        closures += 1
    assert closures == 2 * 3 * (1 + 3 + 19) * 3 * 8
    # a space with no functions: no pair has a separator, and density
    # holds exactly
    space = D.function_space(P.antichain(2), LUK, 1)
    empty = D.FunctionSpace(space.base, space.gops, ())
    compare_stone_checks(S.SubStructure(empty, 0))


def test_sw_flagship_exact_equality():
    rep = S.sw_audit(CHAIN2, LUK, 2)
    assert rep.passed and not rep.findings
    assert any("exact equality" in note for note in rep.notes)


def test_sw_degeneracy_note_everywhere():
    rep = S.sw_audit(P.vee(), LUK, 2)
    assert any("surrogate" in note for note in rep.notes)


def test_sw_bad_generators_reported_not_asserted():
    sp = chain2_space()
    rep = S.sw_audit(CHAIN2, LUK, 2, generators=[sp.constant_index(0)])
    assert rep.passed  # no failures: hypothesis failure is a finding
    assert rep.findings and "separation hypothesis failed" in rep.findings[0]


# Every poset on at most three points, grids n <= 3, and each op set below:
# generate_closure against an independent fixpoint over Fraction tuples.
OP_SETS = (
    ("join", "tensor", "act"),
    ("join", "act"),
    ("tensor", "power"),
    ("act", "minus", "power"),
    ("constants",),
    (),
)


def _closure_cases(q):
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            for n in (1, 2, 3):
                sp = D.function_space(Q, q, n)
                for gens in (S.down_set_indicators(sp), (sp.size // 2,)):
                    for ops in OP_SETS:
                        yield sp, gens, ops, S.generate_closure(sp, gens, ops)


def _pointwise(q, n):
    """The closure ops on Fraction tuples, from the tensor and hom alone."""
    vals = T.GridChain(n).elements
    ten = {(u, a): q.tensor(u, a) for u in vals for a in vals}
    hom = {(u, a): q.hom(u, a) for u in vals for a in vals}
    binary = {
        "join": lambda f, g: tuple(a if a >= b else b for a, b in zip(f, g)),
        "tensor": lambda f, g: tuple(ten[a, b] for a, b in zip(f, g)),
    }
    unary = {
        "act": lambda u, f: tuple(ten[u, a] for a in f),
        "power": lambda u, f: tuple(hom[u, a] for a in f),
        "minus": lambda u, f: tuple(a - u if a > u else F(0) for a in f),
    }
    return vals, binary, unary


def _fixpoint(sp, gens, ops):
    vals, binary, unary = _pointwise(sp.quantale, sp.n)
    fs = sp.functions
    closed = {fs[g] for g in gens}
    if "constants" in ops:
        closed |= {fs[sp.constant_index(0)], fs[sp.top_index]}
    if "tensor" in ops:
        closed.add(fs[sp.top_index])
    while True:
        grown = set(closed)
        for f in closed:
            for op in binary:
                if op in ops:
                    grown.update(binary[op](f, g) for g in closed)
            for op in unary:
                if op in ops:
                    grown.update(unary[op](u, f) for u in vals)
        if grown == closed:
            return tuple(sorted(sp.index[f] for f in closed))
        closed = grown


@pytest.mark.parametrize("q", [LUK, T.minimum()], ids=lambda q: q.name)
def test_closure_matches_fixpoint_oracle(q):
    for sp, gens, ops, L in _closure_cases(q):
        assert P.mask_elements(L.mask) == _fixpoint(sp, gens, ops), (sp.base.leq, sp.n, gens, ops)


def _closure_pair_by_pair(space, generators, ops):
    """Reference worklist: each join and tensor computed for one pair at a
    time from the two level tuples, in the order generate_closure visits
    them."""
    tt = space.gops.tensor_t
    fs, idx = space.ifuncs, space.iindex
    pair = {
        "join": lambda i, j: idx[tuple(a if a >= b else b for a, b in zip(fs[i], fs[j]))],
        "tensor": lambda i, j: idx.get(tuple(tt[a][b] for a, b in zip(fs[i], fs[j])), -1),
    }
    members, seen = [], set()

    def add(i):
        if i not in seen:
            seen.add(i)
            members.append(i)

    for g in generators:
        add(g)
    if "constants" in ops:
        add(space.constant_index(0))
        add(space.constant_index(space.n))
    if "tensor" in ops:
        add(space.top_index)
    unary = [space.unary_ops(op) for op in ("act", "power", "minus") if op in ops]
    n = space.n
    full = space.size if space.tensor_closed else None
    for k, i in enumerate(members):
        if len(members) == full:
            break
        for op in ("join", "tensor"):
            if op not in ops:
                continue
            for j in members[: k + 1]:
                r = pair[op](i, j)
                if r not in seen:
                    if r < 0:
                        raise ValueError(f"tensor of f{i} and f{j} leaves the function space")
                    add(r)
        for u in range(n + 1):
            for table in unary:
                add(table[u][i])
    return tuple(sorted(members))


@pytest.mark.parametrize("q", [LUK, T.minimum()], ids=lambda q: q.name)
def test_row_gather_closure_matches_the_pair_by_pair_worklist(q):
    cases = 0
    for size in (1, 2, 3, 4):
        for Q in P.all_posets(size):
            for n in (1, 2, 3):
                sp = D.function_space(Q, q, n)
                for gens in (S.down_set_indicators(sp), (sp.size // 2,)):
                    for ops in OP_SETS:
                        L = S.generate_closure(sp, gens, ops)
                        want = _closure_pair_by_pair(sp, gens, ops)
                        assert P.mask_elements(L.mask) == want, (Q.leq, n, gens, ops)
                        cases += 1
    assert cases == 242 * 3 * 2 * len(OP_SETS)


ESCAPE = re.compile(r"tensor of f(\d+) and f(\d+) leaves the function space")


def _assert_escapes(sp, exc):
    i, j = map(int, ESCAPE.fullmatch(str(exc.value)).groups())
    tt = sp.gops.tensor_t
    assert tuple(tt[a][b] for a, b in zip(sp.ifuncs[i], sp.ifuncs[j])) not in sp.iindex


def test_escaping_tensor_is_refused_with_the_pair():
    # over this Lukasiewicz category (1, 1/2) tensor (1, 1/2) = (1, 0) is not
    # a member, while act, minus and power stay in the space
    X = VC.vcategory(LUK, [["1", "0"], ["1/2", "1"]])
    sp = E.enumerate_cx(X, 2)
    with pytest.raises(ValueError, match=ESCAPE.pattern) as exc:
        S.generate_closure(sp, range(sp.size), ("tensor",))
    _assert_escapes(sp, exc)
    with pytest.raises(ValueError) as reference:
        _closure_pair_by_pair(sp, range(sp.size), ("tensor",))
    assert str(exc.value) == str(reference.value)


# The closure certificate: ``cx_space`` marks a space tensor_closed when
# its structure levels are all 0 or n, and only then may the worklist stop
# at the full space.


def test_poset_spaces_are_certified_and_tensor_closed():
    checked = 0
    for q in (LUK, T.minimum()):
        for n in (1, 2, 3):
            for size in (1, 2, 3, 4):
                for Q in P.all_posets(size):
                    sp = D.function_space(Q, q, n)
                    cx = E.enumerate_cx(VC.from_poset(Q, q), n)
                    assert sp.tensor_closed and cx.tensor_closed, (q.name, n, Q.leq)
                    # the same tables on the same grid: one pair table serves both
                    assert cx.ifuncs == sp.ifuncs and cx.gops is sp.gops
                    assert all(k >= 0 for *_, k in sp.pair_ops()), (q.name, n, Q.leq)
                    checked += 1
    assert checked == 2 * 3 * 242


def test_intermediate_levels_are_not_certified():
    checked = 0
    for q in (LUK, T.minimum()):
        for n in (1, 2, 3):
            for size in (1, 2):
                for X in E.enumerate_enriched_categories(size, q, n):
                    ia = D.structure_levels(X, q.grid(n))
                    if all(v in (0, n) for row in ia for v in row):
                        continue
                    assert not E.enumerate_cx(X, n).tensor_closed, (q.name, n, X.matrix)
                    checked += 1
    assert checked > 0
    # nor is a space constructed directly, whatever its carrier
    sp = chain2_space()
    assert not D.FunctionSpace(sp.base, sp.gops, sp.ifuncs).tensor_closed


def test_certified_closure_stops_at_the_full_space(monkeypatch):
    sp = D.function_space(P.antichain(4), LUK, 2)
    gens = S.down_set_indicators(sp)
    pairs = [0]
    original = D.FunctionSpace.pair_indices

    def counted(self, table, i, js):
        pairs[0] += len(js)
        return original(self, table, i, js)

    monkeypatch.setattr(D.FunctionSpace, "pair_indices", counted)
    L = S.generate_closure(sp, gens, ("join", "tensor", "act"))
    assert P.mask_elements(L.mask) == tuple(range(sp.size))
    # the joins of the indicators' actions are already every function
    assert pairs[0] == 0


def test_density_sweep_builds_no_pair_table(monkeypatch):
    calls = [0]
    original = D.FunctionSpace.pair_ops

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(D.FunctionSpace, "pair_ops", counted)
    for q in (LUK, T.minimum()):
        config = SU.SuiteConfig(suite="stone-weierstrass", quantale=q, grid=2, max_size=3)
        assert SU.run_suite(config).passed
    assert calls[0] == 0


# The two-phase closure (tensor and unary ops, then joins by level
# bitmasks) against the worklist over all the ops at once.  Enriched
# carriers make tensors, minus and powers escape, so there both must
# raise, with the same message.
ORACLE_OPS = OP_SETS + (
    ("join",),
    ("join", "tensor"),
    ("join", "power"),
    ("join", "minus"),
    ("join", "constants"),
    S.KNOWN_OPS,
)


def _oracle_spaces():
    for q, grids in ((LUK, (1, 2, 3)), (T.minimum(), (1, 2, 3)), (T.product(), (1,))):
        for n in grids:
            for size in (1, 2):
                for X in E.enumerate_enriched_categories(size, q, n):
                    yield E.enumerate_cx(X, n)
            for size in (1, 2, 3):
                for Q in P.all_posets(size):
                    yield D.function_space(Q, q, n)


def _counting_worklist(monkeypatch):
    """Count the ``_worklist`` calls; the returned list holds the count."""
    calls, worklist = [0], S._worklist

    def counted(space, generators, ops):
        calls[0] += 1
        return worklist(space, generators, ops)

    monkeypatch.setattr(S, "_worklist", counted)
    return calls


def test_two_phase_closure_matches_the_worklist(monkeypatch):
    # a closure with join on a tensor_closed space either stops after its
    # unary worklist or falls through to the two phases, a second worklist
    calls = _counting_worklist(monkeypatch)
    cases = raising = stopped = fell_through = 0
    for sp in _oracle_spaces():
        size = sp.size
        for gens in ((), (0,), (size // 2,), (size - 1,), range(size), range(0, size, 3)):
            for ops in ORACLE_OPS:
                cases += 1
                try:
                    want = _closure_pair_by_pair(sp, gens, ops)
                except ValueError as exc:
                    raising += 1
                    with pytest.raises(ValueError) as got:
                        S.generate_closure(sp, gens, ops)
                    assert str(got.value) == str(exc), (sp.ifuncs, gens, ops)
                    continue
                before = calls[0]
                L = S.generate_closure(sp, gens, ops)
                assert P.mask_elements(L.mask) == want, (sp.ifuncs, tuple(gens), ops)
                if "join" in ops and sp.tensor_closed:
                    if calls[0] - before == 1:
                        stopped += 1
                    else:
                        fell_through += 1
    assert (cases, raising) == (223 * 6 * len(ORACLE_OPS), 436)
    assert stopped > 0 and fell_through > 0


def test_a_fall_through_seeds_the_tensor_worklist_with_the_unary_closure(monkeypatch):
    # one falling-through case of the test above: the point at n = 2 under
    # lukasiewicz, generated by 1/2 under join and tensor.  The unary
    # closure {1/2, 1} joins to nothing more; the tensor worklist starts
    # from it, not from the generators again, and reaches 1/2 tensor 1/2 = 0
    calls, worklist = [], S._worklist

    def recorded(space, generators, ops):
        result = worklist(space, generators, ops)
        calls.append((tuple(generators), result))
        return result

    monkeypatch.setattr(S, "_worklist", recorded)
    sp = D.function_space(P.chain(1), LUK, 2)
    assert P.mask_elements(S.generate_closure(sp, (1,), ("join", "tensor")).mask) == (0, 1, 2)
    (_, unary), (seeds, _) = calls
    assert unary == (1, 2) and seeds == unary


def test_the_pinned_fall_through_document_reaches_the_tensor_worklist(monkeypatch):
    # the generators document pinned in test_report_digests whose joins of
    # the unary closure are not every function: the tensor worklist runs,
    # and the closure is still all of the space
    from test_report_digests import FALL_THROUGH_DOC

    from unitcat.instances import parse_instance

    worklist_ops, worklist = [], S._worklist

    def recorded(space, seeds, ops):
        worklist_ops.append(ops)
        return worklist(space, seeds, ops)

    monkeypatch.setattr(S, "_worklist", recorded)
    config = SU.SuiteConfig(
        suite="stone-weierstrass", max_size=1, instance=parse_instance(FALL_THROUGH_DOC)
    )
    report = SU.run_suite(config)
    assert report.passed and report.checks == 18
    assert worklist_ops == [{"act"}, {"act", "tensor"}]


def test_a_refusal_runs_one_tensor_worklist(monkeypatch):
    # the representables a(-, x) of the Lukasiewicz categories of size <= 3
    # at n <= 2, under join, tensor and act: most closures leave C(X), and
    # each is refused by its one tensor worklist, naming the pair the
    # worklist over all the ops reaches first
    tensor_worklists, worklist = [0], S._worklist

    def counted(space, seeds, ops):
        tensor_worklists[0] += "tensor" in ops
        return worklist(space, seeds, ops)

    monkeypatch.setattr(S, "_worklist", counted)
    ops = ("join", "tensor", "act")
    cases = refused = 0
    for size in (1, 2, 3):
        for n in (1, 2):
            for X in E.enumerate_enriched_categories(size, LUK, n):
                sp = E.enumerate_cx(X, n)
                reps = [sp.iindex[tuple(row[x] for row in sp.structure)] for x in range(size)]
                cases += 1
                try:
                    want = _closure_pair_by_pair(sp, reps, ops)
                except ValueError as exc:
                    refused += 1
                    before = tensor_worklists[0]
                    with pytest.raises(ValueError) as got:
                        S.generate_closure(sp, reps, ops)
                    assert str(got.value) == str(exc), X.matrix
                    assert tensor_worklists[0] - before == 1, X.matrix
                    continue
                assert P.mask_elements(S.generate_closure(sp, reps, ops).mask) == want, X.matrix
    assert (cases, refused) == (288, 242)


def test_closure_stop_matches_the_worklist_on_the_sweep(monkeypatch):
    # the stone-weierstrass traffic at size four: down-set indicators under
    # join, tensor and act, against the worklist over all three
    calls = _counting_worklist(monkeypatch)
    ops = ("join", "tensor", "act")
    cases = stopped = 0
    for q in (LUK, T.minimum()):
        for n in (1, 2):
            for Q in P.all_posets(4):
                sp = D.function_space(Q, q, n)
                gens = S.down_set_indicators(sp)
                before = calls[0]
                L = S.generate_closure(sp, gens, ops)
                stopped += calls[0] - before == 1
                assert P.mask_elements(L.mask) == _closure_pair_by_pair(sp, gens, ops), (q.name, n, Q.leq)
                cases += 1
    assert cases == 876 and stopped == cases


def test_stone_sweep_never_replays_the_worklist(monkeypatch):
    # the worklist runs once per closure, under act alone: the joins of
    # its members, by the level bitmasks, are every function, so no tensor
    # pair is gathered
    worklist_ops, calls = [], {"unary_ops": 0, "sw_audit": 0}
    worklist, unary_ops, sw_audit = S._worklist, D.FunctionSpace.unary_ops, S.sw_audit

    def counted_worklist(space, generators, ops):
        worklist_ops.append(ops)
        return worklist(space, generators, ops)

    def counted_unary_ops(self, op):
        calls["unary_ops"] += 1
        return unary_ops(self, op)

    def counted_sw_audit(*args, **kwargs):
        calls["sw_audit"] += 1
        return sw_audit(*args, **kwargs)

    monkeypatch.setattr(S, "_worklist", counted_worklist)
    monkeypatch.setattr(D.FunctionSpace, "unary_ops", counted_unary_ops)
    monkeypatch.setattr(S, "sw_audit", counted_sw_audit)
    for q in (LUK, T.minimum()):
        config = SU.SuiteConfig(suite="stone-weierstrass", quantale=q, grid=2, max_size=3)
        assert SU.run_suite(config).passed
    assert calls["sw_audit"] > 0
    assert worklist_ops == [{"act"}] * calls["sw_audit"]
    # one act table per audit: the benchmark's anchor counts these calls
    assert calls["unary_ops"] == calls["sw_audit"]
