import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitcat import duality as D
from unitcat import enriched as E
from unitcat import posets as P
from unitcat import stone as S
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
    assert len(L.members) == sp.size == 6
    assert all(line.count("->") == 1 for line in L.trace)


def test_closure_of_everything_is_everything():
    sp = chain2_space()
    L = S.generate_closure(sp, range(sp.size), ("join",))
    assert L.members == tuple(range(sp.size))


def test_constants_closure():
    sp = chain2_space()
    L = S.generate_closure(sp, [], ("constants",))
    assert set(L.members) == {sp.bottom_index, sp.top_index}


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
    assert set(small.members) <= set(big.members)
    again = S.generate_closure(sp, small.members, ops)
    assert again.members == small.members


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
    bigger = S.generate_closure(sp, list(gens) + [sp.bottom_index], ())
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


def test_sep_premise_audit_sweep():
    for size in (1, 2, 3):
        for Q in P.all_posets(size):
            sp = D.function_space(Q, LUK, 2)
            L = S.generate_closure(sp, S.down_set_indicators(sp), ("tensor", "power"))
            rep = S.sep_premise_audit(L)
            assert rep.passed
            assert any("premises hold; separation holds" in x for x in rep.notes)


def test_sep_premise_audit_vacuous():
    spa = D.function_space(P.antichain(2), LUK, 2)
    rep = S.sep_premise_audit(S.generate_closure(spa, [], ("constants",)))
    assert rep.passed and any("vacuous" in x for x in rep.notes)


def test_sw_flagship_exact_equality():
    rep = S.sw_audit(CHAIN2, LUK, 2)
    assert rep.passed and not rep.findings
    assert any("exact equality" in note for note in rep.notes)


def test_sw_degeneracy_note_everywhere():
    rep = S.sw_audit(P.vee(), LUK, 2)
    assert any("surrogate" in note for note in rep.notes)


def test_sw_bad_generators_reported_not_asserted():
    sp = chain2_space()
    rep = S.sw_audit(CHAIN2, LUK, 2, generators=[sp.bottom_index])
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
        closed |= {fs[sp.bottom_index], fs[sp.top_index]}
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
        assert L.members == _fixpoint(sp, gens, ops), (sp.base.leq, sp.n, gens, ops)


TRACE_LINE = re.compile(
    r"(?P<seed>generator|constant 0|constant 1|monoid unit)"
    r"|(?P<bin>join|tensor)\(f(?P<i>\d+),f(?P<j>\d+)\)"
    r"|act\((?P<au>\d+)/(?P<an>\d+),f(?P<ai>\d+)\)"
    r"|(?P<un>power|minus)\(f(?P<ui>\d+),(?P<uu>\d+)/(?P<unn>\d+)\)"
)


@pytest.mark.parametrize("q", [LUK, T.minimum()], ids=lambda q: q.name)
def test_closure_trace_replays(q):
    for sp, gens, ops, L in _closure_cases(q):
        _, binary, unary = _pointwise(sp.quantale, sp.n)
        fs = sp.functions
        seeds = {
            "generator": set(gens),
            "constant 0": {sp.bottom_index},
            "constant 1": {sp.top_index},
            "monoid unit": {sp.top_index},
        }
        reached = []
        for line in L.trace:
            how, _, result = line.rpartition(" -> f")
            k = int(result)
            m = TRACE_LINE.fullmatch(how)
            assert m is not None, line
            if m["seed"]:
                assert k in seeds[m["seed"]], line
            elif m["bin"]:
                i, j = int(m["i"]), int(m["j"])
                assert {i, j} <= set(reached), line
                assert binary[m["bin"]](fs[i], fs[j]) == fs[k], line
            elif m["ai"]:
                i = int(m["ai"])
                assert i in reached, line
                assert unary["act"](F(int(m["au"]), int(m["an"])), fs[i]) == fs[k], line
            else:
                i = int(m["ui"])
                assert i in reached, line
                u = F(int(m["uu"]), int(m["unn"]))
                assert unary[m["un"]](u, fs[i]) == fs[k], line
            assert k not in reached, line
            reached.append(k)
        assert sorted(reached) == list(L.members)


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
    with pytest.raises(ValueError, match=ESCAPE.pattern) as exc:
        S.sep_premise_audit(S.generate_closure(sp, range(sp.size), ()))
    _assert_escapes(sp, exc)
