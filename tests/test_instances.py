import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unitcat import instances as I
from unitcat.posets import all_posets


def test_minimal_poset_doc():
    doc = I.parse_instance('{"kind": "poset", "leq": [[1, 1], [0, 1]]}')
    assert doc.kind == "poset" and doc.poset.size == 2
    assert doc.poset.leq == ((True, True), (False, True))


def test_error_codes_distinct():
    with pytest.raises(I.InstanceError) as e:
        I.parse_instance('{"kind": "poset", "leq": [[1, 1], [0, 1]], "tensor": "lukasiewicz", "grid": 2, "x": ')
    assert e.value.code == "bad-document"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance(
            '{"kind": "generators", "tensor": "lukasiewicz", "grid": 2,'
            ' "poset": [[1]], "functions": [["3/0"]]}'
        )
    assert e.value.code == "bad-rational"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance(
            '{"kind": "generators", "tensor": "lukasiewicz", "grid": 2,'
            ' "poset": [[1]], "functions": [["5/4"]]}'
        )
    assert e.value.code == "value-out-of-range"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance('{"kind": "poset", "leq": [[1, 1], [1, 1]]}')
    assert e.value.code == "bad-poset"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance('{"kind": "poset", "leq": [[1]], "tensor": "product", "grid": 2}')
    assert e.value.code == "grid-not-closed"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance('{"kind": "mystery"}')
    assert e.value.code == "unknown-kind"


def test_document_grid_above_the_cap_is_refused_before_any_grid_table(monkeypatch):
    from unitcat import suites as SU
    from unitcat import tnorms as T

    def no_tables(self, n):
        raise AssertionError(f"grid tables built for Q_{n}")

    monkeypatch.setattr(T.Quantale, "grid", no_tables)
    for grid in (I.GRID_CAP + 1, 400, 10**9):
        doc = {"kind": "poset", "tensor": "lukasiewicz", "grid": grid, "leq": [[1]]}
        with pytest.raises(I.InstanceError) as e:
            I.parse_instance(json.dumps(doc))
        assert e.value.code == "cap-exceeded"
        assert str(e.value) == f"[cap-exceeded] grid capped at {I.GRID_CAP}"
    # the suites refuse a run's grid with the same constant and message
    assert SU.GRID_CAP is I.GRID_CAP
    with pytest.raises(I.InstanceError) as e:
        SU.run_suite(SU.SuiteConfig(suite="monad-laws", grid=I.GRID_CAP + 1))
    assert str(e.value) == f"[cap-exceeded] grid capped at {I.GRID_CAP}"


def _antichain_leq(m):
    return [[int(i == j) for j in range(m)] for i in range(m)]


def test_document_poset_above_the_cap_is_refused_before_its_order(monkeypatch):
    from unitcat import suites as SU

    # the suites refuse --max-size with the same constant
    assert SU.POSET_SIZE_CAP is I.POSET_SIZE_CAP
    leq = _antichain_leq(I.POSET_SIZE_CAP)
    assert I.parse_instance(json.dumps({"kind": "poset", "leq": leq})).poset.size == 5

    def no_order(rows):
        raise AssertionError("order validated")

    monkeypatch.setattr(I, "poset", no_order)
    leq = _antichain_leq(I.POSET_SIZE_CAP + 1)
    for doc in (
        {"kind": "poset", "leq": leq},
        {"kind": "generators", "poset": {"leq": leq}, "functions": []},
        {"kind": "generators", "poset": leq, "functions": []},
    ):
        with pytest.raises(I.InstanceError) as e:
            I.parse_instance(json.dumps(doc))
        assert e.value.code == "cap-exceeded"
        assert str(e.value).startswith(f"[cap-exceeded] poset size capped at {I.POSET_SIZE_CAP}")


@pytest.mark.parametrize("entry", ["0", 0.5, 2, None, 1.0])
def test_leq_entries_other_than_0_and_1_are_bad_posets(entry):
    # read through bool, each would have been a pair related or not
    with pytest.raises(I.InstanceError) as e:
        I.parse_instance(json.dumps({"kind": "poset", "leq": [[1, entry], [0, 1]]}))
    assert e.value.code == "bad-poset"
    assert f"leq entry {entry!r} at (0,1) is neither 0 nor 1" in str(e.value)


def test_tnorm_parsing():
    assert I.parse_tnorm("min").name == "minimum"
    assert I.parse_tnorm("product").name == "product"
    assert I.parse_tnorm("lukasiewicz").name == "lukasiewicz"
    q = I.parse_tnorm("ordinal:0-1/2-lukasiewicz,1/2-1-product")
    assert q.name == "ordinal-sum" and len(q.segments) == 2
    with pytest.raises(I.InstanceError):
        I.parse_tnorm("ordinal:0-1/2")
    with pytest.raises(I.InstanceError):
        I.parse_tnorm("frobenius")


def test_every_tensor_alias_parses_at_the_top_level_and_in_a_segment():
    aliases = {
        "min": "minimum",
        "minimum": "minimum",
        "product": "product",
        "lukasiewicz": "lukasiewicz",
        "luk": "lukasiewicz",
    }
    for alias, name in aliases.items():
        assert I.parse_tnorm(f" {alias.upper()} ").name == name, alias
        q = I.parse_tnorm(f"ordinal:0-1/2-{alias}")
        (segment,) = q.segments
        assert segment[2].name == name, alias
    with pytest.raises(I.InstanceError) as exc:
        I.parse_tnorm("ordinal:0-1/2-frobenius")
    assert exc.value.code == "bad-document"


def test_generators_doc():
    text = json.dumps(
        {
            "kind": "generators",
            "tensor": "lukasiewicz",
            "grid": 2,
            "poset": {"leq": [[1, 1], [0, 1]]},
            "functions": [["1", "0"], ["1", "1"]],
        }
    )
    doc = I.parse_instance(text)
    assert len(doc.functions) == 2


# ---- properties over generated documents ----

POSETS = [Q for size in (1, 2, 3, 4) for Q in all_posets(size)]
posets = st.sampled_from(POSETS)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def _leq_rows(Q, as_bools):
    return [[v if as_bools else int(v) for v in row] for row in Q.leq]


@given(posets, st.sampled_from(["poset", "generators"]), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_small_poset_roundtrips_through_a_document(Q, kind, as_bools, wrapped):
    leq = _leq_rows(Q, as_bools)
    if kind == "poset":
        doc = {"kind": "poset", "leq": leq}
    else:
        doc = {"kind": "generators", "poset": {"leq": leq} if wrapped else leq, "functions": []}
    assert I.parse_instance(json.dumps(doc)).poset == Q


def _code(text):
    with pytest.raises(I.InstanceError) as e:
        I.parse_instance(text)
    return e.value.code


@given(st.text())
@example("1" * 5000)  # past the interpreter's integer digit limit
@example("[" * 100_000)  # nested past the recursion limit
@settings(max_examples=150, deadline=None)
def test_non_json_text_is_a_bad_document(text):
    try:
        json.loads(text)
    except (ValueError, RecursionError):
        assert _code(text) == "bad-document"
    else:
        assume(False)


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_unknown_kinds_are_refused(kind):
    assume(kind not in I.KINDS)
    assert _code(json.dumps({"kind": kind})) == "unknown-kind"


@given(posets, st.data())
@settings(max_examples=150, deadline=None)
def test_broken_orders_are_bad_posets(Q, data):
    leq = _leq_rows(Q, False)
    m = len(leq)
    i = data.draw(st.integers(0, m - 1))
    if m == 1 or data.draw(st.booleans()):
        leq[i][i] = 0  # not reflexive
    else:
        j = data.draw(st.integers(0, m - 1).filter(lambda j: j != i))
        leq[i][j] = leq[j][i] = 1  # not antisymmetric
    assert _code(json.dumps({"kind": "poset", "leq": leq})) == "bad-poset"


outside = st.fractions().filter(lambda v: v < 0 or v > 1).map(
    lambda v: f"{v.numerator}/{v.denominator}"
) | st.integers().filter(lambda k: k < 0 or k > 1)


@given(posets, outside)
@settings(max_examples=150, deadline=None)
def test_generator_values_outside_the_interval_are_refused(Q, entry):
    doc = {"kind": "generators", "poset": {"leq": _leq_rows(Q, False)}, "functions": [[entry]]}
    assert _code(json.dumps(doc)) == "value-out-of-range"


@given(st.integers(max_value=0) | st.booleans())
@settings(max_examples=50, deadline=None)
def test_non_positive_grids_are_bad_documents(grid):
    doc = {"kind": "poset", "tensor": "lukasiewicz", "grid": grid, "leq": [[1]]}
    assert _code(json.dumps(doc)) == "bad-document"


@given(
    st.sampled_from(I.KINDS),
    st.dictionaries(
        st.sampled_from(["tensor", "grid", "leq", "poset", "src", "dst", "matrix", "functions"]),
        json_values,
    ),
)
@settings(max_examples=120, deadline=None)
def test_arbitrary_payloads_parse_or_raise_a_coded_error(kind, fields):
    try:
        I.parse_instance(json.dumps({"kind": kind, **fields}))
    except I.InstanceError as exc:
        assert exc.code in (
            "bad-document",
            "bad-rational",
            "value-out-of-range",
            "bad-poset",
            "grid-not-closed",
            "cap-exceeded",
        )
