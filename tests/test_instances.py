import json
from fractions import Fraction as F

import pytest

from unitcat import instances as I


def test_minimal_poset_doc():
    doc = I.parse_instance('{"kind": "poset", "leq": [[1, 1], [0, 1]]}')
    assert doc.kind == "poset" and doc.poset.size == 2
    assert doc.poset.leq == ((True, True), (False, True))


def test_vcategory_doc():
    text = json.dumps(
        {
            "kind": "vcategory",
            "tensor": "lukasiewicz",
            "grid": 2,
            "matrix": [["1", "1/2"], ["0", "1"]],
        }
    )
    doc = I.parse_instance(text)
    assert doc.category.size == 2 and doc.quantale.name == "lukasiewicz"


def test_distributor_doc():
    text = json.dumps(
        {
            "kind": "distributor",
            "tensor": "lukasiewicz",
            "grid": 2,
            "src": {"leq": [[1, 1], [0, 1]]},
            "dst": {"leq": [[1]]},
            "matrix": [["1"], ["1"]],
        }
    )
    doc = I.parse_instance(text)
    assert doc.matrix == ((1,), (1,))


def _distributor(src, dst, matrix):
    return json.dumps(
        {
            "kind": "distributor",
            "tensor": "lukasiewicz",
            "grid": 2,
            "src": {"leq": src},
            "dst": {"leq": dst},
            "matrix": matrix,
        }
    )


def test_fractional_distributor_docs_are_validated():
    chain2, point = [[1, 1], [0, 1]], [[1]]
    doc = I.parse_instance(_distributor(chain2, point, [["1"], ["1/2"]]))
    assert doc.matrix == ((1,), (F(1, 2),))
    for matrix in ([["1/2", "0", "1"]], [["1/2"], ["1"]]):
        with pytest.raises(I.InstanceError) as e:
            I.parse_instance(_distributor(chain2, point, matrix))
        assert e.value.code == "bad-document"


def test_error_codes_distinct():
    with pytest.raises(I.InstanceError) as e:
        I.parse_instance('{"kind": "poset", "leq": [[1, 1], [0, 1]], "tensor": "lukasiewicz", "grid": 2, "x": ')
    assert e.value.code == "bad-document"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance(
            '{"kind": "vcategory", "tensor": "lukasiewicz", "grid": 2, "matrix": [["3/0"]]}'
        )
    assert e.value.code == "bad-rational"

    with pytest.raises(I.InstanceError) as e:
        I.parse_instance(
            '{"kind": "vcategory", "tensor": "lukasiewicz", "grid": 2, "matrix": [["5/4"]]}'
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


def test_tnorm_parsing():
    assert I.parse_tnorm("min").name == "minimum"
    assert I.parse_tnorm("product").name == "product"
    assert I.parse_tnorm("lukasiewicz").name == "lukasiewicz"
    q = I.parse_tnorm("ordinal:0-1/2-lukasiewicz,1/2-1-product")
    assert q.name == "ordinal-sum" and len(q.tnorm.segments) == 2
    with pytest.raises(I.InstanceError):
        I.parse_tnorm("ordinal:0-1/2")
    with pytest.raises(I.InstanceError):
        I.parse_tnorm("frobenius")


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
