import json
from fractions import Fraction

import pytest

from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm, incidence_form
from flagcalc.errors import SchemaError
from flagcalc.flag import Conic
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.sampling import SplitMix64, random_smooth_conic
from flagcalc.serialize import (
    biform_from_json,
    biform_to_json,
    conic_from_json,
    conic_to_json,
    conics_from_json,
    forms_from_json,
    forms_to_json,
    gr_from_json,
    gr_to_json,
)


def test_scalar_round_trip():
    z = GR(Fraction(-7, 3), Fraction(22, 5))
    assert gr_from_json(gr_to_json(z)) == z
    assert gr_to_json(z) == {"re": "-7/3", "im": "22/5"}


def test_scalar_shorthand():
    assert gr_from_json("3/2") == GR(Fraction(3, 2))
    assert gr_from_json(4) == GR(4)
    for text, value in [("-7", -7), ("+7", 7), ("007/014", Fraction(1, 2)),
                        ("-3/6", Fraction(-1, 2))]:
        assert gr_from_json(text) == GR(value)
    with pytest.raises(SchemaError):
        gr_from_json("x")
    with pytest.raises(SchemaError):
        gr_from_json([1, 2])


@pytest.mark.parametrize("text", ["1e3000000", "1E2", "1.5", "1.", ".5", "1_000", " 1", "1 ",
                                  "1/ 2", "+-1", "1/-2", "1/2/3", "", "/2", "\u0661", "0/0"])
def test_scalar_strings_outside_the_grammar_refused(text):
    # only "num" and "num/den" in ASCII digits, the numerator optionally signed
    with pytest.raises(SchemaError, match="not a rational number"):
        gr_from_json(text)
    with pytest.raises(SchemaError, match="not a rational number"):
        gr_from_json({"re": "1", "im": text})


def test_biform_round_trip_and_order():
    F = incidence_form() * incidence_form() + BiForm.monomial(
        (0, 2, 0), (0, 0, 2), GR(0, Fraction(1, 3))
    )
    doc = biform_to_json(F)
    keys = [(tuple(t["p"]), tuple(t["l"])) for t in doc["terms"]]
    assert keys == sorted(keys, reverse=True)
    assert biform_from_json(doc) == F
    # a JSON round trip through text is byte-stable
    s1 = json.dumps(doc, indent=2)
    s2 = json.dumps(biform_to_json(biform_from_json(json.loads(s1))), indent=2)
    assert s1 == s2


def test_conic_round_trip_canonical():
    rng = SplitMix64(12)
    C = random_smooth_conic(rng)
    assert conic_from_json(conic_to_json(C)) == C
    # non-canonical input is canonicalized on parse
    doc = {"q": ["2", "4", "0"], "m": ["1", "0", "0"]}
    assert conic_from_json(doc) == Conic((1, 2, 0), (1, 0, 0))


def test_conics_list_parsing():
    rng = SplitMix64(13)
    cs = [random_smooth_conic(rng) for _ in range(3)]
    docs = [conic_to_json(c) for c in cs]
    assert conics_from_json(docs) == cs
    assert conics_from_json({"conics": docs}) == cs
    with pytest.raises(SchemaError):
        conics_from_json({"nope": 1})


def test_forms_round_trip():
    forms = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
    doc = forms_to_json(forms)
    assert forms_from_json(doc) == forms
    assert forms_from_json({"forms": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}) == forms
    with pytest.raises(SchemaError):
        forms_from_json({"forms": [["1"], ["1"]]})


def test_biform_schema_errors():
    with pytest.raises(SchemaError):
        biform_from_json({"terms": []})
    with pytest.raises(SchemaError):
        biform_from_json({"bidegree": [1, 1], "terms": [{"p": [1, 0], "l": [1, 0, 0], "c": "1"}]})


@pytest.mark.parametrize("doc", [
    {"bidegree": [1.9, 1], "terms": [{"p": [1.7, 0, 0], "l": [True, 0, 0], "c": "1"}]},
    {"bidegree": [1.0, 1], "terms": [{"p": [1, 0, 0], "l": [1, 0, 0], "c": "1"}]},
    {"bidegree": [1, True], "terms": [{"p": [1, 0, 0], "l": [1, 0, 0], "c": "1"}]},
    {"bidegree": [1, 1], "terms": [{"p": [1, 0, 0], "l": [1.0, 0, 0], "c": "1"}]},
    {"bidegree": [1, 1], "terms": [{"p": [1, 0, 0], "l": [1, 0, 0], "c": {"re": 1.5}}]},
])
def test_biform_refuses_json_floats_and_booleans(doc):
    with pytest.raises(SchemaError):
        biform_from_json(doc)


@pytest.mark.parametrize("obj", [True, False, 1.5, 2.0, {"re": 1.5}, {"im": 2.0}, {"re": True}])
def test_scalar_refuses_json_floats_and_booleans(obj):
    with pytest.raises(SchemaError):
        gr_from_json(obj)
    assert gr_from_json({"re": 3, "im": "1/2"}) == GR(3, Fraction(1, 2))


def test_repeated_monomial_rejected():
    term = {"p": [1, 0, 0], "l": [0, 1, 0], "c": "1"}
    assert biform_from_json({"bidegree": [1, 1], "terms": [term]}) == BiForm.monomial(
        (1, 0, 0), (0, 1, 0)
    )
    with pytest.raises(SchemaError, match=r"the monomial p \[1, 0, 0\] l \[0, 1, 0\] is repeated"):
        biform_from_json({"bidegree": [1, 1], "terms": [term, {**term, "c": "0"}]})


def test_declared_degree_must_match_the_forms():
    forms = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert forms_from_json({"degree": 2, "forms": forms}) == forms_from_json({"forms": forms})
    for degree in (5, 1, "2", 2.0, None):
        with pytest.raises(SchemaError, match=f"the declared degree {degree!r} is not the forms'"):
            forms_from_json({"degree": degree, "forms": forms})
    with pytest.raises(SchemaError, match="the declared degree True is not the forms'"):
        forms_from_json({"degree": True, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})
