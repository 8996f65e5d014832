import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.biforms import monomials
from flagcalc.cli import main
from flagcalc.errors import PreconditionError, SchemaError
from flagcalc.flag import Conic, ProjPoint
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.linalg import GaussianInt, clear_rows
from flagcalc.sampling import SplitMix64, random_smooth_conic
from flagcalc.serialize import (
    biform_from_json,
    biform_to_json,
    conic_from_json,
    conic_to_json,
    conics_from_json,
    forms_from_json,
    forms_to_json,
    parse_frac,
    point_from_json,
    point_to_json,
)

from oracles import incidence_form, monomial, read_scalar, scalar_json


def test_scalar_round_trip():
    z = GR(Fraction(-7, 3), Fraction(22, 5))
    doc = point_to_json(ProjPoint((1, z, 0)))[1]
    assert read_scalar(doc) == z
    assert doc == scalar_json(z) == {"re": "-7/3", "im": "22/5"}


def test_scalar_shorthand():
    assert read_scalar("3/2") == GR(Fraction(3, 2))
    assert read_scalar(4) == GR(4)
    for text, value in [("-7", -7), ("+7", 7), ("007/014", Fraction(1, 2)),
                        ("-3/6", Fraction(-1, 2))]:
        assert read_scalar(text) == GR(value)
    with pytest.raises(SchemaError):
        read_scalar("x")
    with pytest.raises(SchemaError):
        read_scalar([1, 2])


@pytest.mark.parametrize("text", ["1e3000000", "1E2", "1.5", "1.", ".5", "1_000", " 1", "1 ",
                                  "1/ 2", "+-1", "1/-2", "1/2/3", "", "/2", "\u0661", "0/0"])
def test_scalar_strings_outside_the_grammar_refused(text):
    # only "num" and "num/den" in ASCII digits, the numerator optionally signed
    with pytest.raises(SchemaError, match="not a rational number"):
        read_scalar(text)
    with pytest.raises(SchemaError, match="not a rational number"):
        read_scalar({"re": "1", "im": text})


def test_biform_round_trip_and_order():
    F = incidence_form() * incidence_form() + monomial(
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


def test_point_is_written_from_its_gaussian_integer_triple():
    # each part n/D of the stored triple D c, in lowest terms, is what the
    # Fractions of rational() write; parts are negative, zero or positive
    rng = SplitMix64(0x9017)

    def part():
        return Fraction(rng.int_in(-20, 20) * rng.int_in(0, 1), rng.int_in(1, 30))

    points = negative = zero = 0
    while points < 300:
        coords = [GR(part(), part()) * rng.int_in(0, 1) for _ in range(3)]
        if not any(coords):
            continue
        P = ProjPoint(coords)
        assert point_to_json(P) == [scalar_json(c) for c in P.rational()]
        assert [read_scalar(c) for c in point_to_json(P)] == list(P.rational())
        parts = [x for c in P.rational() for x in (c.re, c.im)]
        points, negative, zero = points + 1, negative + (min(parts) < 0), zero + (0 in parts)
    assert negative > 50 and zero > 50
    with pytest.raises(PreconditionError, match="digits"):
        point_to_json(ProjPoint((1, 3 * 10**5000, 0)))


def test_conics_list_parsing():
    rng = SplitMix64(13)
    cs = [random_smooth_conic(rng) for _ in range(3)]
    docs = [conic_to_json(c) for c in cs]
    assert conics_from_json(docs) == cs
    assert conics_from_json({"conics": docs}) == cs
    with pytest.raises(SchemaError):
        conics_from_json({"nope": 1})


def _gaussian_rows(rows):
    return [[GaussianInt(c) for c in row] for row in rows]


def test_forms_round_trip():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    doc = forms_to_json(rows, 1)
    assert forms_from_json(doc) == (_gaussian_rows(rows), 1)
    assert forms_from_json({"forms": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}) == (
        _gaussian_rows(rows), 1)
    with pytest.raises(SchemaError):
        forms_from_json({"forms": [["1"], ["1"]]})
    # over a denominator, each coefficient is written in lowest terms
    rows, den = [[3, -4, 0], [0, 2, 5], [-1, 0, 6]], 6
    doc = forms_to_json(rows, den)
    assert doc["forms"][0] == [scalar_json(GR(Fraction(c, den))) for c in rows[0]]
    assert [[read_scalar(c) for c in f] for f in doc["forms"]] == [
        [GR(Fraction(c, den)) for c in row] for row in rows]
    assert forms_from_json(doc) == (_gaussian_rows(rows), den)


def test_forms_are_read_over_the_least_common_denominator():
    # the same rows and denominator as clear_rows gives for the Fractions,
    # however the scalars are written
    text = [["2/4", "0", {"re": "1/3", "im": "-5/10"}], ["-6/8", 1, 0], ["0", "0/7", "4/2"]]
    values = [[read_scalar(c) for c in f] for f in text]
    (row,), den = clear_rows([[c for f in values for c in f]])
    assert den == 12
    assert forms_from_json({"forms": text}) == ([row[0:3], row[3:6], row[6:9]], den)


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
        read_scalar(obj)
    assert read_scalar({"re": 3, "im": "1/2"}) == GR(3, Fraction(1, 2))


@pytest.mark.parametrize("obj, key", [
    ({"re": "1", "imag": "5"}, "imag"),
    ({"real": "3"}, "real"),
    ({"re": 1, "im": 0, "i": 0}, "'i'"),
    ({}, "{}"),
])
def test_scalar_object_with_an_unknown_key_refused(obj, key):
    # obj.get("im", 0) would read a misspelled part as zero
    with pytest.raises(SchemaError, match="keys re and im") as err:
        read_scalar(obj)
    assert key in str(err.value)
    assert read_scalar({"re": "1"}) == GR(1)
    assert read_scalar({"im": "2"}) == GR(0, 2)


def test_repeated_monomial_rejected():
    term = {"p": [1, 0, 0], "l": [0, 1, 0], "c": "1"}
    assert biform_from_json({"bidegree": [1, 1], "terms": [term]}) == monomial(
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


# The scalar grammar: an optional sign, leading zeros, numerators up to 300
# digits and nonzero denominators, and the signed and unsigned zeros.
_ZEROS = st.integers(0, 3).map("0".__mul__)
_NUMERATORS = st.builds("{}{}{}".format, st.sampled_from(["", "+", "-"]), _ZEROS,
                        st.one_of(st.integers(0, 99), st.integers(0, 10**300)))
_DENOMINATORS = st.builds("{}{}".format, _ZEROS, st.one_of(st.integers(1, 99),
                                                           st.integers(1, 10**40)))
_RATIOS = st.one_of(_NUMERATORS, st.builds("{}/{}".format, _NUMERATORS, _DENOMINATORS),
                    st.sampled_from(["-0/3", "0/7", "+0", "-0", "000/001", "-007/014"]))
_SCALARS = st.one_of(
    _RATIOS, st.integers(-10**50, 10**50),
    st.fixed_dictionaries({}, optional={"re": _RATIOS, "im": st.one_of(_RATIOS, st.integers())})
    .filter(bool),
)


def _fraction_scalar(obj) -> GR:
    """The scalar as Fraction reads each part: the reference the int reader
    must agree with."""
    if isinstance(obj, dict):
        return GR(Fraction(obj.get("re", 0)), Fraction(obj.get("im", 0)))
    return GR(Fraction(obj))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_RATIOS)
def test_int_reader_agrees_with_fraction(text):
    num, den = parse_frac(text)
    assert den > 0 and Fraction(num, den) == Fraction(text)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(_SCALARS, min_size=3, max_size=3).filter(lambda c: any(map(_fraction_scalar, c))))
def test_point_reader_stores_what_clearing_the_fractions_gives(coords):
    assert point_from_json(coords).coords == ProjPoint([_fraction_scalar(c) for c in coords]).coords


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from([(0, 0), (1, 0), (1, 1), (2, 1)]).flatmap(
    lambda ab: st.tuples(st.just(ab), st.lists(_SCALARS, min_size=len(monomials(*ab)),
                                               max_size=len(monomials(*ab))))))
def test_surface_reader_stores_what_clearing_the_fractions_gives(case):
    # the stored D F is canonical: clear_rows of the lowest-terms Fractions
    # gives it directly, and the int reader must reach it through the lcm
    # of unreduced denominators and one gcd
    (a, b), scalars = case
    keys = monomials(a, b)
    doc = {"bidegree": [a, b],
           "terms": [{"p": list(pe), "l": list(le), "c": c} for (pe, le), c in zip(keys, scalars)]}
    (row,), den = clear_rows([[_fraction_scalar(c) for c in scalars]])
    F = biform_from_json(doc)
    assert F.terms == {k: z for k, z in zip(keys, row) if z}
    assert F.den == den


@pytest.mark.parametrize("text", ["1/0", "-5/000", "0/0", "1" * (sys.get_int_max_str_digits() + 1),
                                  "1/" + "2" * (sys.get_int_max_str_digits() + 1)])
def test_zero_denominators_and_long_strings_are_schema_errors(capsys, tmp_path, text):
    # never a bare ValueError or ZeroDivisionError: each reader exits 2
    with pytest.raises(SchemaError, match="not a rational number"):
        parse_frac(text)
    with pytest.raises(SchemaError, match="not a rational number"):
        point_from_json([1, {"im": text}, 0])
    docs = {
        "bad_surface": {"bidegree": [1, 1], "terms": [{"p": [1, 0, 0], "l": [0, 1, 0], "c": text}]},
        "bad_conic": {"q": [1, 0, 0], "m": [1, text, 0]},
        "surface": biform_to_json(incidence_form()),
        "conic": conic_to_json(Conic((1, 0, 0), (1, 1, 0))),
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for surface, conic in (("bad_surface", "conic"), ("surface", "bad_conic")):
        assert main(["check-conic", "--surface", str(tmp_path / surface),
                     "--conic", str(tmp_path / conic)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["code"] == "usage" and "not a rational number" in out["message"]
