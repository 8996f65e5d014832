"""Stable JSON encoding of the exact types.

Scalars are {"re": "num/den", "im": "num/den"} with decimal-string
integers, so arbitrary precision survives any JSON parser.  A scalar
string is read only as "num" or "num/den": ASCII digits, the numerator
optionally signed; Fraction's exponent, decimal-point, underscore and
whitespace forms are refused.  Biform terms
are sorted in the fixed descending-lex monomial order and projective data
is emitted in canonical form, which makes the output diff-stable and makes
round trips exact.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .binforms import BinaryForm
from .biforms import BiForm
from .errors import PreconditionError, SchemaError
from .flag import Conic, ProjPoint
from .gaussian import GaussianRational


def frac_str(f: Fraction) -> str:
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # str() refuses an int over its digit limit
        raise PreconditionError("an output number has more than "
                                f"{sys.get_int_max_str_digits()} digits") from exc


def _integer(x) -> int:
    if isinstance(x, (bool, float)):  # int() reads JSON true as 1 and 1.9 as 1
        raise SchemaError(f"not an integer: {x!r}")
    return int(x)


_FRAC = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_frac(s) -> Fraction:
    if isinstance(s, str) and not _FRAC.fullmatch(s):
        raise SchemaError(f"not a rational number: {s!r}")
    try:
        return Fraction(s if isinstance(s, str) else _integer(s))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {s!r}") from exc


def gr_to_json(z: GaussianRational) -> dict:
    return {"re": frac_str(z.re), "im": frac_str(z.im)}


def gr_from_json(obj) -> GaussianRational:
    if isinstance(obj, str):
        return GaussianRational(parse_frac(obj))
    if isinstance(obj, int):
        return GaussianRational(_integer(obj))
    if isinstance(obj, dict):
        return GaussianRational(parse_frac(obj.get("re", 0)), parse_frac(obj.get("im", 0)))
    raise SchemaError(f"not a scalar: {obj!r}")


def point_to_json(pt: ProjPoint) -> list:
    return [gr_to_json(c) for c in pt.rational()]


def point_from_json(obj) -> ProjPoint:
    if not isinstance(obj, list) or len(obj) != 3:
        raise SchemaError("a projective point is a list of 3 scalars")
    return ProjPoint([gr_from_json(c) for c in obj])


def conic_to_json(C: Conic) -> dict:
    return {"q": point_to_json(C.q), "m": point_to_json(C.m)}


def conic_from_json(obj) -> Conic:
    if not isinstance(obj, dict) or "q" not in obj or "m" not in obj:
        raise SchemaError("a conic is {'q': point, 'm': point}")
    return Conic(point_from_json(obj["q"]), point_from_json(obj["m"]))


def conics_from_json(obj) -> list[Conic]:
    if isinstance(obj, dict) and "conics" in obj:
        obj = obj["conics"]
    if not isinstance(obj, list):
        raise SchemaError("expected a list of conics")
    return [conic_from_json(c) for c in obj]


def biform_to_json(F: BiForm) -> dict:
    return {
        "bidegree": list(F.bidegree),
        "terms": [
            {"p": list(pe), "l": list(le), "c": gr_to_json(c)}
            for (pe, le), c in F.sorted_terms()
        ],
    }


def biform_from_json(obj) -> BiForm:
    if not isinstance(obj, dict) or "bidegree" not in obj or "terms" not in obj:
        raise SchemaError("a surface is {'bidegree': [a, b], 'terms': [...]}")
    try:
        a, b = obj["bidegree"]
        terms = {}
        for t in obj["terms"]:
            key = (tuple(map(_integer, t["p"])), tuple(map(_integer, t["l"])))
            if key in terms:
                raise SchemaError(f"the monomial p {list(key[0])} l {list(key[1])} is repeated")
            terms[key] = gr_from_json(t["c"])
        return BiForm((_integer(a), _integer(b)), terms)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"malformed surface JSON: {exc}") from exc


def binary_form_to_json(f: BinaryForm) -> list:
    return [gr_to_json(c) for c in f.coeffs]


def binary_form_from_json(obj) -> BinaryForm:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("a binary form is a nonempty list of scalars")
    return BinaryForm([gr_from_json(c) for c in obj])


def forms_to_json(forms) -> dict:
    return {"degree": forms[0].degree, "forms": [binary_form_to_json(f) for f in forms]}


def forms_from_json(obj) -> tuple[BinaryForm, BinaryForm, BinaryForm]:
    doc = obj if isinstance(obj, dict) else {"forms": obj}
    items = doc.get("forms")
    if not isinstance(items, list) or len(items) != 3:
        raise SchemaError("expected {'forms': [form, form, form]}")
    forms = tuple(binary_form_from_json(f) for f in items)
    degree = doc.get("degree", forms[0].degree)  # the key may be left out
    if type(degree) is not int or degree != forms[0].degree:
        raise SchemaError(f"the declared degree {degree!r} is not the forms' degree")
    return forms
