"""Stable JSON encoding of the exact types.

Scalars are {"re": "num/den", "im": "num/den"} with decimal-string
integers, so arbitrary precision survives any JSON parser; a key may be
left out, and any other key is refused.  A scalar string is read only as
"num" or "num/den": ASCII digits, the numerator optionally signed, the
denominator nonzero; exponent, decimal-point, underscore and whitespace
forms are refused.  Points, surfaces and the ruling's forms are read
straight into Z[i], over the lcm of their denominators, and written from
those integers; no reader or writer forms a Q(i) value.
Biform terms are sorted in the fixed descending-lex monomial order and
projective data is emitted in canonical form, which makes the output
diff-stable and makes round trips exact.
"""

from __future__ import annotations

import re
import sys
from math import gcd, lcm

from .biforms import BiForm
from .errors import PreconditionError, SchemaError
from .flag import Conic, ProjPoint
from .linalg import GaussianInt


def frac_str(f) -> str:
    return _ratio_str(f.numerator, f.denominator)


def _ratio_str(n: int, d: int) -> str:
    try:
        return f"{n}/{d}"
    except ValueError as exc:  # str() refuses an int over its digit limit
        raise PreconditionError("an output number has more than "
                                f"{sys.get_int_max_str_digits()} digits") from exc


def _integer(x) -> int:
    if isinstance(x, (bool, float)):  # int() reads JSON true as 1 and 1.9 as 1
        raise SchemaError(f"not an integer: {x!r}")
    return int(x)


_FRAC = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")  # the denominator is nonzero


def parse_frac(s) -> tuple[int, int]:
    """A "num" or "num/den" string, or a JSON integer, as the ints (num, den)."""
    if isinstance(s, str) and not _FRAC.fullmatch(s):
        raise SchemaError(f"not a rational number: {s!r}")
    try:
        num, _, den = s.partition("/") if isinstance(s, str) else (_integer(s), "", 1)
        return int(num), int(den or 1)
    except (TypeError, ValueError) as exc:  # int() refuses a string over its digit limit
        raise SchemaError(f"not a rational number: {s!r}") from exc


_SCALAR_KEYS = {"re", "im"}


def scalar_from_json(obj) -> tuple:
    """A scalar's real and imaginary parts, each as parse_frac reads it."""
    if isinstance(obj, (str, int)):
        return parse_frac(obj), (0, 1)
    if isinstance(obj, dict):
        if not obj or not obj.keys() <= _SCALAR_KEYS:  # a misspelled part would read as 0
            raise SchemaError(f"a scalar object takes one or both of the keys re and im: {obj!r}")
        return parse_frac(obj.get("re", 0)), parse_frac(obj.get("im", 0))
    raise SchemaError(f"not a scalar: {obj!r}")


def _cleared(scalars) -> tuple[list[GaussianInt], int]:
    """Scalars as scalar_from_json reads them, as GaussianInts over their lcm denominator."""
    den = lcm(*(d for z in scalars for _, d in z))
    return [GaussianInt(rn * (den // rd), jn * (den // jd)) for (rn, rd), (jn, jd) in scalars], den


def _over_json(z, d: int) -> dict:
    """The scalar z / d for a GaussianInt z and an int d > 0, each part
    written in lowest terms with one gcd."""
    g, h = gcd(z.re, d), gcd(z.im, d)
    return {"re": _ratio_str(z.re // g, d // g), "im": _ratio_str(z.im // h, d // h)}


def point_to_json(pt: ProjPoint) -> list:
    """The pivot-1 coordinates c, from the stored triple D c."""
    d = pt.denominator
    return [_over_json(c, d) for c in pt.coords]


def point_from_json(obj) -> ProjPoint:
    if not isinstance(obj, list) or len(obj) != 3:
        raise SchemaError("a projective point is a list of 3 scalars")
    return ProjPoint(_cleared([scalar_from_json(c) for c in obj])[0])


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
            {"p": list(pe), "l": list(le), "c": _over_json(z, F.den)}
            for (pe, le), z in sorted(F.terms.items(), reverse=True)  # keys are distinct
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
            terms[key] = scalar_from_json(t["c"])
        row, den = _cleared(list(terms.values()))
        return BiForm((_integer(a), _integer(b)), dict(zip(terms, row)), den)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"malformed surface JSON: {exc}") from exc


def forms_to_json(rows, den: int) -> dict:
    """The ruling whose forms have the integer coefficient rows over den."""
    return {"degree": len(rows[0]) - 1,
            "forms": [[_over_json(GaussianInt(c), den) for c in row] for row in rows]}


def forms_from_json(obj) -> tuple:
    """The ruling's three binary forms as their coefficient rows, GaussianInts
    over the least common denominator, and that denominator."""
    doc = obj if isinstance(obj, dict) else {"forms": obj}
    items = doc.get("forms")
    if not isinstance(items, list) or len(items) != 3:
        raise SchemaError("expected {'forms': [form, form, form]}")
    scalars = []
    for f in items:
        if not isinstance(f, list) or not f:
            raise SchemaError("a binary form is a nonempty list of scalars")
        scalars += map(scalar_from_json, f)
    degree = doc.get("degree", len(items[0]) - 1)  # the key may be left out
    if type(degree) is not int or degree != len(items[0]) - 1:
        raise SchemaError(f"the declared degree {degree!r} is not the forms' degree")
    row, den = _cleared(scalars)
    g = gcd(den, *(x for z in row for x in (z.re, z.im)))  # "2/4" is read over 2, not 4
    coeffs = iter(row)
    return [[next(coeffs) // g for _ in f] for f in items], den // g
