"""Closed-form invariants of smooth surfaces of bidegree (a, b) in the flag.

Section counts h0 on the flag and on its linear sections, Chern numbers,
the Miyaoka-type ceiling on pairwise disjoint smooth conics (hence on
twistor fibers), the matching ceiling for bidegree (1,0) ruling curves,
triple products of the two hyperplane classes, and adjunction data.  All
values are exact integers or rationals.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .errors import PreconditionError

if TYPE_CHECKING:
    from fractions import Fraction


def h0_flag(a: int, b: int) -> int:
    """dim H^0 of the (a, b) polarization on the flag threefold.

    Counts bidegree (a, b) monomials minus multiples of the incidence form:
    ((a+1)(a+2)(b+1)(b+2) - a(a+1)b(b+1)) / 4.
    """
    if a < 0 or b < 0:
        raise PreconditionError("h0 requires nonnegative bidegree")
    return ((a + 1) * (a + 2) * (b + 1) * (b + 2) - a * (a + 1) * b * (b + 1)) // 4


def h0_hirzebruch(side: str, a: int, b: int) -> int:
    """Sections of O(a, b) on a linear section of the flag.

    Side "X" is a surface of bidegree (1,0) and "Y" one of bidegree (0,1);
    both are Hirzebruch surfaces of type 1, giving a(b+1) + C(b+2, 2) and
    the a <-> b mirror respectively.
    """
    if a < 0 or b < 0:
        raise PreconditionError("h0 requires nonnegative bidegree")
    if side == "X":
        return a * (b + 1) + comb(b + 2, 2)
    if side == "Y":
        return b * (a + 1) + comb(a + 2, 2)
    raise PreconditionError("side must be 'X' or 'Y'")


def c1_squared(a: int, b: int) -> int:
    """c1(S)^2 = 3a^2 b + 3a b^2 - 4a^2 - 4b^2 - 16ab + 12a + 12b."""
    return 3 * a * a * b + 3 * a * b * b - 4 * a * a - 4 * b * b - 16 * a * b + 12 * a + 12 * b


def c2(a: int, b: int) -> int:
    """c2(S) = 6a + 6b + 3a^2 b - 2a^2 + 3a b^2 - 8ab - 2b^2."""
    return 6 * a + 6 * b + 3 * a * a * b - 2 * a * a + 3 * a * b * b - 8 * a * b - 2 * b * b


def _require_general_type(a: int, b: int):
    if a < 3 or b < 3:
        raise PreconditionError(
            "the bound requires a >= 3 and b >= 3 (minimal general type range)"
        )


def miyaoka_conic_bound(a: int, b: int) -> tuple[Fraction, int]:
    """Ceiling on the number of pairwise disjoint smooth conics on a smooth
    (a, b) surface, returned as (exact rational, integer floor).

    The rational value is
    2(a+b-2)(3a^2 b - a^2 + 3a b^2 - 4ab + 3a - b^2 + 3b) / (a+b-1)^2;
    since a count of curves is an integer, the floor is the operative bound.
    The same ceiling applies to twistor fibers, which are disjoint conics.
    """
    from fractions import Fraction

    _require_general_type(a, b)
    num = 2 * (a + b - 2) * (
        3 * a * a * b - a * a + 3 * a * b * b - 4 * a * b + 3 * a - b * b + 3 * b
    )
    value = Fraction(num, (a + b - 1) ** 2)
    return value, value.numerator // value.denominator


def ruling_curve_bound(a: int, b: int) -> tuple[Fraction, int]:
    """Ceiling on the number of bidegree (1,0) curves on a smooth (a, b)
    surface: 2a(a^2(3b-1) + a(3b^2-4b+3) - (b-3)b) / (1+a)^2, with floor."""
    from fractions import Fraction

    _require_general_type(a, b)
    num = 2 * a * (a * a * (3 * b - 1) + a * (3 * b * b - 4 * b + 3) - (b - 3) * b)
    value = Fraction(num, (1 + a) ** 2)
    return value, value.numerator // value.denominator


def chow_triple(c1: str, c2_: str, c3: str) -> int:
    """Triple product of hyperplane classes H1 = O(1,0), H2 = O(0,1).

    H1^3 = H2^3 = 0 and every mixed product equals 1.
    """
    for c in (c1, c2_, c3):
        if c not in ("H1", "H2"):
            raise PreconditionError("classes must be 'H1' or 'H2'")
    return 0 if c1 == c2_ == c3 else 1


def surface_pair_intersection_bidegree(b1, b2) -> tuple[int, int]:
    """Bidegree of the intersection curve of surfaces of classes b1, b2.

    Pairing (a H1 + b H2)(a' H1 + b' H2) against H1 and H2 with chow_triple
    gives d1 = ab' + a'b + bb' and d2 = aa' + ab' + a'b.
    """
    (a, b), (a2, b2_) = b1, b2
    return a * b2_ + a2 * b + b * b2_, a * a2 + a * b2_ + a2 * b


def uniqueness_threshold(a: int, b: int) -> int:
    """2ab + min(a, b)^2: more than this many distinct smooth conics lie on
    at most one integral (a, b) surface.

    Two distinct integral (a, b) surfaces meet in a curve of bidegree
    surface_pair_intersection_bidegree((a, b), (a, b)) = (2ab + b^2,
    a^2 + 2ab), and each smooth conic on both is a (1, 1) component of it,
    so at most the smaller degree of them lie on both.  3a^2 at a = b.
    """
    return min(surface_pair_intersection_bidegree((a, b), (a, b)))


def surface_invariant_report(a: int, b: int) -> dict:
    """Adjunction and Chern data of a smooth (a, b) surface, as the JSON
    object `flagcalc chern` prints.

    The canonical class is O_S(a-2, b-2); a smooth conic on S has
    self-intersection 2-a-b, a (1,0) curve has -a and a (0,1) curve -b.
    chi(O_S) = (c1^2 + c2)/12 is an integer for every bidegree: c1^2 + c2
    = 6(ab(a+b) - a^2 - b^2 - 4ab + 3a + 3b), and the bracket is even.  A
    surface needs a, b >= 0 and a + b >= 1.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise PreconditionError("a surface needs bidegree a, b >= 0 with a + b >= 1")
    k1, k2 = c1_squared(a, b), c2(a, b)
    return {
        "bidegree": [a, b],
        "canonical_bidegree": [a - 2, b - 2],
        "conic_self_intersection": 2 - a - b,
        "ruling_10_self_intersection": -a,
        "ruling_01_self_intersection": -b,
        "c1_squared": k1,
        "c2": k2,
        "euler_characteristic": str((k1 + k2) // 12),
        "general_type": a >= 3 and b >= 3,
        "uniqueness_threshold": uniqueness_threshold(a, b),
        "self_pair_bidegree": list(surface_pair_intersection_bidegree((a, b), (a, b))),
    }
