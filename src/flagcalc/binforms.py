"""Binary forms in (s, t) over Q(i): arithmetic and gcd.

A form of degree d is stored as the tuple of its d+1 coefficients, where
``coeffs[k]`` multiplies s^(d-k) * t^k.  A bare coefficient sequence in
that convention is a binary form too: biforms.conv multiplies two of them
over any ring, here over Q(i), and biforms.form_gcd takes their gcd over
Z or Z[i], which bf_gcd clears its forms to.  Only flag's Q(i)
restriction and singular points import this module.
"""

from __future__ import annotations

from .biforms import conv, form_gcd
from .errors import PreconditionError
from .gaussian import ONE, ZERO, GaussianRational, to_gaussian
from .linalg import clear_rows


class BinaryForm:
    """Homogeneous polynomial in (s, t); coeffs[k] is the s^(d-k) t^k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(to_gaussian(c) for c in coeffs)
        if not cs:
            raise PreconditionError("a binary form needs at least one coefficient")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def scale(self, c) -> "BinaryForm":
        c = to_gaussian(c)
        return BinaryForm(tuple(x * c for x in self.coeffs))

    def normalized(self) -> "BinaryForm":
        """Scale so the first nonzero coefficient equals 1."""
        for c in self.coeffs:
            if c:
                return self.scale(ONE / c)
        return self

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise PreconditionError("cannot add binary forms of different degree")
        return BinaryForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BinaryForm(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            return BinaryForm(conv(self.coeffs, other.coeffs))
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"BinaryForm({[str(c) for c in self.coeffs]})"


def zero_form(degree: int) -> BinaryForm:
    return BinaryForm([ZERO] * (degree + 1))


def bf_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Greatest common divisor, with first nonzero coefficient scaled to 1:
    biforms.form_gcd of the two forms cleared to Z[i]."""
    fz, gz = f.is_zero(), g.is_zero()
    if fz and gz:
        raise PreconditionError("gcd of two zero forms is undefined")
    if fz:
        return g.normalized()
    if gz:
        return f.normalized()
    (u, v), _ = clear_rows([f.coeffs, g.coeffs])
    return BinaryForm([GaussianRational(z.re, z.im) for z in form_gcd(u, v)]).normalized()
