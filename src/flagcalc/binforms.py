"""Binary forms in (s, t) over Q(i): arithmetic and gcd.

A form of degree d is stored as the tuple of its d+1 coefficients, where
``coeffs[k]`` multiplies s^(d-k) * t^k.  Dehomogenizing at s = 1 maps the
form to the univariate polynomial sum coeffs[k] * x^k; the drop between d
and the degree of that polynomial counts the multiplicity of s as a factor.

A bare coefficient sequence in that convention is a binary form too:
biforms.conv multiplies two of them over any ring, here over Q(i).  Only
Q(i) code imports this module: the ruling (ruled, the forms reader) and
flag's Q(i) restriction and singular points.
"""

from __future__ import annotations

from .biforms import conv
from .errors import PreconditionError
from .gaussian import ONE, ZERO, to_gaussian


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


# Univariate helpers on ascending coefficient lists over Q(i).

def _pdeg(u) -> int:
    for i in range(len(u) - 1, -1, -1):
        if u[i]:
            return i
    return -1


def _pdivmod(num, den):
    dn = _pdeg(den)
    if dn < 0:
        raise PreconditionError("polynomial division by zero")
    r = list(num)
    q = [ZERO] * max(_pdeg(num) - dn + 1, 1)
    while True:
        dr = _pdeg(r)
        if dr < dn:
            break
        c = r[dr] / den[dn]
        q[dr - dn] = c
        for i in range(dn + 1):
            r[dr - dn + i] = r[dr - dn + i] - c * den[i]
    return q, r


def _pmonic(u):
    d = _pdeg(u)
    lead = u[d]
    return [c / lead for c in u[: d + 1]]


def _pgcd(u, v):
    a = u[: _pdeg(u) + 1]
    b = v[: _pdeg(v) + 1]
    if _pdeg(a) < _pdeg(b):
        a, b = b, a
    while _pdeg(b) >= 0:
        b = _pmonic(b)
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _pmonic(a)


def bf_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Greatest common divisor, with first nonzero coefficient scaled to 1.

    Common roots at (0, 1) show up as a shared power of s, detected through
    the degree drop of the dehomogenizations; everything else is a Euclidean
    gcd of univariate polynomials over Q(i).
    """
    fz, gz = f.is_zero(), g.is_zero()
    if fz and gz:
        raise PreconditionError("gcd of two zero forms is undefined")
    if fz:
        return g.normalized()
    if gz:
        return f.normalized()
    uf = list(f.coeffs)
    ug = list(g.coeffs)
    ef, eg = _pdeg(uf), _pdeg(ug)
    s_mult = min(f.degree - ef, g.degree - eg)
    u = _pgcd(uf[: ef + 1], ug[: eg + 1])
    return BinaryForm(u + [ZERO] * s_mult).normalized()
