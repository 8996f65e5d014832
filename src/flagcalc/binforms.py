"""Binary forms in (s, t) over Q(i): evaluation, arithmetic and gcd.

A form of degree d is stored as the tuple of its d+1 coefficients, where
``coeffs[k]`` multiplies s^(d-k) * t^k.  Dehomogenizing at s = 1 maps the
form to the univariate polynomial sum coeffs[k] * x^k; the drop between d
and the degree of that polynomial counts the multiplicity of s as a factor.

A bare coefficient sequence in that convention is a binary form too, and
conv and power_table multiply such sequences over any ring with + and *:
GaussianRational for BinaryForm, GaussianInt for restriction to a conic
and condition rows, int for the ruled certificate and the census.  Empty
slots hold the int 0.
"""

from __future__ import annotations

from .errors import PreconditionError
from .gaussian import ONE, ZERO, GaussianRational, to_gaussian


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

    def evaluate(self, s, t) -> GaussianRational:
        s = to_gaussian(s)
        t = to_gaussian(t)
        d = self.degree
        spow = [ONE]
        tpow = [ONE]
        for _ in range(d):
            spow.append(spow[-1] * s)
            tpow.append(tpow[-1] * t)
        acc = ZERO
        for k, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * spow[d - k] * tpow[k]
        return acc

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


def conv(u, v):
    """The coefficient sequence of the product of two forms."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                if y:
                    k = i + j
                    # an empty slot is assigned, not added to, so the int 0
                    # is never coerced into the coefficient ring
                    out[k] = out[k] + x * y if out[k] else x * y
    return out


def power_table(seq, n: int):
    """The coefficient sequences of f^0, f^1, ..., f^n, where f has the
    coefficient sequence seq."""
    out = [(1,), seq]
    for _ in range(n - 1):
        out.append(conv(out[-1], seq))
    return out[: n + 1]


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
