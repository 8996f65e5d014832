"""Geometry of the flag threefold F = {(p, l) in P2 x P2 : p.l = 0}.

The module provides points of F, the bidegree (1,1) curves
L_{q,m} = {p.m = 0, q.l = 0} (smooth conics when q.m != 0, twistor fibers
when m is the conjugate of q), the anti-holomorphic involution
j(p, l) = (conj l, conj p) acting on curves and on surfaces,
restriction of surfaces to conics, and the singular points of a surface
along a conic.

Containment has one path.  A surface is pulled back through one chart of
the conic, p = s v1 + t v2 on the line {p.m = 0} and l = q x p
(chart_tables), by one routine (monomial_restrictions) over the ring its
inputs lie in: restrict_to_conic clears the surface to Z[i] and reads the
conic's stored Z[i] points, as the condition rows do, the ruled
certificate runs over Z and the census over Z read mod p.  The routine
works on coefficient sequences of binary forms, which binforms.conv and
power_table multiply over any of those rings.

Projective points are stored as canonical Gaussian-integer triples, so
equality and hashing are exact and run on ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .binforms import BinaryForm, bf_gcd, conv, power_table, zero_form
from .biforms import BiForm, proportionality as _proportionality, reduce_mod_incidence
from .errors import DegenerateConicError, PreconditionError
from .gaussian import ZERO, GaussianInt, GaussianRational, to_gaussian
from .linalg import clear_rows


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class ProjPoint:
    """A point of P2 over Q(i), stored as D c in Z[i]^3: c has first nonzero
    coordinate 1 (rational() gives it) and D > 0 is its least common denominator."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        raw = [GaussianInt(c) if type(c) is int else to_gaussian(c) for c in coords]
        if len(raw) != 3:
            raise PreconditionError("a projective point needs exactly 3 coordinates")
        (row,), _ = clear_rows([raw])
        pr, pi = next((z for z in row if z != (0, 0)), (0, 0))
        row = [(re * pr + im * pi, im * pr - re * pi) for re, im in row]  # the pivot is its norm
        if not (g := math.gcd(*(x for z in row for x in z))):  # the content; D is what is left
            raise PreconditionError("(0, 0, 0) is not a projective point")
        self.coords = tuple(GaussianInt(re // g, im // g) for re, im in row)

    def conjugate(self) -> "ProjPoint":
        # the real pivot D conjugates to D, so the conjugate is already canonical
        out = ProjPoint.__new__(ProjPoint)
        out.coords = tuple(GaussianInt(c.re, -c.im) for c in self.coords)
        return out

    def rational(self) -> tuple:
        """c, the Q(i) coordinates with first nonzero coordinate 1."""
        d = next(c.re for c in self.coords if c)
        return tuple(GaussianRational(Fraction(c.re, d), Fraction(c.im, d)) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ProjPoint(({', '.join(str(c) for c in self.rational())}))"


class FlagPoint:
    """A pair (p, l) with the incidence p.l = 0 holding exactly."""

    __slots__ = ("p", "l")

    def __init__(self, p, l):
        self.p = p if isinstance(p, ProjPoint) else ProjPoint(p)
        self.l = l if isinstance(l, ProjPoint) else ProjPoint(l)
        if dot(self.p.coords, self.l.coords):
            raise PreconditionError("point-line pair is not incident")

    def __eq__(self, other):
        if not isinstance(other, FlagPoint):
            return NotImplemented
        return self.p == other.p and self.l == other.l

    def __hash__(self):
        return hash((self.p, self.l))

    def __repr__(self):
        return f"FlagPoint({self.p!r}, {self.l!r})"


class Conic:
    """The bidegree (1,1) curve L_{q,m} = {(p,l) in F : p.m = 0, q.l = 0}."""

    __slots__ = ("q", "m", "is_smooth")

    def __init__(self, q, m):
        self.q = q if isinstance(q, ProjPoint) else ProjPoint(q)
        self.m = m if isinstance(m, ProjPoint) else ProjPoint(m)
        self.is_smooth = bool(dot(self.q.coords, self.m.coords))

    def is_twistor_fiber(self) -> bool:
        return self.m == self.q.conjugate()

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.q == other.q and self.m == other.m

    def __hash__(self):
        return hash((self.q, self.m))

    def __repr__(self):
        return f"Conic(q={self.q!r}, m={self.m!r})"


def twistor_fiber_of(q) -> Conic:
    """The twistor fiber over q, namely L_{q, conj(q)}.

    Always smooth: q.conj(q) is the coordinate norm sum, positive for q != 0.
    """
    q = q if isinstance(q, ProjPoint) else ProjPoint(q)
    return Conic(q, q.conjugate())


def j_conic(C: Conic) -> Conic:
    """Image of L_{q,m} under j(p,l) = (conj l, conj p): the curve
    L_{conj m, conj q}.  An involution whose fixed points are exactly the
    twistor fibers."""
    return Conic(C.m.conjugate(), C.q.conjugate())


def line_basis(m):
    """Two independent points spanning the line {p : p.m = 0}.

    The one chart: with i the first nonzero coordinate of m and j, k the
    remaining indices in order, the basis is m_i e_j - m_j e_i and
    m_i e_k - m_k e_i.  Every conic has this chart alone, and it never
    degenerates.  Works over any coefficient ring: the unset entries are
    the int 0.
    """
    if not any(m):
        raise PreconditionError("(0, 0, 0) is not a projective point")
    i = next(idx for idx in range(3) if m[idx])
    j, k = [idx for idx in range(3) if idx != i]
    v1 = [0, 0, 0]
    v2 = [0, 0, 0]
    v1[j], v1[i] = m[i], -m[j]
    v2[k], v2[i] = m[i], -m[k]
    return tuple(v1), tuple(v2)


def chart_tables(q, m, a: int, b: int):
    """Power tables, to degrees a and b, of the p- and l-forms of the chart
    of L_{q,m}: p = s v1 + t v2 with v1, v2 = line_basis(m), and l = q x p.
    The one chart rule, over the ring of q and m."""
    v1, v2 = line_basis(m)
    l1, l2 = cross(q, v1), cross(q, v2)
    p_tables = [power_table((v1[c], v2[c]), a) for c in range(3)]
    l_tables = [power_table((l1[c], l2[c]), b) for c in range(3)]
    return p_tables, l_tables


def _side(e, tables):
    """The monomial with exponents e in the forms with these power tables."""
    seqs = [t[k] for t, k in zip(tables, e) if k]
    return reduce(conv, seqs) if seqs else (1,)


def monomial_restrictions(keys, bidegree, q, m) -> dict:
    """{(pe, le): the a+b+1 restriction coefficients of p^pe l^le} for the
    keys (pe, le) of bidegree (a, b), along the chart of L_{q,m}.  Each p- and
    l-side monomial is built once and each key takes one conv, over the ring
    of q and m; an empty slot is the int 0."""
    p_tables, l_tables = chart_tables(q, m, *bidegree)
    p_sides, l_sides, out = {}, {}, {}
    for key in keys:
        pe, le = key
        if pe not in p_sides:
            p_sides[pe] = _side(pe, p_tables)
        if le not in l_sides:
            l_sides[le] = _side(le, l_tables)
        out[key] = conv(p_sides[pe], l_sides[le])
    return out


def substitute_forms(terms, bidegree, q, m) -> list:
    """The a+b+1 restriction coefficients of the form sum c p^pe l^le
    ({(pe, le): c} = terms, of bidegree (a, b)) along the chart of L_{q,m}.
    Each coefficient meets only its finished monomial; the coefficients, q
    and m may lie in any ring, and an empty slot is the int 0."""
    out = [0] * (sum(bidegree) + 1)
    monos = monomial_restrictions(terms, bidegree, q, m).values()
    for c, mono in zip(terms.values(), monos):  # both in the order of terms
        for k, x in enumerate(mono):
            if x:
                out[k] = out[k] + c * x if out[k] else c * x
    return out


def restrict_to_conic(F: BiForm, C: Conic) -> BinaryForm:
    """Binary form of degree a+b: F pulled back along the chart of the conic.

    Identically zero exactly when L_{q,m} lies on the surface {F = 0}.  F is
    cleared to Z[i] by the lcm k of its denominators; q and m are stored as
    lam and mu times their pivot-1 forms.  The chart's p-forms then scale by
    mu and its l-forms by lam*mu, so the restriction over Z[i] is
    k mu^(a+b) lam^b times the exact one, and is divided back.
    """
    if not C.is_smooth:
        raise DegenerateConicError("cannot parametrize a degenerate conic (q.m = 0)")
    a, b = F.bidegree
    (coeffs,), k = clear_rows([list(F.terms.values())])
    q, m = C.q.coords, C.m.coords
    lam, mu = (next(c.re for c in P if c) for P in (q, m))
    out = substitute_forms({t: GaussianInt(*z) for t, z in zip(F.terms, coeffs)}, (a, b), q, m)
    den = int(k * mu ** (a + b) * lam**b)
    return BinaryForm([GaussianRational(Fraction(z.re, den), Fraction(z.im, den)) if z else ZERO
                       for z in out])


def require_surface(F: BiForm) -> BiForm:
    """reduce_mod_incidence(F), the representative of the surface F cuts
    out, unless F is a constant or zero modulo p.l: then it cuts out none."""
    R = reduce_mod_incidence(F)
    if F.bidegree == (0, 0) or R.is_zero():
        raise PreconditionError("the form cuts out no surface of the flag")
    return R


def singular_points_on_conic(F: BiForm, C: Conic) -> BinaryForm:
    """The gcd of the fifteen 2x2 minors of [grad F; (l, p)] along C's chart:
    its roots are the singular points of {F = 0} on C.  A constant means F
    is smooth along C, the zero form of degree a+b singular along all of C.

    {F = 0} is singular at x exactly when grad F(x) is a multiple of (l, p),
    the gradient of p.l (then Euler's relation puts x on {F = 0}).  On the
    flag grad(F + (p.l)G) = grad F + G (l, p), so the minors, and the gcd,
    do not depend on the representative of F modulo p.l.
    """
    a, b = require_surface(F).bidegree
    p_tables, l_tables = chart_tables(C.q.rational(), C.m.rational(), 1, 1)
    dN = [BinaryForm(t[1]) for t in (*l_tables, *p_tables)]  # (l, p) on C
    grad = [F.partial(group, i) for group in "pl" for i in range(3)]
    dF = [zero_form(a + b - 1) if D.is_zero() else restrict_to_conic(D, C) for D in grad]
    minors = (dF[i] * dN[j] - dF[j] * dN[i] for i in range(6) for j in range(i + 1, 6))
    return reduce(bf_gcd, [M for M in minors if not M.is_zero()], zero_form(a + b))


def contains_conic(F: BiForm, C: Conic) -> bool:
    """Whether {F = 0} contains the smooth conic C; all a+b+1 restriction
    coefficients must vanish."""
    return restrict_to_conic(F, C).is_zero()


def conics_disjoint(C1: Conic, C2: Conic) -> bool:
    """Whether two distinct smooth conics are disjoint: exactly when
    w = (m1 x m2).(q1 x q2) != 0.  If the q's and the m's both differ, a
    common point must be (m1 x m2, q1 x q2), incident iff w = 0; if either
    pair coincides, w = 0 and one of p, l moves in a pencil."""
    if not (C1.is_smooth and C2.is_smooth):
        raise DegenerateConicError("disjointness is defined for smooth conics")
    if C1 == C2:
        raise PreconditionError("conics must be distinct")
    return bool(dot(cross(C1.m.coords, C2.m.coords), cross(C1.q.coords, C2.q.coords)))


def j_pullback(F: BiForm) -> BiForm:
    """Pullback of a surface form under j: coefficients are conjugated and
    the roles of the p and l variables are exchanged, so bidegree (a, b)
    becomes (b, a).  Applying it twice gives back F exactly."""
    a, b = F.bidegree
    out = {}
    for (pe, le), c in F.terms.items():
        out[(le, pe)] = c.conjugate()
    return BiForm((b, a), out)


def is_j_invariant(F: BiForm) -> bool:
    """Whether j*F is a nonzero scalar multiple of F (exact comparison).

    Only meaningful for square bidegree (a, a); anything else is rejected.
    """
    a, b = F.bidegree
    if a != b:
        raise PreconditionError("j-invariance needs bidegree of the form (a, a)")
    if F.is_zero():
        return True
    return _proportionality(j_pullback(F), F) is not None
