"""Sparse bihomogeneous forms in the point-line variables (p0,p1,p2), (l0,l1,l2).

A form of bidegree (a, b) maps exponent pairs ((e0,e1,e2), (f0,f1,f2)),
e0+e1+e2 = a and f0+f1+f2 = b, to nonzero scalars in Q(i).  As a
flag.ProjPoint does, it stores D F: terms maps each pair to a nonzero
GaussianInt over one int den = D > 0, the least common denominator, so
every form has one stored shape.  The constructor, the one way in from
outside, checks each key once and clears with one linalg.clear_rows call;
arithmetic returns through from_ints, which checks no key.  The monomial
order used everywhere (serialization, matrix columns, reduction) is
descending lexicographic on the concatenated exponent tuples, so p0*l0 is
the leading monomial of the incidence form.  mul_terms multiplies sparse
forms, and conv and power_table the coefficient sequences of binary forms
in (s, t), over any ring with + and *: Z[i], Z, and Q(i) for binforms.
form_gcd takes the gcd of two such sequences over Z or Z[i], fraction-free.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd, lcm
from operator import mul

from .errors import PreconditionError
from .linalg import GaussianInt, clear_rows

ExpPair = tuple[tuple[int, int, int], tuple[int, int, int]]


class BiForm:
    """A bihomogeneous polynomial over Q(i): terms / den, with GaussianInt
    terms and an int den > 0 in lowest terms."""

    __slots__ = ("bidegree", "terms", "den")

    def __init__(self, bidegree, terms=None, den: int = 1):
        """The form terms / den, for an int den > 0 and Q(i), Z[i] or int terms."""
        a, b = int(bidegree[0]), int(bidegree[1])
        if a < 0 or b < 0:
            raise PreconditionError("bidegree components must be nonnegative")
        self.bidegree = (a, b)
        clean = {}
        for key, c in (terms or {}).items():
            pe, le = (tuple(key[0]), tuple(key[1]))
            if len(pe) != 3 or len(le) != 3:
                raise PreconditionError(f"exponent tuples must have 3 entries: {key}")
            if sum(pe) != a or sum(le) != b or min(pe) < 0 or min(le) < 0:
                raise PreconditionError(f"exponents {key} do not match bidegree {(a, b)}")
            if c:
                clean[(pe, le)] = GaussianInt(c) if type(c) is int else c
        (row,), d = clear_rows([list(clean.values())])
        F = from_ints(self.bidegree, dict(zip(clean, row)), den * d)
        self.terms, self.den = F.terms, F.den

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        if self.bidegree != other.bidegree:
            raise PreconditionError("cannot add forms of different bidegree")
        den = lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        out = {key: z * u for key, z in self.terms.items()}
        for key, z in other.terms.items():
            out[key] = z * v if (s := out.get(key)) is None else s + z * v
        return from_ints(self.bidegree, out, den)

    def __sub__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return from_ints(self.bidegree, {k: -z for k, z in self.terms.items()}, self.den)

    def scale(self, c) -> "BiForm":
        """c times the form, for a Gaussian rational, GaussianInt or int c."""
        ((c,),), d = clear_rows([[GaussianInt(c) if type(c) is int else c]])
        return from_ints(self.bidegree, {k: z * c for k, z in self.terms.items()}, self.den * d)

    def __mul__(self, other):
        if isinstance(other, BiForm):
            out: dict[ExpPair, GaussianInt] = {}
            mul_terms(self.terms, other.terms, out)
            (a1, b1), (a2, b2) = self.bidegree, other.bidegree
            return from_ints((a1 + a2, b1 + b2), out, self.den * other.den)
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return (self.bidegree, self.den, self.terms) == (other.bidegree, other.den, other.terms)

    def __repr__(self):
        return f"BiForm({self.bidegree}, {len(self.terms)} terms)"

    def partial(self, group: str, index: int) -> "BiForm":
        """Partial derivative in p_index (group 'p') or l_index (group 'l')."""
        if group not in ("p", "l"):
            raise PreconditionError("group must be 'p' or 'l'")
        g = "pl".index(group)
        bidegree = list(self.bidegree)
        bidegree[g] = max(bidegree[g] - 1, 0)  # degree 0 in the group: derivative 0
        out = {}
        for key, c in self.terms.items():
            if e := key[g][index]:
                new = list(key)
                new[g] = key[g][:index] + (e - 1,) + key[g][index + 1 :]
                out[tuple(new)] = c * e
        return from_ints(bidegree, out, self.den)


def from_ints(bidegree, terms, den: int) -> BiForm:
    """The form terms / den, for GaussianInt terms whose keys are valid for
    bidegree by construction (none is checked) and an int den > 0.  Zero
    terms are dropped and the content shared with den is divided out, so
    the result is stored in lowest terms."""
    terms = {k: z for k, z in terms.items() if z}
    if (g := gcd(den, *(z.re for z in terms.values()), *(z.im for z in terms.values()))) > 1:
        terms = {k: z // g for k, z in terms.items()}
        den //= g
    F = BiForm.__new__(BiForm)
    F.bidegree, F.terms, F.den = tuple(bidegree), terms, den
    return F


def mul_terms(t1, t2, out) -> None:
    """Add the product of two sparse forms {(pe, le): c}, over any ring with
    + and *, into the map out."""
    for (pe1, le1), c1 in t1.items():
        for (pe2, le2), c2 in t2.items():
            key = (
                (pe1[0] + pe2[0], pe1[1] + pe2[1], pe1[2] + pe2[2]),
                (le1[0] + le2[0], le1[1] + le2[1], le1[2] + le2[2]),
            )
            out[key] = c1 * c2 if (s := out.get(key)) is None else s + c1 * c2


def conv(u, v):
    """The coefficient sequence of the product of two binary forms."""
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


def _power(x, n: int):
    """x**n for an int or a GaussianInt, which has no **."""
    return reduce(mul, [x] * n, 1)


def _strip(w) -> list:
    """The list w without its zero top entries."""
    w = list(w)
    while w and not w[-1]:
        w.pop()
    return w


def _prem(u, v) -> list:
    """lc(v)^(deg u - deg v + 1) u mod v, on ascending coefficient lists
    whose last entries are nonzero, stripped."""
    r, dv, lead = list(u), len(v) - 1, v[-1]
    for k in range(len(u) - 1, dv - 1, -1):
        c, r = r[k], [x * lead for x in r[:k]]
        for i in range(dv):
            r[k - dv + i] = r[k - dv + i] - c * v[i]
    return _strip(r)


def form_gcd(f, g) -> list:
    """A gcd, up to a scalar, of two nonzero binary forms given as
    coefficient sequences over Z or Z[i], in the same convention.

    The shared power of s (a root at (0, 1)) is the fewer trailing zeros;
    the rest is the gcd of the dehomogenizations at s = 1, by the
    subresultant remainder sequence (Collins; Brown and Traub), whose
    divisions are all exact, so no fraction is formed.
    """
    u, v = _strip(f), _strip(g)
    shared = min(len(f) - len(u), len(g) - len(v))
    if len(u) < len(v):
        u, v = v, u
    lc = h = 1
    while (r := _prem(u, v)) and len(r) > 1:
        d = len(u) - len(v)
        u, v = v, [x // (lc * _power(h, d)) for x in r]
        lc = u[-1]
        h = _power(lc, d) // _power(h, d - 1) if d else h
    return (r or v) + [0 * v[0]] * shared  # padded with the ring's zero


def _exps3(d: int):
    out = []
    for e0 in range(d, -1, -1):
        for e1 in range(d - e0, -1, -1):
            out.append((e0, e1, d - e0 - e1))
    return out


def monomials(a: int, b: int) -> list[ExpPair]:
    """All bidegree (a, b) exponent pairs in descending lexicographic order."""
    return [(pe, le) for pe in _exps3(a) for le in _exps3(b)]


def quotient_monomials(a: int, b: int) -> list[ExpPair]:
    """Monomials not divisible by p0*l0, a basis of sections on the flag.

    The leading monomial of (incidence form) * mu is p0*l0*mu, so the
    complement of those leading monomials is exactly this set.
    """
    return [(pe, le) for (pe, le) in monomials(a, b) if pe[0] == 0 or le[0] == 0]


def reduce_mod_incidence(F: BiForm) -> BiForm:
    """Canonical representative of F modulo multiples of the incidence form.

    Every monomial divisible by p0*l0 is rewritten through
    p0*l0 = -(p1*l1 + p2*l2), which holds on the flag; the result is
    supported on quotient_monomials and is the unique such representative.
    """
    out: dict[ExpPair, GaussianInt] = {}
    for (pe, le), c in F.terms.items():
        k = min(pe[0], le[0])
        base = -c if k % 2 else c
        for alpha in range(k + 1):
            key = (
                (pe[0] - k, pe[1] + alpha, pe[2] + k - alpha),
                (le[0] - k, le[1] + alpha, le[2] + k - alpha),
            )
            x = base * comb(k, alpha)
            out[key] = x if (s := out.get(key)) is None else s + x
    return from_ints(F.bidegree, out, F.den)


def proportional(F: BiForm, G: BiForm) -> bool:
    """Whether F = c G for a nonzero scalar c, or both are zero: the same
    bidegree and support, and F[k] G[k0] = G[k] F[k0] in Z[i] at every key
    k for one fixed key k0."""
    if F.bidegree != G.bidegree or F.terms.keys() != G.terms.keys():
        return False
    if not G.terms:
        return True
    k0 = next(iter(G.terms))
    f0, g0 = F.terms[k0], G.terms[k0]
    return all(F.terms[k] * g0 == g * f0 for k, g in G.terms.items())
