"""Sparse bihomogeneous forms in the point-line variables (p0,p1,p2), (l0,l1,l2).

A form of bidegree (a, b) is a map from exponent pairs
((e0,e1,e2), (f0,f1,f2)) with e0+e1+e2 = a and f0+f1+f2 = b to nonzero
scalars in Q(i).  The monomial order used everywhere (serialization, matrix
columns, reduction) is descending lexicographic on the concatenated
exponent tuples, so p0*l0 is the leading monomial of the incidence form.
The constructor drops zero coefficients, so arithmetic adds into a plain
dict and returns through it.
"""

from __future__ import annotations

from math import comb

from .errors import PreconditionError
from .gaussian import ONE, ZERO, GaussianRational, to_gaussian

ExpPair = tuple[tuple[int, int, int], tuple[int, int, int]]


class BiForm:
    """A bihomogeneous polynomial with exact Q(i) coefficients."""

    __slots__ = ("bidegree", "terms")

    def __init__(self, bidegree, terms=None):
        a, b = int(bidegree[0]), int(bidegree[1])
        if a < 0 or b < 0:
            raise PreconditionError("bidegree components must be nonnegative")
        self.bidegree = (a, b)
        clean: dict[ExpPair, GaussianRational] = {}
        for key, c in (terms or {}).items():
            pe, le = (tuple(key[0]), tuple(key[1]))
            if len(pe) != 3 or len(le) != 3:
                raise PreconditionError(f"exponent tuples must have 3 entries: {key}")
            if sum(pe) != a or sum(le) != b or min(pe) < 0 or min(le) < 0:
                raise PreconditionError(f"exponents {key} do not match bidegree {(a, b)}")
            c = to_gaussian(c)
            if c:
                clean[(pe, le)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, pe, le, coeff=1) -> "BiForm":
        pe, le = tuple(pe), tuple(le)
        return cls((sum(pe), sum(le)), {(pe, le): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __add__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        if self.bidegree != other.bidegree:
            raise PreconditionError("cannot add forms of different bidegree")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return BiForm(self.bidegree, out)

    def __sub__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BiForm(self.bidegree, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "BiForm":
        c = to_gaussian(c)
        if not c:
            return BiForm(self.bidegree)
        return BiForm(self.bidegree, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, BiForm):
            out: dict[ExpPair, GaussianRational] = {}
            mul_terms(self.terms, other.terms, out)
            (a1, b1), (a2, b2) = self.bidegree, other.bidegree
            return BiForm((a1 + a2, b1 + b2), out)
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BiForm):
            return NotImplemented
        return self.bidegree == other.bidegree and self.terms == other.terms

    def __repr__(self):
        return f"BiForm({self.bidegree}, {len(self.terms)} terms)"

    def evaluate(self, p, l) -> GaussianRational:
        """Exact value at coordinate triples p and l."""
        a, b = self.bidegree
        ppow = [_powers(to_gaussian(x), a) for x in p]
        lpow = [_powers(to_gaussian(x), b) for x in l]
        acc = ZERO
        for (pe, le), c in self.terms.items():
            v = c
            for i in range(3):
                if pe[i]:
                    v = v * ppow[i][pe[i]]
                if le[i]:
                    v = v * lpow[i][le[i]]
            acc = acc + v
        return acc

    def partial(self, group: str, index: int) -> "BiForm":
        """Partial derivative in p_index (group 'p') or l_index (group 'l')."""
        if group not in ("p", "l"):
            raise PreconditionError("group must be 'p' or 'l'")
        g = "pl".index(group)
        bidegree = list(self.bidegree)
        if not bidegree[g]:
            return BiForm(bidegree)
        bidegree[g] -= 1
        out = {}
        for key, c in self.terms.items():
            if e := key[g][index]:
                new = list(key)
                new[g] = key[g][:index] + (e - 1,) + key[g][index + 1 :]
                out[tuple(new)] = c * e
        return BiForm(bidegree, out)


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


def _powers(x: GaussianRational, n: int):
    out = [ONE]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


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


def incidence_form() -> BiForm:
    """p0*l0 + p1*l1 + p2*l2, the (1,1) form cutting the flag threefold."""
    return BiForm(
        (1, 1),
        {
            ((1, 0, 0), (1, 0, 0)): ONE,
            ((0, 1, 0), (0, 1, 0)): ONE,
            ((0, 0, 1), (0, 0, 1)): ONE,
        },
    )


def reduce_mod_incidence(F: BiForm) -> BiForm:
    """Canonical representative of F modulo multiples of the incidence form.

    Every monomial divisible by p0*l0 is rewritten through
    p0*l0 = -(p1*l1 + p2*l2), which holds on the flag; the result is
    supported on quotient_monomials and is the unique such representative.
    """
    a, b = F.bidegree
    if a == 0 or b == 0:
        return F
    out: dict[ExpPair, GaussianRational] = {}
    for (pe, le), c in F.terms.items():
        k = min(pe[0], le[0])
        if k == 0:
            out[(pe, le)] = out.get((pe, le), ZERO) + c
            continue
        base = -c if k % 2 else c
        for alpha in range(k + 1):
            key = (
                (pe[0] - k, pe[1] + alpha, pe[2] + k - alpha),
                (le[0] - k, le[1] + alpha, le[2] + k - alpha),
            )
            out[key] = out.get(key, ZERO) + base * comb(k, alpha)
    return BiForm((a, b), out)


def proportionality(F: BiForm, G: BiForm):
    """The scalar c with F = c * G, or None when the forms are not parallel."""
    if F.bidegree != G.bidegree:
        return None
    if G.is_zero():
        return ONE if F.is_zero() else None
    if F.terms.keys() != G.terms.keys():
        return None
    key = next(iter(G.terms))
    c = F.terms[key] / G.terms[key]
    for k, g in G.terms.items():
        if F.terms[k] != g * c:
            return None
    return c
