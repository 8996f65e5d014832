"""Brute-force conic census over small prime fields.

A desk-scale scan: reduce a surface mod an odd prime p, enumerate every
pair (q, m) in P2(F_p) x P2(F_p) with q.m != 0, and keep the pairs whose
conic L_{q,m} lies on the reduced surface.  Per m, the characteristic-zero
pipeline's own chart rule (flag.line_basis, flag.cross) and restriction
kernel (flag.pull) expand the restriction once, with q left symbolic, into
a+b+1 forms of degree b in q; each pair is then one short dot product per
form mod p.  Reductions of rational witnesses are found whenever their
reductions stay smooth.  Results are mod-p evidence only; a conic over F_p
need not lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .biforms import BiForm, monomials
from .errors import PreconditionError
from .flag import cross, dot, l_groups, line_basis, power_table, pull
from .linalg import gaussian_mod_p

FpConic = tuple[tuple[int, int, int], tuple[int, int, int]]


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def sqrt_minus_one(p: int) -> int:
    """Smallest positive square root of -1 mod p; needs p = 1 (mod 4)."""
    if p % 4 != 1:
        raise PreconditionError("i has no image mod p unless p = 1 (mod 4)")
    for x in range(2, p):
        if x * x % p == p - 1:
            return x
    raise PreconditionError("unreachable: no square root of -1 found")


@dataclass
class FpSurface:
    """A biform with coefficients reduced into F_p."""

    p: int
    bidegree: tuple[int, int]
    terms: dict
    i_image: int | None


def reduce_mod_p(F: BiForm, p: int) -> FpSurface:
    """Coefficientwise reduction of F mod p.

    Denominators must be units mod p; nonreal coefficients additionally
    need p = 1 (mod 4), in which case i maps to the smallest positive
    square root of -1.
    """
    if not _is_odd_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    has_imag = any(not c.is_real() for c in F.terms.values())
    i_img = sqrt_minus_one(p) if p % 4 == 1 else None
    if has_imag and i_img is None:
        raise PreconditionError("nonreal coefficients need p = 1 (mod 4)")
    terms = {}
    for key, c in F.terms.items():
        v = gaussian_mod_p(c, p, i_img or 0)
        if v is None:
            den = next(d for d in (c.re.denominator, c.im.denominator) if d % p == 0)
            raise PreconditionError(f"denominator {den} is divisible by {p}")
        if v:
            terms[key] = v
    if not terms:
        raise PreconditionError("surface reduces to zero mod p")
    return FpSurface(p, F.bidegree, terms, i_img)


def proj_points(p: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of P2(F_p): p^2 + p + 1 points."""
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts.extend((0, 1, z) for z in range(p))
    pts.append((0, 0, 1))
    return pts


def conic_census(S: FpSurface) -> list[FpConic]:
    """All smooth conics over F_p contained in the reduced surface, sorted.

    Scans the (p^2+p+1)^2 canonical pairs.
    """
    pts = proj_points(S.p)
    return sorted(scan_pairs(S, pts, pts))


class _QForm(dict):
    """A form in the coordinates of q, as {exponent triple: int}."""

    def __add__(self, other):
        out = _QForm(self)
        for e, c in other.items():
            out[e] = out.get(e, 0) + c
        return out

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return _QForm({e: c * other for e, c in self.items()})
        out = _QForm()
        for e, c in self.items():
            for f, d in other.items():
                g = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
                out[g] = out.get(g, 0) + c * d
        return out

    __rmul__ = __mul__


_Q = tuple(_QForm({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def scan_pairs(S: FpSurface, m_points, q_points) -> list[FpConic]:
    """The pairs (q, m) with q.m != 0 mod p whose conic lies on S, m by m.
    Any representatives of the projective points may be given.

    The l-forms q x v1 and q x v2 are linear in q, so per m the restriction
    is pulled once into a+b+1 forms of degree b in q, the rows of K_m.  A
    pair is a hit when K_m times the degree-b monomials of q vanishes mod p.
    """
    p = S.p
    a, b = S.bidegree
    groups = l_groups(S.terms)
    exps = [le for _, le in monomials(0, b)]
    q_monos = [[q[0] ** f[0] * q[1] ** f[1] * q[2] ** f[2] % p for f in exps] for q in q_points]
    hits: list[FpConic] = []
    for m in m_points:
        v1, v2 = line_basis([c % p for c in m])  # a chart pivot that is a unit mod p
        p_tables = [power_table((v1[c], v2[c]), a) for c in range(3)]
        p_side = {le: [x % p for x in pull(g, p_tables)] for le, g in groups.items()}
        l1, l2 = cross(_Q, v1), cross(_Q, v2)
        l_tables = [power_table((l1[c], l2[c]), b) for c in range(3)]
        K = []
        for c in pull(p_side, l_tables):  # ints when b = 0
            row = [c.get(f, 0) % p for f in exps] if isinstance(c, dict) else [c % p]
            if any(row):
                K.append(row)
        for q, mono in zip(q_points, q_monos):
            if dot(q, m) % p:
                for row in K:
                    if sum(map(mul, row, mono)) % p:
                        break
                else:
                    hits.append((q, m))
    return hits


def conics_meet_fp(c1: FpConic, c2: FpConic, p: int) -> bool:
    """Mod-p version of the disjointness criterion."""
    q1, m1 = c1
    q2, m2 = c2
    if q1 == q2 and m1 == m2:
        raise PreconditionError("conics must be distinct")
    if q1 == q2 or m1 == m2:
        return True
    return dot(cross(m1, m2), cross(q1, q2)) % p == 0


@dataclass
class IndependenceResult:
    size: int
    exact: bool


def max_disjoint_subset(census: list[FpConic], p: int, limit: int = 24) -> IndependenceResult:
    """Largest pairwise-disjoint subfamily of the census.

    Exact branch-and-bound maximum independent set on the conflict graph
    while the census has at most `limit` members; greedy lower bound,
    flagged as such, beyond that.
    """
    n = len(census)
    if n == 0:
        return IndependenceResult(0, True)
    if n > limit:
        # greedy in canonical order, reported as a lower bound
        taken: list[FpConic] = []
        for c in census:
            if all(not conics_meet_fp(c, t, p) for t in taken):
                taken.append(c)
        return IndependenceResult(len(taken), False)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if conics_meet_fp(census[i], census[j], p):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    best = 0

    def search(cand: int, size: int):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if not cand:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        search(cand & ~(1 << v) & ~adj[v], size + 1)
        search(cand & ~(1 << v), size)

    search((1 << n) - 1, 0)
    return IndependenceResult(best, True)
