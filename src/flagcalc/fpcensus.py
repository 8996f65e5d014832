"""Conic census over small prime fields, one point q at a time.

Reduce a surface mod an odd prime p and list the pairs (q, m) with q.m != 0
whose conic L_{q,m} lies on it.  Along every conic l = q x p, so the
surface is expanded once, mod p, into G(p, q) = S(p, q x p), and L_{q,m}
lies on S exactly when the line m lies in the plane curve G_q = G(., q).
Such a line meets each coordinate line in a zero of G_q, so O(p) values of
G_q give the candidate lines, O(p^3) dot products in all.  The expansion
only proposes: flag.substitute_forms, the exact pipeline's containment
rule, decides each candidate on S itself, so a wrong expansion could lose
a hit but never add one; modp supplies F_p.
Every q runs over proj_points and every hit m is made canonical
(modp.canonical), so each conic is listed once, as canonical points.
Results are mod-p evidence only; a conic over F_p need not lift.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb
from operator import mul
from typing import NamedTuple

from . import modp
from .biforms import BiForm, monomials
from .errors import PreconditionError
from .flag import cross, dot, substitute_forms
from .linalg import clear_rows

FpConic = tuple[tuple[int, int, int], tuple[int, int, int]]


class FpSurface(NamedTuple):
    """A biform with coefficients reduced into F_p."""

    p: int
    bidegree: tuple[int, int]
    terms: dict
    i_image: int | None


def reduce_mod_p(F: BiForm, p: int) -> FpSurface:
    """Coefficientwise reduction of F mod p.

    linalg.clear_rows scales the coefficients by the lcm d of their
    denominators to Gaussian integers x + yi, and each maps to
    (x + i y) / d mod p.  Denominators must be units mod p; nonreal
    coefficients additionally need p = 1 (mod 4), in which case i maps to
    the smallest positive square root of -1 (modp.sqrt_minus_one).
    """
    if not modp.is_odd_prime(p):
        raise PreconditionError(f"{p} is not an odd prime")
    (row,), d = clear_rows([list(F.terms.values())])
    i_img = modp.sqrt_minus_one(p) if p % 4 == 1 else None
    if i_img is None and any(y for _, y in row):
        raise PreconditionError("nonreal coefficients need p = 1 (mod 4)")
    if d % p == 0:
        den = next(n for c in F.terms.values() for n in (c.re.denominator, c.im.denominator)
                   if n % p == 0)
        raise PreconditionError(f"denominator {den} is divisible by {p}")
    inv = pow(int(d), -1, p)
    terms = {}
    for key, (x, y) in zip(F.terms, row):
        if v := (x + (i_img or 0) * y) * inv % p:
            terms[key] = v
    if not terms:
        raise PreconditionError(f"the surface reduces to zero mod {p}")
    return FpSurface(p, F.bidegree, terms, i_img)


def proj_points(p: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of P2(F_p): p^2 + p + 1 points."""
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts.extend((0, 1, z) for z in range(p))
    pts.append((0, 0, 1))
    return pts


_L_OF_QP = ((1, 2), (2, 0), (0, 1))  # l = q x p: l_i = q_j p_k - q_k p_j


def conic_expansion(S: FpSurface) -> dict:
    """G(p, q) = S(p, q x p) mod p, of bidegree (a+b, b): the restriction
    of S to every conic L_{q,m} at once, as {alpha: row} for the nonzero
    rows, where row holds the coefficients of p^alpha q^f for the degree-b
    exponents f in the order of biforms.monomials(0, b).  Each l_i^n is
    expanded by the binomial theorem.
    """
    col = {f: n for n, (_, f) in enumerate(monomials(0, S.bidegree[1]))}
    G: dict = {}
    for (pe, le), c in S.terms.items():
        for rs in product(*(range(n + 1) for n in le)):
            alpha, qe, coef = list(pe), [0, 0, 0], c
            for (j, k), n, r in zip(_L_OF_QP, le, rs):
                # the term C(n, r) (q_j p_k)^(n-r) (-q_k p_j)^r of l_i^n
                coef *= (-1) ** r * comb(n, r)
                qe[j], qe[k] = qe[j] + n - r, qe[k] + r
                alpha[j], alpha[k] = alpha[j] + r, alpha[k] + n - r
            row = G.setdefault(tuple(alpha), [0] * len(col))
            f = col[tuple(qe)]
            row[f] = (row[f] + coef) % S.p
    return {alpha: row for alpha, row in G.items() if any(row)}


def conic_census(S: FpSurface) -> list[FpConic]:
    """All smooth conics over F_p contained in the reduced surface, as the
    sorted canonical pairs (q, m) with q.m != 0 mod p.

    For each of the p^2+p+1 points q, a line in G_q is r0 x r1 for zeros
    r0, r1 of G_q on {x0 = 0}, {x1 = 0}, or joins (0, 0, 1) to a zero on
    {x2 = 0}.  A candidate m is a hit when every restriction coefficient
    of S along L_{q,m} (flag.substitute_forms, over Z) is 0 mod p.
    """
    p = S.p
    G = conic_expansion(S)
    cols = list(zip(*G.values()))  # per q-monomial, its coefficient at each alpha
    exps = [le for _, le in monomials(0, S.bidegree[1])]

    def weights(x):  # G(x, q) is weights(x) times q's monomials
        xa = [x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] % p for e in G]
        return [sum(map(mul, xa, col)) % p for col in cols]

    e2 = (0, 0, 1)
    axes = [[(x, weights(x)) for x in axis] for axis in (
        [(0, 1, z) for z in range(p)] + [e2],
        [(1, 0, z) for z in range(p)] + [e2],
        [(1, y, 0) for y in range(p)] + [(0, 1, 0)],
    )]
    found = []
    for q in proj_points(p):
        mono = [q[0] ** f[0] * q[1] ** f[1] * q[2] ** f[2] % p for f in exps]
        Z0, Z1, Z2 = [], [], []
        for Z, axis in zip((Z0, Z1, Z2), axes):
            Z.extend(x for x, w in axis if not sum(map(mul, w, mono)) % p)
            if not Z:  # every line meets every coordinate line
                break
        if not Z2:
            continue
        cands = [cross(r0, r1) for r0 in Z0 if r0 != e2 for r1 in Z1 if r1 != e2]
        if e2 in Z0:
            cands.extend(cross(e2, r2) for r2 in Z2)
        for m in cands:
            if dot(q, m) % p and any(not dot(r2, m) % p for r2 in Z2):
                m = modp.canonical(m, p)
                if not any(c % p for c in substitute_forms(S.terms, S.bidegree, q, m)):
                    found.append((q, m))
    return sorted(found)


def conics_meet_fp(c1: FpConic, c2: FpConic, p: int) -> bool:
    """Whether the conics meet mod p: (m1 x m2).(q1 x q2) = 0, as in flag.conics_disjoint."""
    q1, m1 = c1
    q2, m2 = c2
    if q1 == q2 and m1 == m2:
        raise PreconditionError("conics must be distinct")
    return dot(cross(m1, m2), cross(q1, q2)) % p == 0


class IndependenceResult(NamedTuple):
    size: int
    exact: bool


def max_disjoint_subset(census: list[FpConic], p: int, limit: int = 24) -> IndependenceResult:
    """Largest pairwise-disjoint subfamily of the census.

    Branch-and-bound maximum independent set on the conflict graph, which
    takes the lowest candidate first, so its first leaf is the greedy choice
    in canonical order.  With at most `limit` members the search is
    exhaustive and exact; beyond that it stops at that leaf, a lower bound
    flagged as such.
    """
    n, exact = len(census), len(census) <= limit

    @cache
    def later(v):  # the members after v that meet it
        return sum(1 << j for j in range(v + 1, n) if conics_meet_fp(census[v], census[j], p))

    best, stack = 0, [((1 << n) - 1, 0)]  # (candidates, size) of the open branches
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        v = (cand & -cand).bit_length() - 1
        if exact:
            stack.append((cand & ~(1 << v), size))
        stack.append((cand & ~(1 << v) & ~later(v), size + 1))
    return IndependenceResult(best, exact)
