"""Surfaces of bidegree (a, a) ruled by a circle's worth of twistor fibers.

Given a gcd-free triple f = (f0, f1, f2) of real binary forms of degree
a >= 2 that parametrizes a plane curve birationally, the surface swept by
the conics L_{f(t), f(t)} is cut out by the resultant in the parameter of
the two pencils

    P(s, t) = p . f(s, t)      and      L(s, t) = l . f(s, t),

a bihomogeneous form of bidegree (a, a) with real coefficients, taken as
the a x a Bezout determinant of P and L over Z.  At every real parameter
(including infinity) the swept conic is a twistor fiber, so the surface
contains infinitely many of them; the affine parameter k maps to
(s, t) = (k, 1) and infinity to (1, 0).  The sum of squares f.f never
vanishes there, because a real parameter where it did would be a common
root of the f_i: the trivial gcd is the positivity certificate.

The ruling is cleared to integers once, by linalg.clear_rows, and the spec
carries it: the positivity and birationality gcds, the resultant, the
certificate and the samples all read that integer ruling.  Each fiber is
handled as the integer triple m = f(s, t) at integers (s, t); a rational
parameter n/d is the homogeneous evaluation f(n, d).  Containment of the
whole family is certified by sampling: on a fixed chart the restriction's
coefficients are polynomials in the parameter of bounded degree, so
vanishing at bound + 1 distinct parameters proves identical vanishing, and
the three charts cover the parameter line as the triple is gcd-free.  Those
windows are what the degree argument counts: a fiber's containment does not
depend on the chart, so each fiber is restricted once, over Z, along its
one chart.

For a >= 2 the surface is singular (only (1,1) surfaces are smooth with
infinitely many twistor fibers): flag.singular_points_on_conic has degree
2a - 2 on a generic fiber, where the double curve meets it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from typing import NamedTuple

from .binforms import BinaryForm, bf_gcd
from .biforms import BiForm, mul_terms
from .errors import PreconditionError
from .flag import Conic, ProjPoint, substitute_forms, twistor_fiber_of
from .linalg import clear_rows
from .sampling import SplitMix64

DEFAULT_RULED_SEED = 0x52D


class RuledSurfaceSpec(NamedTuple):
    """A constructed ruled surface together with its verification data."""

    forms: tuple[BinaryForm, BinaryForm, BinaryForm]
    ruling: list  # the coefficient rows of the forms cleared to integers
    degree: int
    surface: BiForm
    witness_params: list  # integer parameters (s, t) of fibers the certificate proves
    certificate: dict


def twistor_ruled_surface(forms) -> RuledSurfaceSpec:
    """Build the bidegree (a, a) surface swept by the conics L_{f(t), f(t)}.

    Preconditions: real coefficients, common degree a >= 2, trivial gcd,
    and t -> f(t) birational onto its image (_check_birational).  The result
    is never certified irreducible; factorization over Q(i) is out of scope.
    """
    forms = tuple(f if isinstance(f, BinaryForm) else BinaryForm(f) for f in forms)
    if len(forms) != 3:
        raise PreconditionError("the ruling needs exactly three binary forms")
    degrees = {f.degree for f in forms}
    if len(degrees) != 1:
        raise PreconditionError("the three forms must share one degree")
    a = degrees.pop()
    if a < 2:
        raise PreconditionError("the construction needs degree a >= 2")
    f, den = _integer_ruling(forms)
    _positivity_certificate(f)
    _check_birational(f)

    surface = _parameter_resultant(f, den)
    if surface.is_zero():
        raise PreconditionError("the parameter resultant vanishes identically")

    witness_params = [(k, 1) for k in range(a + 2)] + [(1, 0)]
    certificate = containment_certificate(f, surface)
    if not certificate["passed"]:
        raise PreconditionError("containment certificate failed")
    return RuledSurfaceSpec(forms, f, a, surface, witness_params, certificate)


def _integer_ruling(forms):
    """The ruling cleared to integers: the coefficient rows of den * f, for
    the lcm den of the denominators of the real forms f, and den."""
    (row,), den = clear_rows([[c for g in forms for c in g.coeffs]])
    if any(im for _, im in row):
        raise PreconditionError("the forms must have real coefficients")
    n = len(forms[0].coeffs)
    return [[re for re, _ in row[k : k + n]] for k in range(0, len(row), n)], int(den)


def _at(f, s, t) -> tuple:
    """The integer triple f(s, t) of the integer ruling f at integers (s, t)."""
    a = len(f[0]) - 1
    mono = [s ** (a - k) * t**k for k in range(a + 1)]
    return tuple(sum(c * x for c, x in zip(row, mono)) for row in f)


def _parameter_resultant(f, den) -> BiForm:
    """Resultant of P = p.f and L = l.f in the parameter for real forms f,
    given as the integer ruling den * f, as (-1)^(a(a+1)/2) / den^(2a)
    times the a x a Bezout determinant of that integer ruling.

    With P_k, L_k the coefficients of s^(a-k) t^k, the (1, 1) biform entry
    B[i][j] sums P_(j+k+1) L_(i-k) - P_(i-k) L_(j+k+1) over 0 <= k <=
    min(i, a-1-j); the determinant expands over the 2^a column subsets.
    """
    a = len(f[0]) - 1
    unit = [tuple(int(u == v) for v in range(3)) for u in range(3)]

    def entry(i, j):
        ks = range(min(i, a - 1 - j) + 1)
        out = {}
        for u in range(3):
            for v in range(3):
                c = sum(f[u][j + k + 1] * f[v][i - k] - f[u][i - k] * f[v][j + k + 1] for k in ks)
                if c:
                    out[(unit[u], unit[v])] = c
        return out

    rows = [[entry(i, j) for j in range(a)] for i in range(a)]

    @cache
    def minor(cols: tuple) -> dict:
        """Determinant of the last len(cols) rows on the columns cols."""
        if len(cols) == 1:
            return rows[-1][cols[0]]
        acc: dict = {}
        row = rows[a - len(cols)]
        for pos, c in enumerate(cols):
            if row[c]:
                entry = {k: -v for k, v in row[c].items()} if pos % 2 else row[c]
                mul_terms(entry, minor(cols[:pos] + cols[pos + 1 :]), acc)
        return acc

    scale = Fraction((-1) ** (a * (a + 1) // 2), den ** (2 * a))
    det = minor(tuple(range(a)))
    return BiForm((a, a), {k: c * scale for k, c in det.items()})


def _check_birational(f):
    """Prove t -> f(t) birational onto its image, on the integer ruling f:
    a map of degree k has at least k preimages (the roots of the gcd of the
    2x2 minors of f against the point) over every image point, so one of
    three seeded image points with exactly one proves k = 1."""
    rng = SplitMix64(DEFAULT_RULED_SEED)
    for _ in range(3):
        n, d = rng.int_in(-999, 999), rng.int_in(1, 97)
        q0 = _at(f, n, d)
        minors = []
        for x, y in ((0, 1), (0, 2), (1, 2)):
            mf = [u * q0[y] - v * q0[x] for u, v in zip(f[x], f[y])]
            if any(mf):
                minors.append(BinaryForm(mf))
        if not minors:
            raise PreconditionError("parametrization has constant image")
        if reduce(bf_gcd, minors).degree == 1:
            return
    raise PreconditionError("parametrization is not birational onto its image "
                            "(three sampled image points each have several preimages)")


def _positivity_certificate(f):
    """Certify f(s,t).f(s,t) > 0 on the whole real parameter circle for the
    integer ruling f.

    A sum of real squares vanishes only where every f_i does, and a common
    real root (s0, t0), infinity included, is a common linear factor
    t0 s - s0 t; so a trivial gcd is the certificate.
    """
    nonzero = [BinaryForm(row) for row in f if any(row)]
    if not nonzero:
        raise PreconditionError("gcd of an identically zero triple")
    if reduce(bf_gcd, nonzero).degree > 0:
        raise PreconditionError("the forms share a common factor")


def containment_certificate(f, surface: BiForm) -> dict:
    """Prove that every conic L_{f(t), f(t)} of the integer ruling f lies on
    the surface.

    On the chart with pivot coordinate i, the parametrization of the swept
    conic is polynomial in the parameter: p-entries have parameter degree a
    and l-entries 2a, so each coefficient of the restriction has degree at
    most D = a*a + a*2a.  Vanishing at D + 1 distinct integer parameters
    (skipping those where f_i vanishes) proves identical vanishing; the
    charts with f_i not identically zero cover the parameter line, as the
    triple is gcd-free.  These windows are what the argument counts.  A
    fiber's containment does not depend on the chart, nor on clearing
    denominators (a nonzero scale), so each integer triple m is restricted
    once, along its one chart over Z, for the windows and probes alike.
    """
    a, b = surface.bidegree
    bound = (a + 2 * b) * (len(f[0]) - 1)
    (row,), _ = clear_rows([list(surface.terms.values())])
    if any(im for _, im in row):
        raise PreconditionError("the integer chart needs real coefficients")
    int_terms = {k: re for k, (re, _) in zip(surface.terms, row)}

    @cache
    def on_surface(m) -> bool:  # whether the fiber L_{m, m} lies on the surface
        return not any(substitute_forms(int_terms, (a, b), m, m))

    charts = []
    for i in range(3):
        if not any(f[i]):
            continue
        count = k = 0
        while count <= bound:
            m = _at(f, k, 1)
            k += 1
            if not m[i]:
                continue
            if not on_surface(m):
                return {"passed": False, "degree_bound": bound, "failed_chart": i,
                        "failed_parameter": k - 1}
            count += 1
        charts.append({"pivot_index": i, "samples": count, "degree_bound": bound})
    rng = SplitMix64(DEFAULT_RULED_SEED ^ 0xC0FFEE)
    probes = []
    for _ in range(5):
        n, d = rng.int_in(-500, 500), rng.int_in(1, 60)
        t = str(Fraction(n, d))
        if not on_surface(_at(f, n, d)):
            return {"passed": False, "degree_bound": bound, "failed_probe": t}
        probes.append(t)
    return {"passed": True, "degree_bound": bound, "charts": charts, "probe_parameters": probes}


def twistor_circle_samples(spec: RuledSurfaceSpec, n: int) -> list[Conic]:
    """n pairwise disjoint twistor fibers of the ruling at rational
    parameters on the real circle (affine integers, then infinity), each
    over a point of P2 not yet taken: the fibers of F -> CP2 over distinct
    points never meet.  A point is kept as the ProjPoint of its integer
    triple, which is also the point its fiber is built from.  The spec's
    containment certificate already proves each fiber lies on the surface."""
    if n < 1:
        raise PreconditionError("need n >= 1 samples")
    f = spec.ruling
    points: dict[ProjPoint, None] = {}  # in the order taken; f(s, t) != 0 as f is gcd-free
    k = 0
    while len(points) < n - 1:
        points[ProjPoint(_at(f, k, 1))] = None
        k += 1
    m = ProjPoint(_at(f, 1, 0))
    while m in points:
        m, k = ProjPoint(_at(f, k, 1)), k + 1
    points[m] = None
    return [twistor_fiber_of(m) for m in points]
