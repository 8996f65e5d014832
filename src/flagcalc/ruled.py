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
(s, t) = (k, 1) and infinity to (1, 0).

Every containment test here restricts the integer-cleared surface along
one integer chart of a fiber (_on_surface).  Containment of the whole
family is certified by sampling: on a fixed chart the coefficients of the
restriction are polynomials in the parameter of explicitly bounded degree,
so vanishing at bound + 1 distinct rational parameters proves identical
vanishing, and the three charts cover the parameter line because the
triple is gcd-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .binforms import BinaryForm, _pdeg, _pdivmod, bf_gcd, triple_gcd
from .biforms import BiForm
from .errors import PreconditionError
from .flag import (
    Conic,
    conics_disjoint,
    cross,
    j_pullback,
    line_basis,
    power_table,
    pull_terms,
    twistor_fiber_of,
)
from .gaussian import GaussianRational
from .linsys import SingularWitness, conic_singularity_witness
from .sampling import SplitMix64

DEFAULT_RULED_SEED = 0x52D


@dataclass
class RuledSurfaceSpec:
    """A constructed ruled surface together with its verification data."""

    forms: tuple[BinaryForm, BinaryForm, BinaryForm]
    degree: int
    surface: BiForm
    witness_params: list
    certificate: dict


def twistor_ruled_surface(forms, seed: int = DEFAULT_RULED_SEED) -> RuledSurfaceSpec:
    """Build the bidegree (a, a) surface swept by the conics L_{f(t), f(t)}.

    Preconditions: real coefficients, common degree a >= 2, trivial gcd,
    and t -> f(t) birational onto its image (probed on three random image
    points by exact preimage count).  The result is never certified
    irreducible; factorization over Q(i) is out of scope.
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
    for f in forms:
        if any(not c.is_real() for c in f.coeffs):
            raise PreconditionError("the forms must have real coefficients")
    g = triple_gcd(forms)
    if g.degree > 0:
        raise PreconditionError("the forms share a common factor")
    _check_birational(forms, seed)
    _positivity_certificate(forms)

    surface = _parameter_resultant(forms)
    if surface.is_zero():
        raise PreconditionError("the parameter resultant vanishes identically")
    # j swaps P and L, and Bez(L, P) = -Bez(P, L), so j*S = (-1)^a S; with
    # real coefficients the sign cannot be scaled away for odd a, so exact
    # j-invariance is recorded as proportionality.
    expected = surface if a % 2 == 0 else -surface
    if j_pullback(surface) != expected:
        raise PreconditionError("resultant lost its j-symmetry")

    int_terms = _integer_terms(surface)
    witness_params = []
    for s, t in _sample_parameters(a + 3):
        C = _fiber_at(forms, s, t)
        if not _on_surface(int_terms, (a, a), _cleared(C.m.coords)):
            raise PreconditionError("a sampled twistor fiber escapes the surface")
        witness_params.append(((s, t), C))

    certificate = containment_certificate(forms, surface, seed=seed)
    if not certificate["passed"]:
        raise PreconditionError("containment certificate failed")
    return RuledSurfaceSpec(forms, a, surface, witness_params, certificate)


def _fiber_at(forms, s, t) -> Conic:
    q = tuple(f.evaluate(s, t) for f in forms)
    if not any(q):
        raise PreconditionError("parameter hits a base point of the triple")
    return twistor_fiber_of(q)


def _sample_parameters(n: int):
    params = [(GaussianRational(k), GaussianRational(1)) for k in range(n - 1)]
    params.append((GaussianRational(1), GaussianRational(0)))
    return params


def _parameter_resultant(forms) -> BiForm:
    """Resultant of P = p.f and L = l.f in the parameter for real forms f,
    as (-1)^(a(a+1)/2) / den^(2a) times the a x a Bezout determinant of the
    forms cleared to integers by the lcm den of their denominators.

    With P_k, L_k the coefficients of s^(a-k) t^k, the (1, 1) biform entry
    B[i][j] sums P_(j+k+1) L_(i-k) - P_(i-k) L_(j+k+1) over 0 <= k <=
    min(i, a-1-j); the determinant expands over the 2^a column subsets.
    """
    a = forms[0].degree
    den = lcm(*(c.re.denominator for g in forms for c in g.coeffs))
    f = [[int(c.re * den) for c in g.coeffs] for g in forms]
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
                sub = minor(cols[:pos] + cols[pos + 1 :])
                sign = -1 if pos % 2 else 1
                for (pe1, le1), c1 in row[c].items():
                    c1 *= sign
                    for (pe2, le2), c2 in sub.items():
                        key = (
                            (pe1[0] + pe2[0], pe1[1] + pe2[1], pe1[2] + pe2[2]),
                            (le1[0] + le2[0], le1[1] + le2[1], le1[2] + le2[2]),
                        )
                        acc[key] = acc.get(key, 0) + c1 * c2
        return acc

    scale = Fraction((-1) ** (a * (a + 1) // 2), den ** (2 * a))
    det = minor(tuple(range(a)))
    return BiForm((a, a), {k: GaussianRational(c * scale) for k, c in det.items()})


def _check_birational(forms, seed: int):
    """Probabilistic birationality probe: the fiber of t -> f(t) over a
    random image point must be a single reduced parameter, read off as the
    degree of the gcd of the 2x2 minors against that point."""
    rng = SplitMix64(seed)
    for _ in range(3):
        t = GaussianRational(Fraction(rng.int_in(-999, 999), rng.int_in(1, 97)))
        q0 = tuple(f.evaluate(t, 1) for f in forms)
        minors = []
        for x, y in ((0, 1), (0, 2), (1, 2)):
            mf = forms[x].scale(q0[y]) - forms[y].scale(q0[x])
            if not mf.is_zero():
                minors.append(mf)
        if not minors:
            raise PreconditionError("parametrization has constant image")
        g = minors[0]
        for mf in minors[1:]:
            g = bf_gcd(g, mf)
        if g.degree != 1:
            raise PreconditionError(
                "parametrization is not birational onto its image "
                f"(a random image point has {g.degree} preimages)"
            )


# Sturm-sequence positivity of sum f_i^2 on the real parameter line.

def _fderiv(u):
    return [i * u[i] for i in range(1, len(u))] or [Fraction(0)]


def _real_root_count(u) -> int:
    """Number of distinct real roots, by Sturm sign variations at -inf/+inf."""
    d = _pdeg(u)
    if d <= 0:
        return 0
    chain = [u[: d + 1], _fderiv(u[: d + 1])]
    while _pdeg(chain[-1]) >= 0:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if _pdeg(r) < 0:
            break
        chain.append([-c for c in r])

    def variations(signs):
        signs = [s for s in signs if s]
        return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)

    at_plus = []
    at_minus = []
    for p in chain:
        dp = _pdeg(p)
        if dp < 0:
            continue
        lead = 1 if p[dp] > 0 else -1
        at_plus.append(lead)
        at_minus.append(lead if dp % 2 == 0 else -lead)
    return variations(at_minus) - variations(at_plus)


def _positivity_certificate(forms):
    """Certify f(s,t).f(s,t) > 0 on the whole real parameter circle.

    Sturm root counting on sum f_i(x, 1)^2 handles the affine line; the
    value at (1, 0) handles infinity.
    """
    a = forms[0].degree
    u = [Fraction(0)] * (2 * a + 1)
    for f in forms:
        asc = [c.re for c in reversed(f.coeffs)]
        for i, ci in enumerate(asc):
            if not ci:
                continue
            for j, cj in enumerate(asc):
                if cj:
                    u[i + j] += ci * cj
    if _pdeg(u) < 0:
        raise PreconditionError("triple is identically zero")
    if _real_root_count(u) != 0:
        raise PreconditionError("f.f vanishes at a real parameter")
    if not sum(f.coeffs[0].re ** 2 for f in forms):
        raise PreconditionError("f.f vanishes at the parameter at infinity")


def containment_certificate(forms, surface: BiForm, seed: int = DEFAULT_RULED_SEED) -> dict:
    """Prove that every conic L_{f(t), f(t)} lies on the surface.

    On the chart with pivot coordinate i, the parametrization of the swept
    conic is polynomial in the parameter: p-entries have parameter degree a
    and l-entries 2a, so each coefficient of the restriction has degree at
    most D = a*a + a*2a.  Vanishing at D + 1 distinct rational parameters
    (skipping the finitely many where the chart degenerates) therefore
    proves identical vanishing; the charts with f_i not identically zero
    cover the parameter line because the triple is gcd-free.
    """
    a, b = surface.bidegree
    bound = a * forms[0].degree + b * 2 * forms[0].degree
    int_terms = _integer_terms(surface)
    charts = []
    for i in range(3):
        if forms[i].is_zero():
            continue
        count = 0
        k = 0
        while count <= bound:
            m = tuple(_cleared(f.evaluate(k, 1) for f in forms))
            k += 1
            if not m[i]:
                continue
            if not _on_surface(int_terms, (a, b), m, pivot=i):
                return {
                    "passed": False,
                    "degree_bound": bound,
                    "failed_chart": i,
                    "failed_parameter": k - 1,
                }
            count += 1
        charts.append({"pivot_index": i, "samples": count, "degree_bound": bound})
    rng = SplitMix64(seed ^ 0xC0FFEE)
    probes = []
    for _ in range(5):
        t = GaussianRational(Fraction(rng.int_in(-500, 500), rng.int_in(1, 60)))
        C = _fiber_at(forms, t, GaussianRational(1))
        if not _on_surface(int_terms, (a, b), _cleared(C.m.coords)):
            return {"passed": False, "degree_bound": bound, "failed_probe": str(t.re)}
        probes.append(str(t.re))
    return {"passed": True, "degree_bound": bound, "charts": charts, "probe_parameters": probes}


def _cleared(values):
    """Real rationals times the lcm of their denominators, as ints."""
    values = list(values)
    if any(not c.is_real() for c in values):
        raise PreconditionError("the integer chart needs real coefficients")
    den = lcm(*(c.re.denominator for c in values))
    return [int(c.re * den) for c in values]


def _integer_terms(surface: BiForm) -> dict:
    return dict(zip(surface.terms, _cleared(surface.terms.values())))


def _on_surface(int_terms, bidegree, m, pivot=None) -> bool:
    """Whether the surface with integer terms int_terms contains the
    twistor fiber L_{m, m} over the integer triple m.

    Clearing denominators scales m and the restriction by nonzero
    constants, so the answer over Z is the answer over Q; any chart with
    m[pivot] != 0 parametrizes the whole conic, so every one agrees.
    """
    a, b = bidegree
    v1, v2 = line_basis(m, pivot=pivot)
    l1, l2 = cross(m, v1), cross(m, v2)
    p_tables = [power_table((v1[c], v2[c]), a) for c in range(3)]
    l_tables = [power_table((l1[c], l2[c]), b) for c in range(3)]
    return not any(pull_terms(int_terms, p_tables, l_tables))


def twistor_circle_samples(spec: RuledSurfaceSpec, n: int) -> list[Conic]:
    """n pairwise disjoint twistor fibers of the ruling at rational
    parameters on the real circle (affine integers, then infinity)."""
    if n < 1:
        raise PreconditionError("need n >= 1 samples")
    out: list[Conic] = []
    seen = set()
    k = 0
    while len(out) < n - 1:
        C = _fiber_at(spec.forms, GaussianRational(k), GaussianRational(1))
        k += 1
        key = (C.q.coords, C.m.coords)
        if key in seen:
            continue
        seen.add(key)
        out.append(C)
    C_inf = _fiber_at(spec.forms, GaussianRational(1), GaussianRational(0))
    if (C_inf.q.coords, C_inf.m.coords) in seen:
        while True:
            C_inf = _fiber_at(spec.forms, GaussianRational(k), GaussianRational(1))
            k += 1
            if (C_inf.q.coords, C_inf.m.coords) not in seen:
                break
    out.append(C_inf)
    int_terms = _integer_terms(spec.surface)
    for idx, C in enumerate(out):
        if not _on_surface(int_terms, spec.surface.bidegree, _cleared(C.m.coords)):
            raise PreconditionError("sampled fiber escapes the surface")
        for D in out[:idx]:
            if not conics_disjoint(C, D):
                raise PreconditionError("sampled fibers are not disjoint")
    return out


def smoothness_profile(spec: RuledSurfaceSpec, fibers: int = 6) -> dict:
    """Search the sampled twistor fibers for singular points of the surface.

    The report either exhibits singular witnesses or declares the search
    inconclusive; it has no vocabulary for certifying smoothness, which for
    these ruled surfaces of degree >= 2 would be wrong.
    """
    samples = twistor_circle_samples(spec, fibers)
    entries = []
    found = False
    for C in samples:
        w: SingularWitness | None = conic_singularity_witness(spec.surface, C)
        if w is None:
            entries.append({"conic": C, "witness": None})
            continue
        found = True
        entries.append(
            {
                "conic": C,
                "witness": {
                    "whole_conic": w.whole_conic,
                    "gcd_degree": w.gcd.degree if w.gcd is not None else None,
                    "exact_parameter": w.parameter is not None,
                },
            }
        )
    return {
        "bidegree": list(spec.surface.bidegree),
        "fibers_checked": len(samples),
        "status": "singular_witness_found" if found else "inconclusive",
        "certifies_smoothness": False,
        "fibers": entries,
    }
