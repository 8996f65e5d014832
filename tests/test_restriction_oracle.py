"""Differential oracle for the shared restriction routine.

Every containment fact in flagcalc comes from flag.monomial_restrictions
through the one chart of flag.chart_tables: the condition matrices and
restriction to a conic over Z[i], the ruled containment certificate over Z
and the mod-p census.  The reference code below restricts by its own
arithmetic (BinaryForm products, tests/oracles.substitute_curve_forms),
with the chart rule written out separately for Q(i) and for F_p, and the
tests pin the routine to it on fixed seeds: the rows, restriction (zero
surfaces, tall nonreal conics, big-rational members), the members of a
certified family, the certificate and the census.  The singular points
along a conic are pinned to the same minors along the Q(i) FlagCurve of
tests/oracles.py.
"""

import glob
import json
import os
from fractions import Fraction
from math import lcm

import pytest

from flagcalc.binforms import BinaryForm, bf_gcd
from flagcalc.biforms import BiForm, incidence_form, monomials, quotient_monomials
from flagcalc.cli import main
from flagcalc.errors import PreconditionError
from flagcalc.flag import Conic, restrict_to_conic, singular_points_on_conic
from flagcalc.fpcensus import conic_census, proj_points, reduce_mod_p
from flagcalc.gaussian import ZERO, GaussianRational as GR
from flagcalc.linsys import (
    condition_matrix,
    family_member,
    surface_family,
    surface_through_conics,
)
from flagcalc.ruled import (
    DEFAULT_RULED_SEED,
    _integer_ruling,
    containment_certificate,
    twistor_circle_samples,
    twistor_ruled_surface,
)
from flagcalc.sampling import SplitMix64, random_gaussian_rational, random_smooth_conics
from flagcalc.serialize import biform_to_json, forms_from_json

from oracles import (
    _fiber_at,
    conic_param,
    form_powers,
    restrict_to_curve,
    substitute_curve_forms,
)

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
CUBIC = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1]))
FORMS_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures", "forms")


# Reference: restriction over Q(i) by BinaryForm products.

def _ref_cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _ref_line_basis(m, pivot=None):
    i = pivot if pivot is not None else next(idx for idx in range(3) if m[idx])
    j, k = [idx for idx in range(3) if idx != i]
    v1 = [ZERO, ZERO, ZERO]
    v2 = [ZERO, ZERO, ZERO]
    v1[j], v1[i] = m[i], -m[j]
    v2[k], v2[i] = m[i], -m[k]
    return tuple(v1), tuple(v2)


def _ref_chart_forms(q, m, pivot=None):
    v1, v2 = _ref_line_basis(m, pivot)
    p_forms = tuple(BinaryForm([v1[c], v2[c]]) for c in range(3))
    l1, l2 = _ref_cross(q, v1), _ref_cross(q, v2)
    l_forms = tuple(BinaryForm([l1[c], l2[c]]) for c in range(3))
    return p_forms, l_forms


def _ref_restrict_to_conic(F, C):
    return substitute_curve_forms(F, *_ref_chart_forms(C.q.rational(), C.m.rational()))


def _ref_restrict_monomial(pe, le, p_pows, l_pows):
    prod = None
    for i in range(3):
        if pe[i]:
            prod = p_pows[i][pe[i]] if prod is None else prod * p_pows[i][pe[i]]
    for i in range(3):
        if le[i]:
            prod = l_pows[i][le[i]] if prod is None else prod * l_pows[i][le[i]]
    return prod


def _ref_condition_rows(a, b, conics):
    cols = quotient_monomials(a, b)
    rows = []
    for C in conics:
        p_forms, l_forms = _ref_chart_forms(C.q.rational(), C.m.rational())
        p_pows = [form_powers(f, a) for f in p_forms]
        l_pows = [form_powers(f, b) for f in l_forms]
        block = [[ZERO] * len(cols) for _ in range(a + b + 1)]
        for j, (pe, le) in enumerate(cols):
            r = _ref_restrict_monomial(pe, le, p_pows, l_pows)
            for k, c in enumerate(r.coeffs):
                if c:
                    block[k][j] = c
        rows.extend(block)
    return rows


def _ref_certificate(forms, surface, seed=DEFAULT_RULED_SEED):
    bound = surface.bidegree[0] * forms[0].degree + surface.bidegree[1] * 2 * forms[0].degree
    charts = []
    for i in range(3):
        if forms[i].is_zero():
            continue
        count = 0
        k = 0
        while count <= bound:
            m = tuple(f.evaluate(k, 1) for f in forms)
            k += 1
            if not m[i]:
                continue
            r = substitute_curve_forms(surface, *_ref_chart_forms(m, m, pivot=i))
            if not r.is_zero():
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
        t = GR(Fraction(rng.int_in(-500, 500), rng.int_in(1, 60)))
        C = _fiber_at(forms, t, GR(1))
        if not _ref_restrict_to_conic(surface, C).is_zero():
            return {"passed": False, "degree_bound": bound, "failed_probe": str(t.re)}
        probes.append(str(t.re))
    return {"passed": True, "degree_bound": bound, "charts": charts, "probe_parameters": probes}


def _ref_singular_points(F, C):
    """singular_points_on_conic's gcd taken along conic_param(C): the
    fifteen 2x2 minors of the restricted [grad F; (l, p)], where (l, p) is
    the curve's own l- and p-forms."""
    curve = conic_param(C)
    a, b = F.bidegree
    grad = [restrict_to_curve(F.partial(group, i), curve) for group in ("p", "l") for i in range(3)]
    normal = list(curve.l_forms) + list(curve.p_forms)
    g = None
    for i in range(6):
        for j in range(i + 1, 6):
            minor = grad[i] * normal[j] - grad[j] * normal[i]
            if not minor.is_zero():
                g = minor if g is None else bf_gcd(g, minor)
    return BinaryForm([0] * (a + b + 1)) if g is None else g.normalized()


# Reference: the census over F_p with convolutions reduced at every step.

def _fp_dot(u, v, p):
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % p


def _fp_cross(u, v, p):
    return (
        (u[1] * v[2] - u[2] * v[1]) % p,
        (u[2] * v[0] - u[0] * v[2]) % p,
        (u[0] * v[1] - u[1] * v[0]) % p,
    )


def _fp_line_basis(m, p):
    i = next(idx for idx in range(3) if m[idx])
    j, k = [idx for idx in range(3) if idx != i]
    v1 = [0, 0, 0]
    v2 = [0, 0, 0]
    v1[j], v1[i] = m[i], (-m[j]) % p
    v2[k], v2[i] = m[i], (-m[k]) % p
    return tuple(v1), tuple(v2)


def _fp_conv(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    return out


def _fp_form_powers(lin, n, p):
    out = [[1]]
    for _ in range(n):
        out.append(_fp_conv(out[-1], lin, p))
    return out


def _ref_census_chunk(S, m_points, q_points):
    p = S.p
    a, b = S.bidegree
    terms = list(S.terms.items())
    hits = []
    for m in m_points:
        v1, v2 = _fp_line_basis(m, p)
        p_pows = [_fp_form_powers([v1[c], v2[c]], a, p) for c in range(3)]
        p_parts = {}
        for (pe, _le), _c in terms:
            if pe not in p_parts:
                prod = [1]
                for i in range(3):
                    if pe[i]:
                        prod = _fp_conv(prod, p_pows[i][pe[i]], p)
                p_parts[pe] = prod
        for q in q_points:
            if not _fp_dot(q, m, p):
                continue
            l1 = _fp_cross(q, v1, p)
            l2 = _fp_cross(q, v2, p)
            l_pows = [_fp_form_powers([l1[c], l2[c]], b, p) for c in range(3)]
            acc = [0] * (a + b + 1)
            for (pe, le), c in terms:
                prod = p_parts[pe]
                for i in range(3):
                    if le[i]:
                        prod = _fp_conv(prod, l_pows[i][le[i]], p)
                off = a + b + 1 - len(prod)
                for k, pc in enumerate(prod):
                    if pc:
                        acc[k + off] = (acc[k + off] + c * pc) % p
            if not any(acc):
                hits.append((q, m))
    return hits


def _ref_census(S):
    pts = proj_points(S.p)
    return sorted(_ref_census_chunk(S, pts, pts))


# Fixtures and tests.

@pytest.fixture(scope="module")
def spec2():
    return twistor_ruled_surface(VERONESE)


@pytest.fixture(scope="module")
def spec3():
    return twistor_ruled_surface(CUBIC)


@pytest.fixture(scope="module")
def dense22():
    # the member of `mk-surface --a 2 --b 2 --random 3 --seed 14`: the first
    # seed whose member is nonreal with denominators prime to 5 and 13
    conics = random_smooth_conics(SplitMix64(14), 3, height=10)
    F = surface_through_conics(2, 2, conics, seed=14 ^ 0xA5A5)
    assert any(c.im for c in F.terms.values())
    return F


def _random_biform(rng, a, b, density):
    terms = {}
    for key in monomials(a, b):
        if rng.below(100) < density:
            terms[key] = random_gaussian_rational(rng, 9) / GR(rng.int_in(1, 7))
    return BiForm((a, b), terms)


def _scaled_ref_condition_rows(a, b, conics):
    """The reference rows with each conic's block times mu^(a+b) lam^b,
    lam and mu the lcms of the denominators of q's and m's coordinates:
    the Gaussian-integer rows condition_matrix builds from cleared charts."""
    ref = _ref_condition_rows(a, b, conics)
    rows = []
    for k, C in enumerate(conics):
        lam, mu = (lcm(*[d for z in P.rational() for d in (z.re.denominator, z.im.denominator)])
                   for P in (C.q, C.m))
        factor = mu ** (a + b) * lam ** b
        for row in ref[k * (a + b + 1) : (k + 1) * (a + b + 1)]:
            rows.append([(z.re * factor, z.im * factor) for z in row])
    return rows


@pytest.mark.parametrize("a, b, x, seed", [
    (2, 2, 3, 41), (3, 3, 4, 42), (4, 4, 6, 43), (0, 2, 3, 44), (2, 0, 3, 45), (1, 3, 4, 47),
])
def test_condition_rows_match_reference(a, b, x, seed):
    conics = random_smooth_conics(SplitMix64(seed), x, height=10)
    assert condition_matrix(a, b, conics).rows == _scaled_ref_condition_rows(a, b, conics)


def test_condition_rows_at_bidegree_0_0_are_the_constant():
    # the reference cannot restrict the empty monomial; its restriction is 1
    conics = random_smooth_conics(SplitMix64(46), 2, height=10)
    assert condition_matrix(0, 0, conics).rows == [[(1, 0)], [(1, 0)]]


def test_condition_rows_match_reference_on_twistor_fibers(spec3):
    fibers = twistor_circle_samples(spec3, 28)
    assert condition_matrix(3, 3, fibers).rows == _scaled_ref_condition_rows(3, 3, fibers)


def test_restrict_to_conic_matches_reference():
    rng = SplitMix64(77)
    checked = 0
    for a, b in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        for density in (0, 30, 100):
            F = _random_biform(rng, a, b, density)
            for C in random_smooth_conics(rng, 3, height=6):
                r = restrict_to_conic(F, C)
                assert r == _ref_restrict_to_conic(F, C)
                checked += not r.is_zero()
    assert checked > 40


@pytest.mark.parametrize("p", [5, 7, 13])
def test_census_matches_reference_ruled(spec2, p):
    S = reduce_mod_p(spec2.surface, p)
    census = conic_census(S)
    assert census == _ref_census(S)
    assert census


@pytest.mark.parametrize("p", [5, 13])
def test_census_matches_reference_dense_nonreal(dense22, p):
    S = reduce_mod_p(dense22, p)
    assert S.i_image is not None
    census = conic_census(S)
    assert census == _ref_census(S)
    assert census


def test_certificate_matches_reference(spec2, spec3):
    catalog = []
    for path in sorted(glob.glob(os.path.join(FORMS_DIR, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            forms = forms_from_json(json.load(fh))
        catalog.append((forms, twistor_ruled_surface(forms)))
    assert len(catalog) == 13
    for forms, spec in [(VERONESE, spec2), (CUBIC, spec3), *catalog]:
        cert = containment_certificate(spec.ruling, spec.surface)
        assert cert["passed"]
        assert cert == _ref_certificate(forms, spec.surface)
    # a surface that misses the ruling fails at the same chart and parameter
    other = (BinaryForm([1, 0, 1]), BinaryForm([0, 1, 0]), BinaryForm([1, 0, 0]))
    cert = containment_certificate(_integer_ruling(other)[0], spec2.surface)
    assert not cert["passed"]
    assert cert == _ref_certificate(other, spec2.surface)


def test_containment_does_not_depend_on_the_chart():
    # the library restricts along the first nonzero coordinate of m; every
    # reference chart with m_i != 0 agrees on whether the restriction
    # vanishes, on surfaces through the conic (a multiple of p.m or of q.l)
    # and on random ones
    rng = SplitMix64(79)
    units = [tuple(int(u == v) for v in range(3)) for u in range(3)]
    vanished = kept = 0
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        conics = random_smooth_conics(rng, 3, height=6)
        q0 = conics[0].q.rational()
        conics += [Conic(q0, (0, GR(1), GR(2, -1))), Conic(q0, (0, 0, 1))]
        for C in conics:
            q, m = C.q.rational(), C.m.rational()
            pm = BiForm((1, 0), {(units[i], (0, 0, 0)): m[i] for i in range(3) if m[i]})
            ql = BiForm((0, 1), {((0, 0, 0), units[i]): q[i] for i in range(3) if q[i]})
            on = (_random_biform(rng, a - 1, b, 60) * pm, _random_biform(rng, a, b - 1, 60) * ql)
            for F in (*on, _random_biform(rng, a, b, 60)):
                zero = restrict_to_conic(F, C).is_zero()
                for i in (i for i in range(3) if m[i]):
                    assert substitute_curve_forms(F, *_ref_chart_forms(q, m, i)).is_zero() == zero
                vanished += zero
                kept += not zero
    assert (vanished, kept) == (50, 25)


def test_restrict_to_conic_matches_reference_on_edge_inputs():
    tall = random_smooth_conics(SplitMix64(78), 4, height=10**6)
    assert all(any(c.im for c in C.q.coords + C.m.coords) for C in tall)
    for a, b in [(0, 0), (2, 1), (3, 3)]:
        zero = BiForm((a, b))
        for C in tall:
            assert restrict_to_conic(zero, C) == _ref_restrict_to_conic(zero, C)
            assert restrict_to_conic(zero, C) == BinaryForm([0] * (a + b + 1))
    # a (3, 3) member: coefficients of well over 64 bits, on its own conics
    # (contained) and on the tall ones (not)
    conics = random_smooth_conics(SplitMix64(53), 4, height=10)
    F = surface_through_conics(3, 3, conics, seed=53)
    bits = max(max(abs(c.re.numerator), abs(c.im.numerator), c.re.denominator,
                   c.im.denominator).bit_length() for c in F.terms.values())
    assert bits > 64
    for C in conics + tall:
        r = restrict_to_conic(F, C)
        assert r == _ref_restrict_to_conic(F, C)
        assert r.is_zero() == (C in conics)


def test_family_members_contain_their_conics(spec3):
    # family_member has no containment check of its own: the certified
    # kernel is what puts every prescribed conic on its members
    cases = [
        (2, 2, random_smooth_conics(SplitMix64(51), 3, height=10)),
        (3, 3, random_smooth_conics(SplitMix64(52), 4, height=10)),
        (3, 3, twistor_circle_samples(spec3, 28)),
    ]
    for a, b, conics in cases:
        family = surface_family(a, b, conics)
        for seed in (0, 0xA5A5):
            F = family_member(family, seed)
            assert not F.is_zero()
            assert all(_ref_restrict_to_conic(F, C).is_zero() for C in conics)


def test_check_conic_on_a_degenerate_conic_exits_3(capsys, tmp_path, dense22):
    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({"q": ["1", "0", "0"], "m": ["0", "1", "2"]}))
    surface = tmp_path / "surface.json"
    for F in (BiForm((2, 2)), dense22):
        surface.write_text(json.dumps(biform_to_json(F)))
        code = main(["check-conic", "--surface", str(surface), "--conic", str(conic)])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {
            "code": "precondition",
            "message": "cannot parametrize a degenerate conic (q.m = 0)",
        }


@pytest.mark.parametrize("seed", range(4))
def test_singularity_witness_matches_curve_oracle(seed):
    rng = SplitMix64(700 + seed)
    C = random_smooth_conics(rng, 1, height=8)[0]
    G = surface_through_conics(1, 1, [C], seed=seed)
    H = surface_through_conics(1, 0, [], seed=seed)
    K = surface_through_conics(0, 1, [], seed=seed)
    # products with a factor through C, singular where the other factor
    # meets C, and a square, singular along all of C
    kinds = set()
    for F in (G * H, G * K, G * G, G * H * K):
        g = singular_points_on_conic(F, C)
        assert g == _ref_singular_points(F, C)
        kinds.add(g.degree if not g.is_zero() else "whole")
    assert kinds == {1, 2, "whole"}
    # multiples of the incidence form vanish on the flag and are refused
    for F in (incidence_form() * H, incidence_form() * G, incidence_form() * incidence_form()):
        with pytest.raises(PreconditionError, match="the form cuts out no surface"):
            singular_points_on_conic(F, C)


def test_singularity_witness_matches_curve_oracle_on_twistor_fibers(spec2, spec3):
    for spec in (spec2, spec3):
        for C in twistor_circle_samples(spec, 4):
            g = singular_points_on_conic(spec.surface, C)
            assert g == _ref_singular_points(spec.surface, C)
            assert g.degree == 2 * spec.degree - 2
