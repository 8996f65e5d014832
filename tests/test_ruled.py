import glob
import json
import os
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from flagcalc import linalg, ruled, serialize
from flagcalc.binforms import BinaryForm, zero_form
from flagcalc.biforms import (
    BiForm,
    conv,
    monomials,
    power_table,
    proportional,
    reduce_mod_incidence,
)
from flagcalc.errors import PreconditionError
from flagcalc.flag import (
    ProjPoint,
    conics_disjoint,
    contains_conic,
    is_j_invariant,
    j_pullback,
    singular_points_on_conic,
    substitute_forms,
    twistor_fiber_of,
)
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.ruled import (
    _parameter_resultant,
    containment_certificate,
    twistor_circle_samples,
    twistor_ruled_surface,
)
from flagcalc.sampling import SplitMix64
from flagcalc.serialize import forms_from_json

from oracles import (
    _fiber_at,
    evaluate,
    form_powers,
    incidence_form,
    integer_ruling,
    monomial,
    random_binary_form,
    random_flag_point,
    rank,
    reference_circle_samples,
    reference_parameter_resultant,
    ruling_forms,
)

FORMS_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures", "forms")

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
CUBIC = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1]))


@pytest.fixture(scope="module")
def spec2():
    return twistor_ruled_surface(*integer_ruling(VERONESE))


@pytest.fixture(scope="module")
def spec3():
    return twistor_ruled_surface(*integer_ruling(CUBIC))


def test_veronese_surface_matches_sylvester_expansion(spec2):
    A = monomial((1, 0, 0), (0, 0, 1)) - monomial((0, 0, 1), (1, 0, 0))
    B = monomial((1, 0, 0), (0, 1, 0)) - monomial((0, 1, 0), (1, 0, 0))
    C = monomial((0, 1, 0), (0, 0, 1)) - monomial((0, 0, 1), (0, 1, 0))
    target = A * A - B * C
    assert proportional(spec2.surface, target)


def test_bidegree_and_reality(spec2, spec3):
    assert spec2.surface.bidegree == (2, 2)
    assert spec3.surface.bidegree == (3, 3)
    for spec in (spec2, spec3):
        assert not any(c.im for c in spec.surface.terms.values())


def test_j_symmetry_signs(spec2, spec3):
    # j swaps P and L, and Bez(L, P) = -Bez(P, L): j*S = (-1)^a S exactly
    assert j_pullback(spec2.surface) == spec2.surface
    assert j_pullback(spec3.surface) == -spec3.surface
    assert is_j_invariant(spec2.surface)
    assert is_j_invariant(spec3.surface)


def test_certificates_pass(spec2, spec3):
    assert spec2.certificate["passed"]
    assert spec2.certificate["degree_bound"] == 3 * 4  # a*a + a*2a at a = 2
    assert spec3.certificate["passed"]
    assert spec3.certificate["degree_bound"] == 27
    for chart in spec2.certificate["charts"]:
        assert chart["samples"] == spec2.certificate["degree_bound"] + 1


def test_resultant_matches_sylvester_oracle_on_fixtures():
    paths = sorted(glob.glob(os.path.join(FORMS_DIR, "*.json")))
    assert len(paths) == 13
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spec = twistor_ruled_surface(*forms_from_json(json.load(fh)))
        assert _parameter_resultant(spec.ruling, spec.den) == reference_parameter_resultant(
            ruling_forms(spec)
        ), path


def test_resultant_matches_sylvester_oracle_on_random_rational_triples():
    # the sign (-1)^(a(a+1)/2) is -1 at a = 2 and 5 and +1 at a = 3 and 4,
    # so both parities are pinned, with the den^(2a) scale from the
    # rational coefficients
    rng = SplitMix64(0xB3207)
    for a, count in ((2, 3), (3, 3), (4, 2), (5, 1)):
        for _ in range(count):
            forms = tuple(
                BinaryForm([Fraction(rng.int_in(-9, 9), rng.int_in(1, 9)) for _ in range(a + 1)])
                for _ in range(3)
            )
            expected = reference_parameter_resultant(forms)
            assert not expected.is_zero()
            rows, den = integer_ruling(forms)
            assert _parameter_resultant([[z.re for z in row] for row in rows], den) == expected


def test_witness_params_verified(spec2):
    assert spec2.witness_params == [(0, 1), (1, 1), (2, 1), (3, 1), (1, 0)]
    for s, t in spec2.witness_params:
        C = _fiber_at(ruling_forms(spec2), GR(s), GR(t))
        assert C.is_twistor_fiber()
        assert contains_conic(spec2.surface, C)


def test_integer_fibers_match_qi_oracle_on_fixtures():
    # the integer triples f(k, 1) and f(1, 0) give the same samples as the
    # Q(i) fibers, checked there by restriction and conics_disjoint
    for path in sorted(glob.glob(os.path.join(FORMS_DIR, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            spec = twistor_ruled_surface(*forms_from_json(json.load(fh)))
        forms = ruling_forms(spec)
        for s, t in spec.witness_params:
            assert contains_conic(spec.surface, _fiber_at(forms, GR(s), GR(t))), path
        expected = reference_circle_samples(forms, spec.surface, 9)
        assert twistor_circle_samples(spec, 9) == expected, path


@pytest.mark.parametrize(
    "forms, repeated",
    [
        # t(s-t)(s-2t), s(s-t)(s-2t), t^3: the node is at k = 1 and k = 2
        ((BinaryForm([0, 1, -3, 2]), BinaryForm([1, -3, 2, 0]), BinaryForm([0, 0, 0, 1])), 2),
        # st(s-t), t^2(s-t), s^3: the node is at k = 1 and infinity
        ((BinaryForm([0, 1, -1, 0]), BinaryForm([0, 0, 1, -1]), BinaryForm([1, 0, 0, 0])), None),
    ],
)
def test_circle_samples_skip_the_second_branch_of_a_node(forms, repeated):
    spec = twistor_ruled_surface(*integer_ruling(forms))
    samples = twistor_circle_samples(spec, 6)
    assert len(set(samples)) == 6
    assert samples == reference_circle_samples(forms, spec.surface, 6)
    node = _fiber_at(forms, GR(1), GR(1))
    if repeated is None:
        assert _fiber_at(forms, GR(1), GR(0)) == node
        assert samples[-1] == _fiber_at(forms, GR(5), GR(1))
    else:
        assert _fiber_at(forms, GR(repeated), GR(1)) == node
        assert samples[2] == _fiber_at(forms, GR(3), GR(1))


def test_catalog_samples_are_pairwise_disjoint():
    # the samples are chosen by their points of P2 alone; distinct points
    # must give disjoint fibers by the cross-product criterion
    for path in sorted(glob.glob(os.path.join(FORMS_DIR, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            spec = twistor_ruled_surface(*forms_from_json(json.load(fh)))
        samples = twistor_circle_samples(spec, 49)
        assert all(conics_disjoint(C, D) for i, C in enumerate(samples) for D in samples[:i]), path


def test_circle_samples_skip_infinity_on_a_taken_point():
    # (s t^2, s^2 t, s^3 + t^3) maps both 0 and infinity to (0, 0, 1), so
    # infinity is replaced by the next integer parameter, 1
    forms = (BinaryForm([0, 0, 1, 0]), BinaryForm([0, 1, 0, 0]), BinaryForm([1, 0, 0, 1]))
    spec = twistor_ruled_surface(*integer_ruling(forms))
    assert _fiber_at(forms, GR(1), GR(0)) == _fiber_at(forms, GR(0), GR(1))
    samples = twistor_circle_samples(spec, 2)
    assert samples == [twistor_fiber_of((0, 0, 1)), twistor_fiber_of((1, 1, 2))]
    assert samples == reference_circle_samples(forms, spec.surface, 2)


def test_rational_ruling_matches_its_integer_multiple():
    # denominators 2, 3 and 7 in every form; 42 times the ruling is integral
    rational = (
        BinaryForm([Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7)]),
        BinaryForm([Fraction(3, 7), Fraction(1, 2), Fraction(1, 3), 0]),
        BinaryForm([0, Fraction(-1, 3), Fraction(2, 7), Fraction(3, 2)]),
    )
    integral = tuple(f.scale(42) for f in rational)
    assert all(c.re.denominator == 1 for f in integral for c in f.coeffs)
    spec_q = twistor_ruled_surface(*integer_ruling(rational))
    spec_z = twistor_ruled_surface(*integer_ruling(integral))
    assert spec_q.certificate["passed"]
    assert spec_q.certificate == spec_z.certificate
    assert spec_q.witness_params == spec_z.witness_params
    assert twistor_circle_samples(spec_q, 7) == twistor_circle_samples(spec_z, 7)
    assert proportional(spec_q.surface, spec_z.surface)
    assert spec_q.surface != spec_z.surface


def test_parameter_fiber_containment(spec2):
    C = twistor_circle_samples(spec2, 3)[1]  # parameter 1: q = (1, 1, 1)
    assert [str(c) for c in C.q.rational()] == ["1", "1", "1"]
    assert C.is_smooth and C.is_twistor_fiber()
    assert contains_conic(spec2.surface, C)


def test_common_factor_rejected():
    with pytest.raises(PreconditionError):
        twistor_ruled_surface(
            *integer_ruling((BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([1, 0, 0])))
        )


# the Veronese ruling with f0 = s^2 + i t^2: its real parts are the Veronese
NONREAL = (BinaryForm([1, 0, GR(0, 1)]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))


def test_nonreal_coefficients_rejected():
    with pytest.raises(PreconditionError, match="the forms must have real coefficients"):
        twistor_ruled_surface(*integer_ruling(
            (BinaryForm([GR(0, 1), 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
        ))
    with pytest.raises(PreconditionError, match="the forms must have real coefficients"):
        twistor_ruled_surface(*integer_ruling(NONREAL))


def test_nonreal_forms_rejected_by_certificate(spec2):
    # i times the surface cuts out the same surface, but the certificate
    # restricts over Z and refuses a nonreal coefficient
    with pytest.raises(PreconditionError, match="the integer chart needs real coefficients"):
        containment_certificate(spec2.ruling, spec2.surface.scale(GR(0, 1)))


def test_ruling_is_cleared_once(monkeypatch):
    # the reader clears the ruling, and ruled works on its integer rows
    calls = []

    def spy(scalars):
        calls.append(scalars)
        return cleared(scalars)

    cleared = serialize._cleared
    monkeypatch.setattr(serialize, "_cleared", spy)
    sixth = [["1/6", 0, 0, 0], [0, "1/6", "2/12", 0], [0, 0, 0, "1/6"]]
    spec = twistor_ruled_surface(*forms_from_json({"forms": sixth}))
    twistor_circle_samples(spec, 9)
    assert len(calls) == 1
    assert not hasattr(ruled, "clear_rows")
    assert spec.ruling == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]] and spec.den == 6
    assert (spec.ruling, spec.den) == twistor_ruled_surface(
        *integer_ruling(tuple(f.scale(Fraction(1, 6)) for f in CUBIC))
    )[:2]


def test_degree_one_rejected():
    with pytest.raises(PreconditionError):
        twistor_ruled_surface(
            *integer_ruling((BinaryForm([1, 0]), BinaryForm([0, 1]), BinaryForm([1, 1])))
        )


def test_non_birational_rejected():
    # (s^2, t^2, 0) is gcd-free but double covers the line p2 = 0
    with pytest.raises(PreconditionError, match="not birational"):
        twistor_ruled_surface(
            *integer_ruling((BinaryForm([1, 0, 0]), BinaryForm([0, 0, 1]), BinaryForm([0, 0, 0])))
        )


# (s(t^2 - s^2), t(t^2 - s^2), s^3): the parameters (1, 1) and (1, -1) both
# map to the node (0, 0, 1), and every other image point has one preimage
NODAL = (BinaryForm([-1, 0, 1, 0]), BinaryForm([0, -1, 0, 1]), BinaryForm([1, 0, 0, 0]))


def _probes_on_the_node(monkeypatch, count):
    """Send the first count birationality probes to the parameter (1, 1)."""
    forced = [1, 1] * count

    class Sampler(SplitMix64):
        def int_in(self, lo, hi):
            return forced.pop(0) if forced else super().int_in(lo, hi)

    monkeypatch.setattr(ruled, "SplitMix64", Sampler)
    return forced


def test_one_probe_with_one_preimage_proves_birationality(monkeypatch):
    f = [[z.re for z in row] for row in integer_ruling(NODAL)[0]]
    forced = _probes_on_the_node(monkeypatch, 3)
    with pytest.raises(PreconditionError, match="each have several preimages"):
        ruled._check_birational(f)
    assert not forced
    forced = _probes_on_the_node(monkeypatch, 1)
    spec = twistor_ruled_surface(*integer_ruling(NODAL))
    assert not forced and spec.certificate["passed"]


def test_ruling_needs_three_forms_of_one_degree():
    with pytest.raises(PreconditionError, match="exactly three binary forms"):
        twistor_ruled_surface(*integer_ruling(VERONESE[:2]))
    with pytest.raises(PreconditionError, match="must share one degree"):
        twistor_ruled_surface(*integer_ruling(CUBIC[:2] + VERONESE[2:]))


def test_circle_samples_need_at_least_one(spec2):
    with pytest.raises(PreconditionError, match="need n >= 1 samples"):
        twistor_circle_samples(spec2, 0)


def test_circle_samples_expected_points(spec2):
    samples = twistor_circle_samples(spec2, 3)
    qs = [[str(c) for c in s.q.rational()] for s in samples]
    assert qs == [["0", "0", "1"], ["1", "1", "1"], ["1", "0", "0"]]
    for C in samples:
        assert C.is_twistor_fiber()


def test_circle_samples_pairwise_disjoint(spec2):
    samples = twistor_circle_samples(spec2, 13)
    assert len({(c.q.coords, c.m.coords) for c in samples}) == 13
    for i, C in enumerate(samples):
        for D in samples[:i]:
            assert conics_disjoint(C, D)


def test_surface_nonzero_off_sampled_fibers(spec2):
    # a random flag point away from the sampled conics does not lie on the
    # surface, so the resultant is not spuriously zero and the samples are
    # proper subvarieties
    rng = SplitMix64(271828)
    samples = twistor_circle_samples(spec2, 5)
    hits = 0
    for _ in range(20):
        p, l = (x.rational() for x in random_flag_point(rng, height=6))
        on_sample = any(
            not (sum((p[i] * C.m.rational()[i] for i in range(3)), GR(0)))
            and not (sum((C.q.rational()[i] * l[i] for i in range(3)), GR(0)))
            for C in samples
        )
        if on_sample:
            continue
        if not evaluate(spec2.surface, p, l).is_zero():
            hits += 1
    assert hits >= 15


def _catalog_spec(name):
    with open(os.path.join(FORMS_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return twistor_ruled_surface(*forms_from_json(json.load(fh)))


@pytest.mark.parametrize("name, fibers", [
    ("d2_02", 19), ("d3_00", 34), ("d3_01", 34), ("d4_00", 55)])
def test_certificate_restricts_each_fiber_once(monkeypatch, name, fibers):
    # a fiber's containment does not depend on the chart, so the chart
    # windows and the probes share one restriction per integer triple
    spec = _catalog_spec(name)
    calls = []

    def spy(terms, bidegree, q, m, *rest):
        calls.append(m)
        return substitute_forms(terms, bidegree, q, m, *rest)

    monkeypatch.setattr(ruled, "substitute_forms", spy)
    assert containment_certificate(spec.ruling, spec.surface) == spec.certificate
    assert len(calls) == len(set(calls)) == fibers


@pytest.mark.parametrize("name", ["d2_00", "d3_00"])
def test_singular_gcd_does_not_depend_on_the_representative(name):
    # S + (p.l)G cuts the flag in the same surface as S
    spec = _catalog_spec(name)
    a = spec.degree
    G = BiForm((a - 1, a - 1), {e: k % 5 - 2 for k, e in enumerate(monomials(a - 1, a - 1))})
    other = spec.surface + incidence_form() * G
    assert other != spec.surface
    assert reduce_mod_incidence(other) == reduce_mod_incidence(spec.surface)
    for C in twistor_circle_samples(spec, 4):
        g = singular_points_on_conic(spec.surface, C)
        assert g.degree == 2 * a - 2
        assert singular_points_on_conic(other, C) == g


# the first sample, at parameter (0, 1), lies over a cusp of the plane
# curve f (f(s, 1) has zero derivative at s = 0), and the surface is
# singular along that whole fiber
WHOLE_FIRST_FIBER = {"d3_01", "d3_03", "d3_04", "d3_05", "d4_00"}


def test_catalog_rulings_are_singular_in_2a_minus_2_points_of_a_generic_fiber():
    paths = sorted(glob.glob(os.path.join(FORMS_DIR, "*.json")))
    assert len(paths) == 13
    for path in paths:
        name = os.path.basename(path)[:-5]
        spec = _catalog_spec(name)
        a = spec.degree
        gcds = [singular_points_on_conic(spec.surface, C) for C in twistor_circle_samples(spec, 4)]
        if name in WHOLE_FIRST_FIBER:
            assert gcds[0] == BinaryForm([0] * (2 * a + 1)), name
            gcds = gcds[1:]
        assert [g.degree for g in gcds] == [2 * a - 2] * len(gcds), name
        assert not any(g.is_zero() for g in gcds), name


def _jacobian(F, p, l):
    """The 2 x 6 matrix [grad F; (l, p)] at the flag point (p, l)."""
    grad = [evaluate(F.partial(group, i), p, l) for group in "pl" for i in range(3)]
    return [grad, list(l) + list(p)]


def test_jacobian_has_rank_one_at_the_roots_of_the_singular_gcd(spec2):
    # the fiber over m = (0, 0, 1): chart p = (s, t, 0), l = (-t, s, 0)
    C = twistor_fiber_of(ProjPoint((0, 0, 1)))
    assert singular_points_on_conic(spec2.surface, C) == BinaryForm([1, 0, 1])  # s^2 + t^2

    def point(t):
        return (GR(1), t, GR(0)), (-t, GR(1), GR(0))

    for t in (GR(0, 1), GR(0, -1)):
        p, l = point(t)
        assert evaluate(spec2.surface, p, l).is_zero()
        assert rank(_jacobian(spec2.surface, p, l)) == 1
    assert rank(_jacobian(spec2.surface, *point(GR(2)))) == 2


def test_positivity_check_rejects_real_parameter_zero():
    # f = (s^2 - t^2, st, 0): f.f = (s^2-t^2)^2 + (st)^2 vanishes at no real
    # point, but (s^2-t^2, 0, 0)-style triples with a common real zero of
    # the squared sum must be rejected; build one with f.f(1,1) = 0
    bad = (BinaryForm([1, 0, -1]), BinaryForm([1, -1, 0]), BinaryForm([0, 1, -1]))
    # each vanishes at (1,1): a common real root is a common linear factor
    with pytest.raises(PreconditionError, match="the forms share a common factor"):
        twistor_ruled_surface(*integer_ruling(bad))


def test_positivity_check_rejects_common_root_at_infinity():
    # every f_i is divisible by t, so f.f vanishes at (s, t) = (1, 0)
    bad = (BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]), BinaryForm([0, 1, 1]))
    with pytest.raises(PreconditionError, match="the forms share a common factor"):
        twistor_ruled_surface(*integer_ruling(bad))


def test_positivity_check_rejects_common_conjugate_pair():
    # f.f has no real zero, but the common factor s^2 + t^2 still leaves
    # the triple with a gcd
    bad = (BinaryForm([1, 0, 1, 0]), BinaryForm([0, 1, 0, 1]), BinaryForm([1, 1, 1, 1]))
    with pytest.raises(PreconditionError, match="the forms share a common factor"):
        twistor_ruled_surface(*integer_ruling(bad))


def _implicit_curve(f, a):
    """The kernel of the C(a+2, 2) degree-a ternary monomials evaluated on
    the integer ruling f, a system of a^2 + 1 rows over Z[i], by
    linalg.nullspace: (the exponents, the kernel vectors)."""
    exps = [pe for pe, _ in monomials(a, 0)]
    tables = [power_table(tuple(row), a) for row in f]
    cols = [reduce(conv, [t[e] for t, e in zip(tables, ex)]) for ex in exps]
    rows = [[linalg.GaussianInt(col[k]) for col in cols] for k in range(a * a + 1)]
    return exps, linalg.nullspace(rows, len(exps))


def _pullback_along_cross(g, exps, a) -> BiForm:
    """g(p x l): x_i = p_j l_k - p_k l_j for (i, j, k) cyclic."""
    e = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    x = [BiForm((1, 1), {(e[j], e[k]): 1, (e[k], e[j]): -1})
         for j, k in ((1, 2), (2, 0), (0, 1))]
    one = BiForm((0, 0), {((0, 0, 0), (0, 0, 0)): 1})
    powers = [[one] for _ in range(3)]
    for i in range(3):
        for _ in range(a):
            powers[i].append(powers[i][-1] * x[i])
    G = BiForm((a, a))
    for c, ex in zip(g, exps):
        G = G + reduce(mul, (powers[i][ex[i]] for i in range(3))).scale(c)
    return G


def _seeded_quintic_ruling():
    rng = SplitMix64(0x25A5)
    return tuple(random_binary_form(rng, 5, height=3, real=True) for _ in range(3))


@pytest.mark.parametrize("forms", [
    *(os.path.basename(p)[:-5] for p in sorted(glob.glob(os.path.join(FORMS_DIR, "*.json")))),
    "seeded a = 5",
])
def test_ruled_surface_is_the_pullback_of_the_implicit_curve(forms):
    # S = g(p x l) on the flag for g the implicit equation of the image of
    # f: reduce_mod_incidence of both agree up to scale, and g(f(s, t)) = 0
    # is an identity of binary forms of degree a^2 over Q(i)
    spec = twistor_ruled_surface(*integer_ruling(_seeded_quintic_ruling())) \
        if forms == "seeded a = 5" \
        else _catalog_spec(forms)
    a = spec.degree
    exps, kernel = _implicit_curve(spec.ruling, a)
    assert len(kernel) == 1  # a birational image of degree a has one equation
    (g, _), = kernel
    G = _pullback_along_cross(g, exps, a)
    assert not G.is_zero()
    assert proportional(reduce_mod_incidence(spec.surface), reduce_mod_incidence(G))
    powers = [form_powers(h, a) for h in ruling_forms(spec)]
    acc = zero_form(a * a)
    for c, ex in zip(g, exps):
        acc = acc + reduce(mul, (powers[i][ex[i]] for i in range(3))).scale(GR(c.re, c.im))
    assert acc.is_zero()
