import dataclasses
import glob
import json
import os
from fractions import Fraction

import pytest

from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm, proportionality
from flagcalc.errors import PreconditionError
from flagcalc.flag import (
    conics_disjoint,
    contains_conic,
    is_j_invariant,
    j_pullback,
)
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.ruled import (
    _parameter_resultant,
    _real_root_count,
    smoothness_profile,
    twistor_circle_samples,
    twistor_ruled_surface,
)
from flagcalc.sampling import SplitMix64
from flagcalc.serialize import forms_from_json

from oracles import reference_parameter_resultant

FORMS_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures", "forms")

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
CUBIC = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1]))


@pytest.fixture(scope="module")
def spec2():
    return twistor_ruled_surface(VERONESE)


@pytest.fixture(scope="module")
def spec3():
    return twistor_ruled_surface(CUBIC)


def _mono(pe, le, c=1):
    return BiForm.monomial(pe, le, c)


def test_veronese_surface_matches_sylvester_expansion(spec2):
    A = _mono((1, 0, 0), (0, 0, 1)) - _mono((0, 0, 1), (1, 0, 0))
    B = _mono((1, 0, 0), (0, 1, 0)) - _mono((0, 1, 0), (1, 0, 0))
    C = _mono((0, 1, 0), (0, 0, 1)) - _mono((0, 0, 1), (0, 1, 0))
    target = A * A - B * C
    assert proportionality(spec2.surface, target) is not None


def test_bidegree_and_reality(spec2, spec3):
    assert spec2.surface.bidegree == (2, 2)
    assert spec3.surface.bidegree == (3, 3)
    for spec in (spec2, spec3):
        assert all(c.is_real() for c in spec.surface.terms.values())


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
            forms = forms_from_json(json.load(fh))
        assert _parameter_resultant(forms) == reference_parameter_resultant(forms), path


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
            assert _parameter_resultant(forms) == expected


def test_circle_samples_reject_perturbed_surface(spec2):
    # p0^2 l0^2 restricts to p0^2 p1^2 on the fiber over (0, 0, 1)
    bumped = spec2.surface + BiForm.monomial((2, 0, 0), (2, 0, 0))
    with pytest.raises(PreconditionError, match="sampled fiber escapes the surface"):
        twistor_circle_samples(dataclasses.replace(spec2, surface=bumped), 3)


def test_witness_params_verified(spec2):
    for (s, t), C in spec2.witness_params:
        assert C.is_twistor_fiber()
        assert contains_conic(spec2.surface, C)


def test_parameter_fiber_containment(spec2):
    C = twistor_circle_samples(spec2, 3)[1]  # parameter 1: q = (1, 1, 1)
    assert [str(c) for c in C.q.coords] == ["1", "1", "1"]
    assert C.is_smooth and C.is_twistor_fiber()
    assert contains_conic(spec2.surface, C)


def test_common_factor_rejected():
    with pytest.raises(PreconditionError):
        twistor_ruled_surface((BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([1, 0, 0])))


def test_nonreal_coefficients_rejected():
    with pytest.raises(PreconditionError):
        twistor_ruled_surface(
            (BinaryForm([GR(0, 1), 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
        )


def test_degree_one_rejected():
    with pytest.raises(PreconditionError):
        twistor_ruled_surface((BinaryForm([1, 0]), BinaryForm([0, 1]), BinaryForm([1, 1])))


def test_non_birational_rejected():
    # (s^2, t^2, 0) is gcd-free but double covers the line p2 = 0
    with pytest.raises(PreconditionError):
        twistor_ruled_surface((BinaryForm([1, 0, 0]), BinaryForm([0, 0, 1]), BinaryForm([0, 0, 0])))


def test_circle_samples_expected_points(spec2):
    samples = twistor_circle_samples(spec2, 3)
    qs = [[str(c) for c in s.q.coords] for s in samples]
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
    from flagcalc.sampling import random_flag_point

    rng = SplitMix64(271828)
    samples = twistor_circle_samples(spec2, 5)
    hits = 0
    for _ in range(20):
        fp = random_flag_point(rng, height=6)
        on_sample = any(
            not (sum((fp.p.coords[i] * C.m.coords[i] for i in range(3)), GR(0)))
            and not (sum((C.q.coords[i] * fp.l.coords[i] for i in range(3)), GR(0)))
            for C in samples
        )
        if on_sample:
            continue
        if not spec2.surface.evaluate(fp.p.coords, fp.l.coords).is_zero():
            hits += 1
    assert hits >= 15


def test_smoothness_profile_finds_witnesses(spec2):
    prof = smoothness_profile(spec2, fibers=4)
    assert prof["status"] == "singular_witness_found"
    assert prof["certifies_smoothness"] is False
    assert prof["fibers_checked"] == 4
    # on each twistor fiber the two isotropic points of the swept line are
    # singular, so every fiber carries a degree-2 witness
    for entry in prof["fibers"]:
        assert entry["witness"] is not None
        assert entry["witness"]["gcd_degree"] == 2


def test_smoothness_profile_cubic(spec3):
    prof = smoothness_profile(spec3, fibers=3)
    assert prof["certifies_smoothness"] is False
    assert prof["status"] in ("singular_witness_found", "inconclusive")


def test_sturm_root_count():
    # (x - 1)(x - 3) has two real roots; x^2 + 1 none; x^3 - x three
    assert _real_root_count([Fraction(3), Fraction(-4), Fraction(1)]) == 2
    assert _real_root_count([Fraction(1), Fraction(0), Fraction(1)]) == 0
    assert _real_root_count([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]) == 3
    # repeated roots are counted once
    assert _real_root_count([Fraction(1), Fraction(-2), Fraction(1)]) == 1


def test_positivity_check_rejects_real_parameter_zero():
    # f = (s^2 - t^2, st, 0): f.f = (s^2-t^2)^2 + (st)^2 vanishes at no real
    # point, but (s^2-t^2, 0, 0)-style triples with a common real zero of
    # the squared sum must be rejected; build one with f.f(1,1) = 0
    bad = (BinaryForm([1, 0, -1]), BinaryForm([1, -1, 0]), BinaryForm([0, 1, -1]))
    # each vanishes at (1,1): common real root, caught by the gcd test or
    # by Sturm depending on which guard fires first
    with pytest.raises(PreconditionError):
        twistor_ruled_surface(bad)
