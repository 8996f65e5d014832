from fractions import Fraction

import pytest

from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm, incidence_form
from flagcalc.errors import PreconditionError
from flagcalc.flag import contains_conic, twistor_fiber_of
from flagcalc.fpcensus import (
    conic_census,
    conics_meet_fp,
    max_disjoint_subset,
    proj_points,
    reduce_mod_p,
    scan_pairs,
    sqrt_minus_one,
)
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.ruled import twistor_ruled_surface

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))


@pytest.fixture(scope="module")
def ruled2():
    return twistor_ruled_surface(VERONESE)


def test_sqrt_minus_one():
    assert sqrt_minus_one(5) == 2
    assert sqrt_minus_one(13) == 5
    with pytest.raises(PreconditionError):
        sqrt_minus_one(7)


def test_proj_point_count():
    for p in (3, 5, 7):
        assert len(proj_points(p)) == p * p + p + 1
        assert len(set(proj_points(p))) == p * p + p + 1


def test_reduce_incidence():
    S = reduce_mod_p(incidence_form(), 7)
    assert S.bidegree == (1, 1)
    assert len(S.terms) == 3
    assert S.i_image is None


def test_reduce_errors():
    F = BiForm.monomial((1, 0, 0), (1, 0, 0), GR(Fraction(1, 7)))
    with pytest.raises(PreconditionError):
        reduce_mod_p(F, 7)
    G = BiForm.monomial((1, 0, 0), (1, 0, 0), GR(0, 1))
    with pytest.raises(PreconditionError):
        reduce_mod_p(G, 7)  # nonreal needs p = 1 mod 4
    assert reduce_mod_p(G, 13).terms  # i -> 5 mod 13
    with pytest.raises(PreconditionError):
        reduce_mod_p(incidence_form(), 9)
    with pytest.raises(PreconditionError):
        reduce_mod_p(BiForm.monomial((1, 0, 0), (1, 0, 0), GR(7)), 7)


def test_reduction_commutes_with_evaluation(ruled2):
    p = 11
    S = reduce_mod_p(ruled2.surface, p)
    # evaluate char-0 surface at integer points, compare mod p
    pt = (3, 1, 4)
    ln = (2, 5, 9)
    v = ruled2.surface.evaluate(tuple(GR(c) for c in pt), tuple(GR(c) for c in ln))
    acc = 0
    for (pe, le), c in S.terms.items():
        t = c
        for i in range(3):
            t = t * pow(pt[i], pe[i], p) * pow(ln[i], le[i], p) % p
        acc = (acc + t) % p
    assert acc == int(v.re) % p


def test_census_incidence_multiple_sanity():
    # every smooth conic lies on the zero locus of the incidence form, so
    # the census is all pairs with q.m != 0: (p^2+p+1) * p^2 of them
    p = 5
    S = reduce_mod_p(incidence_form(), p)
    census = conic_census(S)
    assert len(census) == (p * p + p + 1) * p * p


def test_census_ruled_surface_mod_5(ruled2):
    p = 5
    census = conic_census(reduce_mod_p(ruled2.surface, p))
    assert len(census) >= p + 1
    # all parameter fibers stay smooth mod 5 and appear in the census
    for t in list(range(p)) + [None]:
        q = (1, t, t * t % p) if t is not None else (1, 0, 0)
        assert (q, q) in census


def test_census_mod_7_known_value(ruled2):
    # mod 7 the parameters t in {2,3,4,5} give q.q = t^4+t^2+1 = 0, so only
    # 4 parameter fibers stay smooth; with the two mixed pairs the census
    # has exactly 6 members (independently verified by brute-force point
    # evaluation)
    census = conic_census(reduce_mod_p(ruled2.surface, 7))
    assert len(census) == 6
    smooth_params = [t for t in range(7) if (t**4 + t**2 + 1) % 7]
    assert smooth_params == [0, 1, 6]
    for t in smooth_params:
        q = (1, t, t * t % 7)
        assert (q, q) in census
    assert ((1, 0, 0), (1, 0, 0)) in census  # t = infinity


def test_census_lifted_witness_agreement(ruled2):
    # census decisions on reductions of rational ruling fibers agree with
    # exact containment
    for p in (5, 11):
        census = conic_census(reduce_mod_p(ruled2.surface, p))
        for t in range(p):
            fiber = twistor_fiber_of(tuple(GR(v) for v in (1, t, t * t)))
            assert contains_conic(ruled2.surface, fiber)
            qbar = (1, t % p, t * t % p)
            if sum(c * c for c in qbar) % p:  # reduction stays smooth
                assert (qbar, qbar) in census


def test_max_disjoint_trivial_cases():
    assert max_disjoint_subset([], 5).size == 0
    # two intersecting conics: independent set of size 1
    c1 = ((1, 0, 0), (1, 0, 0))
    c2 = ((1, 0, 0), (1, 1, 0))  # same q: they meet
    assert conics_meet_fp(c1, c2, 5)
    r = max_disjoint_subset([c1, c2], 5)
    assert r.size == 1 and r.exact


def test_max_disjoint_pairwise_disjoint_family(ruled2):
    # rational disjointness of twistor fibers can be lost mod p (the cross
    # product pairing is a norm only over R), so build a family that is
    # pairwise disjoint mod p and check it is returned whole
    p = 11
    census = conic_census(reduce_mod_p(ruled2.surface, p))
    fibers = [c for c in census if c[0] == c[1]]
    family: list = []
    for c in fibers:
        if all(not conics_meet_fp(c, d, p) for d in family):
            family.append(c)
    assert len(family) >= 3
    r = max_disjoint_subset(family, p)
    assert r.exact and r.size == len(family)


def test_max_disjoint_matches_bruteforce(ruled2):
    # exact branch and bound vs exhaustive subset enumeration
    from itertools import combinations

    for p in (5, 7):
        census = conic_census(reduce_mod_p(ruled2.surface, p))
        best = 0
        for r in range(len(census), 0, -1):
            if any(
                all(not conics_meet_fp(a, b, p) for a, b in combinations(sub, 2))
                for sub in combinations(census, r)
            ):
                best = r
                break
        assert max_disjoint_subset(census, p).size == best


def test_census_scale_invariance(ruled2):
    # containment over F_p only depends on the projective classes: scaling
    # q and m by units leaves the restriction's vanishing unchanged, which
    # is why scanning canonical representatives loses nothing
    p = 5
    S = reduce_mod_p(ruled2.surface, p)
    census = set(conic_census(S))
    for q, m in list(census)[:4]:
        for u in (2, 3):
            q2 = tuple(c * u % p for c in q)
            m2 = tuple(c * 3 % p for c in m)
            assert scan_pairs(S, [m2], [q2]) == [(q2, m2)]


def test_max_disjoint_greedy_flagged():
    p = 5
    S = reduce_mod_p(incidence_form(), p)
    census = conic_census(S)
    r = max_disjoint_subset(census, p, limit=24)
    assert not r.exact
    assert r.size >= 1
