from math import lcm

import pytest

from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm
from flagcalc.errors import DegenerateConicError, PreconditionError
from flagcalc.flag import (
    Conic,
    ProjPoint,
    conics_disjoint,
    contains_conic,
    is_j_invariant,
    j_pullback,
    line_basis,
    restrict_to_conic,
    twistor_fiber_of,
)
from flagcalc.gaussian import GaussianRational as GR, I
from flagcalc.linalg import GaussianInt
from flagcalc.sampling import SplitMix64, random_proj_point, random_smooth_conic
from flagcalc.serialize import point_from_json, point_to_json

from oracles import (
    FlagCurve,
    conic_param,
    conics_meet_bruteforce,
    conjugate,
    curve_bidegree,
    flag_point,
    incidence_form,
    j_conic,
    monomial,
    pivot_one_form,
    random_gaussian_rational,
    restrict_to_curve,
)


def test_proj_point_canonical():
    p = ProjPoint((0, 2, 4))
    assert p.coords == (GaussianInt(0), GaussianInt(1), GaussianInt(2))
    assert p.rational() == (GR(0), GR(1), GR(2))
    assert p == ProjPoint((0, -3, -6))
    with pytest.raises(PreconditionError):
        ProjPoint((0, 0, 0))


def _random_qi(rng, nonzero=False):
    while True:
        z = random_gaussian_rational(rng, 9) / GR(rng.int_in(1, 12))
        if z or not nonzero:
            return z


@pytest.mark.parametrize("pivot", [0, 1, 2])
def test_proj_point_stores_the_cleared_pivot_one_form(pivot):
    # the stored triple is D c, for c the pivot-1 form and D its least
    # common denominator, and any Q(i)* multiple is the same point
    rng = SplitMix64(4600 + pivot)
    for _ in range(60):
        raw = [GR(0)] * pivot + [_random_qi(rng, nonzero=True)]
        raw += [_random_qi(rng) for _ in range(2 - pivot)]
        P = ProjPoint(raw)
        c = pivot_one_form(raw)
        assert P.rational() == c
        assert all(type(z) is GaussianInt and type(z.re) is type(z.im) is int for z in P.coords)
        d = lcm(*(x.denominator for z in c for x in (z.re, z.im)))
        assert P.coords == tuple(GaussianInt(int(z.re * d), int(z.im * d)) for z in c)
        for u in (GR(1), GR(-1), I, -I, _random_qi(rng, nonzero=True)):
            Q = ProjPoint([z * u for z in raw])
            assert Q == P and hash(Q) == hash(P)
        assert point_from_json(point_to_json(P)) == P


@pytest.mark.parametrize("raw", [
    (GR(3, 1), 2, GR(0, 5)),  # pivot at position 0
    (0, GR(1, -2), GR(4, 1)),  # pivot at position 1
    (0, 0, GR(2, 7)),  # pivot at position 2: the point (0, 0, 1), which is real
])
def test_conjugate_is_the_canonical_conjugate(raw):
    x = ProjPoint(raw)
    want = ProjPoint(tuple(conjugate(c) for c in x.rational()))
    got = x.conjugate()
    assert got == want and hash(got) == hash(want)
    assert got.conjugate() == x
    real = raw[:2] == (0, 0)
    assert (not any(c.im for c in got.coords)) == (not any(c.im for c in x.coords)) == real


def test_line_basis_rejects_the_zero_triple():
    with pytest.raises(PreconditionError, match=r"\(0, 0, 0\) is not a projective point"):
        line_basis((0, 0, 0))


def test_line_basis_pivots_on_the_first_nonzero_coordinate():
    assert line_basis((0, 1, 1)) == ((1, 0, 0), (0, -1, 1))


def test_flag_point_incidence_enforced():
    flag_point((1, 0, 0), (0, 1, 0))
    with pytest.raises(PreconditionError):
        flag_point((1, 0, 0), (1, 0, 0))


def test_conic_smoothness_flag():
    assert Conic((1, 0, 0), (1, 0, 0)).is_smooth
    assert not Conic((1, 0, 0), (0, 0, 1)).is_smooth


def test_conic_param_example():
    curve = conic_param(Conic((1, 0, 0), (1, 0, 0)))
    assert [f.coeffs for f in curve.p_forms] == [
        (GR(0), GR(0)),
        (GR(1), GR(0)),
        (GR(0), GR(1)),
    ]
    assert [f.coeffs for f in curve.l_forms] == [
        (GR(0), GR(0)),
        (GR(0), GR(-1)),
        (GR(1), GR(0)),
    ]


def test_conic_param_degenerate_rejected():
    with pytest.raises(DegenerateConicError):
        conic_param(Conic((1, 0, 0), (0, 0, 1)))


def test_conic_param_twistor_fiber():
    C = twistor_fiber_of(ProjPoint((1, I, 0)))
    assert C.m == ProjPoint((1, -I, 0))
    assert C.is_smooth
    curve = conic_param(C)
    # three defining forms vanish along the parametrization
    for const, forms in ((C.m.rational(), curve.p_forms), (C.q.rational(), curve.l_forms)):
        acc = BinaryForm([0, 0])
        for f, c in zip(forms, const):
            acc = acc + f.scale(c)
        assert acc.is_zero()


def test_twistor_fiber_examples():
    assert twistor_fiber_of(ProjPoint((1, 0, 0))) == Conic((1, 0, 0), (1, 0, 0))
    C = twistor_fiber_of(ProjPoint((0, 1, -I)))
    assert C.m == ProjPoint((0, 1, I))
    assert C.is_smooth


def test_j_conic():
    C = Conic((1, 0, 0), (0, 1, 0))
    assert j_conic(C) == Conic((0, 1, 0), (1, 0, 0))
    D = Conic((1, I, 0), (1, 0, I))
    assert j_conic(D) == Conic((1, 0, -I), (1, -I, 0))
    assert j_conic(j_conic(D)) == D


def test_j_involution_and_fixed_points():
    rng = SplitMix64(1009)
    fixed = 0
    for _ in range(1000):
        C = random_smooth_conic(rng, height=5)
        assert j_conic(j_conic(C)) == C
        if j_conic(C) == C:
            fixed += 1
            assert C.is_twistor_fiber()
    for _ in range(100):
        q = random_proj_point(rng, height=5)
        T = twistor_fiber_of(q)
        assert j_conic(T) == T


def test_j_pullback_examples():
    Q = incidence_form()
    assert j_pullback(Q) == Q
    assert j_pullback(monomial((1, 0, 0), (0, 1, 0))) == monomial(
        (0, 1, 0), (1, 0, 0)
    )
    F = monomial((1, 0, 0), (1, 0, 0), I)
    assert j_pullback(F) == monomial((1, 0, 0), (1, 0, 0), -I)
    # involution
    rng = SplitMix64(33)
    G = BiForm(
        (2, 1),
        {
            ((2, 0, 0), (0, 1, 0)): GR(1, 2),
            ((1, 1, 0), (0, 0, 1)): GR(-3),
        },
    )
    assert j_pullback(j_pullback(G)) == G


def test_is_j_invariant():
    Q = incidence_form()
    assert is_j_invariant(Q * Q)
    F = Q + monomial((1, 0, 0), (0, 1, 0))
    assert not is_j_invariant(F)
    with pytest.raises(PreconditionError):
        is_j_invariant(monomial((1, 0, 0), (0, 0, 0)))


def test_restrict_examples():
    C = Conic((1, 0, 0), (1, 0, 0))
    assert restrict_to_conic(incidence_form(), C).is_zero()
    p0 = monomial((1, 0, 0), (0, 0, 0))
    assert restrict_to_conic(p0, C).is_zero()
    p1l1 = monomial((0, 1, 0), (0, 1, 0))
    assert restrict_to_conic(p1l1, C) == BinaryForm([0, -1, 0])
    assert restrict_to_conic(p1l1, C).degree == 2


@pytest.mark.parametrize("bidegree", [(0, 0), (1, 2), (3, 3)])
def test_restrict_zero_form(bidegree):
    C = Conic((1, GR(1, 2), 3), (GR(0, 1), 1, GR(1, 3)))
    assert restrict_to_conic(BiForm(bidegree), C) == BinaryForm([0] * (sum(bidegree) + 1))


def test_contains_examples():
    C = Conic((1, 0, 0), (1, 0, 0))
    skew = monomial((1, 0, 0), (0, 1, 0)) - monomial((0, 1, 0), (1, 0, 0))
    assert contains_conic(skew, C)
    assert not contains_conic(monomial((0, 1, 0), (0, 1, 0)), C)
    assert contains_conic(incidence_form(), C)


def test_contains_invariant_under_scaling():
    rng = SplitMix64(404)
    C = random_smooth_conic(rng)
    F = incidence_form() * monomial((0, 1, 0), (0, 0, 1))
    assert contains_conic(F, C)
    assert contains_conic(F.scale(GR(3, -7)), C)
    C2 = Conic(
        tuple(c * GR(2, 1) for c in C.q.rational()),
        tuple(c * GR(0, 5) for c in C.m.rational()),
    )
    assert contains_conic(F, C2)


def test_disjoint_examples():
    C1 = Conic((1, 0, 0), (1, 0, 0))
    C2 = Conic((0, 1, 0), (0, 1, 0))
    assert conics_disjoint(C1, C2)
    # shared m: the conics always meet (the p.l = 0 condition is one linear
    # constraint on the pencil of points of the common line)
    C3 = Conic((1, 0, 0), (1, 1, 1))
    C4 = Conic((0, 0, 1), (1, 1, 1))
    assert not conics_disjoint(C3, C4)
    assert conics_meet_bruteforce(C3, C4)
    with pytest.raises(PreconditionError):
        conics_disjoint(C1, C1)
    with pytest.raises(DegenerateConicError):
        conics_disjoint(C1, Conic((1, 0, 0), (0, 1, 0)))


def test_distinct_twistor_fibers_always_disjoint():
    rng = SplitMix64(513)
    for _ in range(300):
        q1 = random_proj_point(rng, height=6)
        q2 = random_proj_point(rng, height=6)
        if q1 == q2:
            continue
        assert conics_disjoint(twistor_fiber_of(q1), twistor_fiber_of(q2))


def test_disjoint_agrees_with_bruteforce():
    rng = SplitMix64(606)
    for _ in range(1000):
        C1 = random_smooth_conic(rng, height=4)
        C2 = random_smooth_conic(rng, height=4)
        if C1 == C2:
            continue
        assert conics_disjoint(C1, C2) == (not conics_meet_bruteforce(C1, C2))


def test_curve_bidegree_fiber():
    # pi1-fiber over (1,0,0): constant p, l sweeping the dual line
    curve = FlagCurve(
        (BinaryForm([1]), BinaryForm([0]), BinaryForm([0])),
        (BinaryForm([0, 0]), BinaryForm([1, 0]), BinaryForm([0, 1])),
    )
    assert curve_bidegree(curve) == (0, 1)


def test_curve_bidegree_conic():
    rng = SplitMix64(911)
    C = random_smooth_conic(rng)
    assert curve_bidegree(conic_param(C)) == (1, 1)


def test_curve_bidegree_tangent_developable():
    # p traces the conic p0 p2 = p1^2, l its tangent line: bidegree (2, 2)
    curve = FlagCurve(
        (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1])),
        (BinaryForm([0, 0, 1]), BinaryForm([0, -2, 0]), BinaryForm([1, 0, 0])),
    )
    assert curve_bidegree(curve) == (2, 2)


def test_curve_bidegree_gcd_reduction():
    # l = p x c with c = (1,1,1) on the image conic: the l-triple picks up
    # the common factor (s - t), so the second pairing degree drops to 1
    p_forms = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
    l_forms = (
        BinaryForm([0, 1, -1]),  # st - t^2
        BinaryForm([-1, 0, 1]),  # t^2 - s^2
        BinaryForm([1, -1, 0]),  # s^2 - st
    )
    curve = FlagCurve(p_forms, l_forms)
    assert curve_bidegree(curve) == (2, 1)


def test_restrict_to_curve_incidence_is_zero():
    rng = SplitMix64(1234)
    C = random_smooth_conic(rng)
    assert restrict_to_curve(incidence_form(), conic_param(C)).is_zero()
