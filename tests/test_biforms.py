from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.biforms import (
    BiForm,
    monomials,
    mul_terms,
    proportional,
    quotient_monomials,
    reduce_mod_incidence,
)
from flagcalc.errors import PreconditionError
from flagcalc.flag import j_pullback
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.invariants import h0_flag
from flagcalc.linalg import GaussianInt
from flagcalc.sampling import SplitMix64

from oracles import (
    evaluate,
    incidence_form,
    monomial,
    qi_j_pullback,
    qi_partial,
    qi_product,
    qi_ratio,
    qi_reduce,
    qi_scale,
    qi_sum,
    qi_terms,
    random_flag_point,
    random_gaussian_rational,
)


def _random_biform(rng, a, b, height=5, density=3):
    terms = {}
    for key in monomials(a, b):
        if rng.below(density) == 0:
            terms[key] = random_gaussian_rational(rng, height)
    return BiForm((a, b), terms)


def test_incidence_values():
    Q = incidence_form()
    assert evaluate(Q, (1, 0, 0), (0, 1, 0)).is_zero()
    assert evaluate(Q, (1, 0, 0), (1, 0, 0)) == GR(1)


def test_eval_example():
    F = monomial((1, 0, 0), (0, 1, 0)) - monomial((0, 1, 0), (1, 0, 0))
    assert evaluate(F, (1, 2, 0), (3, 1, 0)) == GR(-5)


def test_mul_identity():
    F = monomial((1, 0, 0), (0, 1, 0), GR(2, 1))
    one = BiForm((0, 0), {((0, 0, 0), (0, 0, 0)): 1})
    assert F * one == F


def test_mul_cross_term():
    # (p0 l0 + p1 l1)^2 has cross term 2 p0 p1 l0 l1
    F = BiForm((1, 1), {((1, 0, 0), (1, 0, 0)): 1, ((0, 1, 0), (0, 1, 0)): 1})
    sq = F * F
    assert qi_terms(sq)[((1, 1, 0), (1, 1, 0))] == GR(2)
    assert sq.bidegree == (2, 2)


def test_mul_matches_eval():
    rng = SplitMix64(5150)
    F = _random_biform(rng, 2, 1)
    G = _random_biform(rng, 1, 2)
    H = F * G
    for _ in range(5):
        p = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
        l = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
        assert evaluate(H, p, l) == evaluate(F, p, l) * evaluate(G, p, l)


def test_bihomogeneity():
    rng = SplitMix64(8080)
    F = _random_biform(rng, 2, 3)
    p = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
    l = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
    lam = GR(2, 1)
    mu = GR(-1, 3)
    lhs = evaluate(F, tuple(lam * x for x in p), tuple(mu * x for x in l))
    assert lhs == lam * lam * mu * mu * mu * evaluate(F, p, l)


def test_add_bidegree_mismatch_rejected():
    with pytest.raises(PreconditionError):
        incidence_form() + monomial((1, 0, 0), (0, 0, 0))


def test_bad_exponents_rejected():
    with pytest.raises(PreconditionError):
        BiForm((1, 1), {((2, 0, 0), (1, 0, 0)): 1})


def test_monomial_counts():
    assert len(monomials(2, 2)) == 36
    for a, b in [(1, 1), (2, 2), (3, 3), (2, 4)]:
        assert len(quotient_monomials(a, b)) == h0_flag(a, b)


def test_monomial_order_is_descending_lex():
    ms = monomials(1, 1)
    assert ms[0] == ((1, 0, 0), (1, 0, 0))
    assert ms == sorted(ms, reverse=True)


def test_reduce_incidence_to_zero():
    assert reduce_mod_incidence(incidence_form()).is_zero()


def test_reduce_kills_incidence_multiples():
    rng = SplitMix64(77)
    G = _random_biform(rng, 1, 2)
    assert reduce_mod_incidence(incidence_form() * G).is_zero()


def test_reduce_idempotent_and_supported_on_quotient():
    rng = SplitMix64(78)
    F = _random_biform(rng, 2, 2)
    R = reduce_mod_incidence(F)
    allowed = set(quotient_monomials(2, 2))
    assert set(R.terms) <= allowed
    assert reduce_mod_incidence(R) == R


def test_reduce_preserves_values_on_flag():
    # F and its reduction differ by an incidence multiple, so they agree
    # at every point of the flag
    rng = SplitMix64(79)
    F = _random_biform(rng, 2, 2)
    R = reduce_mod_incidence(F)
    for _ in range(6):
        p, l = (x.rational() for x in random_flag_point(rng))
        assert evaluate(F, p, l) == evaluate(R, p, l)


def test_partial_derivative():
    F = monomial((2, 0, 0), (0, 1, 0), GR(3))
    d = F.partial("p", 0)
    assert d == monomial((1, 0, 0), (0, 1, 0), GR(6))
    assert F.partial("p", 1).is_zero()
    assert F.partial("l", 1) == monomial((2, 0, 0), (0, 0, 0), GR(3))


def test_partial_in_either_group_leaves_no_zero_term():
    # p0 l1 + p1 l0: d/dp0 keeps one term, d/dp2 none, and the l side is
    # the p side of the j-pullback pulled back again
    F = BiForm((1, 1), {((1, 0, 0), (0, 1, 0)): 1, ((0, 1, 0), (1, 0, 0)): 1})
    assert qi_terms(F.partial("p", 0)) == {((0, 0, 0), (0, 1, 0)): GR(1)}
    d = F.partial("p", 2)
    assert d.terms == {} and d.bidegree == (0, 1)
    rng = SplitMix64(81)
    G = _random_biform(rng, 2, 3)
    for i in range(3):
        assert G.partial("l", i) == j_pullback(j_pullback(G).partial("p", i))
        assert all(G.partial("l", i).terms.values())
    assert monomial((0, 0, 0), (1, 0, 0)).partial("p", 0) == BiForm((0, 1))
    for group in ("q", "", "pl"):
        with pytest.raises(PreconditionError, match="group must be"):
            F.partial(group, 0)


def test_add_of_the_negative_has_no_terms():
    F = _random_biform(SplitMix64(82), 2, 2)
    assert F.terms
    assert (F + (-F)).terms == {}
    assert (F - F).terms == {}


def test_product_with_cancelling_cross_terms():
    # (p0 l1 + p1 l0)(p0 l1 - p1 l0) = p0^2 l1^2 - p1^2 l0^2: the cross
    # terms p0 p1 l0 l1 cancel and leave no key behind
    u = BiForm((1, 1), {((1, 0, 0), (0, 1, 0)): 1, ((0, 1, 0), (1, 0, 0)): 1})
    v = BiForm((1, 1), {((1, 0, 0), (0, 1, 0)): 1, ((0, 1, 0), (1, 0, 0)): -1})
    assert qi_terms(u * v) == {((2, 0, 0), (0, 2, 0)): GR(1), ((0, 2, 0), (2, 0, 0)): GR(-1)}


def test_reduce_leaves_no_zero_term_when_terms_cancel():
    # p0 l0 + p1 l1 reduces to -p2 l2; the p1 l1 terms cancel in the branch
    # of whichever term comes second
    p0l0, p1l1 = ((1, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 1, 0))
    for order in ((p0l0, p1l1), (p1l1, p0l0)):
        F = BiForm((1, 1), {key: 1 for key in order})
        assert qi_terms(reduce_mod_incidence(F)) == {((0, 0, 1), (0, 0, 1)): GR(-1)}
    # (p1 l1 + p2 l2) times the incidence form, expanded: every term cancels
    G = BiForm((2, 2), {((1, 1, 0), (1, 1, 0)): 1, ((0, 2, 0), (0, 2, 0)): 1,
                        ((1, 0, 1), (1, 0, 1)): 1, ((0, 1, 1), (0, 1, 1)): 2,
                        ((0, 0, 2), (0, 0, 2)): 1})
    assert reduce_mod_incidence(G).terms == {}


def test_mul_terms_over_int_matches_biform_product():
    rng = SplitMix64(83)
    for (a1, b1), (a2, b2) in [((1, 1), (1, 1)), ((2, 1), (1, 2)), ((0, 2), (3, 0))]:
        t1 = {k: rng.int_in(-2, 2) for k in monomials(a1, b1)}
        t2 = {k: rng.int_in(-2, 2) for k in monomials(a2, b2)}
        out = {}
        mul_terms(t1, t2, out)
        want = BiForm((a1, b1), t1) * BiForm((a2, b2), t2)
        assert {k: GR(c) for k, c in out.items() if c} == qi_terms(want)
        assert all(type(c) is int for c in out.values())


def test_proportionality():
    F = incidence_form()
    assert proportional(F.scale(GR(0, 2)), F) and qi_ratio(F.scale(GR(0, 2)), F) == GR(0, 2)
    G = F + monomial((1, 0, 0), (0, 1, 0))
    assert not proportional(G, F) and qi_ratio(G, F) is None


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_quotient_count_formula(a, b):
    assert len(quotient_monomials(a, b)) == h0_flag(a, b)


_PART = st.fractions(min_value=-30, max_value=30, max_denominator=24)
_SCALAR = st.builds(GR, _PART, _PART)


def _qi_terms(a, b):
    return st.dictionaries(st.sampled_from(monomials(a, b)), _SCALAR, max_size=8)


def _assert_canonical(F, want):
    # den is the lcm of the lowest-terms denominators of the Q(i) terms
    # want, and shares no factor with every stored part
    assert qi_terms(F) == want
    assert F.den == lcm(*(c.denominator for z in want.values() for c in (z.re, z.im)))
    assert gcd(F.den, *(x for z in F.terms.values() for x in (z.re, z.im))) == 1


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_stored_form_is_canonical_and_arithmetic_matches_qi(data):
    a, b = data.draw(st.sampled_from([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]))
    t1, t2 = data.draw(_qi_terms(a, b)), data.draw(_qi_terms(a, b))
    c = data.draw(_SCALAR)
    F, G = BiForm((a, b), t1), BiForm((a, b), t2)
    f, g = ({k: z for k, z in t.items() if z} for t in (t1, t2))
    _assert_canonical(F, f)
    _assert_canonical(G, g)
    _assert_canonical(F + G, qi_sum(f, g))
    _assert_canonical(F - G, qi_sum(f, qi_scale(g, GR(-1))))
    _assert_canonical(-F, qi_scale(f, GR(-1)))
    _assert_canonical(F.scale(c), qi_scale(f, c))
    k, j = data.draw(st.integers(-30, 30)), data.draw(st.integers(-30, 30))
    _assert_canonical(k * F, qi_scale(f, GR(k)))  # an int scalar, as the constructor takes
    _assert_canonical(F.scale(GaussianInt(k, j)), qi_scale(f, GR(k, j)))
    _assert_canonical(F * G, qi_product(f, g))
    _assert_canonical(reduce_mod_incidence(F), qi_reduce(f))
    _assert_canonical(j_pullback(F), qi_j_pullback(f))
    for group, i in [("p", 0), ("p", 2), ("l", 1)]:
        if F.bidegree["pl".index(group)]:
            _assert_canonical(F.partial(group, i), qi_partial(f, group, i))
    for H, K in [(F, G), (F.scale(c), F), (F, F.scale(c)), (j_pullback(F), F), (F, F + G)]:
        if H.bidegree == K.bidegree:
            assert proportional(H, K) == (qi_ratio(H, K) is not None)
