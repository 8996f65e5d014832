import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.biforms import (
    BiForm,
    incidence_form,
    monomials,
    mul_terms,
    proportionality,
    quotient_monomials,
    reduce_mod_incidence,
)
from flagcalc.errors import PreconditionError
from flagcalc.flag import j_pullback
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.invariants import h0_flag
from flagcalc.sampling import SplitMix64, random_gaussian_rational

from oracles import random_flag_point


def _random_biform(rng, a, b, height=5, density=3):
    terms = {}
    for key in monomials(a, b):
        if rng.below(density) == 0:
            terms[key] = random_gaussian_rational(rng, height)
    return BiForm((a, b), terms)


def test_incidence_values():
    Q = incidence_form()
    assert Q.evaluate((1, 0, 0), (0, 1, 0)).is_zero()
    assert Q.evaluate((1, 0, 0), (1, 0, 0)) == GR(1)


def test_eval_example():
    F = BiForm.monomial((1, 0, 0), (0, 1, 0)) - BiForm.monomial((0, 1, 0), (1, 0, 0))
    assert F.evaluate((1, 2, 0), (3, 1, 0)) == GR(-5)


def test_mul_identity():
    F = BiForm.monomial((1, 0, 0), (0, 1, 0), GR(2, 1))
    one = BiForm((0, 0), {((0, 0, 0), (0, 0, 0)): 1})
    assert F * one == F


def test_mul_cross_term():
    # (p0 l0 + p1 l1)^2 has cross term 2 p0 p1 l0 l1
    F = BiForm((1, 1), {((1, 0, 0), (1, 0, 0)): 1, ((0, 1, 0), (0, 1, 0)): 1})
    sq = F * F
    assert sq.terms[((1, 1, 0), (1, 1, 0))] == GR(2)
    assert sq.bidegree == (2, 2)


def test_mul_matches_eval():
    rng = SplitMix64(5150)
    F = _random_biform(rng, 2, 1)
    G = _random_biform(rng, 1, 2)
    H = F * G
    for _ in range(5):
        p = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
        l = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
        assert H.evaluate(p, l) == F.evaluate(p, l) * G.evaluate(p, l)


def test_bihomogeneity():
    rng = SplitMix64(8080)
    F = _random_biform(rng, 2, 3)
    p = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
    l = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
    lam = GR(2, 1)
    mu = GR(-1, 3)
    lhs = F.evaluate(tuple(lam * x for x in p), tuple(mu * x for x in l))
    assert lhs == lam * lam * mu * mu * mu * F.evaluate(p, l)


def test_add_bidegree_mismatch_rejected():
    with pytest.raises(PreconditionError):
        incidence_form() + BiForm.monomial((1, 0, 0), (0, 0, 0))


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
        fp = random_flag_point(rng)
        p, l = fp.p.rational(), fp.l.rational()
        assert F.evaluate(p, l) == R.evaluate(p, l)


def test_partial_derivative():
    F = BiForm.monomial((2, 0, 0), (0, 1, 0), GR(3))
    d = F.partial("p", 0)
    assert d == BiForm.monomial((1, 0, 0), (0, 1, 0), GR(6))
    assert F.partial("p", 1).is_zero()
    assert F.partial("l", 1) == BiForm.monomial((2, 0, 0), (0, 0, 0), GR(3))


def test_partial_in_either_group_leaves_no_zero_term():
    # p0 l1 + p1 l0: d/dp0 keeps one term, d/dp2 none, and the l side is
    # the p side of the j-pullback pulled back again
    F = BiForm((1, 1), {((1, 0, 0), (0, 1, 0)): 1, ((0, 1, 0), (1, 0, 0)): 1})
    assert F.partial("p", 0).terms == {((0, 0, 0), (0, 1, 0)): GR(1)}
    d = F.partial("p", 2)
    assert d.terms == {} and d.bidegree == (0, 1)
    rng = SplitMix64(81)
    G = _random_biform(rng, 2, 3)
    for i in range(3):
        assert G.partial("l", i) == j_pullback(j_pullback(G).partial("p", i))
        assert all(G.partial("l", i).terms.values())
    assert BiForm.monomial((0, 0, 0), (1, 0, 0)).partial("p", 0) == BiForm((0, 1))
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
    assert (u * v).terms == {((2, 0, 0), (0, 2, 0)): GR(1), ((0, 2, 0), (2, 0, 0)): GR(-1)}


def test_reduce_leaves_no_zero_term_when_terms_cancel():
    # p0 l0 + p1 l1 reduces to -p2 l2; the p1 l1 terms cancel in the branch
    # of whichever term comes second
    p0l0, p1l1 = ((1, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 1, 0))
    for order in ((p0l0, p1l1), (p1l1, p0l0)):
        F = BiForm((1, 1), {key: 1 for key in order})
        assert reduce_mod_incidence(F).terms == {((0, 0, 1), (0, 0, 1)): GR(-1)}
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
        assert {k: GR(c) for k, c in out.items() if c} == want.terms
        assert all(type(c) is int for c in out.values())


def test_proportionality():
    F = incidence_form()
    assert proportionality(F.scale(GR(0, 2)), F) == GR(0, 2)
    G = F + BiForm.monomial((1, 0, 0), (0, 1, 0))
    assert proportionality(G, F) is None


@settings(max_examples=30, derandomize=True)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_quotient_count_formula(a, b):
    assert len(quotient_monomials(a, b)) == h0_flag(a, b)
