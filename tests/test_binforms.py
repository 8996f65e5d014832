from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.binforms import (
    BinaryForm,
    bf_gcd,
    zero_form,
)
from flagcalc.biforms import conv, form_gcd
from flagcalc.errors import PreconditionError
from flagcalc.gaussian import GaussianRational as GR, I
from flagcalc.linalg import GaussianInt
from flagcalc.sampling import SplitMix64

from oracles import (
    bf_div_exact,
    bf_divides,
    bf_evaluate,
    random_binary_form,
    random_gaussian_rational,
    reference_gcd,
    sylvester_resultant,
)


def test_eval_examples():
    assert bf_evaluate(BinaryForm([1, 0, 1]), 1, I).is_zero()  # s^2 + t^2 at (1, i)
    assert bf_evaluate(BinaryForm([0, 1]), 1, 0).is_zero()  # st at (1, 0): t factor
    assert bf_evaluate(BinaryForm([1, 1, 1]), 2, 1) == GR(7)


def test_eval_homogeneity():
    f = BinaryForm([2, -1, 3, 5])
    lam = GR(3, 2)
    s, t = GR(2, -1), GR(1, 4)
    assert bf_evaluate(f, lam * s, lam * t) == lam * lam * lam * bf_evaluate(f, s, t)


def test_product_and_difference_match_pointwise_values():
    rng = SplitMix64(2718)
    for d1, d2 in [(0, 3), (1, 1), (2, 4), (4, 2)]:
        f, g = random_binary_form(rng, d1), random_binary_form(rng, d2)
        h = random_binary_form(rng, d1)
        assert (f * g).degree == d1 + d2
        assert (f - f).is_zero() and (f - h) == f + (-h)
        for _ in range(4):
            s, t = random_gaussian_rational(rng, 6), random_gaussian_rational(rng, 6)
            assert bf_evaluate(f * g, s, t) == bf_evaluate(f, s, t) * bf_evaluate(g, s, t)
            assert bf_evaluate(f - h, s, t) == bf_evaluate(f, s, t) - bf_evaluate(h, s, t)


def test_endpoint_coefficients():
    f = BinaryForm([4, 7, -2])
    assert bf_evaluate(f, 1, 0) == GR(4)
    assert bf_evaluate(f, 0, 1) == GR(-2)


def test_gcd_examples():
    assert bf_gcd(BinaryForm([1, 0, -1]), BinaryForm([1, -1])) == BinaryForm([1, -1])
    assert bf_gcd(BinaryForm([1, 0, 0]), BinaryForm([0, 0, 1])) == BinaryForm([1])
    g = bf_gcd(BinaryForm([1, 0, -1, 0]), BinaryForm([0, 1, 0, -1]))
    assert g == BinaryForm([1, 0, -1])


def test_gcd_divides_both():
    rng = SplitMix64(314)
    for _ in range(40):
        f = random_binary_form(rng, rng.int_in(1, 4))
        g = random_binary_form(rng, rng.int_in(1, 4))
        d = bf_gcd(f, g)
        assert bf_divides(d, f)
        assert bf_divides(d, g)


def _qi(u) -> BinaryForm:
    """A coefficient sequence over Z or Z[i] as a Q(i) form."""
    return BinaryForm([GR(c.re, c.im) if isinstance(c, GaussianInt) else c for c in u])


def _check_gcd(u, v):
    # the fraction-free gcd and bf_gcd over it against the Q(i) Euclid
    expected = reference_gcd(_qi(u), _qi(v))
    assert bf_gcd(_qi(u), _qi(v)) == expected
    assert bf_gcd(_qi(u).scale(Fraction(2, 3)), _qi(v).scale(GR(Fraction(1, 5), 1))) == expected
    w = form_gcd(u, v)
    assert len(w) - 1 == expected.degree
    assert _qi(w).normalized() == expected
    return expected.degree


def _product(*factors):
    """The product of coefficient sequences, every entry of one type."""
    out = factors[0]
    for f in factors[1:]:
        out = conv(out, f)
    zero = 0 * factors[0][0]
    return [c or zero for c in out]


def _sequences(gaussian: bool, max_degree: int):
    part = st.integers(-6, 6)
    coeff = st.builds(GaussianInt, part, part) if gaussian else part
    return st.lists(coeff, min_size=1, max_size=max_degree + 1).filter(any)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_fraction_free_gcd_matches_the_qi_euclid(data):
    # a planted common factor with powers of s (trailing zeros) and of t
    # (leading zeros), over Z or Z[i]
    gaussian = data.draw(st.booleans())
    one = GaussianInt(1) if gaussian else 1
    s_power, t_power = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    monomial = [0 * one] * t_power + [one] + [0 * one] * s_power  # s^s_power t^t_power
    common = _product(monomial, data.draw(_sequences(gaussian, 3)))
    u = _product(common, data.draw(_sequences(gaussian, 4)))
    v = _product(common, data.draw(_sequences(gaussian, 4)))
    assert _check_gcd(u, v) >= len(common) - 1


@pytest.mark.parametrize("gaussian", [False, True], ids=["Z", "Z[i]"])
def test_fraction_free_gcd_edge_cases(gaussian):
    def seq(*cs):
        return [GaussianInt(c, c % 3 - 1 if c else 0) if gaussian else c for c in cs]

    f, g = seq(1, 0, 1), seq(1, 0, -1)  # s^2 + t^2 and s^2 - t^2
    assert _check_gcd(f, g) == 0
    h = _product(f, seq(2, -3))
    assert _check_gcd(h, f) == _check_gcd(f, h) == 2  # one divides the other
    assert _check_gcd(h, h) == 3  # equal forms
    assert _check_gcd(seq(5), h) == _check_gcd(h, seq(0, 0, 7)) == 0  # a constant, t^2
    # a degree-12 pair with a degree-5 common factor holding s^2 and t
    common = _product(seq(0, 1), seq(1, 0), seq(1, 0), seq(3, -1, 2))
    u = _product(common, seq(1, 4, -2, 0, 5, 1, -3, 2))
    v = _product(common, seq(2, -1, 0, 3, 3, -4, 1, -1))
    assert len(u) == len(v) == 13
    assert _check_gcd(u, v) == 5


def test_sum_of_different_degrees_rejected():
    assert BinaryForm([1, 0]) + BinaryForm([0, 2]) == BinaryForm([1, 2])
    with pytest.raises(PreconditionError, match="cannot add binary forms of different degree"):
        BinaryForm([1, 0]) + BinaryForm([1, 0, 0])


def test_gcd_both_zero_rejected():
    with pytest.raises(PreconditionError):
        bf_gcd(zero_form(2), zero_form(1))


def test_div_exact():
    f = BinaryForm([1, -1]) * BinaryForm([1, 2, 3])
    assert bf_div_exact(f, BinaryForm([1, -1])) == BinaryForm([1, 2, 3])
    with pytest.raises(PreconditionError):
        bf_div_exact(BinaryForm([1, 0, 1]), BinaryForm([1, -1]))


def test_resultant_examples():
    assert sylvester_resultant(BinaryForm([1, 0]), BinaryForm([0, 1])) == GR(1)
    assert sylvester_resultant(BinaryForm([1, -1]), BinaryForm([1, -1])).is_zero()
    assert sylvester_resultant(BinaryForm([1, 0, 1]), BinaryForm([1, 0, -1])) == GR(4)


def test_resultant_cofactor_oracle():
    # 4x4 Sylvester determinant of (s^2+t^2, s^2-t^2) expanded by hand
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, -1, 0],
        [0, 1, 0, -1],
    ]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = 0
        for j, pivot in enumerate(mat[0]):
            if pivot:
                minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
                total += (-1) ** j * pivot * det(minor)
        return total

    assert det(rows) == 4
    assert sylvester_resultant(BinaryForm([1, 0, 1]), BinaryForm([1, 0, -1])) == GR(det(rows))


def test_resultant_gcd_duality():
    # zero resultant exactly when the gcd has positive degree
    rng = SplitMix64(2718)
    checked = 0
    while checked < 120:
        d = rng.int_in(1, 4)
        if rng.below(3) == 0:
            # force a shared root to hit both sides of the equivalence
            common = random_binary_form(rng, 1, height=4)
            f = common * random_binary_form(rng, d - 1, height=4) if d > 1 else common
            g = common * random_binary_form(rng, d - 1, height=4) if d > 1 else common
        else:
            f = random_binary_form(rng, d, height=6)
            g = random_binary_form(rng, d, height=6)
        if f.is_zero() or g.is_zero():
            continue
        res = sylvester_resultant(f, g)
        assert res.is_zero() == (bf_gcd(f, g).degree >= 1)
        checked += 1


def test_resultant_multiplicative():
    # Res(f1*f2, g) = Res(f1, g) * Res(f2, g); needs the mixed-degree
    # Sylvester determinant since the factors have smaller degree
    rng = SplitMix64(99)
    for _ in range(25):
        f1 = random_binary_form(rng, rng.int_in(1, 2), height=5)
        f2 = random_binary_form(rng, rng.int_in(1, 2), height=5)
        g = random_binary_form(rng, rng.int_in(1, 3), height=5)
        lhs = sylvester_resultant(f1 * f2, g)
        rhs = sylvester_resultant(f1, g) * sylvester_resultant(f2, g)
        assert lhs == rhs
