import pytest

from flagcalc.binforms import (
    BinaryForm,
    bf_gcd,
    zero_form,
)
from flagcalc.errors import PreconditionError
from flagcalc.gaussian import GaussianRational as GR, I
from flagcalc.sampling import SplitMix64, random_gaussian_rational

from oracles import bf_div_exact, bf_divides, random_binary_form, sylvester_resultant


def test_eval_examples():
    assert BinaryForm([1, 0, 1]).evaluate(1, I).is_zero()  # s^2 + t^2 at (1, i)
    assert BinaryForm([0, 1]).evaluate(1, 0).is_zero()  # st at (1, 0): t factor
    assert BinaryForm([1, 1, 1]).evaluate(2, 1) == GR(7)


def test_eval_homogeneity():
    f = BinaryForm([2, -1, 3, 5])
    lam = GR(3, 2)
    s, t = GR(2, -1), GR(1, 4)
    assert f.evaluate(lam * s, lam * t) == lam * lam * lam * f.evaluate(s, t)


def test_product_and_difference_match_pointwise_values():
    rng = SplitMix64(2718)
    for d1, d2 in [(0, 3), (1, 1), (2, 4), (4, 2)]:
        f, g = random_binary_form(rng, d1), random_binary_form(rng, d2)
        h = random_binary_form(rng, d1)
        assert (f * g).degree == d1 + d2
        assert (f - f).is_zero() and (f - h) == f + (-h)
        for _ in range(4):
            s, t = random_gaussian_rational(rng, 6), random_gaussian_rational(rng, 6)
            assert (f * g).evaluate(s, t) == f.evaluate(s, t) * g.evaluate(s, t)
            assert (f - h).evaluate(s, t) == f.evaluate(s, t) - h.evaluate(s, t)


def test_endpoint_coefficients():
    f = BinaryForm([4, 7, -2])
    assert f.evaluate(1, 0) == GR(4)
    assert f.evaluate(0, 1) == GR(-2)


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
