from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.errors import PreconditionError
from flagcalc.gaussian import GaussianRational

RAT = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
SCALARS = st.builds(GaussianRational, RAT, RAT)
NONZERO = SCALARS.filter(lambda z: not z.is_zero())


def test_modulus_squared():
    z = GaussianRational(1, 1)
    assert z * z.conjugate() == GaussianRational(2)


def test_conjugation():
    z = GaussianRational(Fraction(3, 2), -5)
    assert z.conjugate() == GaussianRational(Fraction(3, 2), 5)
    assert z.conjugate().conjugate() == z


def test_division_by_conjugate():
    z = GaussianRational(1, 1)
    w = z / z.conjugate()
    assert w == GaussianRational(0, 1)
    # back-multiplication recovers the numerator
    assert w * z.conjugate() == z


def test_division_by_zero_rejected():
    with pytest.raises(PreconditionError):
        GaussianRational(1) / GaussianRational(0)


def test_int_coercion():
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
    assert GaussianRational(1) + 1 == GaussianRational(2)


@settings(max_examples=60, derandomize=True)
@given(SCALARS, SCALARS, SCALARS)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, derandomize=True)
@given(NONZERO)
def test_inverse_round_trip(z):
    assert (GaussianRational(1) / z) * z == GaussianRational(1)


@settings(max_examples=60, derandomize=True)
@given(SCALARS, SCALARS)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@settings(max_examples=60, derandomize=True)
@given(SCALARS)
def test_norm_properties(z):
    n = z * z.conjugate()
    assert n.im == 0
    assert n.re >= 0
    assert (n.re == 0) == z.is_zero()
