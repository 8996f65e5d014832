from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.errors import PreconditionError
from flagcalc.gaussian import GaussianRational
from flagcalc.linalg import GaussianInt
from flagcalc.sampling import SplitMix64

from oracles import conjugate

RAT = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
SCALARS = st.builds(GaussianRational, RAT, RAT)
NONZERO = SCALARS.filter(lambda z: not z.is_zero())


def test_modulus_squared():
    z = GaussianRational(1, 1)
    assert z * conjugate(z) == GaussianRational(2)


def test_conjugation():
    z = GaussianRational(Fraction(3, 2), -5)
    assert conjugate(z) == GaussianRational(Fraction(3, 2), 5)
    assert conjugate(conjugate(z)) == z


def test_division_by_conjugate():
    z = GaussianRational(1, 1)
    w = z / conjugate(z)
    assert w == GaussianRational(0, 1)
    # back-multiplication recovers the numerator
    assert w * conjugate(z) == z


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
    assert conjugate(x * y) == conjugate(x) * conjugate(y)


@settings(max_examples=60, derandomize=True)
@given(SCALARS)
def test_norm_properties(z):
    n = z * conjugate(z)
    assert n.im == 0
    assert n.re >= 0
    assert (n.re == 0) == z.is_zero()


def _seeded_gaussian_ints(seed, n, height):
    rng = SplitMix64(seed)
    return [GaussianInt(rng.int_in(-height, height), rng.int_in(-height, height))
            for _ in range(n)]


def test_gaussian_int_floordiv_is_exact_on_products():
    xs = _seeded_gaussian_ints(0x61, 300, 10**30)
    ys = _seeded_gaussian_ints(0x62, 300, 10**12)
    rng = SplitMix64(0x63)
    divided = 0
    for x, y in zip(xs, ys):
        n = rng.int_in(-10**9, 10**9) or 1
        assert (x * n) // n == x and (n * x) // n == x
        if y:
            assert (x * y) // y == x and (y * x) // y == x
            divided += 1
    assert divided > 290
    # unit and real divisors
    for x in xs[:20]:
        assert (x * GaussianInt(0, 1)) // GaussianInt(0, 1) == x
        assert (x * GaussianInt(-7)) // GaussianInt(-7) == x


def test_gaussian_int_conjugate_unpacking_and_bool_as_pairs():
    zs = _seeded_gaussian_ints(0x64, 200, 3) + [GaussianInt(0), GaussianInt(0, 0)]
    assert any(not z for z in zs) and any(not z.re and z.im for z in zs)
    for z in zs:
        re, im = z
        assert (re, im) == (z.re, z.im) == tuple(z)
        assert tuple(z.conjugate()) == (re, -im)
        assert bool(z) is ((re, im) != (0, 0))
        assert z.conjugate().conjugate() == z and hash(z) == hash((re, im))
        assert z != (re, im)  # one type: a pair never equals a GaussianInt
