import random

import pytest

from flagcalc.errors import PreconditionError
from flagcalc.modp import I_MOD, PRIME, canonical, echelon, is_odd_prime, sqrt_minus_one
from flagcalc.sampling import SplitMix64

from oracles import rank_int


def _sieve(n):
    is_p = [False, False] + [True] * (n - 2)
    for d in range(2, int(n**0.5) + 1):
        if is_p[d]:
            is_p[d * d :: d] = [False] * len(range(d * d, n, d))
    return is_p


def test_sqrt_minus_one_matches_exhaustive_search():
    primes = [p for p, flag in enumerate(_sieve(5000)) if flag and p % 4 == 1]
    assert len(primes) == 329
    for p in primes:
        smallest = next(x for x in range(2, p) if x * x % p == p - 1)
        assert sqrt_minus_one(p) == smallest, p


def test_sqrt_minus_one_at_the_interpolation_prime():
    assert I_MOD == sqrt_minus_one(PRIME) == 583529827753931384
    assert (I_MOD * I_MOD + 1) % PRIME == 0


@pytest.mark.parametrize("n", [1, 9, 21, 33, 45, -3, 7, 2, 3])
def test_sqrt_minus_one_raises_without_a_root(n):
    # 9, 21, 33 and 45 are 1 (mod 4) but -1 is no square mod 3, so the
    # bounded search runs out; the others are not 1 (mod 4) at all
    with pytest.raises(PreconditionError):
        sqrt_minus_one(n)


def test_is_odd_prime_matches_sieve():
    sieve = _sieve(10**4)
    for n in range(-5, 10**4):
        assert is_odd_prime(n) == (n > 2 and sieve[n]), n


def test_canonical_on_random_representatives():
    rng = random.Random(61)
    for p in (3, 5, 13, 29):
        for _ in range(200):
            x = [rng.randrange(p) for _ in range(3)]
            if not any(x):
                continue
            want = canonical(x, p)
            assert want[next(i for i, c in enumerate(want) if c)] == 1
            assert all(0 <= c < p for c in want)
            u = rng.randrange(1, p)
            rep = [u * c + p * rng.randrange(-9, 9) for c in x]
            assert canonical(rep, p) == want
            # x is the canonical point times its first nonzero entry
            lead = next(c for c in x if c)
            assert all(w * lead % p == c for c, w in zip(x, want))
        with pytest.raises(PreconditionError):
            canonical((p, 0, -2 * p), p)


def test_echelon_pivot_columns_in_row_order():
    # row pivot_rows[k] reduced by the pivot rows before it starts at
    # pivot_cols[k]: it adds no rank on the columns before that one and
    # one on the columns up to it
    assert echelon([[0, 2, 0], [3, 0, 0], [0, 4, 0], [1, 1, 5]], 3) == ([0, 1, 3], [1, 0, 2])
    rng = SplitMix64(29)
    for nrows, ncols in [(6, 5), (4, 8), (8, 8)]:
        rows = [[rng.int_in(-2, 2) * rng.int_in(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        pivot_rows, pivot_cols = echelon(rows, ncols)

        def rank(rs, cols):
            return rank_int([[(rows[r][j], 0) for j in range(cols)] for r in rs], cols)

        for k, (r, c) in enumerate(zip(pivot_rows, pivot_cols)):
            before = pivot_rows[:k]
            assert rank(before + [r], c) == rank(before, c)
            assert rank(before + [r], c + 1) == rank(before, c + 1) + 1
