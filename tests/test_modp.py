import random
from fractions import Fraction
from itertools import islice, product
from math import isqrt

import pytest

from flagcalc import modp
from flagcalc.errors import PreconditionError
from flagcalc.linalg import GaussianInt
from flagcalc.modp import (
    I_MOD,
    PRIME,
    back_reduce,
    canonical,
    echelon,
    is_odd_prime,
    primes,
    reconstruct,
    sqrt_minus_one,
)
from flagcalc.sampling import SplitMix64

from oracles import rank_int, reference_echelon, reference_rref


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


def test_is_odd_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 4, 9-11 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_odd_prime(n), n
    assert is_odd_prime(PRIME) and not is_odd_prime(PRIME + 4)


def test_is_odd_prime_matches_sympy_at_61_bits():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    found = 0
    for _ in range(3000):
        n = rng.getrandbits(61) | 1 << 60 | 1
        assert is_odd_prime(n) == sympy.isprime(n), n
        found += is_odd_prime(n)
    assert found > 50  # about 1 in 21 odd 61-bit numbers is prime


def test_primes_start_at_prime_and_go_up_through_one_mod_four(monkeypatch):
    got = list(islice(primes(), 40))
    assert got[0] == PRIME
    assert all(p < q for p, q in zip(got, got[1:]))
    assert all(p % 4 == 1 and is_odd_prime(p) for p in got)
    # no prime = 1 (mod 4) is left out between two it yields
    assert not any(is_odd_prime(n) for p, q in zip(got, got[1:]) for n in range(p + 4, q, 4))
    # PRIME is read when primes() is called, and the sequence goes on past it
    monkeypatch.setattr(modp, "PRIME", 5)
    want = [p for p, flag in enumerate(_sieve(2000)) if flag and p % 4 == 1]
    assert list(islice(modp.primes(), len(want))) == want
    assert len(want) == 147


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
    # one on the columns up to it, and is returned scaled to 1 there
    assert echelon([[0, 2, 0], [3, 0, 0], [0, 4, 0], [1, 1, 5]], 3) == (
        [0, 1, 3], [1, 0, 2], [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    rng = SplitMix64(29)
    for nrows, ncols in [(6, 5), (4, 8), (8, 8)]:
        rows = [[rng.int_in(-2, 2) * rng.int_in(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        pivot_rows, pivot_cols, _ = echelon(rows, ncols)

        def rank(rs, cols):
            return rank_int([[GaussianInt(rows[r][j]) for j in range(cols)] for r in rs], cols)

        for k, (r, c) in enumerate(zip(pivot_rows, pivot_cols)):
            before = pivot_rows[:k]
            assert rank(before + [r], c) == rank(before, c)
            assert rank(before + [r], c + 1) == rank(before, c + 1) + 1


def _random_matrix(rng, nrows, ncols, rank, height):
    """nrows random combinations of rank random rows, then a zero row and
    a copy of an earlier row put in at random places."""
    basis = [[rng.randint(-height, height) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append([sum(c * v[j] for c, v in zip(coeffs, basis) if c) for j in range(ncols)])
    rows.insert(rng.randint(0, len(rows)), [0] * ncols)
    rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    return rows


@pytest.mark.parametrize("p", [PRIME, 5, 13, 29], ids=["PRIME", "5", "13", "29"])
def test_packed_echelon_and_rref_match_list_oracle(monkeypatch, p):
    # 5, 13 and 29 are small enough that random rows lose rank mod p, and
    # make entries reach p and beyond; at PRIME the entries have up to 90
    # bits.  The prime is passed, and PRIME, read at call time, is the default
    rng = random.Random(p)
    height = 2**88 if p == PRIME else 9
    checked = 0
    for ncols in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 125):
        for nrows, rank in [
            (ncols // 2, ncols // 2),  # fewer rows than columns, full rank
            (ncols + 3, ncols // 3),  # more rows than columns, rank deficient
            (min(ncols, 40), min(ncols, 40)),
            (ncols // 4 + 2, 0),  # zero rows only
        ]:
            rows = _random_matrix(rng, nrows, ncols, rank, height)
            want = reference_rref(rows, ncols, p)
            got = echelon(rows, ncols, p)
            assert got == reference_echelon(rows, ncols, p) and got[:2] == want[:2]
            assert back_reduce(*got[1:], ncols, p) == want[2], (ncols, nrows, rank)
            with monkeypatch.context() as patch:
                patch.setattr(modp, "PRIME", p)
                assert echelon(rows, ncols) == got
                assert back_reduce(*got[1:], ncols) == want[2]
            checked += 1
    assert checked == 44


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_echelon_rank_is_the_size_of_the_row_space(p):
    # the rows span p^rank vectors mod p: every combination of them is
    # enumerated, and the distinct ones counted
    rng = random.Random(p)
    for _ in range(12):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randrange(-2 * p, 2 * p) * rng.randint(0, 1) for _ in range(ncols)]
                for _ in range(nrows)]
        span = {tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(ncols))
                for coeffs in product(range(p), repeat=nrows)}
        pivot_rows, pivot_cols, normed = echelon(rows, ncols, p)
        assert len(span) == p ** len(pivot_rows), (p, rows)
        assert len(back_reduce(pivot_cols, normed, ncols, p)) == len(pivot_rows)


def test_back_reduce_of_all_rows_is_rref_of_the_pivot_rows():
    # the forward pass over all rows leaves the pivot rows as a forward pass
    # over the pivot rows alone would, so one back-reduction serves both
    rng = random.Random(11)
    for nrows, ncols, rank in [(30, 20, 12), (12, 25, 12), (40, 9, 9)]:
        rows = _random_matrix(rng, nrows, ncols, rank, 2**70)
        pivot_rows, pivot_cols, normed = echelon(rows, ncols)
        _, cols, normed2 = echelon([rows[r] for r in pivot_rows], ncols)
        assert cols == pivot_cols
        assert back_reduce(pivot_cols, normed, ncols) == back_reduce(cols, normed2, ncols)


def test_rref_is_reduced_and_spans_the_rows():
    rng = random.Random(7)
    rows = _random_matrix(rng, 30, 20, 12, 50)
    pivot_rows, pivot_cols, normed = echelon(rows, 20)
    reduced = back_reduce(pivot_cols, normed, 20)
    assert len(pivot_rows) == len(reduced) == 12
    for k, (c, row) in enumerate(zip(pivot_cols, reduced)):
        assert all(x == 0 for x in row[:c]) and row[c] == 1
        assert all(row[c2] == 0 for c2 in pivot_cols if c2 != c), k
    # every input row is the combination of the reduced rows given by its
    # entries on the pivot columns
    for row in rows:
        combo = [sum(row[c] * r[j] for c, r in zip(pivot_cols, reduced)) % PRIME for j in range(20)]
        assert combo == [x % PRIME for x in row]


def test_reconstruct_round_trips_inside_the_bound_at_1009():
    p = 1009
    bound = isqrt(p // 2)
    assert bound == 22
    small = {}
    for d in range(1, bound + 1):
        for n in range(-bound, bound + 1):
            small.setdefault(n * pow(d, -1, p) % p, Fraction(n, d))
    for n, d in ((f.numerator, f.denominator) for f in small.values()):
        assert reconstruct(n * pow(d, -1, p), p) == (n, d)
    # every other residue is no fraction inside the bound
    for u in range(p):
        got = reconstruct(u, p)
        assert (got is None) == (u not in small), u
    assert reconstruct(23, p) is None and reconstruct(pow(23, -1, p), p) is None
    assert reconstruct(-(p - 1) // 2, p) == (1, 2)


def test_reconstruct_at_the_interpolation_prime():
    bound = isqrt(PRIME // 2)
    for n, d in [(0, 1), (1, 1), (-7, 3), (bound, bound - 1), (-bound, 1), (1, bound)]:
        assert reconstruct(n * pow(d, -1, PRIME), PRIME) == (n, d)
    assert reconstruct(bound + 1, PRIME) is None
    assert reconstruct(pow(bound + 1, -1, PRIME), PRIME) is None
