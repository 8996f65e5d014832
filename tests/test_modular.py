"""Differential oracle for the certified mod-p interpolation path.

system_dimension and surface_family eliminate the reductions of the exact
condition rows over F_p, and read kernels back from F_p over as many
primes as their certificate needs.  Exact Bareiss on the full condition
matrix (the rank oracle and linalg.nullspace of condition_matrix) is the
oracle here, and no request reaches it: the tests pin the modular path to
it, and force each retry path (a prime that loses rank and is overtaken, a
chart that vanishes mod the prime, a pivot row dropped, a kernel that does
not reconstruct or reconstructs wrong, conjugate images with other pivots)
to show it stays exact, and each unprovable kernel to stop as exit 4.
"""

import json
from fractions import Fraction
from itertools import islice
from math import prod

import pytest

from flagcalc import linalg, linsys, modp
from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm, proportional, reduce_mod_incidence
from flagcalc.cli import main
from flagcalc.errors import FlagcalcError, PreconditionError
from flagcalc.flag import Conic, twistor_fiber_of
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.invariants import h0_flag
from flagcalc.linalg import GaussianInt
from flagcalc.linsys import (
    condition_matrix,
    expected_system_dimension,
    surface_family,
    system_dimension,
)
from flagcalc.ruled import twistor_circle_samples, twistor_ruled_surface
from flagcalc.sampling import SplitMix64, random_smooth_conics
from flagcalc.serialize import biform_to_json

from oracles import (
    evaluation_rank_oracle,
    gaussian_mod_p,
    integer_ruling,
    qi_ratio,
    qi_vector,
    random_gaussian_rational,
    rank_int,
)

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
CUBIC = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1]))
# the quartic ruling of perfbench/fixtures/forms/d4_00.json
QUARTIC = (BinaryForm([1, 0, 1, 0, 0]), BinaryForm([0, 1, 0, 0, 0]), BinaryForm([0, 0, 0, 0, 1]))


@pytest.fixture(scope="module")
def fibers12():
    return twistor_circle_samples(twistor_ruled_surface(*integer_ruling(VERONESE)), 12)


@pytest.fixture(scope="module")
def fibers28():
    return twistor_circle_samples(twistor_ruled_surface(*integer_ruling(CUBIC)), 28)


def _exact_nullity(a, b, conics):
    cm = condition_matrix(a, b, conics)
    return len(cm.columns) - rank_int(cm.rows, len(cm.columns))


def _exact_basis_json(a, b, conics):
    cm = condition_matrix(a, b, conics)
    kernel = linalg.nullspace(cm.rows, ncols=len(cm.columns))
    basis = [BiForm((a, b), dict(zip(cm.columns, qi_vector(v)))) for v in kernel]
    return json.dumps([biform_to_json(F) for F in basis])


def _family_json(a, b, conics):
    return json.dumps([biform_to_json(F) for F in surface_family(a, b, conics).basis])


def _rows_mod_p(a, b, conics, conjugate=False):
    # the image of the condition rows with i sent to I_MOD, or to -I_MOD
    p, i = modp.PRIME, modp.I_MOD
    i = p - i if conjugate else i
    rows = condition_matrix(a, b, conics).rows
    return [[gaussian_mod_p(GR(*z), p, i) for z in row] for row in rows]


def _is_prime(n):
    # Miller-Rabin with the first twelve prime bases is deterministic below 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Spy:
    """Wraps a linalg function and records the row count of each call."""

    def __init__(self, monkeypatch, name):
        self.fn = getattr(linalg, name)
        self.rows = []
        monkeypatch.setattr(linalg, name, self)

    def __call__(self, rows, *args, **kwargs):
        self.rows.append(len(rows))
        return self.fn(rows, *args, **kwargs)


def _record(monkeypatch, module, name):
    """Wraps module.name and records the result of each call from here on."""
    results = []
    fn = getattr(module, name)

    def record(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(module, name, record)
    return results


def _verdicts(monkeypatch):
    """The verdicts of the linalg.annihilates calls from here on."""
    return _record(monkeypatch, linalg, "annihilates")


def _bareiss(monkeypatch):
    """The row counts of the linalg.echelon_int calls from here on.
    linalg.nullspace runs through it, and no request reaches either: they
    are the full-matrix reference of these tests."""
    return _Spy(monkeypatch, "echelon_int").rows


def _primes(monkeypatch):
    """The modp.echelon and back_reduce calls from here on, in order: each
    echelon call as ("echelon", p, rows, pivot columns found), each
    back_reduce call as ("back_reduce", p, pivot columns), counted."""
    calls = []
    echelon, back_reduce = modp.echelon, modp.back_reduce

    def record_echelon(rows, ncols, p=None):
        out = echelon(rows, ncols, p)
        calls.append(("echelon", p or modp.PRIME, len(rows), len(out[1])))
        return out

    def record_back_reduce(cols, normed, ncols, p=None):
        calls.append(("back_reduce", p or modp.PRIME, len(cols)))
        return back_reduce(cols, normed, ncols, p)

    monkeypatch.setattr(modp, "echelon", record_echelon)
    monkeypatch.setattr(modp, "back_reduce", record_back_reduce)
    return calls


def _ranks(calls):
    """{p: the rank of its first image}, in the order the primes ran: the
    first echelon call at each prime is its forward pass over every row."""
    ranks = {}
    for name, p, *counts in calls:
        if name == "echelon":
            ranks.setdefault(p, counts[1])
    return ranks


def _folded(calls):
    """The primes whose images were back-reduced and folded, in order."""
    return list(dict.fromkeys(p for name, p, *_ in calls if name == "back_reduce"))


def _twins(shift):
    """Two disjoint conics that coincide mod shift, plus two general
    integer ones."""
    return [
        Conic((1, 2, 3), (1, 1, 1)),
        Conic((1, 2 + shift, 3), (1, 1 + shift, 1)),
        Conic((1, -1, 4), (2, 1, -3)),
        Conic((1, 5, -2), (1, -4, 1)),
    ]


def test_prime_constants():
    p, i = modp.PRIME, modp.I_MOD
    assert p == 2**61 - 31
    assert _is_prime(p)
    assert not _is_prime(p + 2) and not _is_prime(561)  # a Carmichael number
    assert p % 4 == 1
    assert (i * i + 1) % p == 0


def test_echelon_mod_p_matches_bareiss_rank():
    rng = SplitMix64(5)
    for nrows, ncols, rank in [(6, 9, 4), (9, 6, 5), (7, 7, 7), (5, 8, 0)]:
        basis = [[rng.int_in(-9, 9) for _ in range(ncols)] for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            coeffs = [rng.int_in(-3, 3) for _ in range(rank)]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(ncols)])
        pivot_rows, pivot_cols, _ = modp.echelon(rows, ncols)
        exact = rank_int([[GaussianInt(x) for x in row] for row in rows], ncols)
        assert len(pivot_rows) == len(pivot_cols) == exact
        assert pivot_rows == sorted(pivot_rows)
        assert len(set(pivot_cols)) == len(pivot_cols)
        # the pivot rows alone have the full rank, and every row before a
        # pivot row that is not one is dependent on its predecessors
        sub = [[GaussianInt(x) for x in rows[r]] for r in pivot_rows]
        assert rank_int(sub, ncols) == exact
        for r in range(nrows):
            if r not in pivot_rows:
                head = [[GaussianInt(x) for x in rows[k]] for k in range(r + 1)]
                assert rank_int(head, ncols) == sum(k < r for k in pivot_rows)


def _eliminations(monkeypatch):
    """("echelon", rows) for each modp.echelon call from here on."""
    calls = []
    echelon = modp.echelon
    monkeypatch.setattr(modp, "echelon",
                        lambda rows, *rest: calls.append(("echelon", rows)) or echelon(rows, *rest))
    return calls


def test_mod_p_rows_are_reductions_of_exact_rows(monkeypatch):
    received = _eliminations(monkeypatch)
    rng = SplitMix64(91)
    nonreal = []
    for _ in range(3):
        q = tuple(random_gaussian_rational(rng, 6) / GR(rng.int_in(1, 5)) for _ in range(3))
        nonreal.append(twistor_fiber_of(q))
    for a, b, conics in [
        (2, 2, random_smooth_conics(SplitMix64(41), 3, height=10)),
        (3, 2, nonreal),
        (1, 3, [Conic((0, 1, GR(2, 3)), (1, GR(0, -1), 0))]),
    ]:
        rows = _rows_mod_p(a, b, conics)
        pivots = modp.echelon(rows, h0_flag(a, b))[0]
        conj = [_rows_mod_p(a, b, conics, conjugate=True)[r] for r in pivots]
        received.clear()
        system_dimension(a, b, conics)
        assert received == [("echelon", rows)]
        received.clear()
        surface_family(a, b, conics)
        # the first prime's two images; any later prime eliminates its own
        assert received[:2] == [("echelon", rows), ("echelon", conj)]


def test_system_dimension_matches_bareiss_on_grid():
    checked = 0
    for a in range(1, 4):
        for b in range(a, 5):
            for x in range(a * (a - 1) // 2 + 1):
                conics = random_smooth_conics(SplitMix64((a << 8) ^ (b << 4) ^ x), x, height=10)
                d = system_dimension(a, b, conics)
                assert d == _exact_nullity(a, b, conics), (a, b, x)
                assert d == expected_system_dimension(a, b, x), (a, b, x)
                checked += 1
    assert checked == 18


def test_system_dimension_no_conics():
    for a, b in [(0, 0), (1, 2), (4, 4)]:
        assert system_dimension(a, b, []) == h0_flag(a, b) == _exact_nullity(a, b, [])


def test_system_dimension_more_rows_than_columns(fibers12, fibers28):
    # 12 fibers give 60 rows on 27 columns and 28 fibers 196 rows on 64:
    # the row count proves nothing, so the exact path decides
    assert system_dimension(2, 2, fibers12) == _exact_nullity(2, 2, fibers12) == 1
    assert system_dimension(3, 3, fibers28) == _exact_nullity(3, 3, fibers28) == 1


@pytest.mark.parametrize("a, b, x, seed", [(2, 2, 0, 1), (2, 2, 3, 17), (3, 3, 4, 42)])
def test_surface_family_basis_matches_full_nullspace(a, b, x, seed):
    conics = random_smooth_conics(SplitMix64(seed), x, height=10)
    assert _family_json(a, b, conics) == _exact_basis_json(a, b, conics)


def test_surface_family_probe_eliminates_pivot_rows_only(monkeypatch, fibers28):
    want = _exact_basis_json(3, 3, fibers28)
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    verdicts = _verdicts(monkeypatch)
    # the kernel of the 63 rows of 196 independent mod p is read back from
    # PRIME alone and proved; the second image sees only the 63 pivot rows
    p = modp.PRIME
    assert _family_json(3, 3, fibers28) == want
    assert calls == [("echelon", p, 196, 63), ("echelon", p, 63, 63),
                     ("back_reduce", p, 63), ("back_reduce", p, 63)]
    assert verdicts == [True]
    assert bareiss == []


def test_rank_loss_mod_p_falls_back_to_bareiss(monkeypatch):
    # the twin conics coincide mod PRIME, so the rank mod PRIME drops by a+b+1
    conics = _twins(modp.PRIME)
    a, b = 2, 2
    exact = _exact_nullity(a, b, conics)
    want = _exact_basis_json(a, b, conics)
    assert exact == expected_system_dimension(a, b, 4)
    rows = _rows_mod_p(a, b, conics)
    n = len(rows)
    assert n - len(modp.echelon(rows, h0_flag(a, b))[0]) == a + b + 1
    # the bounds do not meet, so system_dimension takes the certified kernel
    # too.  PRIME's kernel is folded and does not read back; the next prime
    # keeps the rank, overtakes it and restarts the fold, and every prime
    # after it agrees.  Bareiss never runs.
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    verdicts = _verdicts(monkeypatch)
    for run, result in ((lambda: system_dimension(a, b, conics), exact),
                        (lambda: _family_json(a, b, conics), want)):
        calls.clear()
        verdicts.clear()
        assert run() == result
        ranks = list(_ranks(calls).items())
        assert ranks[0] == (modp.PRIME, n - (a + b + 1))
        assert len(ranks) > 2 and {r for _, r in ranks[1:]} == {n}
        assert _folded(calls) == [p for p, _ in ranks]
        assert verdicts == [True]
    assert bareiss == []


def test_dropped_pivot_row_fails_certificate(monkeypatch):
    # PRIME's forward pass drops its first pivot row: the conjugate image of
    # the pivot rows left then pivots on other columns, so PRIME is skipped
    # unfolded and the next prime starts the fold
    a, b = 2, 2
    conics = random_smooth_conics(SplitMix64(17), 3, height=10)
    want = _exact_basis_json(a, b, conics)
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    echelon = modp.echelon
    images = []

    def drop_first(rows, ncols, p=None):
        pivot_rows, pivot_cols, normed = echelon(rows, ncols, p)
        images.append(len(rows))
        if len(images) > 1:
            return pivot_rows, pivot_cols, normed
        assert pivot_rows == list(range(len(rows)))  # every row is independent
        return pivot_rows[1:], pivot_cols[1:], normed[1:]

    monkeypatch.setattr(modp, "echelon", drop_first)
    verdicts = _verdicts(monkeypatch)
    assert _family_json(a, b, conics) == want
    n = 3 * (a + b + 1)
    p = modp.PRIME
    assert images[:2] == [n, n - 1]
    assert calls[:2] == [("echelon", p, n, n), ("echelon", p, n - 1, n - 1)]
    assert p not in _folded(calls) and set(_ranks(calls).values()) == {n}
    assert verdicts == [True]
    assert bareiss == []


def test_certificate_failure_is_internal(monkeypatch):
    conics = random_smooth_conics(SplitMix64(17), 3, height=10)
    monkeypatch.setattr(linalg, "annihilates", lambda rows, vectors: False)
    with pytest.raises(FlagcalcError, match="fails its certificate") as info:
        surface_family(2, 2, conics)
    assert not isinstance(info.value, PreconditionError)


def test_small_prime_falls_back_to_bareiss(monkeypatch):
    conics = _twins(5)
    a, b = 2, 2
    exact = _exact_nullity(a, b, conics)
    want = _exact_basis_json(a, b, conics)
    monkeypatch.setattr(modp, "PRIME", 5)
    monkeypatch.setattr(modp, "I_MOD", 2)
    rows = _rows_mod_p(a, b, conics)
    nullity_p = h0_flag(a, b) - len(modp.echelon(rows, h0_flag(a, b))[0])
    assert nullity_p > exact == max(h0_flag(a, b) - len(rows), 0)
    # the twins coincide mod 5; the primes = 1 (mod 4) after it keep the
    # rank, and the kernel reads back over enough of them
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    for run, result in ((lambda: system_dimension(a, b, conics), exact),
                        (lambda: _family_json(a, b, conics), want)):
        calls.clear()
        assert run() == result
        ranks = _ranks(calls)
        assert list(ranks)[:6] == [5, 13, 17, 29, 37, 41]
        assert ranks[5] < len(rows) and set(list(ranks.values())[1:]) == {len(rows)}
    assert bareiss == []


def test_denominator_divisible_by_prime_takes_exact_path(monkeypatch):
    p = modp.PRIME
    a, b = 2, 3
    general = _twins(1)[2:]
    # q = (1, 1/p, 2) clears to (p, 1, 2p): its rows mod p are those of
    # another smooth conic, a valid image of the exact rows
    conics = [Conic((1, GR(Fraction(1, p)), 2), (1, 1, 1))] + general
    exact = _exact_nullity(a, b, conics)
    assert system_dimension(a, b, conics) == exact == expected_system_dimension(a, b, 3)
    assert _family_json(a, b, conics) == _exact_basis_json(a, b, conics)
    # m = (1, 1/p, 0) clears to (p, 1, 0), whose chart (-1, p, 0), (0, 0, p)
    # vanishes mod p but for its first point: the block keeps one row mod p,
    # and the next prime, which keeps them all, overtakes PRIME
    conics = [Conic((1, 1, 1), (1, GR(Fraction(1, p)), 0))] + general
    exact = _exact_nullity(a, b, conics)
    want = _exact_basis_json(a, b, conics)
    assert exact == expected_system_dimension(a, b, 3)
    verdicts = _verdicts(monkeypatch)
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    n = 3 * (a + b + 1)
    for run, result in ((lambda: system_dimension(a, b, conics), exact),
                        (lambda: _family_json(a, b, conics), want)):
        calls.clear()
        verdicts.clear()
        assert run() == result
        ranks = list(_ranks(calls).values())
        assert ranks[0] == n - (a + b) and set(ranks[1:]) == {n}
        assert verdicts == [True]
    assert bareiss == []


def test_one_build_and_one_echelon_per_call(monkeypatch, fibers28):
    builds = []
    build = linsys.condition_matrix
    monkeypatch.setattr(linsys, "condition_matrix", lambda *args: builds.append(1) or build(*args))
    calls = _primes(monkeypatch)
    bareiss = _bareiss(monkeypatch)
    meet = random_smooth_conics(SplitMix64(17), 3, height=10)
    primes = list(islice(modp.primes(), 8))

    def per_prime(rows, rank, primes):
        # the forward pass over the image of every row, the one over the
        # conjugate image of its pivot rows, and a back-reduction of each
        return [call for p in primes for call in [("echelon", p, rows, rank), ("echelon", p, rank, rank),
                                                  ("back_reduce", p, rank), ("back_reduce", p, rank)]]

    # The bounds meet on the three conics: system_dimension runs PRIME's
    # forward pass alone.  surface_family's forward pass at PRIME is the
    # first prime's, and the kernel, too large to read back from fewer,
    # reads back at the fourth read-back, from 8 primes.  On the 28 fibers
    # (196 rows, 63 independent mod p) the bounds do not meet:
    # system_dimension makes the same calls as surface_family, and the
    # kernel reads back from PRIME.
    for a, b, conics, dimension, family in [
        (2, 2, meet, [("echelon", primes[0], 15, 15)], per_prime(15, 15, primes)),
        (3, 3, fibers28, per_prime(196, 63, primes[:1]), per_prime(196, 63, primes[:1])),
    ]:
        for call, want in [(system_dimension, dimension), (surface_family, family)]:
            builds.clear()
            calls.clear()
            call(a, b, conics)
            assert builds == [1], (call.__name__, a)
            assert calls == want, (call.__name__, a)
    assert bareiss == []


def test_nonreal_kernel_is_read_back_from_both_images(monkeypatch):
    # small nonreal conics give a kernel with small nonreal entries: their
    # imaginary parts come from the difference of the two images of PRIME
    i = GR(0, 1)
    conics = [Conic((1, i, 2), (2, 1, i)), Conic((1, 1 + i, -1), (i, 2, 1))]
    cases = [(1, 1, 1), (2, 2, 2)]
    wants = [_exact_basis_json(a, b, conics[:x]) for a, b, x in cases]
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    for (a, b, x), want in zip(cases, wants):
        calls.clear()
        basis = surface_family(a, b, conics[:x]).basis
        assert _folded(calls) == [modp.PRIME]
        assert json.dumps([biform_to_json(F) for F in basis]) == want
        assert any(c.im for F in basis for c in F.terms.values())
    assert bareiss == []


def test_unreconstructed_kernel_falls_back_to_bareiss(monkeypatch):
    # the random (3,3) kernel through four conics has entries of hundreds of
    # bits, far past the bound sqrt(p/2) of one prime: the read-backs at 1,
    # 2, 4 and 8 primes find a part that does not reconstruct, and the
    # kernel reads back, and is proved, at a later checkpoint
    a, b = 3, 3
    conics = random_smooth_conics(SplitMix64(42), 4, height=10)
    want = _exact_basis_json(a, b, conics)
    calls = _primes(monkeypatch)
    moduli = []
    reconstruct = modp.reconstruct
    monkeypatch.setattr(modp, "reconstruct", lambda u, m: moduli.append(m) or reconstruct(u, m))
    fractions = _record(monkeypatch, modp, "reconstruct")
    verdicts = _verdicts(monkeypatch)
    bareiss = _bareiss(monkeypatch)
    assert _family_json(a, b, conics) == want
    folded = _folded(calls)
    products = [prod(folded[:k]) for k in (1, 2, 4, 8)]
    assert set(products) <= set(moduli)
    assert [fractions[moduli.index(m) + moduli.count(m) - 1] for m in products] == [None] * 4
    assert len(folded) in (10, 12, 15, 18, 22, 27, 33)
    assert len(set(_ranks(calls).values())) == 1
    assert verdicts == [True]
    assert bareiss == []


def test_wrong_reconstruction_fails_certificate(monkeypatch, fibers28):
    # a read-back from PRIME alone that is off by one fails the certificate;
    # the read-back at two primes is right and proved
    want = _exact_basis_json(3, 3, fibers28)
    reconstruct = modp.reconstruct

    def off_by_one(u, m):
        got = reconstruct(u, m)
        return None if got is None else (got[0] + got[1] * (m == modp.PRIME), got[1])

    monkeypatch.setattr(modp, "reconstruct", off_by_one)
    calls = _primes(monkeypatch)
    verdicts = _verdicts(monkeypatch)
    bareiss = _bareiss(monkeypatch)
    assert _family_json(3, 3, fibers28) == want
    assert verdicts == [False, True]
    assert len(_folded(calls)) == 2
    assert bareiss == []


def test_conjugate_images_with_other_pivots_fall_back_to_bareiss(monkeypatch):
    # z = I_MOD + i maps to 2 I_MOD with i -> I_MOD and to 0 with i -> -I_MOD,
    # so the second conic is a twin of the first only in the second image:
    # it keeps its a+b+1 pivots in the first and loses them in the second
    a, b = 2, 2
    z = GR(modp.I_MOD, 1)
    conics = _twins(z)
    assert all(C.is_smooth for C in conics)
    want = _exact_basis_json(a, b, conics)
    calls = _primes(monkeypatch)
    bareiss = _bareiss(monkeypatch)
    assert _family_json(a, b, conics) == want
    p = modp.PRIME
    assert calls[:2] == [("echelon", p, 20, 20), ("echelon", p, 20, 15)]
    # PRIME is skipped: neither image is back-reduced or folded, and the
    # next prime, whose images agree, starts the fold
    assert all(call[1] != p for call in calls[2:])
    assert _folded(calls)[0] == list(_ranks(calls))[1]
    assert bareiss == []


@pytest.mark.parametrize("forms, n, ratio", [(CUBIC, 28, 3), (QUARTIC, 49, 6)], ids=["28", "49"])
def test_uniqueness_probe_is_the_bezout_surface(monkeypatch, forms, n, ratio):
    # a^2+ab+b^2+1 fibers of a ruling leave one (a,a) surface: the ruled
    # surface itself, built by the Bezout determinant, whose canonical form
    # mod the incidence form is proportional to the family's basis vector
    spec = twistor_ruled_surface(*integer_ruling(forms))
    a = spec.degree
    assert n == 3 * a * a + 1
    bareiss = _bareiss(monkeypatch)
    calls = _primes(monkeypatch)
    fam = surface_family(a, a, twistor_circle_samples(spec, n))
    assert _folded(calls) == [modp.PRIME]  # read back from one prime
    assert bareiss == []
    assert fam.dimension == 1
    assert proportional(reduce_mod_incidence(spec.surface), fam.basis[0])
    assert qi_ratio(reduce_mod_incidence(spec.surface), fam.basis[0]) == ratio


def _drop_every_first_pivot(monkeypatch):
    # every forward pass over the 15 condition rows of three (2,2) conics
    # drops its first pivot row, and the conjugate image of the 14 left then
    # never pivots on the same columns
    echelon = modp.echelon

    def drop(rows, ncols, p=None):
        pivot_rows, pivot_cols, normed = echelon(rows, ncols, p)
        if len(rows) == 15:
            return pivot_rows[1:], pivot_cols[1:], normed[1:]
        return pivot_rows, pivot_cols, normed

    monkeypatch.setattr(modp, "echelon", drop)


def _off_by_one(monkeypatch):
    # every fraction read back by Wang's algorithm is one too large
    reconstruct = modp.reconstruct

    def off_by_one(u, m):
        got = reconstruct(u, m)
        return None if got is None else (got[0] + got[1], got[1])

    monkeypatch.setattr(modp, "reconstruct", off_by_one)


@pytest.mark.parametrize("fault", [
    _off_by_one,
    lambda monkeypatch: monkeypatch.setattr(modp, "reconstruct", lambda u, m: None),
    _drop_every_first_pivot,
], ids=["wrong-read-back", "no-read-back", "images-disagree"])
def test_kernel_that_never_proves_exits_4_within_the_stop_rule(monkeypatch, capsys, fault):
    # a read-back that never stabilises, one that never succeeds, and images
    # that never agree: each stops after the primes the Hadamard bound of
    # the pivot rows asks for, as an internal error
    conics = random_smooth_conics(SplitMix64(17), 3, height=10)
    cm = condition_matrix(2, 2, conics)
    bits, budget = linsys._kernel_budget(cm, range(len(cm.rows)))
    assert budget == bits // 60 + 1
    fault(monkeypatch)
    with pytest.raises(FlagcalcError, match="fails its certificate after") as info:
        surface_family(2, 2, conics)
    assert not isinstance(info.value, PreconditionError)
    assert int(str(info.value).split()[-2]) <= budget + 1
    assert main(["mk-surface", "--a", "2", "--b", "2", "--random", "3", "--seed", "0"]) == 4
    assert json.loads(capsys.readouterr().out)["code"] == "internal"


def test_rank_oracle_names_attempts_when_short():
    # fewer points than h0 can never reach the rank
    with pytest.raises(FlagcalcError, match="after 4 attempts"):
        evaluation_rank_oracle(1, 1, extra=-1)


def test_paper_size_system_dimension():
    conics = random_smooth_conics(SplitMix64(2026), 10, height=10)
    assert system_dimension(5, 5, conics) == expected_system_dimension(5, 5, 10) == 106
