"""Differential oracle for the certified mod-p interpolation path.

system_dimension and surface_family eliminate the reductions of the exact
condition rows over F_p first, read kernels back from F_p, and fall back to
exact Bareiss elimination whenever the modular answer is not proved.
Exact Bareiss on the full condition matrix (the rank oracle and
linalg.nullspace of condition_matrix) is the oracle here: the tests pin
the modular path to it, and force the fallbacks (a prime that loses rank,
a chart that vanishes mod the prime, a pivot row dropped, a kernel that
does not reconstruct or reconstructs wrong, conjugate images with other
pivots) to show they stay exact.
"""

import json
from fractions import Fraction

import pytest

from flagcalc import linalg, linsys, modp
from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm, proportionality, reduce_mod_incidence
from flagcalc.errors import FlagcalcError, PreconditionError
from flagcalc.flag import Conic, twistor_fiber_of
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.invariants import h0_flag
from flagcalc.linsys import (
    condition_matrix,
    expected_system_dimension,
    surface_family,
    system_dimension,
)
from flagcalc.ruled import twistor_circle_samples, twistor_ruled_surface
from flagcalc.sampling import SplitMix64, random_gaussian_rational, random_smooth_conics
from flagcalc.serialize import biform_to_json

from oracles import evaluation_rank_oracle, gaussian_mod_p, rank_int

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
CUBIC = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1]))
# the quartic ruling of perfbench/fixtures/forms/d4_00.json
QUARTIC = (BinaryForm([1, 0, 1, 0, 0]), BinaryForm([0, 1, 0, 0, 0]), BinaryForm([0, 0, 0, 0, 1]))


@pytest.fixture(scope="module")
def fibers12():
    return twistor_circle_samples(twistor_ruled_surface(VERONESE), 12)


@pytest.fixture(scope="module")
def fibers28():
    return twistor_circle_samples(twistor_ruled_surface(CUBIC), 28)


def _exact_nullity(a, b, conics):
    cm = condition_matrix(a, b, conics)
    return len(cm.columns) - rank_int(cm.rows, len(cm.columns))


def _exact_basis_json(a, b, conics):
    cm = condition_matrix(a, b, conics)
    kernel = linalg.nullspace(cm.rows, ncols=len(cm.columns))
    basis = [BiForm((a, b), {cm.columns[j]: c for j, c in enumerate(v) if c}) for v in kernel]
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
        exact = rank_int([[(x, 0) for x in row] for row in rows], ncols)
        assert len(pivot_rows) == len(pivot_cols) == exact
        assert pivot_rows == sorted(pivot_rows)
        assert len(set(pivot_cols)) == len(pivot_cols)
        # the pivot rows alone have the full rank, and every row before a
        # pivot row that is not one is dependent on its predecessors
        sub = [[(x, 0) for x in rows[r]] for r in pivot_rows]
        assert rank_int(sub, ncols) == exact
        for r in range(nrows):
            if r not in pivot_rows:
                head = [[(x, 0) for x in rows[k]] for k in range(r + 1)]
                assert rank_int(head, ncols) == sum(k < r for k in pivot_rows)


def _eliminations(monkeypatch, names=("echelon",)):
    """The (name, first argument) of each call of the named modp functions
    from here on: the rows for echelon, the pivot columns for back_reduce."""
    calls = []
    for name in names:
        fn = getattr(modp, name)
        record = lambda first, *rest, fn=fn, name=name: calls.append((name, first)) or fn(first, *rest)
        monkeypatch.setattr(modp, name, record)
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
        assert received == [("echelon", rows), ("echelon", conj)]


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
    spy = _Spy(monkeypatch, "nullspace")
    verdicts = _verdicts(monkeypatch)
    got = _family_json(3, 3, fibers28)
    # the kernel of the 63 rows of 196 independent mod p is read back from
    # F_p and proved: Bareiss never runs
    assert spy.rows == []
    assert verdicts == [True]
    assert got == _exact_basis_json(3, 3, fibers28)


def test_rank_loss_mod_p_falls_back_to_bareiss(monkeypatch):
    # the twin conics coincide mod p, so the rank mod p drops by a+b+1
    conics = _twins(modp.PRIME)
    a, b = 2, 2
    exact = _exact_nullity(a, b, conics)
    assert exact == expected_system_dimension(a, b, 4)
    rows = _rows_mod_p(a, b, conics)
    assert len(rows) - len(modp.echelon(rows, h0_flag(a, b))[0]) == a + b + 1
    # the bounds do not meet, so system_dimension takes the certified
    # kernel: the pivot rows fail the certificate, all rows follow
    spy = _Spy(monkeypatch, "echelon_int")
    assert system_dimension(a, b, conics) == exact
    assert spy.rows == [len(rows) - (a + b + 1), len(rows)]
    want = _exact_basis_json(a, b, conics)
    spy = _Spy(monkeypatch, "nullspace")
    assert _family_json(a, b, conics) == want
    assert spy.rows == [len(rows) - (a + b + 1), len(rows)]


def test_dropped_pivot_row_fails_certificate(monkeypatch):
    a, b = 2, 2
    conics = random_smooth_conics(SplitMix64(17), 3, height=10)
    want = _exact_basis_json(a, b, conics)
    echelon = modp.echelon
    images = []

    def drop_first(rows, ncols):
        pivot_rows, pivot_cols, normed = echelon(rows, ncols)
        images.append(len(rows))
        if len(images) > 1:  # the conjugate image of the pivot rows
            return pivot_rows, pivot_cols, normed
        assert pivot_rows == list(range(len(rows)))  # every row is independent
        return pivot_rows[1:], pivot_cols[1:], normed[1:]

    monkeypatch.setattr(modp, "echelon", drop_first)
    verdicts = _verdicts(monkeypatch)
    spy = _Spy(monkeypatch, "nullspace")
    assert _family_json(a, b, conics) == want
    n = 3 * (a + b + 1)
    assert images == [n, n - 1]
    assert spy.rows == [n - 1, n]
    assert verdicts == [False, True]


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
    spy = _Spy(monkeypatch, "echelon_int")
    assert system_dimension(a, b, conics) == exact
    assert spy.rows
    spy = _Spy(monkeypatch, "nullspace")
    assert _family_json(a, b, conics) == want
    assert spy.rows[-1] == len(rows)


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
    # the pivot rows' kernel fails its certificate and all rows follow
    conics = [Conic((1, 1, 1), (1, GR(Fraction(1, p)), 0))] + general
    exact = _exact_nullity(a, b, conics)
    want = _exact_basis_json(a, b, conics)
    assert exact == expected_system_dimension(a, b, 3)
    verdicts = _verdicts(monkeypatch)
    spy = _Spy(monkeypatch, "nullspace")
    assert system_dimension(a, b, conics) == exact
    assert _family_json(a, b, conics) == want
    n = 3 * (a + b + 1)
    assert spy.rows == [n - (a + b), n] * 2
    assert verdicts == [False, True] * 2


def test_one_build_and_one_echelon_per_call(monkeypatch, fibers28):
    builds = []
    build = linsys.condition_matrix
    monkeypatch.setattr(linsys, "condition_matrix", lambda *args: builds.append(1) or build(*args))
    eliminations = _eliminations(monkeypatch, ("echelon", "back_reduce"))
    spy = _Spy(monkeypatch, "nullspace")
    meet = random_smooth_conics(SplitMix64(17), 3, height=10)
    # surface_family runs one forward pass over the image of every row,
    # back-reduces the pivot rows it leaves, and eliminates and reduces the
    # conjugate image of those rows.  The bounds meet on the three conics,
    # whose kernel does not reconstruct from one prime: system_dimension
    # runs the forward pass alone.  On the 28 fibers (196 rows, 63
    # independent mod p) they do not meet: system_dimension then makes the
    # same calls as surface_family, and the kernel comes from F_p.
    full = [("echelon", 196), ("back_reduce", 63), ("echelon", 63), ("back_reduce", 63)]
    for a, b, conics, dimension, family, bareiss in [
        (2, 2, meet, [("echelon", 15)],
         [("echelon", 15), ("back_reduce", 15), ("echelon", 15), ("back_reduce", 15)], [15]),
        (3, 3, fibers28, full, full, []),
    ]:
        for call, want in [(system_dimension, dimension), (surface_family, family)]:
            builds.clear()
            eliminations.clear()
            spy.rows.clear()
            call(a, b, conics)
            assert builds == [1], (call.__name__, a)
            assert [(name, len(rows)) for name, rows in eliminations] == want, (call.__name__, a)
            assert spy.rows == (bareiss if call is surface_family else [])


def test_nonreal_kernel_is_read_back_from_both_images(monkeypatch):
    # small nonreal conics give a kernel with small nonreal entries: their
    # imaginary parts come from the difference of the two images
    i = GR(0, 1)
    conics = [Conic((1, i, 2), (2, 1, i)), Conic((1, 1 + i, -1), (i, 2, 1))]
    spy = _Spy(monkeypatch, "nullspace")
    for a, b, x in [(1, 1, 1), (2, 2, 2)]:
        want = _exact_basis_json(a, b, conics[:x])
        spy.rows.clear()
        basis = surface_family(a, b, conics[:x]).basis
        assert spy.rows == []
        assert json.dumps([biform_to_json(F) for F in basis]) == want
        assert any(c.im for F in basis for c in F.terms.values())


def test_unreconstructed_kernel_falls_back_to_bareiss(monkeypatch):
    # the random (3,3) kernel through four conics has entries of hundreds of
    # bits, far past the bound sqrt(p/2) of one prime
    a, b = 3, 3
    conics = random_smooth_conics(SplitMix64(42), 4, height=10)
    want = _exact_basis_json(a, b, conics)
    images = _record(monkeypatch, modp, "echelon")
    fractions = _record(monkeypatch, modp, "reconstruct")
    verdicts = _verdicts(monkeypatch)
    spy = _Spy(monkeypatch, "nullspace")
    assert _family_json(a, b, conics) == want
    assert len(images) == 2 and set(images[0][1]) == set(images[1][1])
    assert fractions[-1] is None
    assert spy.rows == [4 * (a + b + 1)]
    assert verdicts == [True]


def test_wrong_reconstruction_fails_certificate(monkeypatch, fibers28):
    want = _exact_basis_json(3, 3, fibers28)
    reconstruct = modp.reconstruct

    def off_by_one(u, p):
        got = reconstruct(u, p)
        return None if got is None else (got[0] + got[1], got[1])

    monkeypatch.setattr(modp, "reconstruct", off_by_one)
    verdicts = _verdicts(monkeypatch)
    spy = _Spy(monkeypatch, "nullspace")
    assert _family_json(3, 3, fibers28) == want
    assert verdicts == [False, True]
    assert spy.rows == [63]


def test_conjugate_images_with_other_pivots_fall_back_to_bareiss(monkeypatch):
    # z = I_MOD + i maps to 2 I_MOD with i -> I_MOD and to 0 with i -> -I_MOD,
    # so the second conic is a twin of the first only in the second image:
    # it keeps its a+b+1 pivots in the first and loses them in the second
    a, b = 2, 2
    z = GR(modp.I_MOD, 1)
    conics = _twins(z)
    assert all(C.is_smooth for C in conics)
    want = _exact_basis_json(a, b, conics)
    images = _record(monkeypatch, modp, "echelon")
    reduced = _record(monkeypatch, modp, "back_reduce")
    fractions = _record(monkeypatch, modp, "reconstruct")
    spy = _Spy(monkeypatch, "nullspace")
    assert _family_json(a, b, conics) == want
    assert [len(cols) for _, cols, _ in images] == [20, 15]
    assert len(reduced) == 1  # the second image is not reduced
    assert fractions == []
    assert spy.rows == [20]


@pytest.mark.parametrize("forms, n, ratio", [(CUBIC, 28, 3), (QUARTIC, 49, 6)], ids=["28", "49"])
def test_uniqueness_probe_is_the_bezout_surface(monkeypatch, forms, n, ratio):
    # a^2+ab+b^2+1 fibers of a ruling leave one (a,a) surface: the ruled
    # surface itself, built by the Bezout determinant, whose canonical form
    # mod the incidence form is proportional to the family's basis vector
    spec = twistor_ruled_surface(forms)
    a = spec.degree
    assert n == 3 * a * a + 1
    spy = _Spy(monkeypatch, "nullspace")
    fam = surface_family(a, a, twistor_circle_samples(spec, n))
    assert spy.rows == []  # read back from F_p
    assert fam.dimension == 1
    assert proportionality(reduce_mod_incidence(spec.surface), fam.basis[0]) == ratio


def test_rank_oracle_names_attempts_when_short():
    # fewer points than h0 can never reach the rank
    with pytest.raises(FlagcalcError, match="after 4 attempts"):
        evaluation_rank_oracle(1, 1, extra=-1)


def test_paper_size_system_dimension():
    conics = random_smooth_conics(SplitMix64(2026), 10, height=10)
    assert system_dimension(5, 5, conics) == expected_system_dimension(5, 5, 10) == 106
