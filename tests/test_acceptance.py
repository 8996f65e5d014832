"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is exact (zero tolerance); the stated wall-clock budgets are
asserted too.  Criterion 7 asserts what the census can promise: it contains
the reduction of every fiber of the degree-2 ruling that stays a smooth
conic mod p, and it equals an independent point-evaluation oracle.  The
older clause "at least p+1 members, one per parameter" is false at every
p = 1 (mod 3): there t^4 + t^2 + 1 = (t^2+t+1)(t^2-t+1) has four roots, so
four fiber reductions are not smooth conics, and the oracle pins the census
mod 7 at exactly 6 members (see README, "Install and test").
"""

import hashlib
import json
import time
from fractions import Fraction

from flagcalc.binforms import BinaryForm, bf_gcd
from flagcalc.biforms import BiForm, proportionality, reduce_mod_incidence
from flagcalc.cli import main as cli_main
from flagcalc.flag import (
    conics_disjoint,
    contains_conic,
    is_j_invariant,
    j_conic,
    twistor_fiber_of,
)
from flagcalc.fpcensus import conic_census, reduce_mod_p
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.invariants import (
    c1_squared,
    c2,
    chow_triple,
    h0_flag,
    miyaoka_conic_bound,
    ruling_curve_bound,
    surface_pair_intersection_bidegree,
)
from flagcalc.linsys import system_dimension
from flagcalc.ruled import twistor_ruled_surface
from flagcalc.sampling import (
    SplitMix64,
    random_gaussian_rational,
    random_smooth_conic,
    random_smooth_conics,
)
from flagcalc.serialize import biform_from_json, biform_to_json, conic_from_json, conic_to_json

from census_oracle import census_by_points
from oracles import (
    conics_meet_bruteforce,
    evaluation_rank_oracle,
    random_binary_form,
    sylvester_resultant,
)

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
CUBIC = (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1]))

SEED_GRID = 0xD1CE
SEED_FIELD = 0xF1E1D
SEED_DUALITY = 0xD0A1
SEED_INVOLUTION = 0x107A
SEED_DISJOINT = 0xD15C
SEED_ROUNDTRIP = 0x5E1A
SEED_FIBERS = 0xF1BE


def _report(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_bound_formulas():
    t0 = time.time()
    for a in range(3, 11):
        for b in range(3, 11):
            # independent oracle: Miyaoka shape 3*(-C^2)/(C^2+2)^2 hmm kept
            # literal: coefficient 3(a+b-2)/(a+b-1)^2 applied to c2 - c1^2/3,
            # with the Chern polynomials restated inline
            k1 = 3 * a**2 * b + 3 * a * b**2 - 4 * a**2 - 4 * b**2 - 16 * a * b + 12 * a + 12 * b
            k2 = 6 * a + 6 * b + 3 * a**2 * b - 2 * a**2 + 3 * a * b**2 - 8 * a * b - 2 * b**2
            miyaoka_budget = Fraction(k2) - Fraction(k1, 3)
            conic_oracle = Fraction(3 * (a + b - 2), (a + b - 1) ** 2) * miyaoka_budget
            ruling_oracle = Fraction(3 * a, (a + 1) ** 2) * miyaoka_budget
            value, floor = miyaoka_conic_bound(a, b)
            assert value == conic_oracle
            assert floor == conic_oracle.numerator // conic_oracle.denominator
            rvalue, rfloor = ruling_curve_bound(a, b)
            assert rvalue == ruling_oracle
            assert rfloor == ruling_oracle.numerator // ruling_oracle.denominator
            if a == b:
                diagonal = Fraction(24 * (a * a - a + 1) * (a - 1) * a, (2 * a - 1) ** 2)
                assert value == diagonal
                assert value > 3 * a * a
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, True, f"bound grid 3..10 exact vs oracle expressions ({elapsed:.2f}s)")


def test_criterion_2_chern_suite():
    t0 = time.time()
    for a in range(1, 31):
        for b in range(1, 31):
            assert c1_squared(a, b) == (
                3 * a * a * b + 3 * a * b * b - 4 * a * a - 4 * b * b - 16 * a * b + 12 * a + 12 * b
            )
            assert c2(a, b) == (
                6 * a + 6 * b + 3 * a * a * b - 2 * a * a + 3 * a * b * b - 8 * a * b - 2 * b * b
            )
            assert (c1_squared(a, b) + c2(a, b)) % 12 == 0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, True, f"Chern closed forms and Noether divisibility on 1..30 ({elapsed:.2f}s)")


def test_criterion_3_chow_table():
    for h1 in ("H1", "H2"):
        for h2 in ("H1", "H2"):
            for h3 in ("H1", "H2"):
                expected = 0 if h1 == h2 == h3 else 1
                assert chow_triple(h1, h2, h3) == expected
    assert surface_pair_intersection_bidegree((1, 0), (1, 0)) == (0, 1)
    assert surface_pair_intersection_bidegree((1, 0), (0, 1)) == (1, 1)
    _report(3, True, "all eight triple products and the two Segre pairings")


def test_criterion_4_interpolation_grid():
    t0 = time.time()
    checked = 0
    for a in range(1, 4):
        for b in range(a, 5):
            assert evaluation_rank_oracle(a, b, seed=SEED_GRID ^ (a * 16 + b)) == h0_flag(a, b)
            for x in range(a * (a - 1) // 2 + 1):
                expected = h0_flag(a, b) - x * (a + b + 1)
                for trial in range(5):
                    seed = (SEED_GRID << 12) ^ (a << 8) ^ (b << 5) ^ (x << 3) ^ trial
                    for attempt in range(3):
                        conics = random_smooth_conics(
                            SplitMix64(seed + 0x9000 * attempt), x, height=10
                        )
                        observed = system_dimension(a, b, conics)
                        if observed == expected:
                            break
                        print(
                            f"    resampling degenerate draw a={a} b={b} x={x} trial={trial}"
                        )
                    assert observed == expected, (a, b, x, trial, observed, expected)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(4, True, f"{checked} exact dimensions over the (a,b,x) grid ({elapsed:.1f}s)")


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        term = entry * _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def test_criterion_5_ruled_construction():
    t0 = time.time()
    for forms in (VERONESE, CUBIC):
        a = forms[0].degree
        spec = twistor_ruled_surface(forms)
        assert spec.surface.bidegree == (a, a)
        assert is_j_invariant(spec.surface)
        assert spec.certificate["passed"]
        assert spec.certificate["degree_bound"] == 3 * a * a
        # 50 extra random rational parameters: contained, pairwise disjoint
        rng = SplitMix64(SEED_FIBERS ^ a)
        fibers = []
        seen = set()
        while len(fibers) < 50:
            t = GR(Fraction(rng.int_in(-10**6, 10**6), rng.int_in(1, 999)))
            C = twistor_fiber_of(tuple(f.evaluate(t, GR(1)) for f in forms))
            key = (C.q.coords, C.m.coords)
            if key in seen:
                continue
            seen.add(key)
            assert contains_conic(spec.surface, C)
            fibers.append(C)
        for i, C in enumerate(fibers):
            for D in fibers[:i]:
                assert conics_disjoint(C, D)
    # Veronese surface equals the symbolic 4x4 Sylvester determinant
    spec2 = twistor_ruled_surface(VERONESE)
    p_mon = [BiForm.monomial(tuple(1 if j == i else 0 for j in range(3)), (0, 0, 0)) for i in range(3)]
    l_mon = [BiForm.monomial((0, 0, 0), tuple(1 if j == i else 0 for j in range(3))) for i in range(3)]
    zp = BiForm((1, 0))
    zl = BiForm((0, 1))
    sylvester = [
        [p_mon[0], p_mon[1], p_mon[2], zp],
        [zp, p_mon[0], p_mon[1], p_mon[2]],
        [l_mon[0], l_mon[1], l_mon[2], zl],
        [zl, l_mon[0], l_mon[1], l_mon[2]],
    ]
    expanded = _cofactor_det(sylvester)
    assert proportionality(spec2.surface, expanded) is not None
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(5, True, f"degree 2 and 3 ruled surfaces certified, 2x50 fibers ({elapsed:.1f}s)")


def test_criterion_6_uniqueness_probe():
    t0 = time.time()
    spec = twistor_ruled_surface(VERONESE)
    fibers = [
        twistor_fiber_of(tuple(f.evaluate(GR(t), GR(1)) for f in spec.forms))
        for t in range(12)
    ]
    assert len({(c.q.coords, c.m.coords) for c in fibers}) == 12
    from flagcalc import linalg
    from flagcalc.linsys import condition_matrix

    cm = condition_matrix(2, 2, fibers)
    kernel = linalg.nullspace(cm.rows, ncols=len(cm.columns))
    assert len(kernel) == 1
    generator = BiForm((2, 2), {cm.columns[j]: c for j, c in enumerate(kernel[0]) if c})
    assert proportionality(reduce_mod_incidence(spec.surface), generator) is not None
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(6, True, f"12-fiber system has a 1-dimensional kernel spanned by the surface ({elapsed:.1f}s)")


def test_criterion_7_census_oracle():
    spec = twistor_ruled_surface(VERONESE)
    failures = []
    for p in (5, 7, 11):
        t0 = time.time()
        S = reduce_mod_p(spec.surface, p)
        census = conic_census(S)
        # agreement on lifted witnesses: every rational ruling fiber is
        # contained in characteristic 0; the parameters run over P1(F_p),
        # with f(0, 1) = (0, 0, 1) as the point at infinity
        smooth = []
        for t in list(range(p)) + [None]:
            if t is None:
                q_exact = (GR(0), GR(0), GR(1))
                q_bar = (0, 0, 1)
            else:
                q_exact = (GR(1), GR(t), GR(t * t))
                q_bar = (1, t % p, t * t % p)
            fiber = twistor_fiber_of(q_exact)
            assert contains_conic(spec.surface, fiber)
            if sum(c * c for c in q_bar) % p:
                smooth.append(q_bar)
        elapsed = time.time() - t0
        assert elapsed < 60.0
        # size and completeness: each fiber's reduction lies on the reduced
        # surface, so the census, which lists every smooth conic on it,
        # holds each reduction with q.q != 0 mod p.  Only at p = 1 (mod 3)
        # does q.q = t^4+t^2+1 = (t^2+t+1)(t^2-t+1) vanish anywhere, so at
        # p = 5 and 11 all p+1 fibers count.  The independent
        # point-evaluation oracle pins the census exactly.
        if p % 3 != 1:
            assert len(smooth) == p + 1
        missing = [(q, q) for q in smooth if (q, q) not in census]
        oracle = census_by_points(S)
        if missing or len(census) < len(smooth) or census != oracle:
            failures.append(
                f"p={p}: census {len(census)} vs oracle {len(oracle)} members, "
                f"at least {len(smooth)} smooth fiber reductions; "
                f"missing fibers {missing}; "
                f"census only {sorted(set(census) - set(oracle))}; "
                f"oracle only {sorted(set(oracle) - set(census))}"
            )
    ok = not failures
    _report(
        7,
        ok,
        "census agreement on lifted witnesses holds for p in {5,7,11}; "
        + ("size/completeness clauses hold" if ok else "; ".join(failures)),
    )
    assert ok, failures


def test_criterion_8_property_suites(tmp_path, capsys):
    t0 = time.time()
    # field axioms on seeded triples
    rng = SplitMix64(SEED_FIELD)
    for _ in range(200):
        x = random_gaussian_rational(rng)
        y = random_gaussian_rational(rng)
        z = random_gaussian_rational(rng)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not z.is_zero():
            assert (x / z) * z == x
    # resultant-gcd duality on 100+ pairs of degree <= 4
    rng = SplitMix64(SEED_DUALITY)
    checked = 0
    while checked < 100:
        d = rng.int_in(1, 4)
        if rng.below(2):
            f = random_binary_form(rng, d, height=5)
            g = random_binary_form(rng, d, height=5)
        else:
            common = random_binary_form(rng, 1, height=4)
            f = common * random_binary_form(rng, d - 1, height=4) if d > 1 else common
            g = common * random_binary_form(rng, d - 1, height=4) if d > 1 else common
        if f.is_zero() or g.is_zero():
            continue
        assert sylvester_resultant(f, g).is_zero() == (bf_gcd(f, g).degree >= 1)
        checked += 1
    # involution identities on 1000 conics
    rng = SplitMix64(SEED_INVOLUTION)
    for _ in range(1000):
        C = random_smooth_conic(rng, height=5)
        assert j_conic(j_conic(C)) == C
        assert (j_conic(C) == C) == C.is_twistor_fiber()
    # disjointness criterion vs linear-algebra oracle on 1000 pairs
    rng = SplitMix64(SEED_DISJOINT)
    pairs = 0
    while pairs < 1000:
        C1 = random_smooth_conic(rng, height=4)
        C2 = random_smooth_conic(rng, height=4)
        if C1 == C2:
            continue
        assert conics_disjoint(C1, C2) == (not conics_meet_bruteforce(C1, C2))
        pairs += 1
    # bihomogeneity of evaluation
    rng = SplitMix64(SEED_ROUNDTRIP)
    F = BiForm(
        (2, 3),
        {
            ((2, 0, 0), (1, 1, 1)): random_gaussian_rational(rng),
            ((1, 1, 0), (0, 2, 1)): random_gaussian_rational(rng),
            ((0, 0, 2), (3, 0, 0)): random_gaussian_rational(rng),
        },
    )
    for _ in range(10):
        pt = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
        ln = tuple(random_gaussian_rational(rng, 4) for _ in range(3))
        lam = random_gaussian_rational(rng, 4)
        mu = random_gaussian_rational(rng, 4)
        lhs = F.evaluate(tuple(lam * c for c in pt), tuple(mu * c for c in ln))
        assert lhs == lam**2 * mu**3 * F.evaluate(pt, ln)
    # round-trip serialization
    for _ in range(50):
        C = random_smooth_conic(rng)
        assert conic_from_json(conic_to_json(C)) == C
    assert biform_from_json(biform_to_json(F)) == F
    # determinism hashes of a seeded CLI run
    digests = set()
    for _ in range(2):
        out = tmp_path / "surface.json"
        code = cli_main(
            ["--out", str(out), "mk-surface", "--a", "1", "--b", "1", "--random", "2", "--seed", "11"]
        )
        assert code == 0
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1
    elapsed = time.time() - t0
    _report(8, True, f"field axioms, duality, involutions, oracles, round trips, hashes ({elapsed:.1f}s)")
