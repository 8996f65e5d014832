import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flagcalc import fpcensus, serialize
from flagcalc.binforms import BinaryForm
from flagcalc.biforms import BiForm, incidence_form, monomials
from flagcalc.errors import PreconditionError
from flagcalc.flag import contains_conic, cross, dot, twistor_fiber_of
from flagcalc.fpcensus import (
    conic_census,
    conic_expansion,
    conics_meet_fp,
    max_disjoint_subset,
    proj_points,
    reduce_mod_p,
)
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.modp import sqrt_minus_one
from flagcalc.ruled import twistor_ruled_surface

from census_oracle import census_by_points
from oracles import (
    binet_cauchy_meet_fp,
    gaussian_mod_p,
    greedy_disjoint_size,
    pairwise_scan_pairs,
    reference_scan_pairs,
)

VERONESE = (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1]))
SURFACES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "surfaces"


@pytest.fixture(scope="module")
def ruled2():
    return twistor_ruled_surface(VERONESE)


def test_sqrt_minus_one():
    assert sqrt_minus_one(5) == 2
    assert sqrt_minus_one(13) == 5
    with pytest.raises(PreconditionError):
        sqrt_minus_one(7)


def test_proj_point_count():
    for p in (3, 5, 7):
        assert len(proj_points(p)) == p * p + p + 1
        assert len(set(proj_points(p))) == p * p + p + 1


def test_reduce_incidence():
    S = reduce_mod_p(incidence_form(), 7)
    assert S.bidegree == (1, 1)
    assert len(S.terms) == 3
    assert S.i_image is None


def test_reduce_errors():
    F = BiForm.monomial((1, 0, 0), (1, 0, 0), GR(Fraction(1, 7)))
    with pytest.raises(PreconditionError):
        reduce_mod_p(F, 7)
    G = BiForm.monomial((1, 0, 0), (1, 0, 0), GR(0, 1))
    with pytest.raises(PreconditionError):
        reduce_mod_p(G, 7)  # nonreal needs p = 1 mod 4
    assert reduce_mod_p(G, 13).terms  # i -> 5 mod 13
    with pytest.raises(PreconditionError):
        reduce_mod_p(incidence_form(), 9)
    with pytest.raises(PreconditionError):
        reduce_mod_p(BiForm.monomial((1, 0, 0), (1, 0, 0), GR(7)), 7)


def test_reduce_mod_p_images_and_refusals():
    p, i = 13, sqrt_minus_one(13)
    keys = monomials(1, 1)
    z = GR(Fraction(3, 7), Fraction(-5, 11))
    F = BiForm((1, 1), {keys[0]: z, keys[1]: GR(0, 1), keys[2]: GR(Fraction(2 * p, 3), p)})
    # the third coefficient is 0 mod p and is dropped
    assert reduce_mod_p(F, p).terms == {keys[0]: gaussian_mod_p(z, p, i), keys[1]: i}
    for c, den in [(GR(Fraction(1, p)), p), (GR(1, Fraction(2, 3 * p)), 3 * p)]:
        G = BiForm((1, 1), {keys[0]: GR(1), keys[1]: c})
        with pytest.raises(PreconditionError, match=f"denominator {den} is divisible by {p}"):
            reduce_mod_p(G, p)


@pytest.mark.parametrize("p", [5, 13, 29])
def test_reduce_mod_p_matches_fraction_pieces(p):
    # seeded Q(i) surfaces with denominators prime to p, some parts 0 mod p
    rng = random.Random(p)
    i = sqrt_minus_one(p)

    def part():
        return Fraction(rng.choice([0, p, rng.randint(-3 * p, 3 * p)]),
                        rng.choice([d for d in range(1, 40) if d % p]))

    for a, b in [(1, 1), (2, 1), (2, 3)]:
        keys = monomials(a, b)
        F = BiForm((a, b), {k: GR(part(), part()) for k in rng.sample(keys, min(len(keys), 12))})
        want = {k: v for k, c in F.terms.items() if (v := gaussian_mod_p(c, p, i))}
        assert want
        assert reduce_mod_p(F, p).terms == want


def test_reduction_commutes_with_evaluation(ruled2):
    p = 11
    S = reduce_mod_p(ruled2.surface, p)
    # evaluate char-0 surface at integer points, compare mod p
    pt = (3, 1, 4)
    ln = (2, 5, 9)
    v = ruled2.surface.evaluate(tuple(GR(c) for c in pt), tuple(GR(c) for c in ln))
    acc = 0
    for (pe, le), c in S.terms.items():
        t = c
        for i in range(3):
            t = t * pow(pt[i], pe[i], p) * pow(ln[i], le[i], p) % p
        acc = (acc + t) % p
    assert acc == int(v.re) % p


def test_census_incidence_multiple_sanity():
    # every smooth conic lies on the zero locus of the incidence form, so
    # the census is all pairs with q.m != 0: (p^2+p+1) * p^2 of them
    p = 5
    S = reduce_mod_p(incidence_form(), p)
    census = conic_census(S)
    assert len(census) == (p * p + p + 1) * p * p


def test_census_ruled_surface_mod_5(ruled2):
    p = 5
    census = conic_census(reduce_mod_p(ruled2.surface, p))
    assert len(census) >= p + 1
    # all parameter fibers stay smooth mod 5 and appear in the census; the
    # point at infinity is f(0, 1) = (0, 0, 1)
    for t in list(range(p)) + [None]:
        q = (1, t, t * t % p) if t is not None else (0, 0, 1)
        assert (q, q) in census


def test_census_mod_7_known_value(ruled2):
    # mod 7 the parameters t in {2,3,4,5} give q.q = t^4+t^2+1 = 0, so only
    # 4 parameter fibers stay smooth; with the two mixed pairs the census
    # has exactly 6 members, as the independent point evaluation confirms
    S = reduce_mod_p(ruled2.surface, 7)
    census = conic_census(S)
    assert len(census) == 6
    assert census == census_by_points(S)
    smooth_params = [t for t in range(7) if (t**4 + t**2 + 1) % 7]
    assert smooth_params == [0, 1, 6]
    for t in smooth_params:
        q = (1, t, t * t % 7)
        assert (q, q) in census
    assert ((0, 0, 1), (0, 0, 1)) in census  # t = infinity


def test_census_lifted_witness_agreement(ruled2):
    # census decisions on reductions of rational ruling fibers agree with
    # exact containment
    for p in (5, 11):
        census = conic_census(reduce_mod_p(ruled2.surface, p))
        for t in range(p):
            fiber = twistor_fiber_of(tuple(GR(v) for v in (1, t, t * t)))
            assert contains_conic(ruled2.surface, fiber)
            qbar = (1, t % p, t * t % p)
            if sum(c * c for c in qbar) % p:  # reduction stays smooth
                assert (qbar, qbar) in census


def test_max_disjoint_trivial_cases():
    assert max_disjoint_subset([], 5).size == 0
    # two intersecting conics: independent set of size 1
    c1 = ((1, 0, 0), (1, 0, 0))
    c2 = ((1, 0, 0), (1, 1, 0))  # same q: they meet
    assert conics_meet_fp(c1, c2, 5)
    r = max_disjoint_subset([c1, c2], 5)
    assert r.size == 1 and r.exact


@pytest.mark.parametrize("p", [5, 7, 11])
def test_conics_meet_fp_matches_binet_cauchy(p):
    # random smooth conics over F_p, and pairs sharing their q or their m,
    # against the expansion with explicit repeated-q and repeated-m branches
    rng = random.Random(4099 + p)
    pts = proj_points(p)
    conics = []
    while len(conics) < 40:
        q, m = rng.choice(pts), rng.choice(pts)
        if dot(q, m) % p and (q, m) not in conics:
            conics.append((q, m))
    pairs = [tuple(rng.sample(conics, 2)) for _ in range(400)]
    for q, m in conics:
        pairs.extend(((q, m), c) for c in conics if (c[0] == q) != (c[1] == m))
    shared = sum(c1[0] == c2[0] or c1[1] == c2[1] for c1, c2 in pairs)
    assert shared >= 20
    for c1, c2 in pairs:
        meet = conics_meet_fp(c1, c2, p)
        assert meet == binet_cauchy_meet_fp(c1, c2, p), (c1, c2)
        if c1[0] == c2[0] or c1[1] == c2[1]:
            assert meet
        # any representatives of the four points give the same answer
        u, v = rng.randrange(1, p), rng.randrange(1, p)
        scaled = (tuple(u * x + p for x in c2[0]), tuple(v * x for x in c2[1]))
        assert conics_meet_fp(c1, scaled, p) == meet
    with pytest.raises(PreconditionError):
        conics_meet_fp(conics[0], conics[0], p)


def test_max_disjoint_pairwise_disjoint_family(ruled2):
    # rational disjointness of twistor fibers can be lost mod p (the cross
    # product pairing is a norm only over R), so build a family that is
    # pairwise disjoint mod p and check it is returned whole
    p = 11
    census = conic_census(reduce_mod_p(ruled2.surface, p))
    fibers = [c for c in census if c[0] == c[1]]
    family: list = []
    for c in fibers:
        if all(not conics_meet_fp(c, d, p) for d in family):
            family.append(c)
    assert len(family) >= 3
    r = max_disjoint_subset(family, p)
    assert r.exact and r.size == len(family)


def test_max_disjoint_matches_bruteforce(ruled2):
    # exact branch and bound vs exhaustive subset enumeration
    from itertools import combinations

    for p in (5, 7):
        census = conic_census(reduce_mod_p(ruled2.surface, p))
        best = 0
        for r in range(len(census), 0, -1):
            if any(
                all(not conics_meet_fp(a, b, p) for a, b in combinations(sub, 2))
                for sub in combinations(census, r)
            ):
                best = r
                break
        assert max_disjoint_subset(census, p).size == best


@pytest.mark.parametrize("p", [5, 7])
def test_max_disjoint_above_the_limit_is_the_greedy_family(p):
    # above the limit the search stops at its first leaf, which takes the
    # lowest candidate each time: the greedy family in census order
    census = conic_census(reduce_mod_p(incidence_form(), p))
    rng = random.Random(0xD15 + p)
    for limit in (8, 16, 24):
        for _ in range(20):
            sub = sorted(rng.sample(census, rng.randrange(limit + 1, 4 * limit)))
            r = max_disjoint_subset(sub, p, limit=limit)
            assert r == (greedy_disjoint_size(sub, p), False), (limit, sub)


def test_max_disjoint_greedy_flagged():
    p = 5
    S = reduce_mod_p(incidence_form(), p)
    census = conic_census(S)
    r = max_disjoint_subset(census, p, limit=24)
    assert not r.exact
    assert r.size >= 1


def _reference_census(S):
    pts = proj_points(S.p)
    return sorted(reference_scan_pairs(S, pts, pts))


def _linear(group, n):
    """The (1,0) form p.n or the (0,1) form l.n."""
    F = BiForm((1, 0) if group == "p" else (0, 1))
    for i, c in enumerate(n):
        e = tuple(int(k == i) for k in range(3))
        pe, le = (e, (0, 0, 0)) if group == "p" else ((0, 0, 0), e)
        F = F + BiForm.monomial(pe, le, GR(c))
    return F


def _all_conics_through(group, n, p):
    """Every conic with m = n (group "p") or with q = n (group "l")."""
    n = tuple(c % p for c in n)
    return [(x, n) if group == "p" else (n, x) for x in proj_points(p) if dot(x, n) % p]


@pytest.mark.parametrize("name, p", [
    ("ruled_d2_00", 7), ("ruled_d2_00", 13), ("ruled_d3_01", 7), ("ruled_d3_01", 13),
    ("dense22_00", 5), ("dense22_00", 13), ("dense22_02", 5), ("dense22_02", 13),
    ("ruled_d4_00", 11),
])
def test_census_matches_reference_scan_and_points(name, p):
    # the benchmark's census fixtures, read only: p = 1 (mod 3), where
    # ruling fibers degenerate, and the nonreal surfaces at p = 1 (mod 4)
    F = serialize.biform_from_json(json.loads((SURFACES / f"{name}.json").read_text()))
    S = reduce_mod_p(F, p)
    census = conic_census(S)
    assert census
    assert census == _reference_census(S)
    assert census == census_by_points(S)


def test_census_hits_do_not_rest_on_the_expansion(monkeypatch):
    # the expansion of another surface proposes false candidates; each is
    # decided on the surface itself, so none is listed
    def fixture(name):
        F = serialize.biform_from_json(json.loads((SURFACES / f"{name}.json").read_text()))
        return reduce_mod_p(F, 5)

    S, other = fixture("ruled_d2_00"), fixture("dense22_02")
    wrong = conic_expansion(other)
    monkeypatch.setattr(fpcensus, "conic_expansion", lambda _: wrong)
    assert set(conic_census(S)) <= set(census_by_points(S))


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("group", ["p", "l"])
def test_census_linear_factor_takes_every_q_or_every_m(group, p):
    # (p.n) G vanishes on every point of the line n, so it holds every
    # conic with m = n whatever q is (the expansion for m = n is zero);
    # (l.n) G vanishes on every line through n, so it holds every conic
    # with q = n.  At p = 3 a conic has too few points for the point oracle.
    n = (1, 2, 3) if group == "p" else (1, 4, 1)
    G = BiForm.monomial((0, 1, 0), (0, 0, 2), GR(1)) + BiForm.monomial((1, 0, 0), (1, 1, 0), GR(3))
    S = reduce_mod_p(_linear(group, n) * G, p)
    census = conic_census(S)
    assert set(_all_conics_through(group, n, p)) <= set(census)
    assert census == _reference_census(S)
    if p + 1 > sum(S.bidegree):
        assert census == census_by_points(S)


@pytest.mark.parametrize("group", ["p", "l"])
def test_census_degree_zero_sides(group):
    # (p.n1)(p.n2) holds the conics with m = n1 or n2 and (l.n1)(l.n2)
    # those with q = n1 or n2: b = 0 and a = 0
    p, n1, n2 = 7, (1, 0, 2), (0, 1, 3)
    S = reduce_mod_p(_linear(group, n1) * _linear(group, n2), p)
    assert sum(S.bidegree) == 2 and 0 in S.bidegree
    census = conic_census(S)
    assert census == sorted(_all_conics_through(group, n1, p) + _all_conics_through(group, n2, p))
    assert census == _reference_census(S)
    assert census == census_by_points(S)


def test_census_at_p_3_matches_reference(ruled2):
    # p + 1 <= a + b: a conic has too few F_3-points for the point oracle,
    # and the census still decides by all a + b + 1 coefficients
    S = reduce_mod_p(ruled2.surface, 3)
    census = conic_census(S)
    assert census == _reference_census(S)
    assert ((1, 0, 0), (1, 0, 0)) in census


def test_census_of_the_ruling_at_p_29(ruled2):
    # a prime above 20: every fiber that reduces to a smooth conic is in
    # the census, and the point-evaluation oracle, run on every pair,
    # accepts exactly the census
    p = 29
    S = reduce_mod_p(ruled2.surface, p)
    census = conic_census(S)
    params = [(1, t, t * t % p) for t in range(p)] + [(0, 0, 1)]
    smooth = [q for q in params if dot(q, q) % p]
    assert len(smooth) == p + 1  # no fiber degenerates, as p = 2 (mod 3)
    for q in smooth:
        assert (q, q) in census
    assert census == census_by_points(S)


def _dense(bidegree, rng, p):
    """A biform with a random nonzero residue on every monomial."""
    return BiForm(bidegree, {key: GR(rng.randrange(1, p)) for key in monomials(*bidegree)})


def _ev(e, x, p):
    return pow(x[0], e[0], p) * pow(x[1], e[1], p) * pow(x[2], e[2], p)


@pytest.mark.parametrize("bidegree", [(1, 3), (3, 1), (2, 2), (4, 4), (2, 0), (0, 2)])
@pytest.mark.parametrize("p", [7, 11])
def test_conic_expansion_matches_point_evaluation(bidegree, p):
    # G(x, y) = S(x, y x x) at random points of F_p^3; the exponents pin
    # G's bidegree (a+b, b), which an a/b swap would break
    a, b = bidegree
    rng = random.Random(97 * a + 13 * b + p)
    S = reduce_mod_p(_dense(bidegree, rng, p), p)
    G = conic_expansion(S)
    exps = [f for _, f in monomials(0, b)]
    assert G and all(sum(alpha) == a + b and len(row) == len(exps) for alpha, row in G.items())
    for _ in range(25):
        x, y = [rng.randrange(p) for _ in range(3)], [rng.randrange(p) for _ in range(3)]
        l = cross(y, x)
        want = sum(c * _ev(pe, x, p) * _ev(le, l, p) for (pe, le), c in S.terms.items())
        got = sum(
            _ev(alpha, x, p) * c * _ev(f, y, p)
            for alpha, row in G.items()
            for c, f in zip(row, exps)
        )
        assert got % p == want % p


@pytest.mark.parametrize("bidegree", [(1, 3), (3, 1)])
@pytest.mark.parametrize("p", [5, 7])
def test_census_of_dense_unbalanced_surfaces_matches_reference(bidegree, p):
    # a dense surface through the conic (q0, m0): every term vanishes on it
    # (p.m0 and l.q0 do, and p.l on every conic), so a != b is exercised
    # on a census that is not empty
    a, b = bidegree
    rng = random.Random(31 * a + b + p)
    q0, m0 = (1, 2, 3), (1, 1, 0)
    F = (
        _linear("p", m0) * _dense((a - 1, b), rng, p)
        + _linear("l", q0) * _dense((a, b - 1), rng, p)
        + incidence_form() * _dense((a - 1, b - 1), rng, p)
    )
    S = reduce_mod_p(F, p)
    census = conic_census(S)
    assert (q0, m0) in census
    assert census == _reference_census(S)


# The search by q against the pair loop it replaced, the restriction per
# pair and the point evaluation.

BIDEGREES = [(a, b) for a in range(4) for b in range(4) if a + b >= 2]


def _random_form(rng, bidegree, p, density):
    """A random nonzero residue on each monomial kept with the given odds."""
    keys = monomials(*bidegree)
    kept = [k for k in keys if rng.random() < density] or keys[:1]
    return BiForm(bidegree, {k: GR(rng.randrange(1, p)) for k in kept})


def _random_point(rng, p):
    while True:
        x = tuple(rng.randrange(p) for _ in range(3))
        if any(x):
            return x


def _random_surface(rng, bidegree, p):
    """A dense or sparse (a, b) surface, alone or with a part that puts
    conics on it: a (1,0) divisor (every q for one m), a (0,1) divisor
    (G_q = 0 at one q), a dense (1,1) factor that is not the incidence form,
    or three terms that vanish on one chosen conic."""
    a, b = bidegree
    density = rng.choice([1.0, 0.3])
    kinds = ["plain"] + ["p"] * (a > 0) + ["l"] * (b > 0) + ["pl", "conic"] * (a > 0 < b)
    kind = rng.choice(kinds)
    if kind == "plain":
        return _random_form(rng, bidegree, p, density)
    if kind == "p":
        return _linear("p", _random_point(rng, p)) * _random_form(rng, (a - 1, b), p, density)
    if kind == "l":
        return _linear("l", _random_point(rng, p)) * _random_form(rng, (a, b - 1), p, density)
    if kind == "pl":
        return _random_form(rng, (1, 1), p, 1.0) * _random_form(rng, (a - 1, b - 1), p, density)
    q0, m0 = _random_point(rng, p), _random_point(rng, p)
    while not dot(q0, m0) % p:
        m0 = _random_point(rng, p)
    return (
        _linear("p", m0) * _random_form(rng, (a - 1, b), p, density)
        + _linear("l", q0) * _random_form(rng, (a, b - 1), p, density)
        + incidence_form() * _random_form(rng, (a - 1, b - 1), p, density)
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_census_matches_pair_loop_on_random_surfaces(p):
    # two seeded surfaces per bidegree; the restriction per pair and the
    # point evaluation cost O(p^4) restrictions, so they run up to p = 7
    rng = random.Random(2203 + p)
    pts = proj_points(p)
    nonempty = 0
    for bidegree in BIDEGREES:
        for _ in range(2):
            S = reduce_mod_p(_random_surface(rng, bidegree, p), p)
            census = conic_census(S)
            nonempty += bool(census)
            assert census == sorted(pairwise_scan_pairs(S, pts, pts)), (bidegree, S.terms)
            if p <= 7:
                assert census == _reference_census(S), (bidegree, S.terms)
                if p + 1 > sum(bidegree):
                    assert census == census_by_points(S), (bidegree, S.terms)
    assert nonempty >= len(BIDEGREES)


@pytest.mark.parametrize("name", sorted(f.stem for f in SURFACES.glob("*.json")))
def test_census_of_fixtures_at_p_29_matches_pair_loop(name):
    p = 29
    F = serialize.biform_from_json(json.loads((SURFACES / f"{name}.json").read_text()))
    try:
        S = reduce_mod_p(F, p)
    except PreconditionError:
        assert name == "dense22_01"  # its denominator is divisible by 29
        return
    pts = proj_points(p)
    census = conic_census(S)
    assert census and census == sorted(pairwise_scan_pairs(S, pts, pts))
