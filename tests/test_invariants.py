from fractions import Fraction

import pytest

from flagcalc.errors import PreconditionError
from flagcalc.invariants import (
    c1_squared,
    c2,
    chow_triple,
    miyaoka_conic_bound,
    ruling_curve_bound,
    surface_invariant_report,
    surface_pair_intersection_bidegree,
    uniqueness_threshold,
)

from oracles import miyaoka_conic_bound_diagonal


def test_conic_bound_values():
    value, floor = miyaoka_conic_bound(3, 3)
    assert value == Fraction(1008, 25)
    assert floor == 40
    value, floor = miyaoka_conic_bound(3, 4)
    assert value == Fraction(500, 9)
    assert floor == 55


def test_conic_bound_symmetry():
    for a in range(3, 8):
        for b in range(3, 8):
            assert miyaoka_conic_bound(a, b)[0] == miyaoka_conic_bound(b, a)[0]


def test_conic_bound_diagonal_specialization():
    for a in range(3, 31):
        assert miyaoka_conic_bound(a, a)[0] == miyaoka_conic_bound_diagonal(a)


def test_conic_bound_exceeds_3a2():
    for a in range(3, 31):
        assert miyaoka_conic_bound(a, a)[0] > 3 * a * a


def test_bounds_reject_small_bidegrees():
    for a, b in [(2, 3), (3, 2), (1, 1), (0, 5)]:
        with pytest.raises(PreconditionError):
            miyaoka_conic_bound(a, b)
        with pytest.raises(PreconditionError):
            ruling_curve_bound(a, b)


def test_ruling_bound_values():
    value, floor = ruling_curve_bound(3, 3)
    assert value == Fraction(189, 4)
    assert floor == 47
    value, floor = ruling_curve_bound(3, 4)
    assert value == 75
    assert floor == 75


def test_ruling_bound_positive_on_grid():
    for a in range(3, 21):
        for b in range(3, 21):
            assert ruling_curve_bound(a, b)[0] > 0


def test_chern_values():
    assert c1_squared(1, 1) == 6
    assert c1_squared(3, 3) == 18
    assert c2(1, 1) == 6
    assert c2(3, 3) == 90


def test_chern_symmetry():
    for a in range(1, 10):
        for b in range(1, 10):
            assert c1_squared(a, b) == c1_squared(b, a)
            assert c2(a, b) == c2(b, a)


def test_noether_integrality():
    for a in range(1, 31):
        for b in range(1, 31):
            assert (c1_squared(a, b) + c2(a, b)) % 12 == 0


def test_chow_triples():
    assert chow_triple("H1", "H1", "H1") == 0
    assert chow_triple("H2", "H2", "H2") == 0
    assert chow_triple("H1", "H2", "H1") == 1
    assert chow_triple("H2", "H1", "H2") == 1
    assert chow_triple("H1", "H1", "H2") == 1
    with pytest.raises(PreconditionError):
        chow_triple("H3", "H1", "H1")


def test_intersection_bidegrees():
    assert surface_pair_intersection_bidegree((1, 0), (1, 0)) == (0, 1)
    assert surface_pair_intersection_bidegree((1, 0), (0, 1)) == (1, 1)
    assert surface_pair_intersection_bidegree((2, 2), (2, 2)) == (12, 12)


def test_intersection_symmetric_bilinear():
    import itertools

    for b1, b2 in itertools.product([(1, 0), (0, 1), (2, 1), (3, 2)], repeat=2):
        assert surface_pair_intersection_bidegree(b1, b2) == (
            surface_pair_intersection_bidegree(b2, b1)
        )
    # bilinearity in the first argument
    for (a1, b1), (a2, b2), (a3, b3) in [((1, 2), (2, 0), (0, 3)), ((2, 2), (1, 1), (3, 1))]:
        s = surface_pair_intersection_bidegree((a1 + a2, b1 + b2), (a3, b3))
        u = surface_pair_intersection_bidegree((a1, b1), (a3, b3))
        v = surface_pair_intersection_bidegree((a2, b2), (a3, b3))
        assert s == (u[0] + v[0], u[1] + v[1])


def test_uniqueness_threshold_conventions():
    assert uniqueness_threshold(2, 2) == 12
    for a in range(1, 8):
        # at a = b the threshold and the Chow self-pair agree on the count
        d1, d2 = surface_pair_intersection_bidegree((a, a), (a, a))
        assert d1 == d2 == 3 * a * a == uniqueness_threshold(a, a)
    # off the diagonal the threshold is the smaller self-pair degree,
    # 2ab + min(a, b)^2, below a^2 + ab + b^2
    d1, d2 = surface_pair_intersection_bidegree((2, 3), (2, 3))
    assert d1 + d2 == 2 * 2 + 4 * 2 * 3 + 3 * 3
    assert uniqueness_threshold(2, 3) == min(d1, d2) == 2 * 2 * 3 + 2 * 2 == 16
    assert uniqueness_threshold(3, 2) == 16 < 4 + 6 + 9


def test_invariant_report():
    r = surface_invariant_report(1, 1)
    assert r["conic_self_intersection"] == 0
    assert r["canonical_bidegree"] == [-1, -1]
    assert r["euler_characteristic"] == "1"
    assert not r["general_type"]
    r = surface_invariant_report(3, 3)
    assert r["conic_self_intersection"] == -4
    assert r["canonical_bidegree"] == [1, 1]
    assert r["euler_characteristic"] == "9"
    assert r["general_type"]
    r = surface_invariant_report(3, 4)
    assert r["ruling_10_self_intersection"] == -3
    assert r["ruling_01_self_intersection"] == -4
    assert r["bidegree"] == [3, 4]
    assert r["euler_characteristic"] == str(Fraction(c1_squared(3, 4) + c2(3, 4), 12))
