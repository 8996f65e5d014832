import pytest

from flagcalc import linalg
from flagcalc.biforms import BiForm, reduce_mod_incidence
from flagcalc.binforms import BinaryForm
from flagcalc.errors import DegenerateConicError, EmptySystemError, PreconditionError
from flagcalc.flag import Conic, contains_conic, restrict_to_conic, singular_points_on_conic
from flagcalc.invariants import h0_flag, h0_hirzebruch
from flagcalc.linalg import GaussianInt
from flagcalc.linsys import (
    condition_matrix,
    expected_system_dimension,
    independence_guaranteed,
    surface_family,
    surface_through_conics,
    system_dimension,
)
from flagcalc.sampling import SplitMix64, random_smooth_conics

from oracles import evaluation_rank_oracle, incidence_form, monomial, qi_terms, qi_vector, rank


def test_h0_flag_values():
    assert h0_flag(1, 0) == 3
    assert h0_flag(1, 1) == 8
    assert h0_flag(2, 2) == 27
    assert h0_flag(3, 3) == 64
    with pytest.raises(PreconditionError):
        h0_flag(-1, 2)


def test_h0_hirzebruch_values():
    assert h0_hirzebruch("X", 1, 0) == 2
    assert h0_hirzebruch("X", 2, 3) == 18
    assert h0_hirzebruch("Y", 2, 3) == 15
    with pytest.raises(PreconditionError):
        h0_hirzebruch("X", -1, 0)
    with pytest.raises(PreconditionError):
        h0_hirzebruch("Z", 1, 1)


def test_h0_flag_matches_rank_oracle_small():
    for a, b in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        assert evaluation_rank_oracle(a, b) == h0_flag(a, b)


def test_condition_matrix_shape_and_kernel_semantics():
    rng = SplitMix64(21)
    conics = random_smooth_conics(rng, 2)
    cm = condition_matrix(1, 1, conics)
    assert len(cm.rows) == 2 * 3  # a+b+1 rows per conic
    assert len(cm.columns) == 8  # quotient monomials: 9 minus p0*l0
    # a kernel vector is a biform through both conics
    kernel = linalg.nullspace(cm.rows, ncols=8)
    for vec in kernel:
        F = BiForm((1, 1), dict(zip(cm.columns, qi_vector(vec))))
        for C in conics:
            assert contains_conic(F, C)
    assert len(kernel) == system_dimension(1, 1, conics)


def test_empty_prescription():
    assert system_dimension(2, 2, []) == h0_flag(2, 2)
    cm = condition_matrix(2, 2, [])
    assert cm.rows == []


def test_dimension_examples():
    rng = SplitMix64(3)
    assert system_dimension(1, 1, random_smooth_conics(rng, 1)) == 5
    assert system_dimension(2, 2, random_smooth_conics(SplitMix64(5), 2)) == 17
    assert system_dimension(2, 2, random_smooth_conics(SplitMix64(7), 3)) == 12
    assert system_dimension(3, 3, random_smooth_conics(SplitMix64(11), 1)) == 64 - 7


def test_degenerate_conic_rejected():
    with pytest.raises(PreconditionError):
        condition_matrix(1, 1, [Conic((1, 0, 0), (0, 0, 1))])


def test_duplicate_conics_rejected():
    C = Conic((1, 0, 0), (1, 0, 0))
    with pytest.raises(PreconditionError):
        condition_matrix(1, 1, [C, C])


def test_dropping_a_conic_frees_full_block():
    # within the guaranteed range each conic imposes a+b+1 conditions
    a, b = 2, 3
    conics = random_smooth_conics(SplitMix64(13), 1)
    d1 = system_dimension(a, b, conics)
    d0 = system_dimension(a, b, [])
    assert d0 - d1 == a + b + 1


def test_guaranteed_range_predicate():
    assert independence_guaranteed(2, 3, 1)
    assert not independence_guaranteed(2, 3, 2)
    assert not independence_guaranteed(3, 2, 1)
    assert expected_system_dimension(2, 2, 3) == 27 - 15


def test_surface_family_members_contain_conics():
    conics = random_smooth_conics(SplitMix64(17), 2)
    fam = surface_family(2, 2, conics)
    assert fam.dimension == 17
    for F in fam.basis[:4]:
        for C in conics:
            assert contains_conic(F, C)
    member = surface_through_conics(2, 2, conics, seed=99)
    for C in conics:
        assert contains_conic(member, C)
    assert not reduce_mod_incidence(member).is_zero()


def test_surface_through_conics_empty_prescription():
    F = surface_through_conics(1, 1, [], seed=4)
    assert not F.is_zero()
    assert not reduce_mod_incidence(F).is_zero()


def test_family_basis_linearly_independent():
    from flagcalc.biforms import quotient_monomials

    conics = random_smooth_conics(SplitMix64(53), 1)
    fam = surface_family(1, 1, conics)
    cols = quotient_monomials(1, 1)
    from flagcalc.gaussian import GaussianRational as GR

    rows = [[qi_terms(F).get(key, GR(0)) for key in cols] for F in fam.basis]
    assert rank(rows) == len(fam.basis)


def test_empty_system_reported():
    # (1, 1) through four general conics: 8 - 12 < 0 conditions
    conics = random_smooth_conics(SplitMix64(23), 4)
    with pytest.raises(EmptySystemError):
        surface_through_conics(1, 1, conics, seed=1)


def test_witness_on_product_surface():
    # F = incidence * G vanishes on the whole flag, so it cuts out no surface
    # and has no singular points to report
    rng = SplitMix64(31)
    C = random_smooth_conics(rng, 1)[0]
    G = surface_through_conics(1, 1, [], seed=8)
    with pytest.raises(PreconditionError, match="the form cuts out no surface of the flag"):
        singular_points_on_conic(incidence_form() * G, C)


def test_witness_square_surface_whole_conic():
    conics = random_smooth_conics(SplitMix64(37), 1)
    G = surface_through_conics(1, 1, conics, seed=2)
    assert singular_points_on_conic(G * G, conics[0]) == BinaryForm([0] * 5)
    assert singular_points_on_conic(G, conics[0]).degree == 0


def test_witness_generic_surface_none():
    conics = random_smooth_conics(SplitMix64(41), 1)
    F = surface_through_conics(2, 2, conics, seed=3)
    assert singular_points_on_conic(F, conics[0]) == BinaryForm([1])


def test_witness_precondition():
    conics = random_smooth_conics(SplitMix64(43), 1)
    with pytest.raises(PreconditionError, match="the form cuts out no surface of the flag"):
        singular_points_on_conic(monomial((0, 0, 0), (0, 0, 0)), conics[0])
    with pytest.raises(DegenerateConicError):
        singular_points_on_conic(monomial((0, 1, 0), (0, 1, 0)), Conic((1, 0, 0), (0, 1, 0)))


def test_singular_points_on_a_conic_off_the_surface():
    # {p1 l1 = 0} is singular along p1 = l1 = 0, which this conic meets once,
    # at (s, t) = (1, 0) of its chart p = (s, -t, t), l = (t, -t, -s - t)
    F = monomial((0, 1, 0), (0, 1, 0))
    C = Conic((1, 1, 0), (0, 1, 1))
    assert restrict_to_conic(F, C) == BinaryForm([0, 0, 1])
    assert singular_points_on_conic(F, C) == BinaryForm([0, 1])


def test_condition_rows_hold_gaussian_ints():
    for a, b, x, seed in [(0, 0, 2, 1), (1, 0, 2, 2), (2, 3, 3, 3), (3, 3, 4, 4)]:
        cm = condition_matrix(a, b, random_smooth_conics(SplitMix64(seed), x, height=10))
        assert all(type(z) is GaussianInt for row in cm.rows for z in row)
        assert len(cm.rows) == x * (a + b + 1)
