from fractions import Fraction
from math import gcd

from flagcalc import linalg
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.linalg import GaussianInt as GI
from flagcalc.sampling import SplitMix64

from oracles import det, nullity, qi_vector, rank, reference_nullspace, zi_vectors


def _mat(rows):
    return [[GR(*c) if isinstance(c, tuple) else GR(c) for c in row] for row in rows]


def _cleared(matrix):
    return linalg.clear_rows(matrix)[0]


def test_clear_rows_gives_gaussian_int_rows_and_an_int_scale():
    m = [[GR(Fraction(1, 2)), GR(0, Fraction(-2, 3)), GR(5)], [GR(1, 1), GR(0), GR(Fraction(3, 4))]]
    rows, scale = linalg.clear_rows(m)
    assert type(scale) is int and scale == 6 * 4
    assert all(type(z) is GI and type(z.re) is type(z.im) is int for row in rows for z in row)
    assert [[tuple(z) for z in row] for row in rows] == [[(3, 0), (0, -4), (30, 0)],
                                                          [(4, 4), (0, 0), (3, 0)]]


def test_det_2x2():
    assert det(_mat([[1, 2], [3, 4]])) == GR(-2)


def test_det_identity_and_swap():
    assert det(_mat([[1, 0], [0, 1]])) == GR(1)
    assert det(_mat([[0, 1], [1, 0]])) == GR(-1)


def test_det_complex_entries():
    # det [[i, 1], [1, i]] = i*i - 1 = -2
    assert det(_mat([[(0, 1), 1], [1, (0, 1)]])) == GR(-2)


def test_det_rational_entries():
    m = [[GR(Fraction(1, 2)), GR(Fraction(1, 3))], [GR(Fraction(1, 4)), GR(Fraction(1, 5))]]
    assert det(m) == GR(Fraction(1, 10) - Fraction(1, 12))


def test_det_singular():
    assert det(_mat([[1, 2], [2, 4]])).is_zero()


def test_det_vs_cofactor_3x3():
    rows = [[2, -1, 3], [0, 4, 1], [-2, 5, 7]]

    def cof(m):
        if len(m) == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * cof([r[:j] + r[j + 1 :] for r in m[1:]])
            for j in range(len(m))
        )

    assert det(_mat(rows)) == GR(cof(rows))


def test_det_vs_cofactor_with_a_row_that_skips_a_step():
    # after the first step the third row is 0 in column 1, so the second
    # step updates it by pivot * b / prev alone, with prev = 2
    rows = [[2, 1, 3, 1], [4, 3, 1, 2], [2, 1, 5, (7, 1)], [0, 2, (1, -3), 1]]
    m = _mat(rows)

    def cof(m):
        if len(m) == 1:
            return m[0][0]
        return sum(
            ((-1) ** j * m[0][j] * cof([r[:j] + r[j + 1 :] for r in m[1:]]) for j in range(len(m))),
            GR(0),
        )

    assert det(m) == cof(m) != GR(0)


def test_rank_and_nullspace():
    m = _mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    ns = linalg.nullspace(_cleared(m), 3)
    assert len(ns) == 1
    v = qi_vector(ns[0])
    for row in m:
        assert sum((row[j] * v[j] for j in range(3)), GR(0)).is_zero()


def test_nullspace_of_empty_matrix():
    basis = linalg.nullspace([], ncols=4)
    assert len(basis) == 4


def test_nullspace_full_rank():
    assert linalg.nullspace([[GI(1), GI(0)], [GI(0), GI(1)]], 2) == []


def test_nullspace_matches_qi_back_substitution():
    # rank-deficient Z[i] matrices (products of n x r and r x c factors)
    # whose column 1 is (2 - i) times column 0, so it is free between two
    # pivots, and with one random column zeroed, which can make column 0 free
    rng = SplitMix64(0x5EED)

    def gi():
        return GI(rng.int_in(-9, 9), rng.int_in(-9, 9))

    checked = 0
    for n, r, c in ((3, 2, 5), (4, 2, 6), (5, 3, 7), (6, 4, 8), (7, 5, 9)):
        for _ in range(4):
            left = [[gi() for _ in range(r)] for _ in range(n)]
            right = [[gi() for _ in range(c)] for _ in range(r)]
            rows = [
                [sum((u[k] * right[k][j] for k in range(r)), GI(0)) for j in range(c)]
                for u in left
            ]
            zero = rng.int_in(0, c - 1)
            for row in rows:
                row[1] = row[0] * GI(2, -1)
                row[zero] = GI(0)
            kernel = linalg.nullspace(rows, c)
            assert [qi_vector(v) for v in kernel] == reference_nullspace(rows, c)
            for v, den in kernel:  # in lowest terms
                assert den > 0 and gcd(den, *(x for z in v for x in z)) == 1
            assert len(kernel) >= c - r and linalg.annihilates(rows, kernel)
            checked += 1
    free0 = [[GI(0), GI(2, 1), GI(4, 2), GI(1)], [GI(0), GI(0, 3), GI(0, 6), GI(1, -1)]]
    kernel = linalg.nullspace(free0, 4)
    assert [qi_vector(v) for v in kernel] == reference_nullspace(free0, 4)
    assert kernel[0] == ([GI(1), GI(0), GI(0), GI(0)], 1)
    assert checked == 20


def test_nullity():
    assert nullity(_mat([[1, 1, 1]])) == 2
    assert nullity([], ncols=7) == 7


def test_annihilates():
    m_q = [
        [GR(Fraction(1, 2)), GR(0, 1), GR(3), GR(Fraction(-2, 7), 1)],
        [GR(1), GR(1), GR(Fraction(1, 3), -2), GR(0)],
    ]
    m = _cleared(m_q)
    kernel = linalg.nullspace(m, 4)
    assert m == _cleared(m_q)  # the rows are left unchanged
    assert len(kernel) == 2
    assert linalg.annihilates(m, kernel)
    assert linalg.annihilates([], kernel) and linalg.annihilates(m, [])
    bent = [qi_vector(v) for v in kernel]
    bent[1][0] = bent[1][0] + GR(Fraction(1, 5))
    assert not linalg.annihilates(m, zi_vectors(bent))
    # [1, 1] . [-1, 1 + i] = i: zero real part, nonzero imaginary part
    assert not linalg.annihilates([[GI(1), GI(1)]], zi_vectors(_mat([[-1, (1, 1)]])))
