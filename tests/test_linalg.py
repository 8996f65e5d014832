from fractions import Fraction

from flagcalc import linalg
from flagcalc.gaussian import GaussianRational as GR
from flagcalc.sampling import SplitMix64

from oracles import det, nullity, rank, reference_nullspace


def _mat(rows):
    return [[GR(*c) if isinstance(c, tuple) else GR(c) for c in row] for row in rows]


def _cleared(matrix):
    return linalg.clear_rows(matrix)[0]


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
    v = ns[0]
    for row in m:
        assert sum((row[j] * v[j] for j in range(3)), GR(0)).is_zero()


def test_nullspace_of_empty_matrix():
    basis = linalg.nullspace([], ncols=4)
    assert len(basis) == 4


def test_nullspace_full_rank():
    assert linalg.nullspace([[(1, 0), (0, 0)], [(0, 0), (1, 0)]], 2) == []


def test_nullspace_matches_qi_back_substitution():
    # rank-deficient Z[i] matrices (products of n x r and r x c factors)
    # whose column 1 is (2 - i) times column 0, so it is free between two
    # pivots, and with one random column zeroed, which can make column 0 free
    rng = SplitMix64(0x5EED)

    def gi():
        return (rng.int_in(-9, 9), rng.int_in(-9, 9))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    checked = 0
    for n, r, c in ((3, 2, 5), (4, 2, 6), (5, 3, 7), (6, 4, 8), (7, 5, 9)):
        for _ in range(4):
            left = [[gi() for _ in range(r)] for _ in range(n)]
            right = [[gi() for _ in range(c)] for _ in range(r)]
            rows = [
                [
                    (sum(mul(u[k], right[k][j])[0] for k in range(r)),
                     sum(mul(u[k], right[k][j])[1] for k in range(r)))
                    for j in range(c)
                ]
                for u in left
            ]
            zero = rng.int_in(0, c - 1)
            for row in rows:
                row[1] = mul(row[0], (2, -1))
                row[zero] = (0, 0)
            kernel = linalg.nullspace(rows, c)
            assert kernel == reference_nullspace(rows, c)
            assert len(kernel) >= c - r and linalg.annihilates(rows, kernel)
            checked += 1
    free0 = [[(0, 0), (2, 1), (4, 2), (1, 0)], [(0, 0), (0, 3), (0, 6), (1, -1)]]
    kernel = linalg.nullspace(free0, 4)
    assert kernel == reference_nullspace(free0, 4)
    assert kernel[0] == [GR(1), GR(0), GR(0), GR(0)]
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
    bent = [list(v) for v in kernel]
    bent[1][0] = bent[1][0] + GR(Fraction(1, 5))
    assert not linalg.annihilates(m, bent)
    # [1, 1] . [-1, 1 + i] = i: zero real part, nonzero imaginary part
    assert not linalg.annihilates([[(1, 0), (1, 0)]], _mat([[-1, (1, 1)]]))
