from fractions import Fraction

from flagcalc import linalg
from flagcalc.gaussian import GaussianRational as GR

from oracles import det, nullity, rank


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
