"""Exact linear algebra over Q(i) on Gaussian-integer rows.

Rows are Gaussian-integer (re, im) pairs; clear_rows, which scales each
Q(i) row by the lcm of its denominators, is the one way in from Q(i): the
point reader (flag.ProjPoint), the surface restricted to a conic, the
ruling and ruled surface (ruled) and the census surface (fpcensus) are all
cleared by it, and nothing else turns Gaussian rationals into integers.  Rows
are reduced by fraction-free Bareiss condensation: every intermediate
entry is a minor of the matrix, so all divisions are exact integer
divisions and no rational arithmetic happens inside the elimination loop.
Pivots are chosen by smallest digit size with row order as the tie break,
which keeps the whole pipeline deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gaussian import ZERO, GaussianRational

Pair = tuple[int, int]


def _gi_div(a: Pair, b: Pair) -> Pair:
    """Exact division in Z[i]; the caller guarantees divisibility."""
    br, bi = b
    if bi == 0:
        if br == 1:
            return a
        return (a[0] // br, a[1] // br)
    n = br * br + bi * bi
    nr = a[0] * br + a[1] * bi
    ni = a[1] * br - a[0] * bi
    return (nr // n, ni // n)


def clear_rows(matrix) -> tuple[list[list[Pair]], Fraction]:
    """Scale each row by the lcm of its denominators.

    Returns integer-pair rows plus the product of the scale factors, which
    is what the determinant of the scaled matrix must be divided by.
    """
    out = []
    scale = Fraction(1)
    for row in matrix:
        l = 1
        for z in row:
            l = math.lcm(l, z.re.denominator, z.im.denominator)
        scale *= l
        out.append([(int(z.re * l), int(z.im * l)) for z in row])
    return out, scale


def echelon_int(rows: list[list[Pair]], ncols: int):
    """Fraction-free row echelon form in place.

    Returns (pivots, sign) where pivots is the list of (row, col) positions.
    """
    m = len(rows)
    k = 0
    prev: Pair = (1, 0)
    sign = 1
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        if k >= m:
            break
        best = -1
        best_size = None
        for r in range(k, m):
            ar, ai = rows[r][c]
            if ar or ai:
                size = abs(ar).bit_length() + abs(ai).bit_length()
                if best_size is None or size < best_size:
                    best, best_size = r, size
        if best < 0:
            continue
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            sign = -sign
        krow = rows[k]
        pr, pi = krow[c]
        for r in range(k + 1, m):
            # (pivot * b - x * a) / prev, also for x = 0 and prev = 1
            rrow = rows[r]
            xr, xi = rrow[c]
            for j in range(c + 1, ncols):
                ar, ai = krow[j]
                br, bi = rrow[j]
                nr = pr * br - pi * bi - (xr * ar - xi * ai)
                ni = pr * bi + pi * br - (xr * ai + xi * ar)
                rrow[j] = _gi_div((nr, ni), prev)
            rrow[c] = (0, 0)
        prev = (pr, pi)
        pivots.append((k, c))
        k += 1
    return pivots, sign


def nullspace(rows: list[list[Pair]], ncols: int) -> list[list[GaussianRational]]:
    """Basis of the right kernel of Gaussian-integer rows, one vector per
    free column.

    The basis vector attached to a free column has a 1 there and support on
    the pivot columns only, so the output is canonical for a fixed matrix.
    With d the last pivot before the free column, d is the minor on the
    pivot rows and columns before it, so by Cramer's rule d times the
    vector is in Z[i]: back-substitution divides exactly in Z[i], and each
    entry is divided by d once at the end.
    """
    rows = [list(row) for row in rows]  # echelon_int works in place
    pivots, _ = echelon_int(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        before = [(rows[pr], pc) for pr, pc in pivots if pc < fc]
        d = before[-1][0][before[-1][1]] if before else (1, 0)
        w = {fc: d}  # d times the basis vector, on its support
        for row, pc in reversed(before):
            sr = si = 0
            for j, (wr, wi) in w.items():
                ar, ai = row[j]
                sr += ar * wr - ai * wi
                si += ar * wi + ai * wr
            if sr or si:
                w[pc] = _gi_div((-sr, -si), row[pc])
        # x / d = x conj(d) / N with N = |d|^2, one Fraction per part
        dr, di = d
        n = dr * dr + di * di
        vec = [ZERO] * ncols
        for j, (wr, wi) in w.items():
            re, im = Fraction(wr * dr + wi * di, n), Fraction(wi * dr - wr * di, n)
            vec[j] = GaussianRational(re, im)
        basis.append(vec)
    return basis


def annihilates(rows: list[list[Pair]], vectors) -> bool:
    """Whether every Gaussian-integer row times every vector over Q(i) is
    exactly 0.

    The vectors are cleared to Z[i] first; scaling a vector by a nonzero
    integer does not change whether a product vanishes.
    """
    ivecs, _ = clear_rows(vectors)
    for v in ivecs:
        support = [(j, vr, vi) for j, (vr, vi) in enumerate(v) if vr or vi]
        for row in rows:
            sr = si = 0
            for j, vr, vi in support:
                ar, ai = row[j]
                sr += ar * vr - ai * vi
                si += ar * vi + ai * vr
            if sr or si:
                return False
    return True
