"""Z[i]: GaussianInt, the one Gaussian-integer value, and exact linear
algebra on its rows.  This module imports only math.

clear_rows scales each row, of Gaussian rationals or GaussianInts, by the
lcm of its denominators to GaussianInt.  Past it everything here is Z[i]:
a kernel vector comes out as its entries over one int denominator.
annihilates is the certificate of every kernel linsys reads back from F_p.
echelon_int and nullspace, fraction-free Bareiss with every division exact
in Z[i], are the full-matrix reference the tests compare those kernels
against; no request runs them.  Hot loops spell Z[i] products out on .re
and .im, 1.1-1.4x faster there than GaussianInt's operators.
"""

from __future__ import annotations

import math


class GaussianInt:
    """re + im*i with int parts, the one Gaussian-integer value.  Either factor
    of * may be an int (power_table's 1); // divides exactly, by an int or a
    divisor.  re, im = z unpacks it; hot loops read .re and .im, at half the cost."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re, self.im = re, im

    def __iter__(self):
        return iter((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def __add__(self, o):
        return GaussianInt(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussianInt(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, o):
        if type(o) is int:
            return GaussianInt(self.re * o, self.im * o)
        return GaussianInt(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __floordiv__(self, o):
        if type(o) is int:
            return GaussianInt(self.re // o, self.im // o)
        z, n = self * o.conjugate(), o.re * o.re + o.im * o.im  # z / o = z conj(o) / |o|^2
        return GaussianInt(z.re // n, z.im // n)

    def __eq__(self, o):
        return type(o) is GaussianInt and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))


def clear_rows(matrix) -> tuple[list[list[GaussianInt]], int]:
    """Scale each row by the lcm of its denominators.

    Returns GaussianInt rows plus the int product of the scale factors,
    which is what the determinant of the scaled matrix must be divided by.
    """
    out = []
    scale = 1
    for row in matrix:
        l = 1
        for z in row:
            l = math.lcm(l, z.re.denominator, z.im.denominator)
        scale *= l
        out.append([GaussianInt(z.re.numerator * (l // z.re.denominator),
                                z.im.numerator * (l // z.im.denominator)) for z in row])
    return out, scale


def echelon_int(rows: list[list[GaussianInt]], ncols: int):
    """Fraction-free row echelon form in place.

    Returns (pivots, sign) where pivots is the list of (row, col) positions.
    """
    m = len(rows)
    k = 0
    dr, di, norm = 1, 0, 1  # the previous pivot and its norm
    sign = 1
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        if k >= m:
            break
        best = -1
        best_size = None
        for r in range(k, m):
            z = rows[r][c]
            if z.re or z.im:
                size = abs(z.re).bit_length() + abs(z.im).bit_length()
                if best_size is None or size < best_size:
                    best, best_size = r, size
        if best < 0:
            continue
        if best != k:
            rows[k], rows[best] = rows[best], rows[k]
            sign = -sign
        krow = rows[k]
        pr, pi = krow[c].re, krow[c].im
        for r in range(k + 1, m):
            # (pivot * b - x * a) / prev, also for x = 0 and prev = 1
            rrow = rows[r]
            xr, xi = rrow[c].re, rrow[c].im
            for j in range(c + 1, ncols):
                a, b = krow[j], rrow[j]
                nr = pr * b.re - pi * b.im - (xr * a.re - xi * a.im)
                ni = pr * b.im + pi * b.re - (xr * a.im + xi * a.re)
                if di:  # times conj(prev), then over its norm
                    nr, ni = nr * dr + ni * di, ni * dr - nr * di
                rrow[j] = GaussianInt(nr // norm, ni // norm)
            rrow[c] = GaussianInt(0)
        dr, di, norm = pr, pi, (pr * pr + pi * pi if pi else pr)
        pivots.append((k, c))
        k += 1
    return pivots, sign


def nullspace(rows: list[list[GaussianInt]], ncols: int) -> list[tuple[list[GaussianInt], int]]:
    """Basis of the right kernel of Gaussian-integer rows, one vector per
    free column, each as (entries, den): the vector is entries / den, in
    lowest terms (den > 0 and gcd(den, every part of the entries) = 1).

    The basis vector attached to a free column has a 1 there and support on
    the pivot columns only, so the output is canonical for a fixed matrix.
    With d the last pivot before the free column, d is the minor on the
    pivot rows and columns before it, so by Cramer's rule d times the
    vector is in Z[i]: back-substitution divides exactly in Z[i], and the
    vector is d times it over d, that is times conj(d) over |d|^2.
    """
    rows = [list(row) for row in rows]  # echelon_int works in place
    pivots, _ = echelon_int(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        before = [(rows[pr], pc) for pr, pc in pivots if pc < fc]
        d = before[-1][0][before[-1][1]] if before else GaussianInt(1)
        w = {fc: d}  # d times the basis vector, on its support
        for row, pc in reversed(before):
            sr = si = 0
            for j, x in w.items():
                a = row[j]
                sr += a.re * x.re - a.im * x.im
                si += a.re * x.im + a.im * x.re
            if sr or si:
                w[pc] = GaussianInt(-sr, -si) // row[pc]
        dc, n = d.conjugate(), d.re * d.re + d.im * d.im
        w = {j: x * dc for j, x in w.items()}
        g = math.gcd(n, *(x.re for x in w.values()), *(x.im for x in w.values()))
        vec = [GaussianInt(0)] * ncols
        for j, x in w.items():
            vec[j] = x // g
        basis.append((vec, n // g))
    return basis


def annihilates(rows: list[list[GaussianInt]], vectors) -> bool:
    """Whether every Gaussian-integer row times every vector is exactly 0,
    for vectors (entries, den) as nullspace gives them; den, a nonzero
    integer scale, does not change whether a product vanishes."""
    for v, _ in vectors:
        support = [(j, z.re, z.im) for j, z in enumerate(v) if z]
        for row in rows:
            sr = si = 0
            for j, vr, vi in support:
                a = row[j]
                sr += a.re * vr - a.im * vi
                si += a.re * vi + a.im * vr
            if sr or si:
                return False
    return True
