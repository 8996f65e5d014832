"""Arithmetic in the prime fields F_p, the one module that knows them.

PRIME = 2^61 - 31 is 1 (mod 4).  Sending i to a square root of -1 mod p
maps every Gaussian rational whose denominators p does not divide into F_p;
the map is a ring homomorphism, so a rank mod p never exceeds the exact one.
"""

from __future__ import annotations

from math import isqrt

from .errors import PreconditionError


def is_odd_prime(p: int) -> bool:
    return p > 2 and p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2))


def sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 mod a prime p = 1 (mod 4), from the least
    non-residue c as c^((p-1)/4); a composite p without one raises."""
    if p % 4 != 1:
        raise PreconditionError("i has no image mod p unless p = 1 (mod 4)")
    for c in range(2, p):
        r = pow(c, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return min(r, p - r)
    raise PreconditionError(f"no square root of -1 mod {p}")


PRIME = 2305843009213693921  # 2^61 - 31
I_MOD = sqrt_minus_one(PRIME)


def gaussian_mod_p(z, p: int, i_img: int) -> int | None:
    """The image of z in F_p, i sent to i_img; None when p divides a denominator."""
    v = 0
    for part, unit in ((z.re, 1), (z.im, i_img)):
        if part:
            den = part.denominator
            if den % p == 0:
                return None
            v += unit * part.numerator * pow(den, -1, p)
    return v % p


def reduce_rows(rows: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Rows of Gaussian-integer (re, im) pairs mod PRIME, i sent to I_MOD."""
    p, i = PRIME, I_MOD
    return [[(re + i * im) % p for re, im in row] for row in rows]


def canonical(x, p: int) -> tuple[int, ...]:
    """The representative of a point of P2(F_p) with first nonzero entry 1."""
    x = [c % p for c in x]
    lead = next((c for c in x if c), 0)
    if not lead:
        raise PreconditionError("(0, 0, 0) is not a projective point")
    return tuple(c * pow(lead, -1, p) % p for c in x)


def echelon(rows: list[list[int]], ncols: int):
    """Row echelon form over F_p (p = PRIME) of integer rows, built greedily
    in row order; the rows are not modified.  Returns (pivot_rows,
    pivot_cols): the rows independent of the rows before them, in increasing
    order, and the column each pivots on; their number is the rank mod p.
    """
    p = PRIME
    reduced: dict[int, list[int]] = {}  # pivot column -> row with 1 there
    pivot_rows: list[int] = []
    for r, row in enumerate(rows):
        if len(reduced) == ncols:
            break
        v = [x % p for x in row]
        for c in range(ncols):
            x = v[c]
            if not x:
                continue
            prow = reduced.get(c)
            if prow is None:
                inv = pow(x, -1, p)
                reduced[c] = [y * inv % p for y in v]
                pivot_rows.append(r)
                break
            v[c:] = [(y - x * z) % p for y, z in zip(v[c:], prow[c:])]
    return pivot_rows, list(reduced)
