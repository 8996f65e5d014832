"""Arithmetic in the prime fields F_p, the one module that knows them.

PRIME = 2^61 - 31, 1 (mod 4), starts primes(), the kernel moduli.  Sending
i to a square root of -1 mod p maps Z[i] onto F_p (reduce_rows, the one
such map: the condition rows mod a kernel prime and the census surface mod
a small p); it is a ring homomorphism, so a rank mod p never exceeds the
exact one.  Nothing here reads a Gaussian rational.

Row elimination (echelon, then back_reduce) works on packed rows: a row
of F_p entries is one int with a fixed-width slot per column, so
eliminating against a pivot row is one big-int multiply and add.
reconstruct reads a fraction of small height back from its image.
"""

from __future__ import annotations

from itertools import count, repeat
from math import gcd, isqrt

from .errors import PreconditionError


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime: trial division by 3-23, then Miller-Rabin
    on the first 13 primes as bases, exact below 3.3e24 (Sorenson-Webster)."""
    if p < 3 or p % 2 == 0 or gcd(p, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23) not in (1, p):
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d, d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (p - 1) >> s, p)
        if a % p and x != 1 and all(pow(x, 2**j, p) != p - 1 for j in range(s)):
            return False
    return True


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


def primes():
    """PRIME, as it is at this call, then each larger prime = 1 (mod 4)."""
    return (p for p in count(PRIME + (1 - PRIME) % 4, 4) if is_odd_prime(p))


def reduce_rows(rows, p: int, i_img: int) -> list[list[int]]:
    """Rows of GaussianInt mod p, i sent to i_img."""
    return [[(z.re + i_img * z.im) % p for z in row] for row in rows]


def canonical(x, p: int) -> tuple[int, ...]:
    """The representative of a point of P2(F_p) with first nonzero entry 1."""
    x = [c % p for c in x]
    lead = next((c for c in x if c), 0)
    if not lead:
        raise PreconditionError("(0, 0, 0) is not a projective point")
    return tuple(c * pow(lead, -1, p) % p for c in x)


def _slot_bytes(p: int, ncols: int) -> int:
    """Bytes per column of a packed row mod p.  A slot starts below p and an
    elimination step adds x * y < p^2 to it, at most ncols times, so
    2 bits(p) + bits(ncols) + 1 bits hold it and no slot carries into the
    next; the width is rounded up to whole bytes for to_bytes/from_bytes."""
    return (2 * p.bit_length() + ncols.bit_length() + 8) // 8


def _pack(values, nbytes: int) -> int:
    """One int with values[j] in slot j (bits 8 nbytes j and up); the values
    are nonnegative and fit the slot."""
    raw = b"".join(map(int.to_bytes, values, repeat(nbytes), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(packed: int, n: int, nbytes: int, p: int) -> list[int]:
    """The first n slots of a packed row, each reduced mod p."""
    raw = packed.to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[k : k + nbytes], "little") % p for k in range(0, n * nbytes, nbytes)]


def echelon(rows: list[list[int]], ncols: int, p: int | None = None):
    """Row echelon form over F_p (p = PRIME unless given) of integer rows of
    ncols entries, built greedily in row order; the rows are not modified.
    Returns (pivot_rows, pivot_cols, normed): the rows independent of the
    rows before them, in increasing order, the column each pivots on, and
    normed[k] row pivot_rows[k] as the elimination leaves it, over all
    ncols columns with 0 before pivot_cols[k] and 1 there.  Their number is
    the rank mod p.

    A row is packed once.  Its low slot is the first column not yet
    eliminated: the loop jumps over zero slots by the lowest set bit,
    reduces only the low slot mod p, and eliminates it by adding x times
    the negated pivot row (packed from the next column on) after shifting
    the slot out.
    """
    p = p or PRIME
    nbytes = _slot_bytes(p, ncols)
    width = 8 * nbytes
    mask = (1 << width) - 1
    negated: dict[int, int] = {}  # pivot column c -> -(its row) on columns c+1..
    normed: list[list[int]] = []
    pivot_rows: list[int] = []
    for r, row in enumerate(rows):
        if len(normed) == ncols:
            break
        u = _pack([x % p for x in row], nbytes)
        c = 0
        while u:
            x = u & mask
            if not x:
                skip = ((u & -u).bit_length() - 1) // width
                u >>= skip * width
                c += skip
                x = u & mask
            x %= p
            if x:
                prow = negated.get(c)
                if prow is None:
                    inv = pow(x, -1, p)
                    v = [y * inv % p for y in _unpack(u, ncols - c, nbytes, p)]
                    normed.append([0] * c + v)
                    negated[c] = _pack([-y % p for y in v[1:]], nbytes)
                    pivot_rows.append(r)
                    break
                u = (u >> width) + x * prow
            else:
                u >>= width
            c += 1
    return pivot_rows, list(negated), normed


def back_reduce(pivot_cols: list[int], normed: list[list[int]], ncols: int, p: int | None = None):
    """The fully reduced rows of an echelon form over F_p (p = PRIME unless
    given), as echelon gives pivot_cols and normed: reduced[k] has 1 at
    pivot_cols[k] and 0 at every other pivot column.

    It runs from the last pivot column down: a row becomes reduced once the
    fully reduced rows of the pivot columns after its own are subtracted,
    each times the row's entry there, which those rows, zero on each
    other's pivot columns, leave unchanged.
    """
    p = p or PRIME
    nbytes = _slot_bytes(p, ncols)
    negated: dict[int, int] = {}  # pivot column -> -(reduced row), all columns
    reduced: dict[int, list[int]] = {}
    for c, v in sorted(zip(pivot_cols, normed), reverse=True):
        u = _pack(v, nbytes)
        for c2, prow in negated.items():
            if v[c2]:
                u += v[c2] * prow
        reduced[c] = v = _unpack(u, ncols, nbytes, p)
        negated[c] = _pack([-y % p for y in v], nbytes)
    return [reduced[c] for c in pivot_cols]


def reconstruct(u: int, m: int):
    """The fraction n/d = u (mod m) with |n|, d <= sqrt(m/2), as (n, d) in
    lowest terms with d > 0, or None; there is at most one with d prime to
    m, since 2 sqrt(m/2)^2 <= m.  Wang's algorithm (1981): the extended
    Euclidean remainder sequence of (m, u) stops at the first remainder
    n <= sqrt(m/2), whose cofactor t has t u = n (mod m); the answer is
    n/t when |t| is in the bound and gcd(n, t) = 1.
    """
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)
