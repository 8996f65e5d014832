"""Exact interpolation through prescribed conics.

Sections of the (a, b) polarization on the flag threefold are represented
by their canonical coefficients on the quotient monomial basis (monomials
not divisible by p0*l0).  A conic imposes the a+b+1 coefficients of the
restriction map as linear conditions, built once, exactly, as GaussianInt
rows (condition_matrix).  Their image mod modp.PRIME, with i sent to I_MOD,
is eliminated first, and the rank mod p bounds the exact rank from below.
A dimension is returned from F_p only when the row count bounds it from
the other side, after the forward pass alone (modp.echelon).  Otherwise,
and for every kernel basis, the kernel comes from F_p over as many primes
(modp.primes) as its proof needs: the images of the rows with i sent to r
and to -r, r^2 = -1 mod p, give the real and imaginary parts of its
entries, combined by the Chinese remainder theorem and read back as
fractions (modp.reconstruct) until linalg.annihilates proves the kernel on
every row of every conic.  Every dimension and basis reported here is
exact.  The singular points of a member along a conic are
flag.singular_points_on_conic's.
"""

from __future__ import annotations

from math import isqrt, lcm
from typing import NamedTuple

from . import linalg, modp
from .biforms import BiForm, from_ints, quotient_monomials
from .errors import EmptySystemError, FlagcalcError, PreconditionError
from .flag import Conic, monomial_restrictions
from .invariants import h0_flag
from .linalg import GaussianInt
from .sampling import SplitMix64

KERNEL_MAX_SECONDS = 60  # a kernel whose primes would take longer is refused


class ConditionMatrix(NamedTuple):
    """Linear conditions imposed by conics on the (a, b) coefficient space.

    One block of a+b+1 rows per conic; one column per quotient monomial
    (not divisible by p0*l0) in the fixed descending-lex order.  Entries
    are GaussianInt.  A coefficient vector lies in the kernel exactly when
    the corresponding form vanishes on every conic.
    """

    bidegree: tuple[int, int]
    conics: list[Conic]
    columns: list
    rows: list[list[GaussianInt]]


def condition_matrix(a: int, b: int, conics) -> ConditionMatrix:
    """Assemble the containment conditions for a list of smooth conics;
    the kernel is exactly the linear system through them.

    Each conic's q and m are stored in Z[i] as lam and mu times their
    pivot-1 forms (flag.ProjPoint), and its block copies the columns'
    restrictions along its chart (flag.monomial_restrictions).  Its p-forms
    scale by mu and its l-forms by lam*mu, so the block is the Q(i) one
    times the nonzero integer mu^(a+b) lam^b, with the same kernel.
    """
    if a < 0 or b < 0:
        raise PreconditionError("h0 requires nonnegative bidegree")
    conics = list(conics)
    if not all(C.is_smooth for C in conics):
        raise PreconditionError("condition matrix requires smooth conics")
    if len(set(conics)) != len(conics):
        raise PreconditionError("conics must be pairwise distinct")
    cols = quotient_monomials(a, b)
    rows = []
    for q, m in ((C.q.coords, C.m.coords) for C in conics):
        block = [[GaussianInt(0)] * len(cols) for _ in range(a + b + 1)]
        for j, r in enumerate(monomial_restrictions(cols, (a, b), q, m).values()):
            for k, c in enumerate(r):
                if c:  # the int 1 only at (0, 0), whose one column is the constant
                    block[k][j] = c if type(c) is GaussianInt else GaussianInt(c)
        rows.extend(block)
    return ConditionMatrix((a, b), conics, cols, rows)


def _kernel_budget(cm: ConditionMatrix, pivots) -> tuple[int, int]:
    """The modulus bits and primes by which the kernel of cm's pivot rows
    reads back (its entries are N/D for minors under the rows' Hadamard bound
    H, with parts of height H^2), refused when its primes would take over
    KERNEL_MAX_SECONDS at 5 us per cell of (rows + pivot rows) x columns."""
    bits = 4 * sum((sum(z.re * z.re + z.im * z.im for z in cm.rows[r]).bit_length() + 1) // 2
                   for r in pivots) + 2
    primes = bits // (modp.PRIME.bit_length() - 1) + 1
    shape = f"{len(cm.rows)} + {len(pivots)} rows x {len(cm.columns)} columns"
    est = 5e-6 * primes * (len(cm.rows) + len(pivots)) * len(cm.columns)
    if est > KERNEL_MAX_SECONDS:
        raise PreconditionError(f"the exact kernel takes about {est:.3g} s ({primes} primes on "
                                f"{shape}), over the cap {KERNEL_MAX_SECONDS} s")
    return bits, primes


def _read_back(acc, m: int, ncols: int):
    """The kernel vectors (entries, den) in lowest terms read back mod m, or
    None.  den is the lcm of the denominators read so far; a part whose
    den-multiple is a small symmetric residue skips modp.reconstruct."""
    bound, kernel = isqrt(m // 2), []
    for f, entries in acc.items():
        den, parts = 1, []
        for u in (u for e in entries for u in e[1:]):
            s = (den * u + bound) % m - bound
            got = (s, den) if abs(s) <= bound else modp.reconstruct(u, m)
            if got is None:
                return None
            den = lcm(den, got[1])
            parts.append(got)
        v = [GaussianInt(0)] * ncols
        v[f] = GaussianInt(den)
        for e, (rn, rd), (jn, jd) in zip(entries, parts[::2], parts[1::2]):
            v[e[0]] = GaussianInt(rn * (den // rd), jn * (den // jd))
        kernel.append((v, den))
    return kernel


def _certified_kernel(cm: ConditionMatrix, pivots, cols, normed):
    """The reduced-echelon kernel of cm, as nullspace gives it, from F_p; the
    first prime's forward pass is given, as modp.echelon returns it.  The
    primes folded agree on rank and pivot columns (best): a prime whose
    images disagree or whose rank or columns are worse (lower, or later) is
    skipped, and a better one restarts the fold.  Past _kernel_budget the
    kernel fails its certificate (linalg.annihilates on every row).  A
    proved kernel mod p has ncols - rank_p >= ncols - rank vectors."""
    ncols = len(cm.columns)
    best, budget, m, skipped = (1, []), None, 1, 0  # best: (-rank, pivot columns)
    for k, p in enumerate(modp.primes()):
        i = modp.sqrt_minus_one(p)
        if k:
            pivots, cols, normed = modp.echelon(modp.reduce_rows(cm.rows, p, i), ncols, p)
        key = (-len(cols), sorted(cols))
        if key <= best:
            conj = modp.reduce_rows([cm.rows[r] for r in pivots], p, p - i)
            _, cols2, normed2 = modp.echelon(conj, ncols, p)
        if key > best or set(cols2) != set(cols):
            skipped += 1
        else:
            if key != best:  # free column f -> [c, re, im] for pivot columns c < f
                best, budget, m, folded, due = key, None, 1, 0, 1
                acc = {f: [[c, 0, 0] for c in key[1] if c < f]
                       for f in sorted(set(range(ncols)) - set(cols))}
            one = dict(zip(cols, modp.back_reduce(cols, normed, ncols, p)))
            two = dict(zip(cols2, modp.back_reduce(cols2, normed2, ncols, p)))
            half, im_scale, inv = (p + 1) // 2, pow(2 * i, -1, p), pow(m, -1, p)
            for f, entries in acc.items():  # entry c of f is -one[c][f] and -two[c][f] mod p
                for e in entries:
                    x, y = one[e[0]][f], two[e[0]][f]
                    e[1] += m * ((-(x + y) * half - e[1]) % p * inv % p)
                    e[2] += m * (((y - x) * im_scale - e[2]) % p * inv % p)
            m, folded = m * p, folded + 1
            if folded == due or budget and m.bit_length() > budget[0]:
                due = 2 * due if due < 8 else due + due // 4
                kernel = _read_back(acc, m, ncols)
                if kernel is not None and linalg.annihilates(cm.rows, kernel):
                    return kernel
        budget = budget or _kernel_budget(cm, pivots)
        if m.bit_length() > budget[0] or skipped > budget[1]:
            raise FlagcalcError(f"the exact kernel of the condition matrix fails its "
                                f"certificate after {k + 1} primes")


def system_dimension(a: int, b: int, conics) -> int:
    """Exact dimension of the space of (a, b) forms through the conics,
    measured inside the h0_flag(a, b)-dimensional section space.

    The rank mod p bounds the exact rank from below, so the nullity mod p
    bounds the dimension from above; the row count bounds it from below
    by expected_system_dimension.  When the two bounds meet, that is the
    answer; otherwise the size of the certified kernel is.
    """
    cm = condition_matrix(a, b, conics)
    ncols = len(cm.columns)
    pivots, cols, normed = modp.echelon(modp.reduce_rows(cm.rows, modp.PRIME, modp.I_MOD), ncols)
    nullity = ncols - len(pivots)
    if nullity == max(ncols - len(cm.rows), 0):
        return nullity
    return len(_certified_kernel(cm, pivots, cols, normed))


def expected_system_dimension(a: int, b: int, x: int) -> int:
    """Dimension when x disjoint conics impose independent conditions."""
    return max(h0_flag(a, b) - x * (a + b + 1), 0)


def independence_guaranteed(a: int, b: int, x: int) -> bool:
    """Whether x general disjoint conics are known to impose independent
    conditions on (a, b) forms: b >= a >= 1 and x <= a(a-1)/2."""
    return 1 <= a <= b and 0 <= x <= a * (a - 1) // 2


class SurfaceFamily(NamedTuple):
    """A basis of the linear system of (a, b) surfaces through conics."""

    bidegree: tuple[int, int]
    prescribed: list[Conic]
    basis: list[BiForm]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def surface_family(a: int, b: int, conics) -> SurfaceFamily:
    """The linear system of (a, b) surfaces through the conics, with the
    reduced-echelon kernel basis of the condition matrix: one vector per
    free column, which is unique for the kernel.  It is read back from F_p
    over as many primes as it needs, and a certificate proves it exact.
    """
    cm = condition_matrix(a, b, conics)
    image = modp.echelon(modp.reduce_rows(cm.rows, modp.PRIME, modp.I_MOD), len(cm.columns))
    kernel = _certified_kernel(cm, *image)
    basis = [from_ints((a, b), dict(zip(cm.columns, v)), den) for v, den in kernel]
    return SurfaceFamily((a, b), cm.conics, basis)


def surface_through_conics(a: int, b: int, conics, seed: int) -> BiForm:
    """A seeded pseudo-random member of the system through the conics."""
    return family_member(surface_family(a, b, conics), seed)


def family_member(family: SurfaceFamily, seed: int) -> BiForm:
    """A seeded pseudo-random nonzero combination of the family's basis.

    It contains every prescribed conic without a check of its own: the
    basis of surface_family is certified by linalg.annihilates to kill
    every condition row, so every combination of it does too.
    """
    if not family.basis:
        raise EmptySystemError("the linear system through these conics is empty")
    a, b = family.bidegree
    rng = SplitMix64(seed)
    while True:
        member = BiForm((a, b))
        for F in family.basis:
            member = member + F.scale(GaussianInt(rng.int_in(-9, 9), rng.int_in(-9, 9)))
        if not member.is_zero():
            return member
