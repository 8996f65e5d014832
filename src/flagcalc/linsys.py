"""Exact interpolation through prescribed conics.

Sections of the (a, b) polarization on the flag threefold are represented
by their canonical coefficients on the quotient monomial basis (monomials
not divisible by p0*l0).  A conic imposes the a+b+1 coefficients of the
restriction map as linear conditions.  They are built once, exactly, as
Gaussian-integer rows (condition_matrix).  Their image mod modp.PRIME,
with i sent to I_MOD, is eliminated first, and the rank mod p bounds the
exact rank from below.  A dimension is returned from F_p only when the row
count bounds it from the other side, after the forward pass alone
(modp.echelon).  Otherwise, and for every kernel basis, the kernel is found
in this order:
  1. the forward pass over the image of the rows (modp.echelon) picks the
     pivot rows, those independent mod p, and is back-reduced once
     (modp.back_reduce); the image of the pivot rows with i sent to -I_MOD
     is the only second elimination, back-reduced only when its pivot
     columns agree;
  2. the real and imaginary parts of each kernel entry are read back from
     the two images (modp.reconstruct);
  3. the certificate multiplies every row of every conic with every basis
     vector exactly, which proves the kernel complete;
  4. when the images disagree, an entry does not reconstruct or the
     certificate fails, the pivot rows are eliminated by fraction-free
     Bareiss and certified again, and all rows when that fails too.
Every dimension and basis reported here is exact.  The singular points of
a member along a conic are flag.singular_points_on_conic's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg, modp
from .biforms import BiForm, quotient_monomials
from .errors import EmptySystemError, FlagcalcError, PreconditionError
from .flag import Conic, monomial_restrictions
from .gaussian import ONE, ZERO, GaussianInt, GaussianRational
from .invariants import h0_flag
from .sampling import SplitMix64


class ConditionMatrix(NamedTuple):
    """Linear conditions imposed by conics on the (a, b) coefficient space.

    One block of a+b+1 rows per conic; one column per quotient monomial
    (not divisible by p0*l0) in the fixed descending-lex order.  Entries
    are Gaussian integers as (re, im) pairs.  A coefficient vector lies in
    the kernel exactly when the corresponding form vanishes on every conic.
    """

    bidegree: tuple[int, int]
    conics: list[Conic]
    columns: list
    rows: list[list[linalg.Pair]]


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
        block = [[(0, 0)] * len(cols) for _ in range(a + b + 1)]
        for j, r in enumerate(monomial_restrictions(cols, (a, b), q, m).values()):
            for k, c in enumerate(r):
                if c:  # the int 1 only at (0, 0), whose one column is the constant
                    block[k][j] = (c.re, c.im) if type(c) is GaussianInt else (c, 0)
        rows.extend(block)
    return ConditionMatrix((a, b), conics, cols, rows)


def _fp_kernel(rows: list[list[linalg.Pair]], cols, red1, ncols: int):
    """The reduced-echelon kernel of Gaussian-integer rows read back from
    F_p, or None when the two images disagree or an entry does not
    reconstruct.

    cols and red1 are the pivot columns and reduced rows of the rows' image
    with i sent to I_MOD (modp.back_reduce); the image with i sent to
    -I_MOD is eliminated here, and reduced once its pivot columns agree.
    A kernel entry re + i im maps to k1 = re + I_MOD im and k2 = re - I_MOD
    im, so re = (k1 + k2)/2 and im = (k1 - k2)/(2 I_MOD) mod p, each read
    back by modp.reconstruct.  The vector of a free column f has 1 at f
    and support on the pivot columns before f, the form linalg.nullspace
    gives; the caller proves it.
    """
    p, i = modp.PRIME, modp.I_MOD
    _, cols2, normed2 = modp.echelon(modp.reduce_rows(rows, p - i), ncols)
    if set(cols) != set(cols2):
        return None
    conj = dict(zip(cols2, modp.back_reduce(cols2, normed2, ncols)))
    pivots = sorted((c, r1, conj[c]) for c, r1 in zip(cols, red1))
    half = (p + 1) // 2
    im_scale = pow(2 * i, -1, p)
    kernel = []
    for f in range(ncols):
        if f in conj:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for c, r1, r2 in pivots:
            if c > f:
                break
            k1, k2 = -r1[f], -r2[f]
            if not (k1 or k2):
                continue
            re = modp.reconstruct((k1 + k2) * half, p)
            im = modp.reconstruct((k1 - k2) * im_scale, p)
            if re is None or im is None:
                return None
            v[c] = GaussianRational(Fraction(*re), Fraction(*im))
        kernel.append(v)
    return kernel


def _certified_kernel(cm: ConditionMatrix, pivots, cols, normed):
    """The reduced-echelon kernel of cm from its pivot rows alone, proved by
    linalg.annihilates on every row (a block of a+b+1 rows times a vector
    is that surface's restriction to the conic).  pivots, cols and normed
    are the echelon form of cm's rows with i sent to I_MOD, as modp.echelon
    gives them; it is back-reduced once, and the kernel is read back from
    F_p first (_fp_kernel).  When that fails, or its proof does, the pivot
    rows are eliminated exactly by Bareiss and proved; when that proof
    fails too (p divides a minor the rank needs), all rows are, and proved
    again.

    The F_p kernel has ncols - rank_p vectors, and rank_p is at most the
    exact rank, so once proved it spans the exact kernel; a kernel has one
    basis of that form, so it is the one Bareiss would give.
    """
    ncols = len(cm.columns)
    rows = [cm.rows[r] for r in pivots]
    kernel = _fp_kernel(rows, cols, modp.back_reduce(cols, normed, ncols), ncols)
    if kernel is not None and linalg.annihilates(cm.rows, kernel):
        return kernel
    for exact in (rows, cm.rows):
        kernel = linalg.nullspace(exact, ncols=ncols)
        if linalg.annihilates(cm.rows, kernel):
            return kernel
    raise FlagcalcError("the exact kernel of the condition matrix fails its certificate")


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
    pivots, cols, normed = modp.echelon(modp.reduce_rows(cm.rows, modp.I_MOD), ncols)
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
    free column, which is unique for the kernel.  Exact elimination runs
    only on the rows that are independent mod p, and a certificate proves
    that loses nothing.
    """
    cm = condition_matrix(a, b, conics)
    image = modp.echelon(modp.reduce_rows(cm.rows, modp.I_MOD), len(cm.columns))
    kernel = _certified_kernel(cm, *image)
    basis = [BiForm((a, b), {cm.columns[j]: c for j, c in enumerate(v) if c}) for v in kernel]
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
            c = GaussianRational(rng.int_in(-9, 9), rng.int_in(-9, 9))
            if c:
                member = member + F.scale(c)
        if not member.is_zero():
            return member
