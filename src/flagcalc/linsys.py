"""Exact interpolation through prescribed conics.

Sections of the (a, b) polarization on the flag threefold are represented
by their canonical coefficients on the quotient monomial basis (monomials
not divisible by p0*l0).  A conic imposes the a+b+1 coefficients of the
restriction map as linear conditions; kernels are computed by fraction-free
elimination, so every dimension reported here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import linalg
from .binforms import BinaryForm, bf_gcd
from .biforms import BiForm, monomials, quotient_monomials
from .errors import EmptySystemError, PreconditionError
from .flag import (
    Conic,
    FlagPoint,
    conic_param,
    contains_conic,
    power_table,
    pull,
    restrict_to_curve,
)
from .gaussian import ONE, ZERO, GaussianRational, gaussian_sqrt
from .sampling import SplitMix64, random_flag_point


def h0_flag(a: int, b: int) -> int:
    """dim H^0 of the (a, b) polarization on the flag threefold.

    Counts bidegree (a, b) monomials minus multiples of the incidence form:
    ((a+1)(a+2)(b+1)(b+2) - a(a+1)b(b+1)) / 4.
    """
    if a < 0 or b < 0:
        raise PreconditionError("h0 requires nonnegative bidegree")
    return ((a + 1) * (a + 2) * (b + 1) * (b + 2) - a * (a + 1) * b * (b + 1)) // 4


def h0_hirzebruch(side: str, a: int, b: int) -> int:
    """Sections of O(a, b) on a linear section of the flag.

    Side "X" is a surface of bidegree (1,0) and "Y" one of bidegree (0,1);
    both are Hirzebruch surfaces of type 1, giving a(b+1) + C(b+2, 2) and
    the a <-> b mirror respectively.
    """
    if a < 0 or b < 0:
        raise PreconditionError("h0 requires nonnegative bidegree")
    if side == "X":
        return a * (b + 1) + comb(b + 2, 2)
    if side == "Y":
        return b * (a + 1) + comb(a + 2, 2)
    raise PreconditionError("side must be 'X' or 'Y'")


@dataclass
class ConditionMatrix:
    """Linear conditions imposed by conics on the (a, b) coefficient space.

    One block of a+b+1 rows per conic; one column per monomial in the fixed
    descending-lex order.  A coefficient vector lies in the kernel exactly
    when the corresponding form vanishes on every conic.
    """

    bidegree: tuple[int, int]
    conics: list[Conic]
    columns: list
    rows: list[list[GaussianRational]]
    reduced: bool


def condition_matrix(a: int, b: int, conics, reduced: bool = False) -> ConditionMatrix:
    """Assemble the containment conditions for a list of smooth conics.

    With reduced=True the columns run over the quotient monomial basis, so
    the kernel is exactly the linear system through the conics; with the
    default full columns the kernel additionally contains every multiple of
    the incidence form.
    """
    conics = list(conics)
    for C in conics:
        if not C.is_smooth:
            raise PreconditionError("condition matrix requires smooth conics")
    if len(set(conics)) != len(conics):
        raise PreconditionError("conics must be pairwise distinct")
    cols = quotient_monomials(a, b) if reduced else monomials(a, b)
    rows: list[list[GaussianRational]] = []
    for C in conics:
        curve = conic_param(C)
        p_tables = [power_table(f.coeffs, a) for f in curve.p_forms]
        l_tables = [power_table(f.coeffs, b) for f in curve.l_forms]
        # the p side of a column depends only on pe, so it is pulled once
        p_sides = {}
        block = [[ZERO] * len(cols) for _ in range(a + b + 1)]
        for j, (pe, le) in enumerate(cols):
            if pe not in p_sides:
                p_sides[pe] = pull({pe: (ONE,)}, p_tables)
            for k, c in enumerate(pull({le: p_sides[pe]}, l_tables)):
                if c:
                    block[k][j] = c
        rows.extend(block)
    return ConditionMatrix((a, b), conics, cols, rows, reduced)


def system_dimension(a: int, b: int, conics) -> int:
    """Exact dimension of the space of (a, b) forms through the conics,
    measured inside the h0_flag(a, b)-dimensional section space."""
    cm = condition_matrix(a, b, conics, reduced=True)
    return linalg.nullity(cm.rows, ncols=len(cm.columns))


def expected_system_dimension(a: int, b: int, x: int) -> int:
    """Dimension when x disjoint conics impose independent conditions."""
    return max(h0_flag(a, b) - x * (a + b + 1), 0)


def independence_guaranteed(a: int, b: int, x: int) -> bool:
    """Whether x general disjoint conics are known to impose independent
    conditions on (a, b) forms: b >= a >= 1 and x <= a(a-1)/2."""
    return 1 <= a <= b and 0 <= x <= a * (a - 1) // 2


@dataclass
class SurfaceFamily:
    """A basis of the linear system of (a, b) surfaces through conics."""

    bidegree: tuple[int, int]
    prescribed: list[Conic]
    basis: list[BiForm] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.basis)


def surface_family(a: int, b: int, conics, verify: bool = True) -> SurfaceFamily:
    conics = list(conics)
    cm = condition_matrix(a, b, conics, reduced=True)
    kernel = linalg.nullspace(cm.rows, ncols=len(cm.columns))
    basis = []
    for vec in kernel:
        terms = {cm.columns[j]: c for j, c in enumerate(vec) if c}
        basis.append(BiForm((a, b), terms))
    if verify:
        for F in basis:
            for C in conics:
                if not contains_conic(F, C):
                    raise PreconditionError("kernel element fails containment check")
    return SurfaceFamily((a, b), conics, basis)


def surface_through_conics(a: int, b: int, conics, seed: int) -> BiForm:
    """A seeded pseudo-random member of the system through the conics."""
    return family_member(surface_family(a, b, conics, verify=False), seed)


def family_member(family: SurfaceFamily, seed: int) -> BiForm:
    """A seeded pseudo-random nonzero combination of the family's basis,
    checked against every prescribed conic."""
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
            break
    for C in family.prescribed:
        if not contains_conic(member, C):
            raise PreconditionError("random member fails containment check")
    return member


@dataclass
class SingularWitness:
    """Certificate that {F = 0} is singular somewhere along a conic.

    gcd is the common factor of the six restricted partial derivatives of F
    (its roots are parameters of singular points); whole_conic means every
    partial restricts to zero.  parameter/point are filled in when a root
    of the gcd is exact over Q(i).
    """

    conic: Conic
    gcd: BinaryForm | None
    whole_conic: bool
    parameter: tuple[GaussianRational, GaussianRational] | None = None
    point: FlagPoint | None = None


def conic_singularity_witness(F: BiForm, C: Conic):
    """Search for a singular point of {F = 0} on a contained conic.

    All six partials of F are restricted to the conic; a common projective
    root certifies a singular point.  Returns None when the gcd chain is
    trivial (no witness on this conic by this test).
    """
    if not contains_conic(F, C):
        raise PreconditionError("witness search requires the conic to lie on the surface")
    curve = conic_param(C)
    restrictions = []
    for group in ("p", "l"):
        for i in range(3):
            d = F.partial(group, i)
            if d.is_zero():
                continue
            restrictions.append(restrict_to_curve(d, curve))
    nonzero = [r for r in restrictions if not r.is_zero()]
    if not nonzero:
        param = (GaussianRational(1), GaussianRational(0))
        return SingularWitness(C, None, True, param, curve.point_at(*param))
    g = nonzero[0]
    for r in nonzero[1:]:
        g = bf_gcd(g, r)
        if g.degree == 0:
            return None
    root = _exact_root(g)
    point = curve.point_at(*root) if root else None
    return SingularWitness(C, g, False, root, point)


def _exact_root(g: BinaryForm):
    """A projective root of g over Q(i) when cheaply available."""
    cs = g.coeffs
    if not cs[-1]:
        return (GaussianRational(1), GaussianRational(0))
    if not cs[0]:
        return (GaussianRational(0), GaussianRational(1))
    if g.degree == 1:
        return (-cs[1], cs[0])
    if g.degree == 2:
        alpha, beta, gamma = cs
        disc = beta * beta - 4 * alpha * gamma
        r = gaussian_sqrt(disc)
        if r is None:
            return None
        # root of gamma x^2 + beta x + alpha with x = t/s
        x = (-beta + r) / (2 * gamma)
        return (GaussianRational(1), x)
    return None


def evaluation_rank_oracle(a: int, b: int, seed: int = 0xE7A1, extra: int = 5) -> int:
    """Rank of the evaluation matrix of all (a, b) monomials at random flag
    points, an independent check of h0_flag.

    Points have small Gaussian-integer coordinates, so the whole computation
    stays in Z[i].  A rank below h0_flag(a, b) can only be a degenerate
    sample and is resampled; ranks above are impossible because incidence
    multiples vanish at every flag point.
    """
    target = h0_flag(a, b)
    cols = monomials(a, b)
    npts = target + extra
    rng = SplitMix64(seed)
    for _ in range(4):
        rows = []
        for _ in range(npts):
            fp = random_flag_point(rng, height=3)
            rows.append(_eval_row_int(fp, a, b, cols))
        r = linalg.rank_int(rows, len(cols))
        if r == target:
            return r
    return r


def _eval_row_int(fp: FlagPoint, a: int, b: int, cols):
    p = _int_coords(fp.p.coords)
    l = _int_coords(fp.l.coords)
    p_pows = [_int_powers(x, a) for x in p]
    l_pows = [_int_powers(x, b) for x in l]
    row = []
    for pe, le in cols:
        vr, vi = 1, 0
        for i in range(3):
            if pe[i]:
                xr, xi = p_pows[i][pe[i]]
                vr, vi = vr * xr - vi * xi, vr * xi + vi * xr
            if le[i]:
                xr, xi = l_pows[i][le[i]]
                vr, vi = vr * xr - vi * xi, vr * xi + vi * xr
        row.append((vr, vi))
    return row


def _int_coords(coords):
    """Scale a canonical coordinate triple to Gaussian integers."""
    from math import lcm

    l = 1
    for c in coords:
        l = lcm(l, c.re.denominator, c.im.denominator)
    return [(int(c.re * l), int(c.im * l)) for c in coords]


def _int_powers(x, n):
    out = [(1, 0)]
    xr, xi = x
    for _ in range(n):
        pr, pi = out[-1]
        out.append((pr * xr - pi * xi, pr * xi + pi * xr))
    return out
