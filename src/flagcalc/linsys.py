"""Exact interpolation through prescribed conics.

Sections of the (a, b) polarization on the flag threefold are represented
by their canonical coefficients on the quotient monomial basis (monomials
not divisible by p0*l0).  A conic imposes the a+b+1 coefficients of the
restriction map as linear conditions.  The conditions are first built and
eliminated over F_p (linalg.PRIME), whose rank bounds the exact rank from
below.  A dimension is returned from F_p only when the row count bounds it
from the other side.  Otherwise surface_family, the one exact elimination
here, decides: it eliminates the exact rows independent mod p by
fraction-free Bareiss and proves the kernel complete by multiplying every
exact row of every conic with every basis vector; when the proof fails it
eliminates all rows.  Every dimension and basis reported here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import linalg
from .binforms import BinaryForm, bf_gcd
from .biforms import BiForm, monomials, quotient_monomials
from .errors import EmptySystemError, FlagcalcError, PreconditionError
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

    One block of a+b+1 rows per conic; one column per quotient monomial
    (not divisible by p0*l0) in the fixed descending-lex order.  A
    coefficient vector lies in the kernel exactly when the corresponding
    form vanishes on every conic.
    """

    bidegree: tuple[int, int]
    conics: list[Conic]
    columns: list
    rows: list[list[GaussianRational]]


def condition_matrix(a: int, b: int, conics) -> ConditionMatrix:
    """Assemble the containment conditions for a list of smooth conics;
    the kernel is exactly the linear system through them."""
    conics = _checked(conics)
    cols = quotient_monomials(a, b)
    rows = _condition_rows(a, b, cols, _charts(conics), ONE, ZERO, lambda seq: seq)
    return ConditionMatrix((a, b), conics, cols, rows)


def condition_rows_mod_p(a: int, b: int, conics):
    """The rows of condition_matrix(a, b, conics) reduced mod linalg.PRIME;
    None when the prime divides a denominator of a chart coefficient.

    The exact charts are mapped into F_p and pulled by the same kernel, so
    the rows are the images of the exact rows by construction.
    """
    p, i = linalg.PRIME, linalg.I_MOD
    charts = []
    for seqs in _charts(_checked(conics)):
        mapped = tuple([[linalg.gaussian_mod_p(z, p, i) for z in seq] for seq in side] for side in seqs)
        if any(None in seq for side in mapped for seq in side):
            return None
        charts.append(mapped)
    cols = quotient_monomials(a, b)
    return _condition_rows(a, b, cols, charts, 1, 0, lambda seq: [x % p for x in seq])


def _checked(conics) -> list[Conic]:
    conics = list(conics)
    for C in conics:
        if not C.is_smooth:
            raise PreconditionError("condition matrix requires smooth conics")
    if len(set(conics)) != len(conics):
        raise PreconditionError("conics must be pairwise distinct")
    return conics


def _charts(conics):
    """Per conic, the coefficient sequences of the p- and l-forms of
    conic_param(C)."""
    charts = []
    for C in conics:
        curve = conic_param(C)
        charts.append(([f.coeffs for f in curve.p_forms], [f.coeffs for f in curve.l_forms]))
    return charts


def _condition_rows(a, b, cols, charts, one, zero, norm):
    """a+b+1 rows per chart, the coefficient sequences of the p- and
    l-forms of one conic's parametrization, over the ring of one and zero;
    norm brings each pulled sequence back to normal form."""
    rows = []
    for p_seqs, l_seqs in charts:
        p_tables = [[norm(t) for t in power_table(seq, a)] for seq in p_seqs]
        l_tables = [[norm(t) for t in power_table(seq, b)] for seq in l_seqs]
        # the p side of a column depends only on pe, so it is pulled once
        p_sides = {}
        block = [[zero] * len(cols) for _ in range(a + b + 1)]
        for j, (pe, le) in enumerate(cols):
            if pe not in p_sides:
                p_sides[pe] = norm(pull({pe: (one,)}, p_tables))
            for k, c in enumerate(norm(pull({le: p_sides[pe]}, l_tables))):
                if c:
                    block[k][j] = c
        rows.extend(block)
    return rows


def system_dimension(a: int, b: int, conics) -> int:
    """Exact dimension of the space of (a, b) forms through the conics,
    measured inside the h0_flag(a, b)-dimensional section space.

    The rank mod p bounds the exact rank from below, so the nullity mod p
    bounds the dimension from above; the row count bounds it from below
    by expected_system_dimension.  When the two bounds meet, that is the
    answer; otherwise the certified kernel of surface_family decides.
    """
    conics = list(conics)
    ncols = h0_flag(a, b)
    rows = condition_rows_mod_p(a, b, conics)
    if rows is not None:
        nullity = ncols - len(linalg.echelon_mod_p(rows, ncols)[0])
        if nullity == max(ncols - len(rows), 0):
            return nullity
    return surface_family(a, b, conics).dimension


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


def surface_family(a: int, b: int, conics) -> SurfaceFamily:
    """The linear system of (a, b) surfaces through the conics, with the
    reduced-echelon kernel basis of the condition matrix: one vector per
    free column, which is unique for the kernel.

    Exact elimination runs only on the rows that are independent mod p.
    Their kernel contains the system; linalg.annihilates on every exact
    row of every conic proves the converse (a block of a+b+1 rows times a
    basis vector is that surface's restriction to the conic), so the basis
    is the one the full matrix gives.  If the proof fails (p divides a
    minor the rank needs), all rows are eliminated and proved again.
    """
    cm = condition_matrix(a, b, conics)
    ncols = len(cm.columns)
    mod_p = condition_rows_mod_p(a, b, cm.conics)
    kernel = None
    if mod_p is not None:
        pivots, _ = linalg.echelon_mod_p(mod_p, ncols)
        kernel = linalg.nullspace([cm.rows[r] for r in pivots], ncols=ncols)
    if kernel is None or not linalg.annihilates(cm.rows, kernel):
        kernel = linalg.nullspace(cm.rows, ncols=ncols)
        if not linalg.annihilates(cm.rows, kernel):
            raise FlagcalcError("the exact kernel of the condition matrix fails its certificate")
    basis = [BiForm((a, b), {cm.columns[j]: c for j, c in enumerate(v) if c}) for v in kernel]
    return SurfaceFamily((a, b), cm.conics, basis)


def surface_through_conics(a: int, b: int, conics, seed: int) -> BiForm:
    """A seeded pseudo-random member of the system through the conics."""
    return family_member(surface_family(a, b, conics), seed)


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

    Ranks above h0_flag(a, b) are impossible because incidence multiples
    vanish at every flag point, and a rank mod p of h0_flag(a, b) proves
    the exact rank is at least that.  A lower rank mod p is a degenerate
    sample (or an unlucky prime) and is resampled; when every attempt
    falls short, FlagcalcError says how many were used.
    """
    attempts = 4
    target = h0_flag(a, b)
    cols = monomials(a, b)
    rng = SplitMix64(seed)
    best = 0
    for _ in range(attempts):
        rows = [_eval_row_mod_p(random_flag_point(rng, height=3), a, b, cols)
                for _ in range(target + extra)]
        best = max(best, len(linalg.echelon_mod_p(rows, len(cols))[0]))
        if best == target:
            return target
    raise FlagcalcError(
        f"evaluation rank of ({a}, {b}) stayed at {best} < h0 = {target} "
        f"after {attempts} attempts of {target + extra} points"
    )


def _eval_row_mod_p(fp: FlagPoint, a: int, b: int, cols):
    """The values mod p of the monomials at fp; a zero row, which can only
    lower the rank, when p divides a coordinate denominator."""
    p = linalg.PRIME
    xs = [linalg.gaussian_mod_p(z, p, linalg.I_MOD) for z in fp.p.coords + fp.l.coords]
    if None in xs:
        return [0] * len(cols)
    pows = [[pow(x, e, p) for e in range(max(a, b) + 1)] for x in xs]
    row = []
    for pe, le in cols:
        v = 1
        for i in range(3):
            v = v * pows[i][pe[i]] * pows[3 + i][le[i]] % p
        row.append(v)
    return row
