"""Independent oracles the tests check flagcalc against.

None of these is on a path the package runs: each decides a fact that the
package decides another way (restriction along a Q(i) FlagCurve with
Fraction arithmetic against restriction over Z[i] through the cleared
chart, exact rank against the certified mod-p rank, one entry at a time
against the packed rows of the mod-p echelon,
exact division against the gcd, solving the five linear conditions against
the disjointness criterion, the Binet-Cauchy expansion against the mod-p
meet test's cross products, Fraction pieces inverted one by one against
the census reduction through the cleared lcm, the greedy loop against the
first leaf of the max-disjoint search, point evaluation against the h0
formula, one restriction per pair against the census's one expansion per
surface, the
2a x 2a Sylvester determinant against the a x a Bezout determinant of a
ruling, Q(i) back-substitution against the fraction-free kernel, ruling
fibers over Q(i) against the integer triples of the ruling, the pair loop
against the census's search by q, the a = b closed form against the conic
ceiling, the pivot division in Q(i) against the stored Gaussian-integer
triple of a projective point).  The seeded samplers below them are used by
tests only.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

from flagcalc import linalg, modp
from flagcalc.binforms import (
    ZERO,
    BinaryForm,
    _pdeg,
    _pdivmod,
    bf_gcd,
    conv,
    power_table,
    zero_form,
)
from flagcalc.biforms import BiForm, monomials
from flagcalc.errors import DegenerateConicError, FlagcalcError, PreconditionError
from flagcalc.flag import (
    Conic,
    FlagPoint,
    ProjPoint,
    conics_disjoint,
    cross,
    dot,
    line_basis,
    twistor_fiber_of,
)
from flagcalc.fpcensus import conic_expansion
from flagcalc.gaussian import ONE, GaussianRational
from flagcalc.invariants import _require_general_type, h0_flag
from flagcalc.sampling import SplitMix64, random_gaussian_rational, random_proj_point


def pivot_one_form(raw) -> tuple:
    """The Q(i) triple raw divided by its first nonzero coordinate."""
    pivot = next(c for c in raw if c)
    return tuple(c / pivot for c in raw)


# Seeded samplers that only tests use.

def random_flag_point(rng: SplitMix64, height: int = 4) -> FlagPoint:
    """A random incident pair, built as (p, p x r) for random p and r."""
    while True:
        p = random_proj_point(rng, height)
        r = random_proj_point(rng, height)
        l = cross(p.rational(), r.rational())
        if any(l):
            return FlagPoint(p, ProjPoint(l))


def random_binary_form(rng: SplitMix64, degree: int, height: int = 9, real: bool = False):
    while True:
        if real:
            coeffs = [GaussianRational(rng.int_in(-height, height)) for _ in range(degree + 1)]
        else:
            coeffs = [random_gaussian_rational(rng, height) for _ in range(degree + 1)]
        f = BinaryForm(coeffs)
        if not f.is_zero():
            return f


def miyaoka_conic_bound_diagonal(a: int) -> Fraction:
    """The a = b specialization 24(a^2 - a + 1)(a - 1)a / (2a - 1)^2."""
    _require_general_type(a, a)
    return Fraction(24 * (a * a - a + 1) * (a - 1) * a, (2 * a - 1) ** 2)


# Rational curves in the flag over Q(i): a conic's chart as a FlagCurve of
# BinaryForm triples, restricted with Q(i) coefficients and no clearing.

class FlagCurve:
    """A rational curve in F given by two triples of binary forms.

    p_forms parametrizes the point component and l_forms the line component;
    the incidence pairing p(s,t).l(s,t) must vanish identically.
    """

    __slots__ = ("p_forms", "l_forms")

    def __init__(self, p_forms, l_forms):
        self.p_forms = _validate_triple(p_forms, "p")
        self.l_forms = _validate_triple(l_forms, "l")
        pairing = _triple_pairing(self.p_forms, self.l_forms)
        if not pairing.is_zero():
            raise PreconditionError("parametrization is not incident: p.l != 0")

    def point_at(self, s, t) -> FlagPoint:
        p = tuple(f.evaluate(s, t) for f in self.p_forms)
        l = tuple(f.evaluate(s, t) for f in self.l_forms)
        return FlagPoint(p, l)


def _validate_triple(forms, label):
    forms = tuple(f if isinstance(f, BinaryForm) else BinaryForm(f) for f in forms)
    if len(forms) != 3:
        raise PreconditionError(f"{label}-triple needs exactly 3 forms")
    if len({f.degree for f in forms}) != 1:
        raise PreconditionError(f"{label}-triple forms must share one degree")
    if all(f.is_zero() for f in forms):
        raise PreconditionError(f"{label}-triple is identically zero")
    return forms


def _triple_pairing(p_forms, l_forms) -> BinaryForm:
    acc = zero_form(p_forms[0].degree + l_forms[0].degree)
    for f, g in zip(p_forms, l_forms):
        acc = acc + f * g
    return acc


def conic_param(C: Conic) -> FlagCurve:
    """Injective degree-1 parametrization of a smooth conic.

    p(s,t) spans the line {p.m = 0} and l(s,t) = q x p(s,t); the three
    defining equations p.m = 0, q.l = 0, p.l = 0 then hold identically.
    """
    if not C.is_smooth:
        raise DegenerateConicError("cannot parametrize a degenerate conic (q.m = 0)")
    q, m = C.q.rational(), C.m.rational()
    v1, v2 = line_basis(m)
    l1, l2 = cross(q, v1), cross(q, v2)
    curve = FlagCurve(
        tuple(BinaryForm([v1[c], v2[c]]) for c in range(3)),
        tuple(BinaryForm([l1[c], l2[c]]) for c in range(3)),
    )
    assert _pm_pairing(curve.p_forms, m).is_zero()
    assert _pm_pairing(curve.l_forms, q).is_zero()
    return curve


def _pm_pairing(forms, const_triple) -> BinaryForm:
    d = forms[0].degree
    acc = zero_form(d)
    for f, c in zip(forms, const_triple):
        acc = acc + f.scale(c)
    return acc


def form_powers(f: BinaryForm, n: int) -> list:
    """The BinaryForms f^0, f^1, ..., f^n."""
    out = [BinaryForm([ONE])]
    for _ in range(n):
        out.append(out[-1] * f)
    return out


def substitute_curve_forms(F: BiForm, p_forms, l_forms) -> BinaryForm:
    """Pull a biform back along a parametrized curve of any degree, giving a
    binary form: each monomial by BinaryForm products, then weighted by its
    coefficient and summed."""
    a, b = F.bidegree
    out_deg = a * p_forms[0].degree + b * l_forms[0].degree
    p_pows = [form_powers(f, a) for f in p_forms]
    l_pows = [form_powers(f, b) for f in l_forms]
    acc = [ZERO] * (out_deg + 1)
    for (pe, le), c in F.terms.items():
        prod = None
        for pows, e in ((p_pows, pe), (l_pows, le)):
            for i in range(3):
                if e[i]:
                    prod = pows[i][e[i]] if prod is None else prod * pows[i][e[i]]
        if prod is None:
            acc[0] = acc[0] + c
            continue
        offset = out_deg - prod.degree
        for k, pc in enumerate(prod.coeffs):
            if pc:
                acc[k + offset] = acc[k + offset] + c * pc
    return BinaryForm(acc)


def restrict_to_curve(F: BiForm, curve: FlagCurve) -> BinaryForm:
    return substitute_curve_forms(F, curve.p_forms, curve.l_forms)


def curve_bidegree(curve: FlagCurve):
    """Intersection numbers (d1, d2) of the curve with the two plane classes.

    d1 is the degree of the pairing of the gcd-reduced p-triple with a
    general constant line, which is the formal degree of the reduced
    triple; symmetrically for d2.
    """
    return _pairing_degree(curve.p_forms), _pairing_degree(curve.l_forms)


def _pairing_degree(forms) -> int:
    return forms[0].degree - reduce(bf_gcd, [f for f in forms if not f.is_zero()]).degree


# Exact rank and determinant by fraction-free Bareiss.

def rank_int(rows, ncols: int) -> int:
    """Rank of Gaussian-integer pair rows, which are left unchanged."""
    pivots, _ = linalg.echelon_int([list(row) for row in rows], ncols)
    return len(pivots)


def rank(matrix) -> int:
    if not matrix:
        return 0
    rows, _ = linalg.clear_rows(matrix)
    return rank_int(rows, len(matrix[0]))


def nullity(matrix, ncols: int | None = None) -> int:
    if not matrix:
        if ncols is None:
            raise PreconditionError("nullity of an empty matrix needs ncols")
        return ncols
    ncols = len(matrix[0]) if ncols is None else ncols
    return ncols - rank(matrix)


def det(matrix) -> GaussianRational:
    """Determinant of a square matrix of GaussianRational entries."""
    n = len(matrix)
    if n == 0:
        return GaussianRational(1)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("determinant of a non-square matrix")
    rows, scale = linalg.clear_rows(matrix)
    pivots, sign = linalg.echelon_int(rows, n)
    if len(pivots) < n:
        return GaussianRational(0)
    pr, pc = pivots[-1]
    vr, vi = rows[pr][pc]
    return GaussianRational(Fraction(sign * vr) / scale, Fraction(sign * vi) / scale)


def reference_nullspace(rows, ncols: int) -> list[list[GaussianRational]]:
    """The kernel basis linalg.nullspace returns, by back-substitution over
    Q(i) on the Bareiss echelon form, one division per pivot."""
    rows = [list(row) for row in rows]
    pivots, _ = linalg.echelon_int(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [GaussianRational(0)] * ncols
        v[fc] = GaussianRational(1)
        for pr, pc in reversed(pivots):
            if pc > fc:
                continue
            acc = GaussianRational(0)
            row = rows[pr]
            for j in range(pc + 1, ncols):
                ar, ai = row[j]
                if (ar or ai) and v[j]:
                    acc = acc + GaussianRational(ar, ai) * v[j]
            if acc:
                v[pc] = -acc / GaussianRational(*row[pc])
        basis.append(v)
    return basis


# Row echelon forms over F_p on lists, one entry at a time.

def _reduced_mod_p(rows, ncols: int):
    """The greedy row-order elimination of modp.echelon on lists:
    (pivot_rows, {pivot column: its row with 1 there}), p = modp.PRIME
    read at call time."""
    p = modp.PRIME
    reduced: dict[int, list[int]] = {}
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
    return pivot_rows, reduced


def reference_echelon(rows, ncols: int):
    """What modp.echelon returns: (pivot_rows, pivot_cols, normed rows)."""
    pivot_rows, reduced = _reduced_mod_p(rows, ncols)
    return pivot_rows, list(reduced), list(reduced.values())


def reference_rref(rows, ncols: int):
    """The pivot rows and columns of modp.echelon with the rows of
    modp.back_reduce, by Gauss-Jordan back-substitution on lists:
    each pivot row, from the last pivot column down, has the later pivot
    rows subtracted at their columns."""
    p = modp.PRIME
    pivot_rows, reduced = _reduced_mod_p(rows, ncols)
    for c in sorted(reduced, reverse=True):
        v = reduced[c]
        for c2 in reduced:
            x = v[c2]
            if c2 > c and x:
                v[:] = [(y - x * z) % p for y, z in zip(v, reduced[c2])]
    return pivot_rows, list(reduced), list(reduced.values())


# Resultants as Sylvester determinants.

def sylvester_resultant(f: BinaryForm, g: BinaryForm) -> GaussianRational:
    """Resultant of forms of positive degrees m and n, as the (m+n)-square
    Sylvester determinant of their coefficient sequences."""
    m, n = f.degree, g.degree
    if m < 1 or n < 1:
        raise PreconditionError("resultant needs both degrees >= 1")
    size = m + n
    rows = []
    for r in range(n):
        rows.append([ZERO] * r + list(f.coeffs) + [ZERO] * (size - m - 1 - r))
    for r in range(m):
        rows.append([ZERO] * r + list(g.coeffs) + [ZERO] * (size - n - 1 - r))
    return det(rows)


def reference_parameter_resultant(forms) -> BiForm:
    """Resultant of p.f and l.f in the parameter, as the 2a x 2a Sylvester
    determinant whose entries are linear biforms, expanded by cofactors."""
    a = forms[0].degree
    p_row: list[BiForm] = []
    l_row: list[BiForm] = []
    for k in range(a + 1):
        pterms = {}
        lterms = {}
        for i in range(3):
            c = forms[i].coeffs[k]
            if c:
                e = [0, 0, 0]
                e[i] = 1
                pterms[(tuple(e), (0, 0, 0))] = c
                lterms[((0, 0, 0), tuple(e))] = c
        p_row.append(BiForm((1, 0), pterms))
        l_row.append(BiForm((0, 1), lterms))
    n = 2 * a
    zero_p = BiForm((1, 0))
    zero_l = BiForm((0, 1))
    rows = []
    for r in range(a):
        rows.append([zero_p] * r + p_row + [zero_p] * (n - a - 1 - r))
    for r in range(a):
        rows.append([zero_l] * r + l_row + [zero_l] * (n - a - 1 - r))
    return _poly_det(rows, a)


def _poly_det(rows, a: int) -> BiForm:
    """Memoised cofactor expansion along the rows; a minor with no nonzero
    entry in its first row is the zero form of the bidegree its remaining
    p- and l-rows give."""
    n = len(rows)
    memo: dict = {}

    def minor(depth: int, cols: tuple) -> BiForm:
        if len(cols) == 1:
            return rows[depth][cols[0]]
        key = (depth, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[depth][c]
            if entry.is_zero():
                continue
            sub = minor(depth + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            p_count = max(0, a - depth)
            acc = BiForm((p_count, len(cols) - p_count))
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


# Ruling fibers over Q(i): evaluate the forms, take the canonical point.

def _fiber_at(forms, s, t) -> Conic:
    """The twistor fiber of the ruling f over f(s, t), for Q(i) scalars s, t."""
    q = tuple(f.evaluate(s, t) for f in forms)
    if not any(q):
        raise PreconditionError("parameter hits a base point of the triple")
    return twistor_fiber_of(q)


def reference_circle_samples(forms, surface: BiForm, n: int) -> list[Conic]:
    """n distinct twistor fibers at the parameters 0, 1, 2, ... and then
    infinity (or the next unused integer when infinity repeats a fiber),
    each checked by restriction along its conic_param curve and every pair
    by conics_disjoint."""
    one = GaussianRational(1)
    out: list[Conic] = []
    k = 0
    while len(out) < n - 1:
        C = _fiber_at(forms, GaussianRational(k), one)
        k += 1
        if C not in out:
            out.append(C)
    C = _fiber_at(forms, one, GaussianRational(0))
    while C in out:
        C = _fiber_at(forms, GaussianRational(k), one)
        k += 1
    out.append(C)
    for idx, C in enumerate(out):
        if not restrict_to_curve(surface, conic_param(C)).is_zero():
            raise PreconditionError("sampled fiber escapes the surface")
        if not all(conics_disjoint(C, D) for D in out[:idx]):
            raise PreconditionError("sampled fibers are not disjoint")
    return out


# Exact division of binary forms.

def bf_div_exact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Quotient f / g when g divides f exactly."""
    if g.is_zero():
        raise PreconditionError("division by the zero form")
    if f.is_zero():
        if f.degree < g.degree:
            raise PreconditionError("degree of divisor exceeds degree of dividend")
        return zero_form(f.degree - g.degree)
    uf, ug = list(f.coeffs), list(g.coeffs)
    ef, eg = _pdeg(uf), _pdeg(ug)
    sf, sg = f.degree - ef, g.degree - eg
    if sf < sg:
        raise PreconditionError("form does not divide: s-multiplicity deficit")
    q, r = _pdivmod(uf[: ef + 1], ug[: eg + 1])
    if _pdeg(r) >= 0:
        raise PreconditionError("form does not divide exactly")
    q = q + [ZERO] * max(ef - eg - _pdeg(q), 0)
    return BinaryForm(q[: ef - eg + 1] + [ZERO] * (sf - sg))


def bf_divides(g: BinaryForm, f: BinaryForm) -> bool:
    try:
        bf_div_exact(f, g)
        return True
    except PreconditionError:
        return False


# Whether two conics meet, by solving their linear conditions.

def conics_meet_bruteforce(C1: Conic, C2: Conic) -> bool:
    """Solve the five linear conditions directly.

    Computes the solution spaces of {p.m1 = p.m2 = 0} and
    {q1.l = q2.l = 0} by exact nullspace and decides whether p.l = 0 is
    solvable there.
    """
    p_space = linalg.nullspace(linalg.clear_rows([C1.m.rational(), C2.m.rational()])[0], 3)
    l_space = linalg.nullspace(linalg.clear_rows([C1.q.rational(), C2.q.rational()])[0], 3)
    if len(p_space) >= 2 or len(l_space) >= 2:
        return True
    return not dot(p_space[0], l_space[0])


def binet_cauchy_meet_fp(c1, c2, p: int) -> bool:
    """Whether two distinct conics over F_p meet, with a repeated q or m
    taken as a meeting and (m1 x m2).(q1 x q2) expanded by the
    Binet-Cauchy identity otherwise."""
    q1, m1 = c1
    q2, m2 = c2
    if q1 == q2 and m1 == m2:
        raise PreconditionError("conics must be distinct")
    if q1 == q2 or m1 == m2:
        return True
    return (dot(m1, q1) * dot(m2, q2) - dot(m1, q2) * dot(m2, q1)) % p == 0


def greedy_disjoint_size(census, p: int) -> int:
    """The size of the family taken greedily in census order: each conic
    that meets none taken before it, by binet_cauchy_meet_fp."""
    taken = []
    for c in census:
        if all(not binet_cauchy_meet_fp(c, t, p) for t in taken):
            taken.append(c)
    return len(taken)


# h0 of the flag as the rank of monomial values at random flag points.

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
        best = max(best, len(modp.echelon(rows, len(cols))[0]))
        if best == target:
            return target
    raise FlagcalcError(
        f"evaluation rank of ({a}, {b}) stayed at {best} < h0 = {target} "
        f"after {attempts} attempts of {target + extra} points"
    )


def gaussian_mod_p(z, p: int, i: int):
    """The image of z in F_p with i sent to i, from the Fraction pieces of
    z inverted one by one; None when p divides a denominator."""
    if z.re.denominator % p == 0 or z.im.denominator % p == 0:
        return None
    re = z.re.numerator * pow(z.re.denominator, -1, p)
    im = z.im.numerator * pow(z.im.denominator, -1, p)
    return (re + i * im) % p


def _eval_row_mod_p(fp: FlagPoint, a: int, b: int, cols):
    """The values mod p of the monomials at fp; a zero row, which can only
    lower the rank, when p divides a coordinate denominator."""
    p = modp.PRIME
    xs = [gaussian_mod_p(z, p, modp.I_MOD) for z in fp.p.rational() + fp.l.rational()]
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


# The census scan: one full restriction per pair, and the pair loop over
# one expansion per surface.

def reference_scan_pairs(S, m_points, q_points):
    """The pairs (q, m) with q.m != 0 mod p whose conic lies on the reduced
    surface S, in the order m, then q.

    The p side of the restriction is summed once per m, per l-exponent,
    and the l side is multiplied in once per pair.  Any representatives of
    the projective points may be given.
    """
    p = S.p
    a, b = S.bidegree
    hits = []
    for m in m_points:
        v1, v2 = line_basis([c % p for c in m])  # a chart pivot that is a unit mod p
        p_tables = [power_table((v1[c], v2[c]), a) for c in range(3)]
        p_side = {}  # le: the sum of c p^pe over the terms with that le, mod p
        for (pe, le), c in S.terms.items():
            mono = [c]
            for i in range(3):
                mono = conv(mono, p_tables[i][pe[i]])
            acc = p_side.setdefault(le, [0] * (a + 1))
            for k, x in enumerate(mono):
                acc[k] = (acc[k] + x) % p
        for q in q_points:
            if not dot(q, m) % p:
                continue
            l1 = [x % p for x in cross(q, v1)]
            l2 = [x % p for x in cross(q, v2)]
            l_tables = [power_table((l1[c], l2[c]), b) for c in range(3)]
            out = [0] * (a + b + 1)
            for le, mono in p_side.items():
                for i in range(3):
                    mono = conv(mono, l_tables[i][le[i]])
                for k, x in enumerate(mono):
                    out[k] += x
            if not any(x % p for x in out):
                hits.append((q, m))
    return hits


def pairwise_scan_pairs(S, m_points, q_points):
    """The pairs (q, m) with q.m != 0 mod p whose conic lies on the reduced
    surface S, in the order m, then q, by a test of every pair.

    Per m, the chart p = s v1 + t v2 makes each p^alpha of the expansion
    G(p, q) = S(p, q x p) a form in (s, t), and row k of the matrix K_m is
    the sum over alpha of its coefficient k times G_alpha.  A pair is a hit
    when K_m times q's monomials is 0 mod p.
    """
    p = S.p
    a, b = S.bidegree
    G = conic_expansion(S)
    cols = list(zip(*G.values()))  # per q-monomial, its coefficient at each alpha
    exps = [le for _, le in monomials(0, b)]
    q_monos = [[q[0] ** f[0] * q[1] ** f[1] * q[2] ** f[2] % p for f in exps] for q in q_points]
    hits = []
    for m in m_points:
        v1, v2 = line_basis([c % p for c in m])  # a chart pivot that is a unit mod p
        T = [power_table((v1[c], v2[c]), a + b) for c in range(3)]
        p_monos = [conv(conv(T[0][e[0]], T[1][e[1]]), T[2][e[2]]) for e in G]
        K = []
        for at_k in zip(*p_monos):
            row = [sum(map(mul, at_k, col)) % p for col in cols]
            if any(row):
                K.append(row)
        for q, mono in zip(q_points, q_monos):
            if dot(q, m) % p:
                for row in K:
                    if sum(map(mul, row, mono)) % p:
                        break
                else:
                    hits.append((q, m))
    return hits
