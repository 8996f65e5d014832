"""Output checks for benchmark requests; this module never imports flagcalc.

Two checks run on every response:

* a digest: the sha256 of the canonical JSON of the response projected onto
  the top-level keys the subcommand had when the digests were recorded.  A
  documented new key (a "provenance" block, say) is ignored; any change to
  an existing field changes the digest;
* independent facts recomputed here from the request alone: dimension
  bounds from h0, the uniqueness probe's dimension 1, the ruled-surface
  certificate's degree bound, and every census hit re-evaluated on all
  p + 1 points of its conic over F_p.

``problems(req, text)`` returns a list of strings; an empty list means the
response passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

# Top-level keys of each subcommand's output on the commit that recorded
# the digests.
SCHEMA_KEYS = {
    "h0": ["a", "b", "side", "h0"],
    "dim-report": ["a", "b", "x", "seed", "trials", "h0", "conditions_per_conic",
                   "expected_dimension", "independence_guaranteed",
                   "observed_dimensions", "all_match_expected"],
    "mk-surface": ["bidegree", "seed", "prescribed", "dimension", "expected_dimension",
                   "independence_guaranteed", "basis", "member"],
    "check-conic": ["contained", "twistor_fiber", "smooth_conic", "restriction_degree"],
    "mk-ruled": ["bidegree", "forms", "surface", "j_invariant", "irreducible",
                 "certificate", "witness_params", "samples"],
    "census": ["prime", "bidegree", "i_image", "count", "conics", "max_disjoint", "note"],
}


def digest(command: str, doc: dict) -> str:
    proj = {k: doc[k] for k in SCHEMA_KEYS[command] if k in doc}
    text = json.dumps(proj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def h0_flag(a: int, b: int) -> int:
    return ((a + 1) * (a + 2) * (b + 1) * (b + 2) - a * (a + 1) * b * (b + 1)) // 4


def dimension_floor(a: int, b: int, x: int) -> int:
    """x conics impose at most x(a+b+1) conditions on h0 sections."""
    return max(h0_flag(a, b) - x * (a + b + 1), 0)


def independence_guaranteed(a: int, b: int, x: int) -> bool:
    return 1 <= a <= b and 0 <= x <= a * (a - 1) // 2


def problems(req: dict, text: str) -> list[str]:
    """Everything wrong with one response; req is a catalog request."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["output is not a JSON object"]
    command = req["argv"][0]
    missing = [k for k in SCHEMA_KEYS[command] if k not in doc and k != "restriction_degree"]
    if missing:
        return [f"missing keys {missing}"]
    out = []
    if digest(command, doc) != req["digest"]:
        out.append("digest differs from the recorded output")
    check = _INDEPENDENT.get(command)
    if check is not None:
        out.extend(check(req.get("facts", {}), doc))
    return out


def _check_dim_report(facts, doc):
    a, b, x = facts["a"], facts["b"], facts["x"]
    floor = dimension_floor(a, b, x)
    out = []
    if doc["h0"] != h0_flag(a, b):
        out.append(f"h0 {doc['h0']} != {h0_flag(a, b)}")
    dims = doc["observed_dimensions"]
    if len(dims) != facts["trials"]:
        out.append(f"{len(dims)} observed dimensions for {facts['trials']} trials")
    for d in dims:
        if d < floor:
            out.append(f"dimension {d} below the floor {floor}")
        elif independence_guaranteed(a, b, x) and d != floor:
            out.append(f"dimension {d} != {floor} inside the guaranteed range")
    return out


def _check_mk_surface(facts, doc):
    a, b, x = facts["a"], facts["b"], facts["x"]
    dim = doc["dimension"]
    out = []
    if dim != len(doc["basis"]):
        out.append(f"dimension {dim} but {len(doc['basis'])} basis forms")
    if len(doc["prescribed"]) != x:
        out.append(f"{len(doc['prescribed'])} prescribed conics, expected {x}")
    if dim < dimension_floor(a, b, x):
        out.append(f"dimension {dim} below the floor {dimension_floor(a, b, x)}")
    if "dimension" in facts and dim != facts["dimension"]:
        out.append(f"dimension {dim}, expected {facts['dimension']}")
    if not doc["member"]["terms"]:
        out.append("member is the zero form")
    return out


def _check_check_conic(facts, doc):
    out = []
    if "contained" in facts and doc["contained"] is not facts["contained"]:
        out.append(f"contained is {doc['contained']}, expected {facts['contained']}")
    if facts.get("twistor_fiber") and doc["twistor_fiber"] is not True:
        out.append("sampled fiber is not a twistor fiber")
    return out


def _conj(scalar):
    return {"re": scalar["re"], "im": str(-Fraction(scalar["im"]))}


def _same_scalar(u, v):
    return Fraction(u["re"]) == Fraction(v["re"]) and Fraction(u["im"]) == Fraction(v["im"])


def _check_mk_ruled(facts, doc):
    a = facts["a"]
    cert = doc["certificate"]
    out = []
    if cert.get("passed") is not True:
        out.append("certificate did not pass")
    if cert.get("degree_bound") != 3 * a * a:
        out.append(f"degree bound {cert.get('degree_bound')} != 3a^2 = {3 * a * a}")
    if doc["bidegree"] != [a, a]:
        out.append(f"bidegree {doc['bidegree']} != [{a}, {a}]")
    if len(doc["samples"]) != facts["samples"]:
        out.append(f"{len(doc['samples'])} samples, asked for {facts['samples']}")
    for C in doc["samples"]:
        if not all(_same_scalar(_conj(qc), mc) for qc, mc in zip(C["q"], C["m"])):
            out.append("a sample is not a twistor fiber")
            break
    return out


def _check_census(facts, doc):
    p = facts["prime"]
    out = []
    if doc["count"] != len(doc["conics"]):
        out.append(f"count {doc['count']} but {len(doc['conics'])} conics")
    md = doc["max_disjoint"]
    if not 0 <= md["size"] <= doc["count"]:
        out.append(f"max_disjoint size {md['size']} outside [0, {doc['count']}]")
    if md["exact"] is not (doc["count"] <= facts["limit"]):
        out.append("max_disjoint exactness does not match the limit")
    with open(facts["surface_path"], encoding="utf-8") as fh:
        surface = json.load(fh)
    a, b = surface["bidegree"]
    if p + 1 <= a + b:
        return out + [f"p + 1 = {p + 1} points cannot prove a degree-{a + b} restriction zero"]
    terms = reduce_surface(surface, p)
    for hit in doc["conics"]:
        if not conic_on_surface(terms, tuple(hit["q"]), tuple(hit["m"]), p):
            out.append(f"census hit q={hit['q']} m={hit['m']} is not on the surface")
    return out


_INDEPENDENT = {
    "dim-report": _check_dim_report,
    "mk-surface": _check_mk_surface,
    "check-conic": _check_check_conic,
    "mk-ruled": _check_mk_ruled,
    "census": _check_census,
}


def sqrt_minus_one(p: int) -> int | None:
    if p % 4 != 1:
        return None
    return next(x for x in range(2, p) if x * x % p == p - 1)


def reduce_surface(surface: dict, p: int) -> list:
    """Terms (pe, le, c mod p) of a surface JSON, i mapped to the smallest
    square root of -1 mod p."""
    i_img = sqrt_minus_one(p)
    terms = []
    for t in surface["terms"]:
        re, im = Fraction(t["c"]["re"]), Fraction(t["c"]["im"])
        if im and i_img is None:
            raise ValueError(f"nonreal coefficient at p = {p}")
        v = re.numerator * pow(re.denominator, -1, p)
        if im:
            v += i_img * im.numerator * pow(im.denominator, -1, p)
        if v % p:
            terms.append((tuple(t["p"]), tuple(t["l"]), v % p))
    return terms


def _cross(u, v, p):
    return ((u[1] * v[2] - u[2] * v[1]) % p,
            (u[2] * v[0] - u[0] * v[2]) % p,
            (u[0] * v[1] - u[1] * v[0]) % p)


def conic_on_surface(terms, q, m, p) -> bool:
    """Whether the surface vanishes at all p + 1 points (x, q cross x) of
    the conic L_{q,m}, x running over the line {x . m = 0}.

    The restriction is a binary form of degree a + b, so vanishing at
    p + 1 > a + b points of the parameter line proves containment.
    """
    if sum(qi * mi for qi, mi in zip(q, m)) % p == 0:
        return False
    line = [x for x in _proj_points(p) if sum(xi * mi for xi, mi in zip(x, m)) % p == 0]
    if len(line) != p + 1:
        return False
    for x in line:
        l = _cross(q, x, p)
        acc = 0
        for pe, le, c in terms:
            acc += c * x[0] ** pe[0] * x[1] ** pe[1] * x[2] ** pe[2] \
                * l[0] ** le[0] * l[1] ** le[1] * l[2] ** le[2]
        if acc % p:
            return False
    return True


def _proj_points(p):
    pts = [(1, y, z) for y in range(p) for z in range(p)]
    pts.extend((0, 1, z) for z in range(p))
    pts.append((0, 0, 1))
    return pts
