"""Command-line front end: stable JSON in, stable JSON out.

Exit codes: 0 success, 2 usage or malformed input, 3 precondition
violation, 4 internal failure.  Errors are emitted as {"code", "message"}
JSON; an internal failure also prints its traceback to stderr.  For a
fixed subcommand, arguments, and seed the output bytes are identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import FlagcalcError, PreconditionError, SchemaError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class UsageError(FlagcalcError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="flagcalc", description=__doc__)
    parser.add_argument("--out", help="write the JSON result to this path (atomic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="disjoint-conic and ruling-curve ceilings")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = sub.add_parser("chern", help="Chern numbers and adjunction data")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = sub.add_parser("h0", help="section counts on the flag or its linear sections")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--side", choices=["flag", "X", "Y"], default="flag")

    p = sub.add_parser("chow", help="triple products of the hyperplane classes")
    p.add_argument("--classes", required=True, help="comma list, e.g. H1,H2,H1")

    p = sub.add_parser("mk-surface", help="surface through prescribed conics")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--conics", help="JSON file with a list of conics")
    p.add_argument("--random", type=int, default=None, help="sample this many conics")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check-conic", help="containment of a conic in a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--conic", required=True)

    p = sub.add_parser("mk-ruled", help="bidegree (a,a) surface ruled by twistor fibers")
    p.add_argument("--forms", required=True, help="JSON file with three real binary forms")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("census", help="mod-p conic census of a surface")
    p.add_argument("--surface", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--limit", type=int, default=24, help="exact max-disjoint search cap")

    p = sub.add_parser("dim-report", help="observed vs expected interpolation dimensions")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _cmd_bound(args):
    from . import invariants, serialize

    conic, conic_floor = invariants.miyaoka_conic_bound(args.a, args.b)
    ruling, ruling_floor = invariants.ruling_curve_bound(args.a, args.b)
    return {
        "bidegree": [args.a, args.b],
        "conic_bound": serialize.frac_str(conic),
        "conic_bound_floor": conic_floor,
        "ruling_curve_bound": serialize.frac_str(ruling),
        "ruling_curve_bound_floor": ruling_floor,
    }


def _cmd_chern(args):
    from . import invariants

    report = invariants.surface_invariant_report(args.a, args.b).as_dict()
    a, b = args.a, args.b
    if a != b:
        report["uniqueness_threshold_note"] = (
            "threshold uses a^2+ab+b^2; the Chow self-pair bidegree above "
            "totals a^2+4ab+b^2, and the two conventions only agree at a = b"
        )
    return report


def _cmd_h0(args):
    from . import invariants

    if args.side == "flag":
        value = invariants.h0_flag(args.a, args.b)
    else:
        value = invariants.h0_hirzebruch(args.side, args.a, args.b)
    return {"a": args.a, "b": args.b, "side": args.side, "h0": value}


def _cmd_chow(args):
    from . import invariants

    classes = [c.strip() for c in args.classes.split(",")]
    if len(classes) != 3:
        raise UsageError("--classes needs exactly three entries")
    return {"classes": classes, "value": invariants.chow_triple(*classes)}


def _cmd_mk_surface(args):
    from . import linsys, serialize
    from .sampling import SplitMix64, random_smooth_conics

    if (args.conics is None) == (args.random is None):
        raise UsageError("give exactly one of --conics FILE or --random X")
    if args.random is not None and args.random < 0:
        raise UsageError("--random must be nonnegative")
    rng = SplitMix64(args.seed)
    if args.conics:
        conics = serialize.conics_from_json(_load_json(args.conics))
    else:
        conics = random_smooth_conics(rng, args.random, height=10)
    family = linsys.surface_family(args.a, args.b, conics)
    member = linsys.family_member(family, seed=args.seed ^ 0xA5A5)
    return {
        "bidegree": [args.a, args.b],
        "seed": args.seed,
        "prescribed": [serialize.conic_to_json(c) for c in conics],
        "dimension": family.dimension,
        "expected_dimension": linsys.expected_system_dimension(args.a, args.b, len(conics)),
        "independence_guaranteed": linsys.independence_guaranteed(args.a, args.b, len(conics)),
        "basis": [serialize.biform_to_json(F) for F in family.basis],
        "member": serialize.biform_to_json(member),
    }


def _cmd_check_conic(args):
    from . import serialize
    from .flag import restrict_to_conic

    F = serialize.biform_from_json(_load_json(args.surface))
    C = serialize.conic_from_json(_load_json(args.conic))
    restriction = restrict_to_conic(F, C)
    out = {
        "contained": restriction.is_zero(),
        "twistor_fiber": C.is_twistor_fiber(),
        "smooth_conic": C.is_smooth,
    }
    if not out["contained"]:
        out["restriction_degree"] = restriction.degree
    return out


def _cmd_mk_ruled(args):
    from fractions import Fraction

    from . import ruled, serialize
    from .flag import is_j_invariant

    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    forms = serialize.forms_from_json(_load_json(args.forms))
    seed = ruled.DEFAULT_RULED_SEED if args.seed is None else args.seed
    spec = ruled.twistor_ruled_surface(forms, seed=seed)
    samples = ruled.twistor_circle_samples(spec, args.samples)
    return {
        "bidegree": list(spec.surface.bidegree),
        "forms": serialize.forms_to_json(spec.forms),
        "surface": serialize.biform_to_json(spec.surface),
        "j_invariant": is_j_invariant(spec.surface),
        "irreducible": "unverified",
        "certificate": spec.certificate,
        "witness_params": [
            [serialize.frac_str(Fraction(x)) for x in st] for st in spec.witness_params
        ],
        "samples": [serialize.conic_to_json(c) for c in samples],
    }


def _cmd_census(args):
    from . import fpcensus, serialize

    if args.limit < 0:
        raise UsageError("--limit must be nonnegative")
    F = serialize.biform_from_json(_load_json(args.surface))
    S = fpcensus.reduce_mod_p(F, args.prime)
    census = fpcensus.conic_census(S)
    disjoint = fpcensus.max_disjoint_subset(census, args.prime, limit=args.limit)
    return {
        "prime": args.prime,
        "bidegree": list(S.bidegree),
        "i_image": S.i_image,
        "count": len(census),
        "conics": [{"q": list(q), "m": list(m)} for q, m in census],
        "max_disjoint": {"size": disjoint.size, "exact": disjoint.exact},
        "note": "mod-p evidence; conics over F_p need not lift",
    }


def _cmd_dim_report(args):
    from . import linsys
    from .sampling import SplitMix64, random_smooth_conics

    if args.x < 0:
        raise UsageError("--x must be nonnegative")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    expected = linsys.expected_system_dimension(args.a, args.b, args.x)
    guaranteed = linsys.independence_guaranteed(args.a, args.b, args.x)
    observed = []
    for trial in range(args.trials):
        rng = SplitMix64((args.seed << 8) ^ trial)
        conics = random_smooth_conics(rng, args.x, height=10)
        observed.append(linsys.system_dimension(args.a, args.b, conics))
    return {
        "a": args.a,
        "b": args.b,
        "x": args.x,
        "seed": args.seed,
        "trials": args.trials,
        "h0": linsys.h0_flag(args.a, args.b),
        "conditions_per_conic": args.a + args.b + 1,
        "expected_dimension": expected,
        "independence_guaranteed": guaranteed,
        "observed_dimensions": observed,
        "all_match_expected": all(d == expected for d in observed),
    }


_HANDLERS = {
    "bound": _cmd_bound,
    "chern": _cmd_chern,
    "h0": _cmd_h0,
    "chow": _cmd_chow,
    "mk-surface": _cmd_mk_surface,
    "check-conic": _cmd_check_conic,
    "mk-ruled": _cmd_mk_ruled,
    "census": _cmd_census,
    "dim-report": _cmd_dim_report,
}


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        import tempfile

        d = os.path.dirname(os.path.abspath(out_path))
        try:
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".flagcalc-")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _HANDLERS[args.command](args)
        _emit(payload, args.out)
        return EXIT_OK
    except (UsageError, SchemaError) as exc:
        _emit({"code": "usage", "message": str(exc)}, None)
        return EXIT_USAGE
    except PreconditionError as exc:
        _emit({"code": "precondition", "message": str(exc)}, None)
        return EXIT_PRECONDITION
    except Exception as exc:
        import traceback

        traceback.print_exc(file=sys.stderr)
        message = str(exc) if isinstance(exc, FlagcalcError) else f"{type(exc).__name__}: {exc}"
        _emit({"code": "internal", "message": message}, None)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
