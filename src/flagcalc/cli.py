"""Command-line front end: stable JSON in, stable JSON out.

Usage: flagcalc [--out FILE] COMMAND [--name value | --name=value ...].
Options take full names only, the last of a repeated option wins, and -h or
--help prints the option table.  Exit codes: 0 success, 2 usage or malformed
input, 3 precondition violation, 4 internal failure.  Errors are emitted as
{"code", "message"} JSON; an internal failure also prints its traceback to
stderr.  For a fixed subcommand, arguments, and seed the output bytes are
identical across runs.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

from .errors import FlagcalcError, PreconditionError, SchemaError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
# a census costs (p^2+p+1) 3(p+1) evaluations; above this it is refused
CENSUS_MAX_COST = 3_100_000_000  # p = 1009, about half an hour, still runs
# the exact max-disjoint search grows about 4x per 8 members; 64 take about 1 s
CENSUS_MAX_LIMIT = 64
# a sampled fiber costs about 0.1 ms and 0.5 kB of output: 10,000 take 1 s
RULED_MAX_SAMPLES = 10_000
# the ruled build grows about 2.5x per degree: degree 10 takes about 50 s
RULED_MAX_DEGREE = 10
# max(x(a+b+1) rows, h0(a,b) basis vectors) x h0(a,b) cells; dim-report takes
# about 7 s on (8,8), x = 43 (532,899 cells) and 38 s on (10,10), x = 80 (2,236,080)
SYSTEM_MAX_CELLS = 3_000_000
# a + b of a surface read by check-conic or census: a census at p = 3 takes up to 2 s at 64
SURFACE_MAX_DEGREE = 64


class UsageError(FlagcalcError):
    pass


def _load_json(path):
    def unique_keys(pairs):  # json alone would keep a repeated key's last value
        if len(obj := dict(pairs)) < len(pairs):
            key = next(k for n, (k, _) in enumerate(pairs) if k in dict(pairs[:n]))
            raise SchemaError(f"{path}: repeated key {json.dumps(key)}")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # int() refuses a JSON number over its digit limit
        raise SchemaError(f"{path}: a JSON number has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def _refuse_large_system(a, b, x, trials=1):
    from .invariants import h0_flag

    rows, cols = x * (a + b + 1), h0_flag(a, b)
    if (cells := trials * max(rows, cols) * cols) > SYSTEM_MAX_CELLS:
        raise PreconditionError(f"the system costs {cells} cells ({trials} x max({rows} rows, "
                                f"{cols} columns) x {cols} columns), over the limit "
                                f"{SYSTEM_MAX_CELLS}")


def _load_surface(path):
    from .serialize import biform_from_json

    F = biform_from_json(_load_json(path))
    if (n := sum(F.bidegree)) > SURFACE_MAX_DEGREE:
        est = 2 * (min(n, 10**6) / SURFACE_MAX_DEGREE) ** 4
        raise PreconditionError(f"a surface with a + b = {n} costs up to about {est:.3g} s "
                                f"(census at p = 3), over the cap a + b <= {SURFACE_MAX_DEGREE}")
    return F


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

    return invariants.surface_invariant_report(args.a, args.b)


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
    if args.conics is not None:
        conics = serialize.conics_from_json(_load_json(args.conics))
        _refuse_large_system(args.a, args.b, len(conics))
    else:
        _refuse_large_system(args.a, args.b, args.random)
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
    from .flag import require_surface, restrict_to_conic

    F = _load_surface(args.surface)
    C = serialize.conic_from_json(_load_json(args.conic))
    restriction = restrict_to_conic(F, C)  # a degenerate conic is refused first
    require_surface(F)
    out = {
        "contained": restriction.is_zero(),
        "twistor_fiber": C.is_twistor_fiber(),
        "smooth_conic": C.is_smooth,
    }
    if not out["contained"]:
        out["restriction_degree"] = restriction.degree
    return out


def _cmd_mk_ruled(args):
    from . import ruled, serialize
    from .flag import is_j_invariant

    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if (n := args.samples) > RULED_MAX_SAMPLES:
        raise PreconditionError(f"--samples {n} takes about {n / 10000:.3g} s (0.1 ms per "
                                f"fiber), over the cap {RULED_MAX_SAMPLES} samples")
    forms = serialize.forms_from_json(_load_json(args.forms))
    if (a := max(f.degree for f in forms)) > RULED_MAX_DEGREE:
        est = 50 * 2.5 ** (min(a, 99) - RULED_MAX_DEGREE)
        raise PreconditionError(f"a degree-{a} ruling takes about {est:.3g} s to build (2.5x "
                                f"per degree), over the cap of degree {RULED_MAX_DEGREE}")
    spec = ruled.twistor_ruled_surface(forms)
    samples = ruled.twistor_circle_samples(spec, args.samples)
    return {
        "bidegree": list(spec.surface.bidegree),
        "forms": serialize.forms_to_json(spec.forms),
        "surface": serialize.biform_to_json(spec.surface),
        # j swaps P and L and Bez(L, P) = -Bez(P, L), so j*S = (-1)^a S: a real
        # sign cannot be scaled away for odd a, so this is proportionality
        "j_invariant": is_j_invariant(spec.surface),
        "irreducible": "unverified",
        "certificate": spec.certificate,
        "witness_params": [[f"{k}/1" for k in st] for st in spec.witness_params],
        "samples": [serialize.conic_to_json(c) for c in samples],
    }


def _cmd_census(args):
    from . import flag, fpcensus

    if args.limit < 0:
        raise UsageError("--limit must be nonnegative")
    if args.limit > CENSUS_MAX_LIMIT:
        raise PreconditionError(f"--limit {args.limit} is over the cap {CENSUS_MAX_LIMIT}")
    p = args.prime
    if (cost := (p * p + p + 1) * 3 * (p + 1)) > CENSUS_MAX_COST:
        raise PreconditionError(f"a census at p = {p} costs about {cost} evaluations, "
                                f"over the limit {CENSUS_MAX_COST}")
    F = _load_surface(args.surface)
    S = fpcensus.reduce_mod_p(flag.require_surface(F), args.prime)
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
    from .invariants import h0_flag
    from .sampling import SplitMix64, random_smooth_conics

    if args.x < 0:
        raise UsageError("--x must be nonnegative")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    _refuse_large_system(args.a, args.b, args.x, args.trials)
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
        "h0": h0_flag(args.a, args.b),
        "conditions_per_conic": args.a + args.b + 1,
        "expected_dimension": expected,
        "independence_guaranteed": guaranteed,
        "observed_dimensions": observed,
        "all_match_expected": all(d == expected for d in observed),
    }


class _Help(Exception):
    """The text that -h or --help asked for."""


REQUIRED = object()
_INT = (int, REQUIRED, "")
_GLOBAL = {"out": (str, None, "write the JSON result to this path (atomic)")}

# command -> (handler, help line, {option: (int, str or a tuple of choices;
# default or REQUIRED; help)}), in the order --help lists them
COMMANDS = {
    "bound": (_cmd_bound, "disjoint-conic and ruling-curve ceilings", {"a": _INT, "b": _INT}),
    "chern": (_cmd_chern, "Chern numbers and adjunction data", {"a": _INT, "b": _INT}),
    "h0": (_cmd_h0, "section counts on the flag or its linear sections",
           {"a": _INT, "b": _INT, "side": (("flag", "X", "Y"), "flag", "")}),
    "chow": (_cmd_chow, "triple products of the hyperplane classes",
             {"classes": (str, REQUIRED, "comma list, e.g. H1,H2,H1")}),
    "mk-surface": (_cmd_mk_surface, "surface through prescribed conics", {
        "a": _INT, "b": _INT, "conics": (str, None, "JSON file with a list of conics"),
        "random": (int, None, "sample this many conics"), "seed": (int, 0, "")}),
    "check-conic": (_cmd_check_conic, "containment of a conic in a surface",
                    {"surface": (str, REQUIRED, ""), "conic": (str, REQUIRED, "")}),
    "mk-ruled": (_cmd_mk_ruled, "bidegree (a,a) surface ruled by twistor fibers", {
        "forms": (str, REQUIRED, "JSON file with three real binary forms"),
        "samples": (int, 5, "")}),
    "census": (_cmd_census, "mod-p conic census of a surface", {
        "surface": (str, REQUIRED, ""), "prime": _INT,
        "limit": (int, 24, f"exact max-disjoint search cap, at most {CENSUS_MAX_LIMIT}")}),
    "dim-report": (_cmd_dim_report, "observed vs expected interpolation dimensions", {
        "a": _INT, "b": _INT, "x": _INT, "trials": (int, 5, ""), "seed": (int, 0, "")}),
}


def _value(label, kind, text):
    if isinstance(kind, tuple):
        if text in kind:
            return text
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"argument {label}: invalid choice: {text!r} (choose from {choices})")
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"argument {label}: invalid {kind.__name__} value: {text!r}") from None


def parse_args(argv) -> SimpleNamespace:
    """out, command and each of the command's options, defaults filled in.
    A token after an option is its value unless it starts with "--"; an
    option still REQUIRED is refused before an unknown token is."""
    args = SimpleNamespace(out=None, command=None)
    table, extras, i = _GLOBAL, [], 0
    while i < len(argv):
        tok, i = argv[i], i + 1
        name, eq, text = tok[2:].partition("=") if tok.startswith("--") else ("", "", "")
        if tok in ("-h", "--help"):
            raise _Help(_help_text(args.command))
        if name in table:
            if not eq:
                if i == len(argv) or argv[i].startswith("--"):
                    raise UsageError(f"argument --{name}: expected one argument")
                text, i = argv[i], i + 1
            setattr(args, name, _value(f"--{name}", table[name][0], text))
        elif args.command is None and not tok.startswith("-"):
            args.command, table = _value("command", tuple(COMMANDS), tok), COMMANDS[tok][2]
            vars(args).update((n, default) for n, (_, default, _) in table.items())
        else:
            extras.append(tok)
    missing = [f"--{n}" for n, v in vars(args).items() if v is REQUIRED]
    if args.command is None or missing:
        missing = ", ".join(missing or ["command"])
        raise UsageError(f"the following arguments are required: {missing}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _help_text(command) -> str:
    """The --help text of the program (command None) or of one command."""
    if command is None:
        table = _GLOBAL
        about = "commands (COMMAND --help lists its options):\n"
        about += "".join(f"  {c:<13}{h}\n" for c, (_, h, _) in COMMANDS.items())
    else:
        _, about, table = COMMANDS[command]
        about += "\n"
    text = f"usage: flagcalc [--out FILE] {command or 'COMMAND'} [--name value ...]\n\n"
    text += about + "\noptions:\n"
    for name, (kind, default, note) in table.items():
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
        said = {REQUIRED: "required", None: ""}.get(default, f"default {default}")
        text += f"  {'--' + name + ' ' + meta:<21}{'; '.join(filter(None, (said, note)))}\n"
    return text + f"  {'-h, --help':<21}show this help\n"


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path is not None:
        import tempfile

        d = os.path.dirname(os.path.abspath(out_path))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=d, prefix=".flagcalc-")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except BaseException as exc:
            if tmp and os.path.exists(tmp):
                os.unlink(tmp)
            if isinstance(exc, OSError):
                raise UsageError(f"cannot write {out_path}: {exc.strerror}") from exc
            raise
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    if argv is None:
        # called as the program: what start-up loaded lives until exit, so
        # no collection, in the run or at shutdown, needs to walk it
        gc.freeze()
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
        payload = COMMANDS[args.command][0](args)
        _emit(payload, args.out)
        return EXIT_OK
    except _Help as exc:
        sys.stdout.write(str(exc))
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
