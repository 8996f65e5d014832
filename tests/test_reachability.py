"""Every function under src/flagcalc is reached by a request, and the
Z[i] and F_p modules name no Q(i) type.

One request per subcommand and option family runs in-process through
cli.main, and scripts/paper_facts.py runs through runpy, all under
sys.setprofile.  Each function, method and nested function compiled from
src/flagcalc must have been entered, unless ALLOWED names it with its
reason.  An ALLOWED entry that a request enters, or that no longer
exists, fails too, so the list cannot go stale.  Class bodies, lambdas and
comprehensions are not counted.
"""

import ast
import contextlib
import inspect
import io
import json
import runpy
import sys
from pathlib import Path

from flagcalc import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flagcalc"
FIXTURES = ROOT / "perfbench" / "fixtures"

_PROBED = ("perfbench/trace_boot.py SPANS probes it, so it leaves with the benchmark "
           "change that moves its span")
_PINNED = ("perfbench/trace_boot.py DUNDERS wraps it, and "
           "test_cli.py::test_trace_probes_resolve pins it")
_IMPLICIT = "a value-type dunder that Python calls implicitly (==, hash, repr)"
_UNPACKED = ("perfbench/trace_boot.py::_entry_bits unpacks echelon rows as (re, im) "
             "pairs, and test_cli.py::test_trace_attributes_lazily_imported_requests pins it")

ALLOWED = {
    "flag.conics_disjoint": _PROBED,
    "linsys.surface_through_conics": _PROBED,
    "linalg.echelon_int": _PROBED,
    "linalg.nullspace": _PROBED,
    "gaussian.GaussianRational.__pow__": _PINNED,
    "gaussian.GaussianRational.__rsub__": _PINNED,
    "gaussian.GaussianRational.__rtruediv__": _PINNED,
    "biforms.BiForm.__mul__": _PINNED,
    "biforms.BiForm.__neg__": _PINNED,
    "biforms.BiForm.__sub__": _PINNED,
    "linalg.GaussianInt.__iter__": _UNPACKED,
    "gaussian.GaussianRational.__eq__": _IMPLICIT,
    "gaussian.GaussianRational.__hash__": _IMPLICIT,
    "gaussian.GaussianRational.__repr__": _IMPLICIT,
    "binforms.BinaryForm.__eq__": _IMPLICIT,
    "binforms.BinaryForm.__hash__": _IMPLICIT,
    "binforms.BinaryForm.__repr__": _IMPLICIT,
    "biforms.BiForm.__eq__": _IMPLICIT,
    "biforms.BiForm.__repr__": _IMPLICIT,
    "flag.ProjPoint.__repr__": _IMPLICIT,
    "flag.Conic.__eq__": _IMPLICIT,
    "flag.Conic.__repr__": _IMPLICIT,
}


def defined_functions() -> dict:
    """{(path, first line, name): "module.qualname"} for each def compiled
    from src/flagcalc."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            if code.co_name == "<module>":
                inner = ""
            elif code.co_flags & inspect.CO_OPTIMIZED:  # a function body
                if not code.co_name.startswith("<"):  # not a lambda or comprehension
                    name = f"{path.stem}.{prefix}{code.co_name}"
                    out[(str(path), code.co_firstlineno, code.co_name)] = name
                inner = f"{prefix}{code.co_name}.<locals>."
            else:  # a class body
                inner = f"{prefix}{code.co_name}."
            stack.extend((c, inner) for c in code.co_consts if inspect.iscode(c))
    return out


def _requests(tmp: Path):
    """(argv, exit code) pairs: one request per subcommand and option family."""
    conics = tmp / "conics.json"
    conics.write_text(json.dumps({"conics": [{"q": [1, 0, 0], "m": [1, 0, 0]},
                                             {"q": [0, 1, 0], "m": [1, 1, 0]}]}))
    conic = FIXTURES / "conics" / "random_00.json"
    surfaces, forms = FIXTURES / "surfaces", FIXTURES / "forms"
    return [
        (["bound", "--a", "3", "--b", "3"], 0),
        (["chern", "--a", "2", "--b", "3"], 0),
        (["h0", "--a", "2", "--b", "3"], 0),
        (["h0", "--a", "2", "--b", "3", "--side", "X"], 0),
        (["chow", "--classes", "H1,H2,H1"], 0),
        (["mk-surface", "--a", "2", "--b", "2", "--random", "3", "--seed", "1"], 0),
        (["mk-surface", "--a", "1", "--b", "2", "--conics", str(conics)], 0),
        (["check-conic", "--surface", str(surfaces / "ruled_d2_00.json"),
          "--conic", str(conic)], 0),
        (["mk-ruled", "--forms", str(forms / "d2_00.json"), "--samples", "5"], 0),
        (["census", "--surface", str(surfaces / "dense22_00.json"), "--prime", "5"], 0),
        (["dim-report", "--a", "2", "--b", "2", "--x", "3", "--trials", "2"], 0),
        (["--out", str(tmp / "out.json"), "bound", "--a", "3", "--b", "3"], 0),
        (["--help"], 0),
        (["census", "--help"], 0),
        (["chow", "--classes", "H1"], 2),
    ]


def _run_all(tmp: Path) -> None:
    for argv, code in _requests(tmp):
        assert cli.main(argv) == code, argv
    runpy.run_path(str(ROOT / "scripts" / "paper_facts.py"), run_name="__main__")


def entered(run) -> set:
    """The code objects whose frames run() starts, in this thread."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def reachability(tmp: Path):
    """(the unreached functions not in ALLOWED, the ALLOWED entries that
    are reached or gone), each as sorted module.qualname."""
    assert Path(cli.__file__).resolve() == SRC / "cli.py", "flagcalc is not imported from src/"
    defined = defined_functions()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = entered(lambda: _run_all(tmp))
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}
    unreached = {name for key, name in defined.items() if key not in reached}
    stale = set(ALLOWED) - unreached
    return sorted(unreached - set(ALLOWED)), sorted(stale)


def test_every_function_in_src_is_reached(tmp_path):
    unreached, stale = reachability(tmp_path)
    assert not unreached, f"no request enters: {', '.join(unreached)}"
    assert not stale, f"allowlisted but reached or gone: {', '.join(stale)}"


# The readers parse into Z[i], and they and the modules past them work in
# Z[i] or F_p only.
INTEGER_MODULES = ("linalg", "linsys", "modp", "fpcensus", "biforms", "sampling", "ruled",
                   "serialize")
QI_NAMES = {"fractions", "Fraction", "GaussianRational", "gaussian", "to_gaussian"}


def _names(tree) -> set:
    """Every name, attribute, imported module and imported name in a module."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(name for a in n.names for name in (a.name, a.asname) if name)
            if isinstance(n, ast.ImportFrom) and n.module:
                out.add(n.module)
    return out


def test_integer_modules_name_no_qi_type():
    for stem in INTEGER_MODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        assert not _names(tree) & QI_NAMES, stem
