"""Run one flagcalc request with every layer's public callables wrapped.

Usage: python3 perfbench/trace_boot.py TRACE_OUT REQUEST_ID -- ARGV...

The request runs ``flagcalc.cli.main(ARGV)`` exactly as the console script
does, but first each callable listed in SPANS and DUNDERS is replaced by a
timing wrapper.  A module-level function is replaced in every
``flagcalc.*`` namespace that imported it by name, so calls through any of
them are seen; class dunders are wrapped on the class itself.  A callable
that no longer exists is skipped, so its metrics are absent instead of the
trace failing.

Function calls are kept as spans (name, start, end, parent, request id).
Scalar dunders run millions of times, so they are only aggregated (calls
and self time), but they still count as children of the span that called
them.  Everything stays in memory and is written to TRACE_OUT as JSON when
the request ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (span name, module, attribute)
SPANS = [
    ("cli.main", "flagcalc.cli", "main"),
    ("cli.emit", "flagcalc.cli", "_emit"),
    ("linalg.echelon_int", "flagcalc.linalg", "echelon_int"),
    ("linalg.nullspace", "flagcalc.linalg", "nullspace"),
    ("linalg.clear_rows", "flagcalc.linalg", "clear_rows"),
    ("linsys.condition_matrix", "flagcalc.linsys", "condition_matrix"),
    ("linsys.system_dimension", "flagcalc.linsys", "system_dimension"),
    ("linsys.surface_family", "flagcalc.linsys", "surface_family"),
    ("linsys.surface_through_conics", "flagcalc.linsys", "surface_through_conics"),
    ("flag.substitute_forms", "flagcalc.flag", "substitute_forms"),
    ("flag.contains_conic", "flagcalc.flag", "contains_conic"),
    ("flag.restrict_to_conic", "flagcalc.flag", "restrict_to_conic"),
    ("flag.conics_disjoint", "flagcalc.flag", "conics_disjoint"),
    ("flag.is_j_invariant", "flagcalc.flag", "is_j_invariant"),
    ("binforms.gcd", "flagcalc.binforms", "bf_gcd"),
    ("ruled.twistor_ruled_surface", "flagcalc.ruled", "twistor_ruled_surface"),
    ("ruled.resultant", "flagcalc.ruled", "_parameter_resultant"),
    ("ruled.certificate", "flagcalc.ruled", "containment_certificate"),
    ("ruled.positivity", "flagcalc.ruled", "_positivity_certificate"),
    ("ruled.birational", "flagcalc.ruled", "_check_birational"),
    ("ruled.circle_samples", "flagcalc.ruled", "twistor_circle_samples"),
    ("fpcensus.reduce_mod_p", "flagcalc.fpcensus", "reduce_mod_p"),
    ("fpcensus.conic_census", "flagcalc.fpcensus", "conic_census"),
    ("fpcensus.max_disjoint", "flagcalc.fpcensus", "max_disjoint_subset"),
    ("sampling.random_smooth_conics", "flagcalc.sampling", "random_smooth_conics"),
]

# Every function defined in these modules is wrapped as "<layer>.<function>".
# They run once per emitted scalar, so they are aggregated, not kept as spans.
SPAN_MODULES = [("serialize", "flagcalc.serialize")]

# (layer, module, class, dunders); aggregated only.
DUNDERS = [
    ("gaussian", "flagcalc.gaussian", "GaussianRational",
     ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
      "__truediv__", "__rtruediv__", "__neg__", "__pow__"]),
    ("binforms", "flagcalc.binforms", "BinaryForm",
     ["__add__", "__sub__", "__neg__", "__mul__", "__rmul__"]),
    ("biforms", "flagcalc.biforms", "BiForm",
     ["__add__", "__sub__", "__neg__", "__mul__", "__rmul__"]),
]

# The census scan runs in worker threads; only the threads are counted, so
# the main thread's span stack is never touched from another thread.
THREAD_PROBES = [("fpcensus.census_chunk", "flagcalc.fpcensus", "_census_chunk")]


def _entry_bits(rows) -> int:
    best = 0
    for row in rows:
        for re, im in row:
            best = max(best, abs(re).bit_length(), abs(im).bit_length())
    return best


def _hook_echelon(tr, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tr.add("linalg.echelon_int.cells", len(rows) * ncols)
    tr.high("linalg.max_entry_bits", _entry_bits(rows))


def _hook_condition_matrix(tr, args, kwargs, result):
    tr.add("linsys.condition_matrix.cells", len(result.rows) * len(result.columns))


def _hook_certificate(tr, args, kwargs, result):
    tr.add("ruled.certificate.samples", sum(c["samples"] for c in result.get("charts", [])))


def _hook_census(tr, args, kwargs, result):
    p = args[0].p
    tr.add("fpcensus.pairs", (p * p + p + 1) ** 2)
    tr.add("fpcensus.hits", len(result))


def _hook_max_disjoint(tr, args, kwargs, result):
    tr.add("fpcensus.max_disjoint.exact", int(bool(result.exact)))


HOOKS = {
    "linalg.echelon_int": _hook_echelon,
    "linsys.condition_matrix": _hook_condition_matrix,
    "ruled.certificate": _hook_certificate,
    "fpcensus.conic_census": _hook_census,
    "fpcensus.max_disjoint": _hook_max_disjoint,
}


class Tracer:
    """In-memory spans, per-name aggregates and counters for one request."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.agg: dict[str, list] = {}  # name -> [calls, self seconds, inclusive seconds]
        self.counters: dict[str, int] = {}
        self.threads: dict[str, set] = {}
        self.missing: list[str] = []
        # Each frame is [child seconds, span index or -1]; the base frame
        # collects time spent outside any wrapped call.
        self._stack = [[0.0, -1]]

    def add(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def high(self, name, n):
        self.counters[name] = max(self.counters.get(name, 0), n)

    def wrap(self, name, fn, keep_span):
        stack = self._stack
        spans = self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        perf = time.perf_counter
        rid = self.request_id
        tracer = self

        def traced(*args, **kwargs):
            if keep_span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1], rid])
            else:
                idx = stack[-1][1]
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                agg[0] += 1
                agg[1] += d - frame[0]
                agg[2] += d
                if keep_span:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if hook is not None:
                h0 = perf()
                hook(tracer, args, kwargs, result)
                # Hook work is trace overhead: keep it out of the caller's self time.
                stack[-1][0] += perf() - h0
            return result

        return functools.wraps(fn)(traced)

    def thread_probe(self, name, fn):
        seen = self.threads.setdefault(name, set())

        def probed(*args, **kwargs):
            seen.add(threading.get_ident())
            return fn(*args, **kwargs)

        return probed

    def dump(self) -> dict:
        return {
            "request_id": self.request_id,
            "spans": self.spans,
            "agg": self.agg,
            "counters": self.counters,
            "threads": {k: len(v) for k, v in self.threads.items()},
            "missing": self.missing,
        }


def _replace_everywhere(orig, replacement):
    for modname, mod in list(sys.modules.items()):
        if modname == "flagcalc" or modname.startswith("flagcalc."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)


def instrument(tracer: Tracer) -> None:
    import flagcalc.cli  # noqa: F401  (loads every module a request can reach)

    targets = [(name, modname, attr, True) for name, modname, attr in SPANS]
    for layer, modname in SPAN_MODULES:
        mod = importlib.import_module(modname)
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, "__module__", None) == modname \
                    and not isinstance(value, type):
                targets.append((f"{layer}.{attr}", modname, attr, False))
    for name, modname, attr, keep_span in targets:
        try:
            orig = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            tracer.missing.append(name)
            continue
        _replace_everywhere(orig, tracer.wrap(name, orig, keep_span))
    for name, modname, attr in THREAD_PROBES:
        try:
            orig = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            tracer.missing.append(name)
            continue
        _replace_everywhere(orig, tracer.thread_probe(name, orig))
    for layer, modname, clsname, names in DUNDERS:
        try:
            cls = getattr(importlib.import_module(modname), clsname)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{layer}.{clsname}")
            continue
        for dunder in names:
            fn = cls.__dict__.get(dunder)
            if fn is None:
                tracer.missing.append(f"{layer}.{dunder}")
                continue
            setattr(cls, dunder, tracer.wrap(f"{layer}.{dunder}", fn, keep_span=False))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_boot.py TRACE_OUT REQUEST_ID -- ARGV...", file=sys.stderr)
        return 2
    out_path, request_id, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer(request_id)
    instrument(tracer)
    from flagcalc import cli

    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
