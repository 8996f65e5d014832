#!/usr/bin/env python3
"""flagcalc benchmark: seeded CLI requests, one client, closed loop.

    python3 perfbench/run.py --workload interp --seed 1 --seconds 30 --trace 0

Run from the root of a flagcalc checkout.  Every request is
``flagcalc.cli.main(argv)`` in a fresh interpreter, as the ``flagcalc``
console script runs it, with a clean environment (no ``FLAGCALC_*``
variables).  The next request is sent when the previous one has exited.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: time to finish the request list, summed from spawn to exit;
* ``req_p50_s``: median request time;
* ``req_tail_s``: the highest percentile of request time with at least 10
  requests beyond it (the percentile and the sample count are printed on
  the line before the result);
* ``cpu_s``: user + system CPU of the request processes, from ``os.wait4``;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any request process;
* ``setup_s``: median time of a trivial request (``h0 --a 1 --b 1``), the
  fixed cost of every invocation.

With ``--trace 1`` the list runs once untraced and once under
``trace_boot.py``, which wraps each layer's callables; the run reports the
per-layer metrics of the traced run and the tracing overhead.  All spans
are written to ``.perfbench_work/spans-<workload>-<seed>.json``.

Every response is checked (see ``checks.py``); a nonzero exit or a failed
check counts in ``failed``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from workloads import WORK_DIR, load_catalog, request_list  # noqa: E402

ENTRY = "import sys; from flagcalc.cli import main; sys.exit(main())"
TRACE_BOOT = "perfbench/trace_boot.py"
SETUP_ARGV = ["h0", "--a", "1", "--b", "1"]
SETUP_DIGEST = checks.digest("h0", {"a": 1, "b": 1, "side": "flag", "h0": 8})
SETUP_SAMPLES = 15
# A run must exit within 180 s; requests past this point are not sent and
# count as failed.
RUN_DEADLINE_S = 165.0
TAIL_BEYOND = 10


class Runner:
    """Spawns request processes and keeps their timings and failures."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": os.path.join(root, "src"),
            "LC_ALL": "C.UTF-8",
        }
        self.work = os.path.join(root, WORK_DIR)
        self.latencies: list[float] = []
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self.out_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trace_files: list[str] = []

    def spawn(self, argv, trace_id=None):
        """Run one request; returns (stdout text or None, seconds)."""
        out_path = os.path.join(self.work, "stdout.json")
        if trace_id is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            tpath = os.path.join(self.work, "trace", f"{trace_id}.json")
            self.trace_files.append(tpath)
            cmd = [sys.executable, TRACE_BOOT, tpath, trace_id, "--", *argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None, 0.0
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=self.root)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.latencies.append(dt)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        self.out_bytes += len(text.encode())
        if proc.returncode != 0:
            return None, dt
        return text, dt

    def request(self, req, trace_id=None):
        """Send a catalog request and its follow-ups; check every response."""
        text, _ = self.spawn(req["argv"], trace_id)
        doc = self.judge(req, text)
        for k, fu in enumerate(req.get("followups", [])):
            if doc is None:
                self.attempted += 1
                self._fail(fu, "parent request failed")
                continue
            argv = self.write_followup(fu, doc)
            fid = None if trace_id is None else f"{trace_id}.{k}"
            self.judge(fu, self.spawn(argv, fid)[0])

    def judge(self, req, text):
        self.attempted += 1
        if text is None:
            self._fail(req, "nonzero exit, or not sent before the deadline")
            return None
        found = checks.problems(req, text)
        if found:
            self._fail(req, "; ".join(found))
            return None
        return json.loads(text)

    def _fail(self, req, why):
        self.failed += 1
        self.problems.append(f"{' '.join(req.get('argv', ['check-conic']))}: {why}")

    def write_followup(self, fu, doc):
        surf = os.path.join(WORK_DIR, "followup_surface.json")
        with open(os.path.join(self.root, surf), "w", encoding="utf-8") as fh:
            json.dump(doc[fu["surface"]], fh)
        if isinstance(fu["conic"], str):
            conic = fu["conic"]
        else:
            field, idx = fu["conic"]
            conic = os.path.join(WORK_DIR, "followup_conic.json")
            with open(os.path.join(self.root, conic), "w", encoding="utf-8") as fh:
                json.dump(doc[field][idx], fh)
        return ["check-conic", "--surface", surf, "--conic", conic]


def tail(latencies):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples above it, nearest-rank."""
    s = sorted(latencies)
    rank = max(1, len(s) - TAIL_BEYOND)
    return s[rank - 1], 100.0 * rank / len(s)


def setup_time(runner: Runner) -> float:
    times = []
    req = {"argv": SETUP_ARGV, "digest": SETUP_DIGEST}
    runner.spawn(SETUP_ARGV)  # writes bytecode caches, as an installed package has them
    for _ in range(SETUP_SAMPLES):
        text, dt = runner.spawn(SETUP_ARGV)
        runner.judge(req, text)
        times.append(dt)
    return statistics.median(times)


def verify_pins(root: str, catalog: dict) -> list[str]:
    bad = []
    for path, want in catalog["fixtures"].items():
        try:
            with open(os.path.join(root, path), "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            got = None
        if got != want:
            bad.append(path)
    return bad


# ---------------------------------------------------------------- trace


def merge_traces(paths):
    agg: dict[str, list] = {}
    counters: dict[str, int] = {}
    threads: dict[str, int] = {}
    present: set[str] = set()
    spans = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                t = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            continue
        for name, (calls, self_s, incl) in t["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += self_s
            a[2] += incl
        present.update(t["agg"])
        for name, n in t["counters"].items():
            if name.endswith("max_entry_bits"):
                counters[name] = max(counters.get(name, 0), n)
            else:
                counters[name] = counters.get(name, 0) + n
        for name, n in t["threads"].items():
            threads[name] = max(threads.get(name, 0), n)
        spans.extend(t["spans"])
    return agg, counters, threads, present, spans


def layer_metrics(agg, counters, present, n_mk_surface, out_bytes, overhead):
    """Per-layer metrics; a metric whose callable was not found is absent."""
    m = {}

    def have(*names):
        return all(n in present for n in names)

    def calls(*names):
        return sum(agg[n][0] for n in names)

    def self_s(*names):
        return sum(agg[n][1] for n in names)

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def frac(num, den):
        return num / den if den else 0.0

    for name in ("linalg.echelon_int", "linsys.condition_matrix"):
        if have(name):
            put(f"{name}.calls", calls(name), "count")
            put(f"{name}.self_s", self_s(name), "s")
            put(f"{name}.cells", counters.get(f"{name}.cells", 0), "count")
    if have("linalg.echelon_int"):
        put("linalg.max_entry_bits", counters.get("linalg.max_entry_bits", 0), "bit")
    for name in ("linalg.nullspace", "linalg.clear_rows", "flag.substitute_forms",
                 "binforms.gcd", "ruled.resultant", "ruled.certificate",
                 "ruled.positivity", "ruled.birational", "ruled.circle_samples",
                 "fpcensus.reduce_mod_p", "fpcensus.conic_census",
                 "fpcensus.max_disjoint", "cli.emit"):
        if have(name):
            put(f"{name}.self_s", self_s(name), "s")
    for name in ("linsys.system_dimension", "linsys.surface_family",
                 "flag.substitute_forms", "flag.contains_conic", "flag.conics_disjoint",
                 "binforms.gcd"):
        if have(name):
            put(f"{name}.calls", calls(name), "count")
    if have("linsys.surface_family"):
        put("linsys.surface_family.useful_frac",
            frac(n_mk_surface, calls("linsys.surface_family")), "ratio")
    if have("ruled.certificate"):
        put("ruled.certificate.samples", counters.get("ruled.certificate.samples", 0), "count")

    for metric, dunders in (("mul", ["__mul__", "__rmul__"]),
                            ("add", ["__add__", "__radd__", "__sub__", "__rsub__"]),
                            ("div", ["__truediv__", "__rtruediv__"])):
        names = [f"gaussian.{d}" for d in dunders]
        if have(*names):
            put(f"gaussian.{metric}.calls", calls(*names), "count")
    gnames = [n for n in present if n.startswith("gaussian.")]
    if gnames:
        put("gaussian.self_s", self_s(*gnames), "s")
    for layer in ("binforms", "biforms"):
        names = [f"{layer}.__mul__", f"{layer}.__rmul__"]
        if have(*names):
            put(f"{layer}.mul.calls", calls(*names), "count")
            put(f"{layer}.mul.self_s", self_s(*names), "s")

    if have("fpcensus.conic_census"):
        pairs = counters.get("fpcensus.pairs", 0)
        hits = counters.get("fpcensus.hits", 0)
        put("fpcensus.pairs", pairs, "pairs_computed")
        put("fpcensus.hits", hits, "count")
        put("fpcensus.hit_frac", frac(hits, pairs), "ratio")
    if have("fpcensus.max_disjoint"):
        put("fpcensus.max_disjoint.exact_frac",
            frac(counters.get("fpcensus.max_disjoint.exact", 0),
                 calls("fpcensus.max_disjoint")), "ratio")

    snames = [n for n in present if n.startswith("serialize.")]
    if snames:
        put("serialize.calls", calls(*snames), "count")
        put("serialize.self_s", self_s(*snames), "s")
    put("cli.out_bytes", out_bytes, "B")
    if have("cli.main"):
        main_s = agg["cli.main"][2]
        put("cli.main.s", main_s, "s")
        put("trace.coverage_frac", frac(main_s - agg["cli.main"][1], main_s), "ratio")
    put("trace.overhead_frac", overhead, "ratio")
    return m


# ---------------------------------------------------------------- main


def run_list(runner: Runner, requests, trace_prefix=None):
    runner.latencies = []
    runner.cpu_s = 0.0
    runner.peak_rss_kb = 0
    runner.out_bytes = 0
    for i, req in enumerate(requests):
        runner.request(req, None if trace_prefix is None else f"{trace_prefix}{i:04d}")
    return sum(runner.latencies)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flagcalc", "cli.py")):
        print("error: run from a flagcalc checkout (src/flagcalc/cli.py not found)",
              file=sys.stderr)
        return 2
    try:
        catalog = load_catalog(root)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read the request catalog: {exc}", file=sys.stderr)
        return 2
    bad = verify_pins(root, catalog)
    if bad:
        print(f"error: fixtures differ from their pinned sha256: {bad}", file=sys.stderr)
        return 2
    try:
        requests = request_list(args.workload, args.seed, args.seconds, catalog)
    except KeyError as exc:
        print(f"error: unknown workload or unrecorded request: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(root, WORK_DIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "trace"))
    runner = Runner(root, started + RUN_DEADLINE_S)

    setup_s = setup_time(runner)
    wall_s = run_list(runner, requests)
    lat = list(runner.latencies)
    tail_s, tail_pct = tail(lat)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(requests),
        "samples": len(lat),
        "tail_percentile": tail_pct,
        "setup_samples": SETUP_SAMPLES,
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        # With FLAGCALC_THREADS unset the census uses one thread per core.
        "census_threads_configured": os.cpu_count(),
    }
    if args.trace:
        traced_wall = run_list(runner, requests, trace_prefix=f"{args.workload}-")
        agg, counters, threads, present, spans = merge_traces(runner.trace_files)
        with open(os.path.join(work, f"spans-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": spans}, fh)
        n_mk = sum(1 for r in requests if r["argv"][0] == "mk-surface")
        metrics = layer_metrics(agg, counters, present, n_mk, runner.out_bytes,
                                traced_wall / wall_s - 1.0)
        info["census_threads_observed"] = threads.get("fpcensus.census_chunk", 0)
        info["traced_wall_s"] = traced_wall
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "req_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "req_tail_s": {"value": tail_s, "unit": "s"},
            "cpu_s": {"value": runner.cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    info["fail_frac"] = runner.failed / runner.attempted
    info["problems"] = runner.problems[:20]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
