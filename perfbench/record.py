#!/usr/bin/env python3
"""Make the benchmark's fixtures and record every request variant.

    python3 perfbench/record.py

Run from the root of a flagcalc checkout, on the commit whose outputs are
the reference.  It

1. unless ``perfbench/fixtures`` exists (delete it to remake them), writes
   the ruling-triple pool and the random test conics, both drawn here from
   fixed seeds;
2. asks the program for the census surfaces (``mk-ruled`` and
   ``mk-surface`` outputs) and for the 28 fibers of the uniqueness probe;
3. runs every variant of every workload template once, checks it with
   ``checks.py``'s independent checks, and stores its digest and cost;
4. writes ``catalog.json`` with all of that and the sha256 of every
   fixture, which ``run.py`` verifies before each run.

A variant that exits nonzero or fails an independent check stops the
recording: the benchmark only sends requests the reference commit answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from run import Runner  # noqa: E402

# Fixed triples named in the benchmark's design; the rest of the pool is
# drawn below.  coeffs[k] multiplies s^(d-k) t^k.
FIXED_TRIPLES = {
    (2, 0): [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # Veronese
    (3, 0): [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
    (3, 1): [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 1]],
    (4, 0): [[1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]],
}
POOL_SEED = 7
CONIC_SEED = 11


def _scalar(re, im=0):
    return {"re": f"{re}/1", "im": f"{im}/1"}


def _draw_triple(rng, d):
    f = [[0] * (d + 1) for _ in range(3)]
    f[0][0] = 1
    f[2][d] = 1
    f[1][rng.randrange(1, d)] = 1
    for _ in range(2):
        f[rng.randrange(3)][rng.randrange(d + 1)] = rng.choice([-1, 1, 2])
    return f


def _draw_conic(rng):
    while True:
        q = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
        m = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
        dot_re = sum(a * c - b * d for (a, b), (c, d) in zip(q, m))
        dot_im = sum(a * d + b * c for (a, b), (c, d) in zip(q, m))
        if any(q) and any(m) and (dot_re or dot_im):
            return {"q": [_scalar(*z) for z in q], "m": [_scalar(*z) for z in m]}


def _write(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _cli(runner, argv):
    text, dt = runner.spawn(argv)
    if text is None:
        raise SystemExit(f"recording failed: {' '.join(argv)} exited nonzero")
    return json.loads(text), dt


def make_fixtures(runner):
    rng = random.Random(POOL_SEED)
    for deg, count in ((2, wl.QUADRICS), (3, wl.CUBICS), (4, 1)):
        k = 0
        seen = set()
        while k < count:
            triple = FIXED_TRIPLES.get((deg, k)) or _draw_triple(rng, deg)
            if str(triple) in seen:
                continue
            seen.add(str(triple))
            _write(wl.forms(deg, k), {"forms": triple})
            # The pool keeps only triples the program accepts.
            text, _ = runner.spawn(["mk-ruled", "--forms", wl.forms(deg, k), "--samples", "5"])
            if text is None:
                os.unlink(wl.forms(deg, k))
                continue
            k += 1
    crng = random.Random(CONIC_SEED)
    for k in range(wl.RANDOM_CONICS):
        _write(wl.random_conic(k), _draw_conic(crng))

    for name, (deg, k) in {"ruled_d2_00": (2, 0), "ruled_d3_00": (3, 0),
                           "ruled_d3_01": (3, 1), "ruled_d3_02": (3, 2),
                           "ruled_d4_00": (4, 0)}.items():
        doc, _ = _cli(runner, ["mk-ruled", "--forms", wl.forms(deg, k), "--samples", "5"])
        _write(wl.surface(name), doc["surface"])
    s = 0
    k = 0
    while k < wl.DENSE22:
        # Dense (2,2) members with nonreal coefficients that reduce mod 5 and 13.
        doc, _ = _cli(runner, ["mk-surface", "--a", "2", "--b", "2", "--random", "3",
                               "--seed", str(s)])
        s += 1
        member = doc["member"]
        dens = [int(c["c"][part].split("/")[1]) for c in member["terms"] for part in ("re", "im")]
        nonreal = any(c["c"]["im"] != "0/1" for c in member["terms"])
        if nonreal and all(d % 5 and d % 13 for d in dens):
            _write(wl.surface(f"dense22_{k:02d}"), member)
            k += 1
    doc, _ = _cli(runner, ["mk-ruled", "--forms", wl.forms(3, 0), "--samples", "28"])
    _write(wl.PROBE_CONICS, doc["samples"])


def _entry(runner, req):
    key = wl.request_key(req)
    text, dt = runner.spawn(req["argv"])
    if text is None:
        raise SystemExit(f"recording failed: {key} exited nonzero")
    doc = json.loads(text)
    entry = dict(req, digest=checks.digest(req["argv"][0], doc), nominal_s=round(dt, 3))
    bad = checks.problems(entry, text)
    if bad:
        raise SystemExit(f"recording failed: {key}: {bad}")
    fus = []
    for fu in req.get("followups", []):
        argv = runner.write_followup(fu, doc)
        ftext, fdt = runner.spawn(argv)
        if ftext is None:
            raise SystemExit(f"recording failed: follow-up of {key} exited nonzero")
        fentry = dict(fu, argv=argv, digest=checks.digest("check-conic", json.loads(ftext)),
                      nominal_s=round(fdt, 3))
        bad = checks.problems(fentry, ftext)
        if bad:
            raise SystemExit(f"recording failed: follow-up of {key}: {bad}")
        fus.append(fentry)
    if fus:
        entry["followups"] = fus
    return key, entry


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flagcalc", "cli.py")):
        print("error: run from a flagcalc checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, wl.WORK_DIR, "trace"), exist_ok=True)
    runner = Runner(root, time.monotonic() + 1e9)
    runner.spawn(["h0", "--a", "1", "--b", "1"])
    if not os.path.isdir(wl.FIXTURES):
        make_fixtures(runner)
    requests = {}
    for name, slots in wl.templates().items():
        for _, variants in slots:
            for req in variants:
                key, entry = _entry(runner, req)
                requests[key] = entry
                print(f"{name}: {entry['nominal_s']:.3f}s {key}", flush=True)
    fixtures = {}
    for dirpath, _, files in sorted(os.walk(wl.FIXTURES)):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                fixtures[path] = hashlib.sha256(fh.read()).hexdigest()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    catalog = {
        "recorded_on": {"commit": commit or "unknown", "python": sys.version,
                        "cpu_count": os.cpu_count()},
        "fixtures": fixtures,
        "requests": requests,
    }
    with open(wl.CATALOG, "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in wl.templates():
        reqs = wl.request_list(name, 0, 0, catalog)
        print(f"{name}: {len(reqs)} requests, nominal "
              f"{sum(wl.cost(r) for r in reqs):.1f}s per template", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
