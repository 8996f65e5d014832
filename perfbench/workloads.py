"""Workload templates and seeded request lists.

A workload is a template of slots.  Each slot lists interchangeable
request variants of about the same cost; the seed draws which variants run
and in what order.  Every variant was run once on the recording commit
(``record.py``), which stored its output digest and its cost in
``catalog.json``, so the program under test only ever sees argv and input
files drawn from a finite, recorded set.

Paths in argv are relative to the checkout root.  Responses that feed a
follow-up request (``check-conic`` of an emitted surface) are written
under ``WORK_DIR``.
"""

from __future__ import annotations

import json
import os
import random

BENCH_DIR = "perfbench"
FIXTURES = f"{BENCH_DIR}/fixtures"
CATALOG = f"{BENCH_DIR}/catalog.json"
WORK_DIR = ".perfbench_work"

# Pool sizes; record.py makes exactly these fixtures.
QUADRICS = 6
CUBICS = 6
DENSE22 = 4
RANDOM_CONICS = 8


def forms(deg: int, k: int) -> str:
    return f"{FIXTURES}/forms/d{deg}_{k:02d}.json"


def surface(name: str) -> str:
    return f"{FIXTURES}/surfaces/{name}.json"


def random_conic(k: int) -> str:
    return f"{FIXTURES}/conics/random_{k:02d}.json"


PROBE_CONICS = f"{FIXTURES}/conics/probe28.json"


def _dim_report(a, b, x, trials, seed):
    return {
        "argv": ["dim-report", "--a", str(a), "--b", str(b), "--x", str(x),
                 "--trials", str(trials), "--seed", str(seed)],
        "facts": {"a": a, "b": b, "x": x, "trials": trials},
    }


def _mk_surface_random(a, b, x, seed, conic):
    return {
        "argv": ["mk-surface", "--a", str(a), "--b", str(b), "--random", str(x),
                 "--seed", str(seed)],
        "facts": {"a": a, "b": b, "x": x},
        "followups": [
            {"surface": "member", "conic": ["prescribed", seed % x], "facts": {"contained": True}},
            {"surface": "member", "conic": random_conic(conic), "facts": {}},
        ],
    }


def _probe(k, conic):
    # Degree-3 uniqueness probe: a^2+ab+b^2+1 = 28 twistor fibers of one
    # ruling leave exactly one (3,3) surface, a 196 x 64 system.
    return {
        "argv": ["mk-surface", "--a", "3", "--b", "3", "--conics", PROBE_CONICS],
        "facts": {"a": 3, "b": 3, "x": 28, "dimension": 1},
        "followups": [
            {"surface": "member", "conic": ["prescribed", k], "facts": {"contained": True}},
            {"surface": "member", "conic": random_conic(conic), "facts": {}},
        ],
    }


def _mk_ruled(deg, k, samples, followup=True):
    req = {
        "argv": ["mk-ruled", "--forms", forms(deg, k), "--samples", str(samples)],
        "facts": {"a": deg, "samples": samples},
    }
    if followup:
        req["followups"] = [
            {"surface": "surface", "conic": ["samples", samples - 1],
             "facts": {"contained": True, "twistor_fiber": True}},
        ]
    return req


def _census(name, prime, limit=64):
    return {
        "argv": ["census", "--surface", surface(name), "--prime", str(prime),
                 "--limit", str(limit)],
        "facts": {"prime": prime, "limit": limit, "surface_path": surface(name)},
    }


def _grid(a, b, x, count, seeds=range(4)):
    return (count, [_dim_report(a, b, x, 2, s) for s in seeds])


# Each template has three groups of requests of about the same cost: a low
# group, a middle group that holds the median and an upper group that holds
# the tail rank (10 requests beyond it).  The low group is about as large
# as the upper group plus the few heavy requests, so both statistics fall
# near the middle of their group, and the variants the seed draws barely
# move them.
def templates() -> dict:
    """workload -> list of (count, [variant requests]) slots."""
    cubic_surfaces = [f"ruled_d3_{k:02d}" for k in range(3)]
    dense = [f"dense22_{k:02d}" for k in range(DENSE22)]
    return {
        # Exact elimination and Q(i) arithmetic: paper-size (4,4,x=6), the
        # degree-3 uniqueness probe, large-rational restriction and JSON.
        "interp": [
            # heavy, each followed by two check-conic requests (low group)
            (1, [_dim_report(4, 4, 6, 1, 1)]),
            (1, [_probe(k, k % RANDOM_CONICS) for k in (0, 9, 18, 27)]),
            (1, [_mk_surface_random(3, 3, 4, s, s) for s in range(4)]),
            (1, [_mk_surface_random(2, 3, 3, s, s + 4) for s in range(4)]),
            (1, [_dim_report(3, 4, 5, 1, s) for s in range(4)]),
            # low
            _grid(1, 1, 1, 1), _grid(1, 2, 2, 1), _grid(2, 2, 2, 1), _grid(2, 3, 1, 1),
            _grid(2, 3, 3, 1), _grid(3, 3, 2, 1),
            # middle
            (2, [_mk_surface_random(2, 2, 3, s, s) for s in range(6)]),
            _grid(3, 3, 3, 10),
            # upper
            _grid(3, 3, 4, 10, seeds=(1, 2, 3)),
        ],
        # Resultant, containment certificate and Sturm/gcd checks on
        # small-integer ruling triples; no elimination.
        "ruled": [
            # heavy and upper, each followed by one check-conic (low group)
            (1, [_mk_ruled(4, 0, 5)]),
            (1, [_mk_ruled(4, 0, 49)]),
            (4, [_mk_ruled(3, k, 28) for k in range(CUBICS)]),
            (8, [_mk_ruled(3, k, 5) for k in (0, 1)]),
            # middle
            (8, [_mk_ruled(2, k, 5, followup=False) for k in (2, 4, 5)]),
            (8, [_mk_ruled(2, k, 13, followup=False) for k in (2, 4, 5)]),
        ],
        # Pure F_p scan: sparse ruled surfaces and dense nonreal members,
        # so per-pair and per-term cost separate.
        "census": [
            # heavy
            (1, [_census("ruled_d2_00", 17)]),
            (1, [_census(s, 13) for s in cubic_surfaces]),
            (1, [_census("ruled_d4_00", 11)]),
            (1, [_census(s, 13) for s in dense]),
            # upper, middle, low
            (10, [_census("ruled_d2_00", 11)]),
            (12, [_census(s, 7) for s in cubic_surfaces[:2]]),
            (14, [_census(s, 5) for s in dense + ["ruled_d2_00"]]),
        ],
    }


def request_key(req: dict) -> str:
    return " ".join(req["argv"])


def load_catalog(root: str = ".") -> dict:
    with open(os.path.join(root, CATALOG), encoding="utf-8") as fh:
        return json.load(fh)


def request_list(workload: str, seed: int, seconds: float, catalog: dict) -> list[dict]:
    """The seeded, recorded requests of one run.

    The template is repeated round(seconds / its recorded cost) times, at
    least once, so a run does the same work on every commit and takes
    about ``seconds`` on the recording commit.
    """
    rng = random.Random(f"{workload}:{seed}")
    slots = templates()[workload]
    recorded = catalog["requests"]
    nominal = sum(
        count * sum(cost(recorded[request_key(v)]) for v in variants) / len(variants)
        for count, variants in slots
    )
    reps = max(1, round(seconds / nominal))
    out = []
    for _ in range(reps):
        for count, variants in slots:
            for _ in range(count):
                out.append(recorded[request_key(rng.choice(variants))])
    rng.shuffle(out)
    return out


def cost(entry: dict) -> float:
    """Recorded seconds of a request and its follow-ups."""
    return entry["nominal_s"] + sum(f["nominal_s"] for f in entry.get("followups", []))
