#!/usr/bin/env python3
"""Show that the benchmark's output checks catch wrong answers.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a flagcalc checkout.  Each test sends one recorded
request through the benchmark's runner, confirms the true response passes,
then forges one wrong fact into it and confirms that the run's failure
fraction rises.  The forged census hit and the wrong dimension are given a
freshly computed digest, so only the independent checks can catch them.
The last test shows that a traced callable the program no longer has
leaves its metrics absent instead of failing the trace.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from run import Runner  # noqa: E402

ROOT = os.getcwd()


def _recorded(prefix: str) -> dict:
    catalog = wl.load_catalog(ROOT)
    return next(e for k, e in sorted(catalog["requests"].items()) if k.startswith(prefix))


def _fail_frac_after(req: dict, text: str) -> float:
    runner = Runner(ROOT, time.monotonic() + 120)
    runner.judge(req, text)
    return runner.failed / runner.attempted


def _true_response(req: dict) -> dict:
    os.makedirs(os.path.join(ROOT, wl.WORK_DIR), exist_ok=True)
    text, _ = Runner(ROOT, time.monotonic() + 120).spawn(req["argv"])
    assert text is not None, "the program failed on a recorded request"
    assert _fail_frac_after(req, text) == 0.0, checks.problems(req, text)
    return json.loads(text)


def _redigest(req: dict, doc: dict) -> tuple[dict, str]:
    return dict(req, digest=checks.digest(req["argv"][0], doc)), json.dumps(doc)


def test_forged_census_hit_raises_fail_frac():
    req = _recorded("census --surface perfbench/fixtures/surfaces/ruled_d2_00.json --prime 5 ")
    doc = _true_response(req)
    p = req["facts"]["prime"]
    hits = {(tuple(c["q"]), tuple(c["m"])) for c in doc["conics"]}
    forged = next((q, m) for q in checks._proj_points(p) for m in checks._proj_points(p)
                  if (q, m) not in hits and sum(a * b for a, b in zip(q, m)) % p)
    doc["conics"].append({"q": list(forged[0]), "m": list(forged[1])})
    doc["count"] += 1
    forged_req, text = _redigest(req, doc)
    assert any("not on the surface" in s for s in checks.problems(forged_req, text))
    assert _fail_frac_after(forged_req, text) == 1.0


def test_wrong_dimension_raises_fail_frac():
    req = _recorded("dim-report --a 3 --b 3 --x 3 ")
    doc = _true_response(req)
    doc["observed_dimensions"][0] += 1
    forged_req, text = _redigest(req, doc)
    assert any("guaranteed range" in s for s in checks.problems(forged_req, text))
    assert _fail_frac_after(forged_req, text) == 1.0


def test_altered_basis_raises_fail_frac():
    req = _recorded("mk-surface --a 2 --b 2 --random 3 ")
    doc = _true_response(req)
    coeff = doc["basis"][0]["terms"][0]["c"]
    coeff["re"] = "12345/1" if coeff["re"] != "12345/1" else "1/1"
    text = json.dumps(doc)
    assert checks.problems(req, text) == ["digest differs from the recorded output"]
    assert _fail_frac_after(req, text) == 1.0


def test_extra_key_is_not_a_failure():
    req = _recorded("dim-report --a 2 --b 2 --x 2 ")
    doc = _true_response(req)
    doc["provenance"] = {"method": "bareiss"}
    assert _fail_frac_after(req, json.dumps(doc)) == 0.0


def test_missing_callable_gives_absent_metrics():
    import trace_boot
    from run import layer_metrics

    sys.path.insert(0, os.path.join(ROOT, "src"))
    saved = trace_boot.SPANS
    trace_boot.SPANS = saved + [("linalg.gone", "flagcalc.linalg", "no_such_function")]
    try:
        tracer = trace_boot.Tracer("selftest")
        trace_boot.instrument(tracer)
    finally:
        trace_boot.SPANS = saved
    assert tracer.missing == ["linalg.gone"]
    agg = {k: v for k, v in tracer.agg.items() if k != "linalg.echelon_int"}
    metrics = layer_metrics(agg, {}, set(agg), 0, 0, 0.0)
    assert "linalg.echelon_int.calls" not in metrics
    assert "linalg.nullspace.self_s" in metrics


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for t in tests:
        try:
            t()
            print(f"ok   {t.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {t.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
