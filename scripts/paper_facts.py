#!/usr/bin/env python3
"""Print, as one deterministic JSON document, the paper's claims that
flagcalc can check today; FACTS.json at the repo root is its output:

    PYTHONPATH=src python scripts/paper_facts.py > FACTS.json

- bounds: the disjoint-conic ceiling on the diagonal a = 3..30, exact and
  floored, its margin over 3a^2 (positive throughout), and the floor of
  the ruling-curve bound;
- dimensions: over a <= 3, b <= 4, x <= 3, the exact dimension of (a, b)
  surfaces through x seeded random smooth conics against h0 - x(a+b+1),
  which it must equal where independence is guaranteed (x <= a(a-1)/2);
- ruled: the degree 2 and 3 twistor rulings with their containment
  certificate and the singular-point gcd degree on four sampled fibers
  (2a - 2 on a generic fiber), then the conic census of the degree-2
  surface at p = 5, 7, 11, 13, which is mod-p evidence only.
"""

import json
import sys

from flagcalc.binforms import BinaryForm
from flagcalc.flag import singular_points_on_conic
from flagcalc.fpcensus import conic_census, max_disjoint_subset, reduce_mod_p
from flagcalc.invariants import h0_flag, miyaoka_conic_bound, ruling_curve_bound
from flagcalc.linsys import expected_system_dimension, independence_guaranteed, system_dimension
from flagcalc.ruled import twistor_circle_samples, twistor_ruled_surface
from flagcalc.sampling import SplitMix64, random_smooth_conics
from flagcalc.serialize import forms_to_json, frac_str

SEED = 2024
RULINGS = {
    2: (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1])),
    3: (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1])),
}


def bounds():
    for a in range(3, 31):
        value, floor = miyaoka_conic_bound(a, a)
        yield {"a": a, "three_a_squared": 3 * a * a, "conic_bound": frac_str(value),
               "conic_bound_floor": floor, "margin": frac_str(value - 3 * a * a),
               "ruling_curve_bound_floor": ruling_curve_bound(a, a)[1]}


def dimensions():
    for a in range(1, 4):
        for b in range(a, 5):
            for x in range(4):
                rng = SplitMix64((SEED << 10) ^ (a << 6) ^ (b << 3) ^ x)
                yield {"a": a, "b": b, "x": x, "seed": SEED, "h0": h0_flag(a, b),
                       "expected": expected_system_dimension(a, b, x),
                       "observed": system_dimension(a, b, random_smooth_conics(rng, x, height=10)),
                       "guaranteed": independence_guaranteed(a, b, x)}


def ruled():
    specs = {a: twistor_ruled_surface(forms) for a, forms in RULINGS.items()}
    for a, spec in specs.items():
        fibers = []
        for C in twistor_circle_samples(spec, 4):
            g = singular_points_on_conic(spec.surface, C)
            fibers.append({"over": [str(c) for c in C.q.rational()],
                           "singular_gcd_degree": "whole conic" if g.is_zero() else g.degree})
        yield {"claim": "twistor ruling", "a": a, "forms": forms_to_json(spec.forms),
               "bidegree": list(spec.surface.bidegree), "terms": len(spec.surface.terms),
               "certificate": spec.certificate, "fibers": fibers}
    for p in (5, 7, 11, 13):
        census = conic_census(reduce_mod_p(specs[2].surface, p))
        md = max_disjoint_subset(census, p)
        yield {"claim": "conic census", "evidence": "mod-p", "a": 2, "prime": p,
               "count": len(census), "max_disjoint": {"size": md.size, "exact": md.exact}}


if __name__ == "__main__":
    facts = {"bounds": list(bounds()), "dimensions": list(dimensions()), "ruled": list(ruled())}
    sys.stdout.write(json.dumps(facts, indent=2) + "\n")
