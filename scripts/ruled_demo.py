#!/usr/bin/env python3
"""Build the degree 2 and 3 twistor-ruled surfaces and poke at them.

Shows the certificate summary, the singular points of the surface on four
sampled fibers (the degree of their gcd, 2a - 2 on a generic fiber, or
"whole conic"), and the conic census of the degree-2 surface over small primes.  Note how
mod 7 and mod 13 some parameter fibers degenerate (t^4 + t^2 + 1 acquires
roots), so the census there is smaller than the naive p + 1 count.
"""

import time

from flagcalc.binforms import BinaryForm
from flagcalc.flag import singular_points_on_conic
from flagcalc.fpcensus import conic_census, max_disjoint_subset, reduce_mod_p
from flagcalc.ruled import twistor_circle_samples, twistor_ruled_surface

TRIPLES = {
    2: (BinaryForm([1, 0, 0]), BinaryForm([0, 1, 0]), BinaryForm([0, 0, 1])),
    3: (BinaryForm([1, 0, 0, 0]), BinaryForm([0, 1, 1, 0]), BinaryForm([0, 0, 0, 1])),
}


def main():
    for a, forms in TRIPLES.items():
        t0 = time.time()
        spec = twistor_ruled_surface(forms)
        print(
            f"a={a}: bidegree {spec.surface.bidegree}, {len(spec.surface.terms)} terms, "
            f"certificate bound {spec.certificate['degree_bound']}, "
            f"built in {time.time() - t0:.2f}s"
        )
        for C in twistor_circle_samples(spec, 4):
            g = singular_points_on_conic(spec.surface, C)
            found = "whole conic" if g.is_zero() else f"gcd degree {g.degree}"
            q = ", ".join(map(str, C.q.coords))
            print(f"  singular points on the fiber over ({q}): {found}")
    spec2 = twistor_ruled_surface(TRIPLES[2])
    for p in (5, 7, 11, 13):
        t0 = time.time()
        census = conic_census(reduce_mod_p(spec2.surface, p))
        md = max_disjoint_subset(census, p)
        kind = "exact" if md.exact else "greedy lower bound"
        print(
            f"  census mod {p:>2}: {len(census):>3} conics, "
            f"max disjoint {md.size} ({kind}), {time.time() - t0:.2f}s"
        )


if __name__ == "__main__":
    main()
