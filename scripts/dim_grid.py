#!/usr/bin/env python3
"""Observed vs expected interpolation dimensions over a small (a, b, x) grid.

For each cell, x random smooth conics are sampled (seeded) and the exact
kernel dimension of the containment conditions is computed: from the rank
mod p when it meets the lower bound h0 - x(a+b+1), which proves it, and
otherwise as the size of the exact kernel basis that surface_family
computes and certifies against every condition row.  Inside the guaranteed range
x <= a(a-1)/2 the observed dimension always equals h0 - x(a+b+1); outside
it the table simply reports what exact arithmetic sees, with no claim
either way.
"""

import argparse

from flagcalc.invariants import h0_flag
from flagcalc.linsys import expected_system_dimension, independence_guaranteed, system_dimension
from flagcalc.sampling import SplitMix64, random_smooth_conics


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-a", type=int, default=3)
    ap.add_argument("--max-b", type=int, default=4)
    ap.add_argument("--max-x", type=int, default=3)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    print(f"{'a':>2} {'b':>2} {'x':>2} {'h0':>4} {'expected':>8} {'observed':>8} {'guaranteed':>10}")
    for a in range(1, args.max_a + 1):
        for b in range(a, args.max_b + 1):
            for x in range(0, args.max_x + 1):
                rng = SplitMix64((args.seed << 10) ^ (a << 6) ^ (b << 3) ^ x)
                conics = random_smooth_conics(rng, x, height=10)
                observed = system_dimension(a, b, conics)
                expected = expected_system_dimension(a, b, x)
                mark = "yes" if independence_guaranteed(a, b, x) else "no"
                flag = "" if observed == expected else "   <- defect"
                print(
                    f"{a:>2} {b:>2} {x:>2} {h0_flag(a, b):>4} {expected:>8} "
                    f"{observed:>8} {mark:>10}{flag}"
                )


if __name__ == "__main__":
    main()
