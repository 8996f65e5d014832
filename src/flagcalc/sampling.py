"""Deterministic seeded sampling for points and conics.

Every source of randomness in the package flows through SplitMix64, a
64-bit generator with a one-line state transition.  Fixing the seed fixes
every sampled object bit for bit, independent of platform or interpreter,
which is what makes emitted fixtures reproducible.  Derived draws use plain
modulo reduction; the slight bias is irrelevant here and keeps the mapping
trivial to restate.
"""

from __future__ import annotations

from .flag import Conic, ProjPoint
from .gaussian import GaussianRational

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output = mix(state)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def random_gaussian_rational(rng: SplitMix64, height: int = 9):
    return GaussianRational(rng.int_in(-height, height), rng.int_in(-height, height))


def random_proj_point(rng: SplitMix64, height: int = 9):
    """A projective point with Gaussian-integer coordinates of bounded height."""
    while True:
        coords = [random_gaussian_rational(rng, height) for _ in range(3)]
        if any(coords):
            return ProjPoint(coords)


def random_smooth_conic(rng: SplitMix64, height: int = 9):
    """A conic L_{q,m} with q.m != 0, coordinates of bounded height."""
    while True:
        C = Conic(random_proj_point(rng, height), random_proj_point(rng, height))
        if C.is_smooth:
            return C


def random_smooth_conics(rng: SplitMix64, count: int, height: int = 9):
    """Pairwise distinct smooth conics, in the order first drawn."""
    out: dict = {}  # a Conic hashes by its canonical q and m
    while len(out) < count:
        out[random_smooth_conic(rng, height)] = None
    return list(out)

