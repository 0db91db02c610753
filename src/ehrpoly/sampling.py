"""Deterministic random generation of rational polygons.

Reproducibility across runs, platforms and implementations matters more
here than statistical quality, so the generator is a fixed 64-bit
SplitMix64 with its standard constants, and every trial draws from its own
stream derived from (seed, trial index).  No use of `random`.  One trial
takes two batches of draws from its stream, each one loop of `draws`: q
and the point count k, then the 2k coordinates.  A polygon's points are
integers over q, and its hull is built from those integers, so no
`Fraction` is made until its vertices are read.
"""
from __future__ import annotations

from .geometry import DegenerateInput, Polygon, _require_int, _scaled_hull

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    """The SplitMix64 finalizer, a bijection of 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64: state += golden; output = mix(state). Fixed constants.

    `draws(k)` is the one step: it returns the next k outputs from a single
    loop, with the finalizer written out in it, and `next` is `draws(1)`.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def draws(self, k: int) -> list[int]:
        """The next k outputs, in order; the state advances k steps."""
        z, out = self.state, []
        for _ in range(k):
            z = (z + _GOLDEN) & _MASK
            # _mix(z)
            x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            out.append(x ^ (x >> 31))
        self.state = z
        return out

    def next(self) -> int:
        return self.draws(1)[0]

    def below(self, m: int) -> int:
        """Uniform-ish integer in [0, m); modulo bias is irrelevant here."""
        return self.next() % m

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def trial_rng(seed: int, trial: int) -> SplitMix64:
    """Independent stream for one trial; scheduling-order independent.

    The start state mixes (seed, trial) through the finalizer.  Starting at
    seed + trial * golden instead would make each trial's stream the next
    one's shifted by a single draw.  The seed is any int, negative ones
    included, but not a bool: every seeded entry point draws through here.
    """
    _require_int("seed", seed)
    return SplitMix64(_mix((_mix(seed & _MASK) + trial) & _MASK))


def random_polygon(rng: SplitMix64, max_denominator: int, coord_bound: int) -> Polygon | None:
    """Hull of 3..7 random rational points, or None when degenerate.

    All coordinates of one polygon share a denominator q <= max_denominator,
    so the polygon's own denominator is also <= max_denominator.  The
    draws are q, k, then x and y of each point, each taken as
    `int_between` takes it (lo + draw % (hi - lo + 1)); their order is part
    of every search report.
    """
    _require_int("max_denominator", max_denominator, 1)
    _require_int("coord_bound", coord_bound, 1)
    dq, dk = rng.draws(2)
    q, k = 1 + dq % max_denominator, 3 + dk % 5
    b = coord_bound * q
    w = 2 * b + 1
    cs = [d % w - b for d in rng.draws(2 * k)]
    try:
        return _scaled_hull(q, zip(cs[::2], cs[1::2]))
    except DegenerateInput:
        return None


def polygon_corpus(seed: int, size: int, max_denominator: int = 6,
                   coord_bound: int = 5) -> list[Polygon]:
    """Deterministic corpus of `size` valid random polygons."""
    _require_int("seed", seed)
    _require_int("size", size, 0)
    _require_int("max_denominator", max_denominator, 1)
    _require_int("coord_bound", coord_bound, 1)
    out: list[Polygon] = []
    trial = 0
    while len(out) < size:
        P = random_polygon(trial_rng(seed, trial), max_denominator, coord_bound)
        trial += 1
        if P is not None:
            out.append(P)
    return out
