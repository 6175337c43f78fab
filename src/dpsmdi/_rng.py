"""Counter-based random stream of the Monte Carlo kernel and its replay.

Every draw is a pure function of (seed, counter): the 64-bit counter is
stretched by the golden-ratio increment and passed through the SplitMix64
finalizer. Trials own fixed counter windows, so shards of a run can be
evaluated in any order, on any thread, and tally bit-for-bit the same.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# Fixed counter layout within one trial window.
DRAWS_PER_TRIAL = 11
DRAW_SETTING = 0
DRAW_LOSS_A = 1
DRAW_LOSS_B = 2
DRAW_PATTERN = 3
DRAW_DARK_BASE = 4  # six consecutive draws, one per detector-bin
DRAW_MISALIGN = 10


def raw_draw(seed: int, counter: int) -> int:
    """64-bit output for one (seed, counter) pair."""
    z = (seed + ((counter + 1) * GOLDEN & MASK64)) & MASK64
    z = (z ^ (z >> 30)) * _MIX1 & MASK64
    z = (z ^ (z >> 27)) * _MIX2 & MASK64
    return z ^ (z >> 31)


def unit_draw(seed: int, counter: int) -> float:
    """Draw in [0, 1) with the top 53 bits of raw_draw."""
    return (raw_draw(seed, counter) >> 11) * _INV_2_53


def raw_draw_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """Vectorized raw_draw over a uint64 counter array."""
    z = counters + np.uint64(1)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed)
    shifted = np.empty_like(z)  # one buffer for the three shifts
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z
