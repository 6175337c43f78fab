"""Counter-based random stream of the Monte Carlo kernel and its replay.

Every draw is a pure function of (seed, counter): the 64-bit counter is
stretched by the golden-ratio increment and passed through the SplitMix64
finalizer. Trials own fixed counter windows, so shards of a run can be
evaluated in any order, on any thread, and tally bit-for-bit the same.
"""

from __future__ import annotations

import math
from typing import Tuple

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
# Dark counts take slots 4-9. Slot 4 picks the first dark detector-bin j
# against first_dark_cum; slot 4 + b then decides bin b > j, dark with
# probability p_dark. Bins below j stay silent, and a trial with no dark
# click reads slot 4 only.
DRAW_DARK_BASE = 4
DRAW_MISALIGN = 10


def first_dark_cum(p_dark: float) -> Tuple[float, ...]:
    """c_j = 1 - (1 - p_dark)**(j + 1), j = 0..5: the probability that one
    of the first j + 1 detector-bins has a dark click.

    A unit draw u picks the first dark bin, the least j with u < c_j; no
    bin is dark when u >= c_5.
    """
    log_silent = math.log1p(-p_dark)
    return tuple(-math.expm1((j + 1) * log_silent) for j in range(6))


def stretch(seed: int, counter: int) -> int:
    """The state raw_draw mixes: seed + (counter + 1) * GOLDEN mod 2**64.

    It is linear in the counter, so the state of counter + j is the state
    of counter plus j * GOLDEN, mod 2**64.
    """
    return (seed + (counter + 1) * GOLDEN) & MASK64


def raw_draw(seed: int, counter: int) -> int:
    """64-bit output for one (seed, counter) pair."""
    z = stretch(seed, counter)
    z = (z ^ (z >> 30)) * _MIX1 & MASK64
    z = (z ^ (z >> 27)) * _MIX2 & MASK64
    return z ^ (z >> 31)


def unit_draw(seed: int, counter: int) -> float:
    """Draw in [0, 1) with the top 53 bits of raw_draw."""
    return (raw_draw(seed, counter) >> 11) * _INV_2_53


def mix_array(z: np.ndarray) -> np.ndarray:
    """raw_draw over a uint64 array of stretched states, mixed in place."""
    shifted = np.empty_like(z)  # one buffer for the three shifts
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z
