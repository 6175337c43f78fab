"""Counter-based random stream of the Monte Carlo kernel and its replay.

Every draw is a pure function of (seed, counter): the 64-bit counter is
stretched by the golden-ratio increment and passed through the SplitMix64
finalizer. Trials own fixed counter windows, so shards of a run can be
evaluated in any order, on any thread, and tally bit-for-bit the same.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_TWO_53 = 2**53

# Fixed counter layout within one trial window.
DRAWS_PER_TRIAL = 11
DRAW_SETTING = 0
# Slot 1 decides a trial's fate, which photons arrive and which detector-bin
# j clicks dark first, against fate_cum. Slot 4 + b then decides bin b > j,
# dark with probability p_dark; a trial with no dark click reads none of
# them. Slots 2 and 4 are retired: they held sender b's loss draw and the
# first-dark-bin draw, which the fate draw now decides along with sender
# a's loss, slot 1's draw before it. The window stays 11 wide, so every
# other draw keeps its counter, and a channel whose fate is fixed (every
# transmissivity 0 or 1, no dark counts) tallies as it did.
DRAW_FATE = 1
DRAW_PATTERN = 3
DRAW_DARK_BASE = 4
DRAW_MISALIGN = 10


def fate_cum(eta_a: float, eta_b: float, p_dark: float) -> Tuple[float, ...]:
    """The 28-entry cumulative law of a trial's fate, each entry rounded up
    to a multiple of 2**-53.

    Fate 4 * (j + 1) + case has probability P(case) P(j): case is
    2 * (a arrived) + (b arrived), sender a's photon arriving with
    probability eta_a and b's with eta_b, and j is the first of the six
    detector-bins to click dark, each dark with probability p_dark, so
    P(j) = (1 - p_dark)**j p_dark, or (1 - p_dark)**6 for j = -1, no dark
    click (fates 0-3). A unit draw u picks the least fate f with u < c_f.

    The sums are exact in integers over a common denominator and only the
    entries are rounded, so each fate's width lies within 2**-53 of its
    probability, a zero probability gets a zero width, and the last entry
    is exactly 1.
    """
    (n_a, d_a), (n_b, d_b), (n, d) = (x.as_integer_ratio() for x in (eta_a, eta_b, p_dark))
    cases = ((d_a - n_a) * (d_b - n_b), (d_a - n_a) * n_b, n_a * (d_b - n_b), n_a * n_b)
    silent = d - n
    first_dark = [silent**6] + [silent**j * n * d ** (5 - j) for j in range(6)]
    whole = d_a * d_b * d**6
    cum = itertools.accumulate(case * dark for dark in first_dark for case in cases)
    # ceil(c / whole * 2**53), a whole number at most 2**53, so exact as a float
    return tuple(-(-c * _TWO_53 // whole) / _TWO_53 for c in cum)


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
