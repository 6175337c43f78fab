"""Vectorized numpy backend for the trial loop.

Walks the same counter-based stream as the compiled kernel and tallies
bit-for-bit the same, which the test suite checks. The compiled kernel
compares unit draws k * 2**-53 against probabilities; this one compares
the integer k = raw >> 11 against thresholds T(p) = ceil(p * 2**53),
and k < T(p) exactly when k * 2**-53 < p. The pattern draw likewise
counts the packed keys of `TableSet.pattern_keys` at or below the
draw, which equals the count of cumulative entries at or below it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from . import _rng
from ._mc_tables import ACTION_KEEP, KEY_SHIFT, TableSet

_CHUNK = 1 << 15  # trials per pass; 256 kB arrays stay in cache
_U11 = np.uint64(11)
_U60 = np.uint64(60)
_ONE = np.uint64(1)
_TWO = np.uint64(2)
_KEY_SHIFT = np.uint64(KEY_SHIFT)


def threshold(p: float) -> np.uint64:
    """T(p) = ceil(p * 2**53): k < T(p) iff k * 2**-53 < p for integer k."""
    return np.uint64(math.ceil(p * 2.0**53))


def run_kernel(
    seed: int,
    start_trial: int,
    n_trials: int,
    eta_a: float,
    eta_b: float,
    p_dark: float,
    e_d: float,
    tables: TableSet,
) -> Tuple[np.ndarray, int, int]:
    """Tally (mask_counts, keeps, errors) for one contiguous trial range."""
    t_eta_a, t_eta_b, t_dark, t_misalign = map(threshold, (eta_a, eta_b, p_dark, e_d))
    keys = tables.pattern_keys
    is_keep = tables.action == ACTION_KEEP
    base_error = tables.base_error != 0

    def k(base: np.ndarray, offset: int) -> np.ndarray:
        """Top 53 bits of the draw at base + offset, as an integer."""
        return _rng.raw_draw_array(seed, base + np.uint64(offset)) >> _U11

    mask_counts = np.zeros(64, dtype=np.int64)
    keep = 0
    errors = 0
    done = 0
    while done < n_trials:
        m = min(_CHUNK, n_trials - done)
        first = start_trial + done
        base = np.arange(first, first + m, dtype=np.uint64) * np.uint64(
            _rng.DRAWS_PER_TRIAL
        )

        s = _rng.raw_draw_array(seed, base + np.uint64(_rng.DRAW_SETTING)) >> _U60
        # table row 4 * setting + arrival case, case = 2 * (a arrived) + (b arrived)
        row = (s << _TWO) | ((k(base, _rng.DRAW_LOSS_A) < t_eta_a).astype(np.uint64) << _ONE)
        row |= k(base, _rng.DRAW_LOSS_B) < t_eta_b

        query = (row << _KEY_SHIFT) | k(base, _rng.DRAW_PATTERN)
        mask = np.searchsorted(keys, query, side="right") - (row.astype(np.int64) << 6)

        for j in range(6):
            mask |= (k(base, _rng.DRAW_DARK_BASE + j) < t_dark).astype(np.int64) << j

        kept = np.flatnonzero(is_keep[mask])
        misalign = k(base[kept], _rng.DRAW_MISALIGN) < t_misalign
        errors += int(np.count_nonzero(base_error[s[kept], mask[kept]] ^ misalign))
        keep += kept.size
        mask_counts += np.bincount(mask, minlength=64)
        done += m
    return mask_counts, keep, errors
