"""Vectorized numpy kernel for the trial loop.

Walks the same counter-based stream as `montecarlo.replay_trials` and
tallies bit-for-bit the same, which the test suite checks.

Draws. The state `_rng.stretch` hands the mixer is linear in the counter,
so each chunk forms its trials' first states once and a draw at slot j of
the trial window adds j * GOLDEN mod 2**64 before `_rng.mix_array`.

Probability tests. The replay compares unit draws k * 2**-53 against
probabilities, k = raw >> 11. This kernel tests k < T(p) with
T(p) = ceil(p * 2**53), which holds exactly when k * 2**-53 < p, in the
form raw < T(p) << 11, which holds exactly when k < T(p). A test whose
threshold is 0 is never true and one whose threshold is 2**53 always is,
so those draws are not computed: each draw is a pure function of
(seed, counter), and skipping one moves no other.

Dark counts. Each of the six detector-bins clicks dark with probability
p independently. One draw at slot DRAW_DARK_BASE picks the first dark
bin: the least j with k < T(c_j), c_j = 1 - (1 - p)**(j + 1) from
`_rng.first_dark_cum`, found by a binary search of the six T(c_j); a
draw with k >= T(c_5) means no dark click. Bin j is then first with
probability c_j - c_(j-1) = (1 - p)**j p, as the first of six
Bernoulli(p) bins to click is, and none is dark with probability
(1 - p)**6. Given j, the bins after it are still independent
Bernoulli(p), so each bin b > j keeps its own draw at slot
DRAW_DARK_BASE + b. The mask's law thus stays the product of six
Bernoulli(p), up to the 2**-53 rounding every threshold has, while a
trial with no dark click, all but about 1.8e-5 of them at p = 3e-6,
costs one draw and one compare with T(c_5) where six draws did before.
Where c_5 rounds to 1 (T(c_5) = 2**53) every trial has a dark click;
that compare is skipped, but the draw is still needed to pick j.

Pattern draw. The replay scans a cumulative row for the first entry above
the draw; its index is the number of entries at or below the draw, which
is the number of `TableSet.pattern_keys` at or below row << KEY_SHIFT | k,
less 64 * row. That count never decreases in k, so a bucket of draws
(the same top GUIDE_BITS bits) whose first and last draws give the same
count gives it for every draw between them. `TableSet.pattern_guide`
holds that count per row and bucket, read with raw >> (64 - GUIDE_BITS),
and GUIDE_MISS for the buckets that hold a cumulative boundary; only
draws in those, at most 1.2% of any row's, are binary-searched in the keys.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from . import _rng
from ._mc_tables import ACTION_KEEP, GUIDE_BITS, GUIDE_MISS, KEY_SHIFT, TableSet

_CHUNK = 1 << 15  # trials per pass; 256 kB arrays stay in cache
_TOP = 2**53  # threshold of a test that always passes
_ONE = np.uint8(1)
_TWO = np.uint64(2)
_SIX = np.uint64(6)
_U11 = np.uint64(11)
_U60 = np.uint64(60)
_BUCKET_SHIFT = np.uint64(64 - GUIDE_BITS)
_GUIDE_BITS = np.uint64(GUIDE_BITS)
_KEY_SHIFT = np.uint64(KEY_SHIFT)


def threshold(p: float) -> int:
    """T(p) = ceil(p * 2**53): k < T(p) iff k * 2**-53 < p for integer k."""
    return math.ceil(p * 2.0**53)


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
    t_eta_a, t_eta_b, t_misalign = map(threshold, (eta_a, eta_b, e_d))
    # T(c_j) of the first dark bin, and T(p_dark) of each later bin, which
    # stays below 2**53 for p_dark < 1, so the shift cannot overflow
    t_first_dark = np.array([threshold(c) for c in _rng.first_dark_cum(p_dark)], np.uint64)
    t_any_dark = int(t_first_dark[-1])
    t_dark_raw = np.uint64(threshold(p_dark) << 11)
    keys = tables.pattern_keys
    guide = tables.pattern_guide.ravel()
    is_keep = tables.action == ACTION_KEEP
    base_error = (tables.base_error != 0).ravel()
    # state of each trial's first draw, less that of the chunk's first trial
    lanes = np.arange(_CHUNK, dtype=np.uint64) * np.uint64(
        _rng.DRAWS_PER_TRIAL * _rng.GOLDEN & _rng.MASK64
    )

    def draw(z: np.ndarray, slot: int) -> np.ndarray:
        """The raw draws at slot of the trials whose first states are z."""
        return _rng.mix_array(z + np.uint64(slot * _rng.GOLDEN & _rng.MASK64))

    def below(z: np.ndarray, slot: int, t: int) -> Union[bool, np.ndarray]:
        """k < t for the draws at slot; a bool where no draw can tell."""
        if t == 0 or t == _TOP:
            return t == _TOP
        return draw(z, slot) < np.uint64(t << 11)

    mask_counts = np.zeros(64, dtype=np.int64)
    keep = 0
    errors = 0
    done = 0
    while done < n_trials:
        m = min(_CHUNK, n_trials - done)
        first = (start_trial + done) * _rng.DRAWS_PER_TRIAL
        z = lanes[:m] + np.uint64(_rng.stretch(seed, first))

        # setting, row and bucket stay below 2**63, so int64 views of them
        # index the tables without a conversion pass
        s = draw(z, _rng.DRAW_SETTING) >> _U60
        # table row 4 * setting + arrival case, case = 2 * (a arrived) + (b arrived)
        row = s << _TWO
        row |= below(z, _rng.DRAW_LOSS_A, t_eta_a) * _TWO
        row |= below(z, _rng.DRAW_LOSS_B, t_eta_b)

        pattern = draw(z, _rng.DRAW_PATTERN)
        mask = guide[((row << _GUIDE_BITS) | (pattern >> _BUCKET_SHIFT)).view(np.int64)]
        miss = np.flatnonzero(mask == GUIDE_MISS)
        if miss.size:
            missed_row = row[miss]
            query = (missed_row << _KEY_SHIFT) | (pattern[miss] >> _U11)
            count = np.searchsorted(keys, query, side="right")
            mask[miss] = count - (missed_row << _SIX).view(np.int64)

        if t_any_dark:
            first_dark = draw(z, _rng.DRAW_DARK_BASE)
            if t_any_dark == _TOP:
                dark = np.arange(m)
            else:
                dark = np.flatnonzero(first_dark < np.uint64(t_any_dark << 11))
            if dark.size:
                j = np.searchsorted(t_first_dark, first_dark[dark] >> _U11, side="right")
                mask[dark] |= _ONE << j.astype(np.uint8)
                for b in range(1, 6):
                    later = dark[j < b]
                    later = later[draw(z[later], _rng.DRAW_DARK_BASE + b) < t_dark_raw]
                    mask[later] |= np.uint8(1 << b)
        mask = mask.astype(np.intp)

        kept = np.flatnonzero(is_keep[mask])
        misalign = below(z[kept], _rng.DRAW_MISALIGN, t_misalign)
        flips = base_error[(s[kept].view(np.int64) << 6) | mask[kept]]
        errors += int(np.count_nonzero(flips ^ misalign))
        keep += kept.size
        mask_counts += np.bincount(mask, minlength=64)
        done += m
    return mask_counts, keep, errors
