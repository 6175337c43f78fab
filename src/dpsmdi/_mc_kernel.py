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

Photon-less trials. Far from the relay most trials lose both photons: 81%
at eta 0.1 per side, 99.7% at 200 km. The CASE_NONE row of
`TableSet.outcome_cum` is all ones, so such a trial's signal mask is 0
whatever its setting and pattern draws are, and skipping those two draws
moves no other. A chunk therefore draws the two loss slots first and makes
the setting draw, the pattern draw and the guide lookup only for the
trials where a photon arrived. A photon-less trial can still be kept, by
dark clicks alone, and base_error reads its setting: such a trial draws it
at DRAW_SETTING after sifting. The chunk's nonzero masks then lie on the
trials with an arrival or a dark click, so it counts those masks alone and
adds the rest to mask 0; a bincount over mostly zeros waits, at each
increment, on the one before. Gathering and scattering cost in proportion
to the trials that click, so where a trial clicks, by an arrival or a dark
click, with probability 1 - (1 - eta_a)(1 - eta_b)(1 - c_5) above
_COMPACT_SHARE, eta_a or eta_b = 1 among them, the kernel draws for every
trial instead.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from . import _rng
from ._mc_tables import ACTION_KEEP, GUIDE_BITS, GUIDE_MISS, KEY_SHIFT, TableSet

_CHUNK = 1 << 15  # trials per pass; 256 kB arrays stay in cache
_TOP = 2**53  # threshold of a test that always passes
# The largest click probability at which a chunk is compacted. Timed on a
# 2-core Xeon, best of 11 single-thread calls of 2**20 trials, the compacted
# path took 0.65-0.67 of the every-trial path's time where 10% of trials
# had an arrival, 0.72-0.73 at 20%, 0.81-0.93 at 40%, 0.94-0.98 at 45%,
# 0.96-1.13 at 50%, 1.05-1.27 at 55%, 1.35-1.41 at 75% and 1.77-1.82 at 99%.
# Where trials click by dark counts alone it saves more, since no setting
# or pattern is drawn: 0.79-0.97 at 50%, 0.96-1.04 at 70% and 0.97-1.06
# at 88%. Arrivals give the lower crossover, so it holds for any mix.
_COMPACT_SHARE = 0.45
_ONE = np.uint8(1)
_TWO8 = np.uint8(2)
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
    dark_cum = _rng.first_dark_cum(p_dark)
    t_first_dark = np.array([threshold(c) for c in dark_cum], np.uint64)
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

    def signal_masks(row: np.ndarray, pattern: np.ndarray) -> np.ndarray:
        """The uint8 mask that each pattern draw selects in its table row."""
        mask = guide[((row << _GUIDE_BITS) | (pattern >> _BUCKET_SHIFT)).view(np.int64)]
        miss = np.flatnonzero(mask == GUIDE_MISS)
        if miss.size:
            missed_row = row[miss]
            query = (missed_row << _KEY_SHIFT) | (pattern[miss] >> _U11)
            count = np.searchsorted(keys, query, side="right")
            mask[miss] = count - (missed_row << _SIX).view(np.int64)
        return mask

    compact = 1.0 - (1.0 - eta_a) * (1.0 - eta_b) * (1.0 - dark_cum[-1]) <= _COMPACT_SHARE
    no_trials = np.empty(0, dtype=np.intp)
    mask_counts = np.zeros(64, dtype=np.int64)
    keep = 0
    errors = 0
    done = 0
    while done < n_trials:
        m = min(_CHUNK, n_trials - done)
        first = (start_trial + done) * _rng.DRAWS_PER_TRIAL
        z = lanes[:m] + np.uint64(_rng.stretch(seed, first))
        arrived_a = below(z, _rng.DRAW_LOSS_A, t_eta_a)
        arrived_b = below(z, _rng.DRAW_LOSS_B, t_eta_b)

        # setting, row and bucket stay below 2**63, so int64 views of them
        # index the tables without a conversion pass; the table row is
        # 4 * setting + arrival case
        if not compact:
            s = draw(z, _rng.DRAW_SETTING) >> _U60
            row = s << _TWO
            row |= arrived_a * _TWO
            row |= arrived_b
            pattern = draw(z, _rng.DRAW_PATTERN)
            mask = signal_masks(row, pattern)
        else:
            case = np.empty(m, dtype=np.uint8)  # 2 * (a arrived) + (b arrived)
            np.bitwise_or(arrived_a * _TWO8, arrived_b, out=case)
            arrived = case != 0
            lit = np.flatnonzero(arrived)
            z_lit = z[lit]
            s = draw(z_lit, _rng.DRAW_SETTING) >> _U60
            row = s << _TWO
            row |= case[lit]
            pattern = draw(z_lit, _rng.DRAW_PATTERN)
            mask = np.zeros(m, dtype=np.uint8)
            mask[lit] = signal_masks(row, pattern)

        dark = no_trials
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

        if not compact:
            mask = mask.astype(np.intp)
            kept = np.flatnonzero(is_keep[mask])
            misalign = below(z[kept], _rng.DRAW_MISALIGN, t_misalign)
            flips = base_error[(s[kept].view(np.int64) << 6) | mask[kept]]
            mask_counts += np.bincount(mask, minlength=64)
        else:
            # a trial with neither an arrival nor a dark click has mask 0
            dark_only = dark[~arrived[dark]]
            clicked = np.concatenate((lit, dark_only))
            clicked_mask = mask[clicked].astype(np.intp)
            mask_counts += np.bincount(clicked_mask, minlength=64)
            mask_counts[0] += m - clicked.size
            keeps = is_keep[clicked_mask]
            kept = clicked[keeps]
            # the photon-less kept trials come last; base_error reads their
            # settings too
            dark_kept = dark_only[keeps[lit.size :]]
            redrawn = draw(z[dark_kept], _rng.DRAW_SETTING) >> _U60
            kept_s = np.concatenate((s[keeps[: lit.size]], redrawn))
            misalign = below(z[kept], _rng.DRAW_MISALIGN, t_misalign)
            flips = base_error[(kept_s.view(np.int64) << 6) | clicked_mask[keeps]]
        errors += int(np.count_nonzero(flips ^ misalign))
        keep += kept.size
        done += m
    return mask_counts, keep, errors
