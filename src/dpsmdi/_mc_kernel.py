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

Fate draw. Which photons arrive and which detector-bin clicks dark first
are one categorical outcome, the trial's fate, so one draw at slot
DRAW_FATE decides it by inversion: fate f is the number of T(c_f) at or
below k, c_f the 28 entries of `_rng.fate_cum`. The four fates with no
dark click come first, so k < T(c_0) is a quiet trial, with neither an
arrival nor a dark click. `fate_tables` keeps, per bucket of draws (the
same top _FATE_BITS bits), the fate of every draw in it, and GUIDE_MISS
for the at most 27 buckets that hold a T(c_f); only draws in those are
binary-searched. Where one fate has the whole width 2**53 (each
transmissivity 0 or 1 and no dark counts, like the ideal channel) no
fate draw is made.

Dark counts. Each of the six detector-bins clicks dark with probability
p independently. The fate picks the first dark bin j, with probability
(1 - p)**j p, as the first of six Bernoulli(p) bins to click, and no dark
bin with probability (1 - p)**6. Given j, the bins after it are still
independent Bernoulli(p), so each bin b > j keeps its own draw at slot
DRAW_DARK_BASE + b. The mask's law thus stays the product of six
Bernoulli(p), and the fate's the product of that and the two independent
losses, up to the 2**-53 rounding of each fate's width.

Pattern draw. The replay scans a cumulative row for the first entry above
the draw; its index is the number of entries at or below the draw, which
is the number of `TableSet.pattern_keys` at or below row << KEY_SHIFT | k,
less 64 * row. That count never decreases in k, so a bucket of draws
(the same top GUIDE_BITS bits) whose first and last draws give the same
count gives it for every draw between them. `TableSet.code_guide` holds
the code of that count's mask per row and bucket, read with
raw >> (64 - GUIDE_BITS), and GUIDE_MISS for the buckets that hold a
cumulative boundary; only draws in those, at most 1.2% of any row's, are
binary-searched in the keys.

Codes. A trial's code, mask | keep << 6 | base_error << 7 from
`TableSet.codes`, carries all that its tallies read but the misalignment
draw. Each batch of trials the sparse stage (below) tallies is counted
with one 256-bin bincount, and the mask counts, keeps and (where e_d is 0
or 1) errors are folded from those counts once per call; only the kept
trials' misalignment draws are gathered. Dark clicks OR bits into the
signal mask, so a trial with one has its code looked up again from its
final mask.

Quiet trials. Far from the relay most trials are quiet: 81% at eta 0.1
per side, 99.7% at 200 km. A quiet trial's mask is 0 whatever its
setting and pattern draws are (the CASE_NONE row of
`TableSet.outcome_cum` is all ones), so the kernel runs in two stages.
The dense stage makes the fate draw alone for each chunk of _CHUNK
trials, counts the quiet ones to code 0, and sets the active ones' raw
fate draws and trial offsets aside. The sparse stage runs once _FLUSH
active trials are pending, or the range ends: it rebuilds their first
states from the offsets, finds their fates, makes the setting draw, the
pattern draw and the guide lookup for the trials with an arrival, ORs in
the dark masks and tallies the batch. A trial kept by dark clicks alone
draws its setting after sifting, because base_error reads it. Each draw
is a pure function of (seed, counter), so how the active trials are
batched moves no tally; a batch holds at most _FLUSH - 1 trials plus one
chunk's active ones, which average at most half a chunk. The sparse
stage's fixed cost in numpy calls is so paid once per batch, not once
per chunk, where at 200 km a chunk holds about 100 active trials. Gathering and scattering cost in proportion
to the trials that click, so where a trial clicks, with probability
1 - c_0, above _COMPACT_SHARE, the kernel draws for every trial of each
chunk instead and tallies it as the sparse stage does.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from . import _rng
from ._mc_tables import (
    CODE_ERROR,
    CODE_KEEP,
    GUIDE_BITS,
    GUIDE_MISS,
    KEY_SHIFT,
    TableSet,
)

_CHUNK = 1 << 15  # trials per dense-stage pass; 256 kB arrays stay in cache
# Active trials pending when the sparse stage runs. Timed on a 2-core Xeon
# as the median over 6 rounds of the best of 15 run_trials calls per
# channel, 2**13 against 2**12, 2**14 and 2**15: 250k trials on the lossy
# channel took 3.55 ms against 3.63, 3.99 and 4.60; on the dark-heavy one
# 1.69 against 1.92, 1.62 and 1.69; at 200 km 1.20 against 1.20, 1.15 and
# 1.22; and verify's 2M lossy trials 24.7 against 27.3, 31.4 and 30.5.
_FLUSH = 1 << 13
_TOP = 2**53  # threshold of a test that always passes
# The largest click probability, 1 - c_0, at which a chunk is compacted.
# Timed with both paths forced on a 2-core Xeon, best of 11 single-thread
# calls of 2**20 trials in each of 4 fresh processes, the compacted path
# took 0.48-0.51 of the every-trial path's time where 10% of trials had an
# arrival, 0.54-0.62 at 20%, 0.72-0.75 at 30%, 0.82-0.87 at 40%, 0.86-0.93
# at 45%, 0.90-0.96 at 50%, 0.97-1.06 at 55%, 1.07-1.17 at 60%, 1.22-1.32
# at 75%, 1.47-1.61 at 90% and 1.48-2.10 at 99%. Where trials click by dark
# counts alone it saves more, since no setting or pattern is drawn:
# 0.49-0.71 at 30%, 0.83-0.90 at 50%, 0.95-0.99 at 70%, 1.00-1.01 at 75%
# and 1.00-1.06 at 88%; a 30% arrival and 30% dark mix (51% click) read
# 0.97-1.06. Arrivals give the lower crossover, so it holds for any mix.
_COMPACT_SHARE = 0.5
# fate_guide splits the 2**53 fate draws k into 2**_FATE_BITS buckets
_FATE_BITS = 10
_FATE_SHIFT = np.uint64(64 - _FATE_BITS)
_ONE = np.uint8(1)
_THREE = np.uint8(3)
_MASK_BITS = np.uint8(63)
_TWO = np.uint64(2)
_SIX = np.uint64(6)
_U11 = np.uint64(11)
_U60 = np.uint64(60)
_BUCKET_SHIFT = np.uint64(64 - GUIDE_BITS)
_GUIDE_BITS = np.uint64(GUIDE_BITS)
_ROW_SHIFT = np.uint64(GUIDE_BITS + 2)  # s << _ROW_SHIFT: row 4 * s's first entry
_KEY_SHIFT = np.uint64(KEY_SHIFT)


def threshold(p: float) -> int:
    """T(p) = ceil(p * 2**53): k < T(p) iff k * 2**-53 < p for integer k."""
    return math.ceil(p * 2.0**53)


@lru_cache(maxsize=16)
def fate_tables(eta_a: float, eta_b: float, p_dark: float) -> Tuple[np.ndarray, np.ndarray]:
    """(t_fate, fate_guide): the read-only T(c_f) of `_rng.fate_cum`'s 28
    entries, and per bucket of draws k (the same top _FATE_BITS bits) the
    fate every draw of it picks, the number of T(c_f) at or below k, or
    GUIDE_MISS where a T(c_f) splits the bucket. Cached per channel: a
    build takes about 0.1 ms, some 5% of a 250k-trial run at 200 km."""
    t_fate = np.array([threshold(c) for c in _rng.fate_cum(eta_a, eta_b, p_dark)], np.uint64)
    first = np.arange(2**_FATE_BITS, dtype=np.uint64) << np.uint64(53 - _FATE_BITS)
    last = first + np.uint64(2 ** (53 - _FATE_BITS) - 1)
    at_first = np.searchsorted(t_fate, first, side="right")
    at_last = np.searchsorted(t_fate, last, side="right")
    fate_guide = np.where(at_first == at_last, at_first, GUIDE_MISS).astype(np.uint8)
    t_fate.flags.writeable = False
    fate_guide.flags.writeable = False
    return t_fate, fate_guide


def fates(raw: np.ndarray, t_fate: np.ndarray, fate_guide: np.ndarray) -> np.ndarray:
    """The uint8 fate each raw fate draw picks, from the tables of
    fate_tables: its bucket's entry, or a binary search where that misses."""
    fate = fate_guide[(raw >> _FATE_SHIFT).view(np.int64)]
    miss = np.flatnonzero(fate == GUIDE_MISS)
    if miss.size:
        fate[miss] = np.searchsorted(t_fate, raw[miss] >> _U11, side="right")
    return fate


class _Channel(NamedTuple):
    """What the sparse stage reads of one channel and of the relay tables."""

    t_fate: np.ndarray
    fate_guide: np.ndarray
    any_dark: bool  # a dark fate has a nonzero width
    t_dark_raw: np.uint64  # raw < t_dark_raw: a later bin clicks dark
    t_misalign: int
    compact: bool  # the dense stage passes the active trials alone
    keys: np.ndarray
    code_guide: np.ndarray  # raveled
    codes: np.ndarray  # raveled


def _draw(z: np.ndarray, slot: int) -> np.ndarray:
    """The raw draws at slot of the trials whose first states are z."""
    return _rng.mix_array(z + np.uint64(slot * _rng.GOLDEN & _rng.MASK64))


def _signal_codes(ch: _Channel, z: np.ndarray, s: np.ndarray, case) -> np.ndarray:
    """The uint8 code of the signal mask each trial's pattern draw selects
    in its table row, 4 * s + case, under setting s."""
    pattern = _draw(z, _rng.DRAW_PATTERN)
    # entry, row and setting stay below 2**63, so int64 views of them
    # index the tables without a conversion pass
    entry = s << _ROW_SHIFT  # row << GUIDE_BITS | bucket
    entry |= case << _GUIDE_BITS
    entry |= pattern >> _BUCKET_SHIFT
    code = ch.code_guide[entry.view(np.int64)]
    miss = np.flatnonzero(code == GUIDE_MISS)
    if miss.size:
        row = entry[miss] >> _GUIDE_BITS
        query = (row << _KEY_SHIFT) | (pattern[miss] >> _U11)
        count = np.searchsorted(ch.keys, query, side="right")
        mask = count - (row << _SIX).view(np.int64)
        code[miss] = ch.codes[((row >> _TWO) << _SIX).view(np.int64) + mask]
    return code


def _dark_masks(ch: _Channel, z: np.ndarray, fate: np.ndarray) -> np.ndarray:
    """The uint8 dark mask of trials with dark fates: bit j, their first
    dark bin, and each later bin b whose own draw falls below p_dark."""
    j = (fate >> 2) - _ONE
    mask = _ONE << j
    for b in range(1, 6):
        later = np.flatnonzero(j < b)
        later = later[_draw(z[later], _rng.DRAW_DARK_BASE + b) < ch.t_dark_raw]
        mask[later] |= np.uint8(1 << b)
    return mask


def _sparse_stage(ch: _Channel, z: np.ndarray, raw: np.ndarray) -> Tuple[np.ndarray, int]:
    """(code counts, misalignment errors) of a batch of active trials, from
    their first states z and raw fate draws: their fates, and the setting
    and pattern draws of those with an arrival."""
    fate = fates(raw, ch.t_fate, ch.fate_guide)
    lit = np.flatnonzero(fate & _THREE)
    s = np.zeros(fate.size, dtype=np.uint64)
    code = np.zeros(fate.size, dtype=np.uint8)
    if lit.size:
        z_lit = z[lit]
        s[lit] = s_lit = _draw(z_lit, _rng.DRAW_SETTING) >> _U60
        code[lit] = _signal_codes(ch, z_lit, s_lit, fate[lit] & _THREE)
    return _tally(ch, z, fate, s, code)


def _tally(
    ch: _Channel, z: np.ndarray, fate, s: np.ndarray, code: np.ndarray
) -> Tuple[np.ndarray, int]:
    """(code counts, misalignment errors) of trials with first states z,
    fates (None where the fate is fixed), settings s and signal codes:
    each dark mask is ORed into its trial's code, and each kept trial
    makes its misalignment draw."""
    dark = np.flatnonzero(fate >= 4) if ch.any_dark else ()
    if len(dark):
        mask = (code[dark] & _MASK_BITS) | _dark_masks(ch, z[dark], fate[dark])
        if ch.compact:
            # a trial kept by dark clicks alone draws its setting, which
            # base_error reads; the code of a mask not kept ignores it
            photonless = (fate[dark] & _THREE) == 0
            alone = dark[photonless & (ch.codes[mask] >= CODE_KEEP)]
            s[alone] = _draw(z[alone], _rng.DRAW_SETTING) >> _U60
        code[dark] = ch.codes[(s[dark] << _SIX).view(np.int64) + mask]
    errors = 0
    if 0 < ch.t_misalign < _TOP:
        kept = np.flatnonzero(code & CODE_KEEP)
        misalign = _draw(z[kept], _rng.DRAW_MISALIGN) < np.uint64(ch.t_misalign << 11)
        errors = int(np.count_nonzero((code[kept] >= CODE_ERROR) != misalign))
    return np.bincount(code, minlength=256), errors


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
    t_fate, fate_guide = fate_tables(eta_a, eta_b, p_dark)
    widths = np.diff(t_fate, prepend=np.uint64(0))
    # a fixed fate is one of 0-3: a dark fate has its width below 2**53
    # while p_dark < 1
    fixed = int(np.argmax(widths)) if widths.max() == _TOP else None
    if fixed == 0:  # no photon arrives and no bin is dark: no trial clicks
        quiet = np.zeros(64, dtype=np.int64)
        quiet[0] = n_trials
        return quiet, 0, 0
    t_quiet = int(t_fate[0])  # k >= T(c_0): an arrival or a dark click
    ch = _Channel(
        t_fate,
        fate_guide,
        any_dark=int(t_fate[3]) < _TOP,
        # T(p_dark) stays below 2**53 for p_dark < 1, so the shift cannot overflow
        t_dark_raw=np.uint64(threshold(p_dark) << 11),
        t_misalign=threshold(e_d),
        # a trial clicks, by an arrival or a dark click, with probability 1 - c_0
        compact=_TOP - t_quiet <= _COMPACT_SHARE * _TOP,
        keys=tables.pattern_keys,
        code_guide=tables.code_guide.ravel(),
        codes=tables.codes.ravel(),
    )
    # state of each trial's first draw, less that of its chunk's first trial
    step = np.uint64(_rng.DRAWS_PER_TRIAL * _rng.GOLDEN & _rng.MASK64)
    lanes = np.arange(_CHUNK, dtype=np.uint64) * step
    hist = np.zeros(256, dtype=np.int64)
    errors = 0
    if ch.compact:
        first = np.uint64(_rng.stretch(seed, start_trial * _rng.DRAWS_PER_TRIAL))
        t_active = np.uint64(t_quiet << 11)
        raws, offsets = [], []  # the pending active trials' fate draws and trials
        pending = quiet = 0
        for done in range(0, n_trials, _CHUNK):
            m = min(_CHUNK, n_trials - done)
            base = _rng.stretch(seed, (start_trial + done) * _rng.DRAWS_PER_TRIAL)
            # the fate draws' states, with no pass to form the trials' first
            raw = _rng.mix_array(
                lanes[:m] + np.uint64(base + _rng.DRAW_FATE * _rng.GOLDEN & _rng.MASK64)
            )
            active = np.flatnonzero(raw >= t_active)
            quiet += m - active.size
            raws.append(raw[active])
            offsets.append(active + done)
            pending += active.size
            if pending >= _FLUSH or (pending and done + m == n_trials):
                z = np.concatenate(offsets).view(np.uint64) * step + first
                counts, batch_errors = _sparse_stage(ch, z, np.concatenate(raws))
                hist += counts
                errors += batch_errors
                raws, offsets, pending = [], [], 0
        hist[0] += quiet
    else:
        for done in range(0, n_trials, _CHUNK):
            m = min(_CHUNK, n_trials - done)
            base = _rng.stretch(seed, (start_trial + done) * _rng.DRAWS_PER_TRIAL)
            z = lanes[:m] + np.uint64(base)
            s = _draw(z, _rng.DRAW_SETTING) >> _U60
            if fixed is None:
                fate = fates(_draw(z, _rng.DRAW_FATE), t_fate, fate_guide)
                case = fate & _THREE
            else:  # fixed, so no dark fate either
                fate, case = None, np.uint64(fixed)
            counts, chunk_errors = _tally(ch, z, fate, s, _signal_codes(ch, z, s, case))
            hist += counts
            errors += chunk_errors
    mask_counts = hist.reshape(4, 64).sum(axis=0)
    keeps = int(hist[CODE_KEEP:CODE_ERROR].sum() + hist[CODE_KEEP | CODE_ERROR :].sum())
    if ch.t_misalign == 0:
        errors = int(hist[CODE_KEEP | CODE_ERROR :].sum())
    elif ch.t_misalign == _TOP:
        errors = keeps - int(hist[CODE_KEEP | CODE_ERROR :].sum())
    return mask_counts, keeps, errors
