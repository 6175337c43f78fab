"""Precomputed lookup tables for the Monte Carlo kernels.

Click patterns are packed into the 6-bit masks of
``DetectionOutcome.mask``. For each of the 16 binary phase settings and
each photon-arrival case the exact output-state distribution over masks
is tabulated cumulatively, and the sifting decision is tabulated per
mask and the senders' bit disagreement per setting and mask, so the hot
loop only does table lookups. The same build keeps each sender's
single-photon output amplitude per setting and detector-bin; with the
keep weights drawn from the sifting tables, these are all the
direct-quadrature oracle of keyrate_decoy reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .fock_optics import (
    Pattern,
    TwoPartyFockState,
    beamsplitter_transform,
    discrete_settings,
    encode_single_photon,
    output_state,
)
from .protocol_sifting import Action, DetectionOutcome, conclusive_rows, extract_bits

# Arrival cases, indexed 2*(a survived) + (b survived).
CASE_NONE = 0
CASE_B_ONLY = 1
CASE_A_ONLY = 2
CASE_BOTH = 3

ACTION_KEEP = 0
ACTION_DISCARD = 1
ACTION_INCONCLUSIVE = 2

# pattern_keys hold the table row (4 * setting + case) above this bit and
# the 53-bit threshold of a cumulative entry below it.
KEY_SHIFT = 54

# code_guide splits each row's 2**53 pattern draws k into 2**GUIDE_BITS
# equal buckets, bucket k >> GUIDE_SHIFT; GUIDE_MISS marks a bucket that
# holds a cumulative boundary of its row.
GUIDE_BITS = 10
GUIDE_SHIFT = 53 - GUIDE_BITS
GUIDE_MISS = 255

# A trial's code packs its click mask with its tally bits: mask | keep << 6 |
# base_error << 7. Mask 63 is never kept, so no code is GUIDE_MISS.
CODE_KEEP = 1 << 6
CODE_ERROR = 1 << 7


@lru_cache(maxsize=None)
def _click_mask(pattern: Pattern) -> int:
    """Click mask of an occupation pattern; the tables meet 27 patterns
    (one or two photons), each many times."""
    return DetectionOutcome.from_pattern(pattern).mask


def _mask_distribution(state: TwoPartyFockState) -> np.ndarray:
    out = np.zeros(64)
    for pattern, amp in state.amplitudes.items():
        out[_click_mask(pattern)] += abs(amp) ** 2
    return out


def _bin_amplitudes(state: TwoPartyFockState) -> np.ndarray:
    """(6,) amplitude of a one-photon output state in each detector-bin,
    in mask-bit order."""
    out = np.zeros(6, dtype=complex)
    for pattern, amp in state.amplitudes.items():
        out[_click_mask(pattern).bit_length() - 1] = amp
    return out


@dataclass
class TableSet:
    """Everything the kernels need, in flat numeric form.

    outcome_cum[s, case] is the cumulative mask distribution for phase
    setting s and arrival case; action gives the sifting decision per
    mask; base_error[s, mask] is 1 when the senders' bits disagree for a
    Keep mask under setting s (before misalignment). pattern_keys packs
    every cumulative entry as (4 * s + case) << KEY_SHIFT | ceil(cum * 2**53),
    sorted, so the number of keys at or below row << KEY_SHIFT | k, less
    64 * row, is the number of entries at or below k * 2**-53: the mask
    that draw k selects in that row.

    codes[s, mask] packs what a trial's tallies read into one byte: mask,
    CODE_KEEP for a Keep mask and CODE_ERROR where base_error[s, mask] is
    1. code_guide[row, b] is codes[row >> 2, mask], the code under the
    row's setting of the mask that every k in bucket b selects, the draws
    with k >> GUIDE_SHIFT == b, or GUIDE_MISS; code_guide & 63 is that
    mask. Within a row the mask never decreases in k, so when the counts
    at the bucket's first and last draw agree, every draw between them
    selects the same mask; the entry is GUIDE_MISS exactly when they
    differ, that is when a cumulative threshold ceil(cum * 2**53) lies in
    (first, last] and the bucket holds a boundary.

    bin_amplitudes[side, s, b] is the amplitude of the photon sender a
    (side 0) or b (side 1) sends alone under setting s in detector-bin b,
    mask bit b: the coherent-state field per unit sqrt(eta mu).
    """

    outcome_cum: np.ndarray  # (16, 4, 64) float64, last entry exactly 1
    action: np.ndarray  # (64,) int8
    base_error: np.ndarray  # (16, 64) int8
    pattern_keys: np.ndarray  # (4096,) uint64, ascending
    bin_amplitudes: np.ndarray  # (2, 16, 6) complex128, read-only
    codes: np.ndarray  # (16, 64) uint8
    code_guide: np.ndarray  # (64, 2**GUIDE_BITS) uint8


@lru_cache(maxsize=1)
def build_tables() -> TableSet:
    settings = discrete_settings()
    outcome_cum = np.zeros((16, 4, 64))
    bin_amplitudes = np.zeros((2, 16, 6), dtype=complex)
    # A photon sent alone depends only on its sender's two bits: four
    # output states per sender, each shared by four settings.
    alone = {
        (port, j1, j2): beamsplitter_transform(encode_single_photon(j1, j2, port))
        for port in "ab"
        for j1 in (0, 1)
        for j2 in (0, 1)
    }
    for s, setting in enumerate(settings):
        alice_only = alone["a", setting.j_a1, setting.j_a2]
        bob_only = alone["b", setting.j_b1, setting.j_b2]
        bin_amplitudes[0, s] = _bin_amplitudes(alice_only)
        bin_amplitudes[1, s] = _bin_amplitudes(bob_only)

        distributions = np.zeros((4, 64))
        distributions[CASE_NONE, 0] = 1.0
        distributions[CASE_A_ONLY] = _mask_distribution(alice_only)
        distributions[CASE_B_ONLY] = _mask_distribution(bob_only)
        distributions[CASE_BOTH] = _mask_distribution(output_state(setting))

        cum = np.cumsum(distributions, axis=1)
        if np.any(np.abs(cum[:, -1] - 1.0) > 1e-9):
            raise AssertionError("mask distribution does not sum to 1")
        # guard the scans against roundoff: every draw stays below the last
        # entry, and the low bits of each row's last packed key are 2**53
        cum[:, -1] = 1.0
        outcome_cum[s] = cum
    bin_amplitudes.flags.writeable = False

    # every mask outside the 12 conclusive rows, more than two clicks
    # included, stays Inconclusive
    action = np.full(64, ACTION_INCONCLUSIVE, dtype=np.int8)
    base_error = np.zeros((16, 64), dtype=np.int8)
    for outcome, decision in conclusive_rows().items():
        if decision.action is Action.DISCARD:
            action[outcome.mask] = ACTION_DISCARD
        elif decision.action is Action.KEEP:
            action[outcome.mask] = ACTION_KEEP
            for s, setting in enumerate(settings):
                alice, bob = extract_bits(decision, setting)
                base_error[s, outcome.mask] = alice != bob

    rows = np.arange(64, dtype=np.uint64).reshape(16, 4, 1) << np.uint64(KEY_SHIFT)
    pattern_keys = (rows | np.ceil(outcome_cum * 2.0**53).astype(np.uint64)).ravel()

    first = np.arange(2**GUIDE_BITS, dtype=np.uint64) << np.uint64(GUIDE_SHIFT)
    last = first + np.uint64(2**GUIDE_SHIFT - 1)
    rows = rows.reshape(64, 1)
    below_first = np.searchsorted(pattern_keys, rows | first, side="right")
    below_last = np.searchsorted(pattern_keys, rows | last, side="right")
    pattern_guide = np.where(
        below_first == below_last, below_first - 64 * np.arange(64).reshape(64, 1), GUIDE_MISS
    ).astype(np.uint8)

    keep = action == ACTION_KEEP
    codes = (np.arange(64) | keep * CODE_KEEP | (base_error != 0) * CODE_ERROR).astype(np.uint8)
    # each setting's codes, widened to 256 entries so that GUIDE_MISS reads
    # GUIDE_MISS, gathered row by row at the guided masks: an index array
    # over the whole guide (512 kB) made build_tables 1 ms slower, not 0.3
    wide = np.full((16, 256), GUIDE_MISS, dtype=np.uint8)
    wide[:, :64] = codes
    code_guide = np.stack([wide[row >> 2][pattern_guide[row]] for row in range(64)])

    return TableSet(
        outcome_cum,
        action,
        base_error,
        pattern_keys,
        bin_amplitudes,
        codes,
        code_guide,
    )


@lru_cache(maxsize=1)
def keep_weights() -> Tuple[np.ndarray, np.ndarray]:
    """(masks, weights): the 8 Keep masks, ascending, and the read-only
    (2, 16, 8) weights that turn per-setting click-mask probabilities
    P[s, k] of masks[k] into setting-averaged sifting probabilities.

    sum(weights[0] * P) is P(keep, bits agree) and sum(weights[1] * P)
    P(keep, bits disagree), with the 16 settings equally likely, both
    before misalignment: weights[1][s, k] is base_error[s, masks[k]] / 16
    and weights[0] the rest of 1/16.
    """
    tables = build_tables()
    masks = np.flatnonzero(tables.action == ACTION_KEEP)
    disagree = tables.base_error[:, masks] / 16.0
    weights = np.stack((1.0 / 16.0 - disagree, disagree))
    masks.flags.writeable = False
    weights.flags.writeable = False
    return masks, weights
