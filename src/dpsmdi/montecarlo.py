"""Event-level stochastic simulator for the relay protocol.

Each trial draws a uniform binary phase setting, applies photon loss per
side, samples the relay's detector pattern from the exact output-state
distribution, overlays dark counts per detector-bin, applies
misalignment as a bit flip on kept events, and sifts. Serves as the
independent statistical oracle for the closed-form yields and error
rates. One exact numpy kernel does the tallying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import _mc_kernel, _rng
from ._mc_tables import ACTION_DISCARD, ACTION_INCONCLUSIVE, build_tables
from .channel import ChannelParams
from .fock_optics import PhaseSetting, discrete_settings
from .protocol_sifting import (
    Action,
    DetectionOutcome,
    SiftDecision,
    conclusive_rows,
    extract_bits,
    sift,
)

# The benchmark's backend gate reads these two; they go when it does.
COMPILED_AVAILABLE = False


def available_backends() -> Tuple[str, ...]:
    return ("python",)


@dataclass(frozen=True)
class TrialRecord:
    """Full audit trail of a single trial (debug/logging path only)."""

    trial_index: int
    phase_setting: PhaseSetting
    loss_pattern: Tuple[bool, bool]  # (photon from a arrived, photon from b arrived)
    dark_mask: int  # spurious clicks, as a DetectionOutcome.mask
    mask: int  # every click, signal | dark: the mask run_trials tallies
    outcome: Optional[DetectionOutcome]  # None when >2 clicks total
    decision: SiftDecision
    error: Optional[bool]  # defined for Keep decisions only

    def __post_init__(self) -> None:
        if (self.error is None) == (self.decision.action is Action.KEEP):
            raise ValueError("error is defined exactly for Keep decisions")


@dataclass
class EmpiricalEstimates:
    """Tallies of one run plus derived estimates."""

    n_trials: int
    seed: int
    mask_counts: np.ndarray  # (64,) int64, per final click mask
    keep_count: int
    error_count: int

    @property
    def y11_hat(self) -> float:
        """Empirical probability that a trial yields a kept bit."""
        return self.keep_count / self.n_trials

    @property
    def e_b_hat(self) -> float:
        """Empirical error fraction among kept bits (nan if none kept)."""
        return self.error_count / self.keep_count if self.keep_count else math.nan

    def rows(self) -> List[Tuple[str, float, float]]:
        """(name, value, stderr) of Y11, e_b and the share of trials whose
        click mask lies in each mask set, each stderr binomial (nan where its
        base is 0). The sets split the 64 masks twice: by action (discard,
        inconclusive; the kept rest is Y11) and by clicks (none, one, each
        conclusive pattern, every other mask)."""
        masks = np.arange(64)
        clicks = np.bitwise_count(masks)
        action = build_tables().action
        conclusive = {
            outcome.mask: "freq_" + "+".join(f"{d}{t}" for d, t in sorted(outcome.clicks))
            for outcome in conclusive_rows()
        }
        mask_sets = [
            ("discard_fraction", action == ACTION_DISCARD),
            ("inconclusive_fraction", action == ACTION_INCONCLUSIVE),
            *((name, masks == mask) for mask, name in sorted(conclusive.items())),
            ("freq_no_click", clicks == 0),
            ("freq_single_click", clicks == 1),
            ("freq_other", (clicks >= 2) & ~np.isin(masks, list(conclusive))),
        ]
        n = self.n_trials
        rows = [("y11_hat", self.y11_hat, n), ("e_b_hat", self.e_b_hat, self.keep_count)]
        rows += [(name, int(self.mask_counts[in_set].sum()) / n, n) for name, in_set in mask_sets]
        return [
            (name, value, math.sqrt(value * (1.0 - value) / base) if base else math.nan)
            for name, value, base in rows
        ]


def _check_range(n_trials: int, seed: int, start_trial: int) -> None:
    """Reject a trial range or seed the counter-based stream cannot draw."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if start_trial < 0:
        raise ValueError("start_trial must be non-negative")


def run_trials(
    params: ChannelParams,
    n_trials: int,
    seed: int,
    # read by the benchmark's thread gate and tracer and changes nothing;
    # it goes when they do
    threads: int = 1,
) -> EmpiricalEstimates:
    """Simulate n_trials rounds and tally outcomes.

    The random stream is counter-based, so the result depends only on
    (params, n_trials, seed), and any split of the trial range into
    `_mc_kernel.run_kernel` ranges sums to the same tallies.
    """
    _check_range(n_trials, seed, 0)
    mask_counts, keep, errors = _mc_kernel.run_kernel(
        seed,
        0,
        n_trials,
        params.eta_a,
        params.eta_b,
        params.p_dark,
        params.e_d,
        build_tables(),
    )
    return EmpiricalEstimates(n_trials, seed, mask_counts, keep, errors)


def replay_trials(
    params: ChannelParams, n_trials: int, seed: int, start_trial: int = 0
) -> Iterator[TrialRecord]:
    """Re-derive individual trials as full records (slow path).

    Walks the same counter-based stream as the tally kernel, so
    aggregating replayed records reproduces run_trials exactly; used for
    per-trial logging and for cross-checking the kernel. It compares unit
    draws with the probabilities as floats, where the kernel compares
    integers: the fate draw (against `_rng.fate_cum`, which decides the
    arrivals and the first dark bin) and the pattern draw by a linear scan
    of their cumulative rows, and each later bin's draw against p_dark,
    made only for bins after the first dark one. It draws every trial's
    setting and pattern, which the kernel skips where they cannot matter.
    It rejects the arguments run_trials rejects before the first record.
    """
    _check_range(n_trials, seed, start_trial)
    tables = build_tables()
    settings = discrete_settings()
    fate_cum = _rng.fate_cum(params.eta_a, params.eta_b, params.p_dark)
    for i in range(start_trial, start_trial + n_trials):
        base = i * _rng.DRAWS_PER_TRIAL
        s = _rng.raw_draw(seed, base + _rng.DRAW_SETTING) >> 60
        u = _rng.unit_draw(seed, base + _rng.DRAW_FATE)
        fate = 0
        while u >= fate_cum[fate]:
            fate += 1
        case = fate & 3  # 2 * (a arrived) + (b arrived)
        first_dark = (fate >> 2) - 1  # -1: no dark click

        u = _rng.unit_draw(seed, base + _rng.DRAW_PATTERN)
        cum = tables.outcome_cum[s, case]
        signal_mask = 0
        while u >= cum[signal_mask]:
            signal_mask += 1

        dark_mask = 0
        if first_dark >= 0:
            dark_mask = 1 << first_dark
            for b in range(first_dark + 1, 6):
                if _rng.unit_draw(seed, base + _rng.DRAW_DARK_BASE + b) < params.p_dark:
                    dark_mask |= 1 << b
        mask = signal_mask | dark_mask

        if bin(mask).count("1") <= 2:
            outcome: Optional[DetectionOutcome] = DetectionOutcome.from_mask(mask)
            decision = sift(outcome)
        else:
            # more than two clicks falls outside the announcement table
            outcome = None
            decision = SiftDecision(Action.INCONCLUSIVE)

        setting = settings[s]
        error: Optional[bool] = None
        if decision.action is Action.KEEP:
            alice, bob = extract_bits(decision, setting)
            error = alice != bob
            if _rng.unit_draw(seed, base + _rng.DRAW_MISALIGN) < params.e_d:
                error = not error

        yield TrialRecord(
            trial_index=i,
            phase_setting=setting,
            loss_pattern=(case >= 2, case & 1 == 1),
            dark_mask=dark_mask,
            mask=mask,
            outcome=outcome,
            decision=decision,
            error=error,
        )
