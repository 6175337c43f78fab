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
from typing import Dict, Iterator, List, Optional, Tuple

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
    def y11_stderr(self) -> float:
        p = self.y11_hat
        return math.sqrt(p * (1.0 - p) / self.n_trials)

    @property
    def e_b_hat(self) -> float:
        """Empirical error fraction among kept bits (nan if none kept)."""
        if self.keep_count == 0:
            return float("nan")
        return self.error_count / self.keep_count

    @property
    def e_b_stderr(self) -> float:
        if self.keep_count == 0:
            return float("nan")
        e = self.e_b_hat
        return math.sqrt(e * (1.0 - e) / self.keep_count)

    def _action_fraction(self, which: int) -> float:
        tables = build_tables()
        total = int(self.mask_counts[tables.action == which].sum())
        return total / self.n_trials

    @property
    def discard_fraction(self) -> float:
        return self._action_fraction(ACTION_DISCARD)

    @property
    def inconclusive_fraction(self) -> float:
        return self._action_fraction(ACTION_INCONCLUSIVE)

    def outcome_frequencies(self) -> Dict[str, float]:
        """Relative frequency of each conclusive two-click outcome,
        plus the no-click, single-click and other groups."""
        freqs = {}
        conclusive = sorted(conclusive_rows(), key=lambda outcome: outcome.mask)
        for outcome in conclusive:
            name = "+".join(f"{d}{t}" for d, t in sorted(outcome.clicks))
            freqs[f"freq_{name}"] = int(self.mask_counts[outcome.mask]) / self.n_trials
        singles = sum(
            int(self.mask_counts[m]) for m in range(64) if bin(m).count("1") == 1
        )
        others = self.n_trials - int(self.mask_counts[0]) - singles
        others -= sum(int(self.mask_counts[outcome.mask]) for outcome in conclusive)
        freqs["freq_no_click"] = int(self.mask_counts[0]) / self.n_trials
        freqs["freq_single_click"] = singles / self.n_trials
        freqs["freq_other"] = others / self.n_trials
        return freqs

    def rows(self) -> List[Tuple[str, float, float]]:
        """(name, value, stderr) of each estimate: Y11 and e_b first, then the
        trial fractions, each with its binomial stderr."""
        fractions = {
            "discard_fraction": self.discard_fraction,
            "inconclusive_fraction": self.inconclusive_fraction,
            **self.outcome_frequencies(),
        }
        return [
            ("y11_hat", self.y11_hat, self.y11_stderr),
            ("e_b_hat", self.e_b_hat, self.e_b_stderr),
        ] + [
            (name, value, math.sqrt(value * (1.0 - value) / self.n_trials))
            for name, value in fractions.items()
        ]


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
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
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
    """
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
