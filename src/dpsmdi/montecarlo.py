"""Event-level stochastic simulator for the relay protocol.

Each trial draws a uniform binary phase setting, applies photon loss per
side, samples the relay's detector pattern from the exact output-state
distribution, overlays dark counts per detector-bin, applies
misalignment as a bit flip on kept events, and sifts. Serves as the
independent statistical oracle for the closed-form yields and error
rates. One exact numpy kernel does the tallying.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from . import _mc_fallback, _rng
from ._mc_tables import (
    ACTION_DISCARD,
    ACTION_INCONCLUSIVE,
    TableSet,
    build_tables,
    clicks_of_mask,
    conclusive_mask_names,
    setting_bits,
)
from .fock_optics import PhaseSetting
from .protocol_sifting import (
    Action,
    DetectionOutcome,
    SiftDecision,
    extract_bits,
    sift,
)

# The benchmark's backend gate reads these two; they go when it does.
COMPILED_AVAILABLE = False


def available_backends() -> Tuple[str, ...]:
    return ("python",)


# The standard link every default of the package reads: the operating point
# of Lo, Curty & Qi, PRL 108, 130503 (2012).
ETA_DET = 0.145  # detector efficiency
P_DARK = 3e-6  # dark-count probability per detector per bin
E_D = 0.015  # misalignment error probability
ALPHA_DB_PER_KM = 0.2  # fiber loss
F_EC = 1.16  # error-correction inefficiency


@dataclass(frozen=True)
class ChannelParams:
    """Physical channel and detection parameters for one simulation point.

    eta_a/eta_b are the end-to-end transmissivities of the two sender
    arms with detector efficiency folded in; p_dark is the dark-count
    probability per detector per bin; e_d the misalignment error
    probability; f the error-correction inefficiency.
    """

    eta_a: float
    eta_b: float
    p_dark: float
    e_d: float
    f: float = F_EC

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_a <= 1.0 or not 0.0 <= self.eta_b <= 1.0:
            raise ValueError("transmissivities must lie in [0, 1]")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError("p_dark must lie in [0, 1)")
        if not 0.0 <= self.e_d <= 1.0:
            raise ValueError("e_d must lie in [0, 1]")
        if self.f < 1.0:
            raise ValueError("error-correction inefficiency f must be >= 1")

    @staticmethod
    def side_transmissivity(
        side_km: float, eta_det: float, alpha_db_per_km: float
    ) -> float:
        """Transmissivity of one arm: detector efficiency times fiber loss."""
        if alpha_db_per_km < 0.0:
            raise ValueError("alpha_db_per_km must be non-negative")
        return eta_det * 10.0 ** (-alpha_db_per_km * side_km / 10.0)

    @classmethod
    def from_total_distance(
        cls,
        total_km: float,
        eta_det: float = ETA_DET,
        p_dark: float = P_DARK,
        e_d: float = E_D,
        alpha_db_per_km: float = ALPHA_DB_PER_KM,
        f: float = F_EC,
    ) -> "ChannelParams":
        """Symmetric link with the relay halfway between the senders."""
        eta = cls.side_transmissivity(total_km / 2.0, eta_det, alpha_db_per_km)
        return cls(eta, eta, p_dark, e_d, f)


@dataclass(frozen=True)
class TrialRecord:
    """Full audit trail of a single trial (debug/logging path only)."""

    trial_index: int
    phase_setting: PhaseSetting
    loss_pattern: Tuple[bool, bool]  # (photon from a arrived, photon from b arrived)
    dark_pattern: frozenset  # spurious (detector, bin) clicks
    outcome: Optional[DetectionOutcome]  # None when >2 clicks total
    decision: SiftDecision
    error: Optional[bool]  # defined for Keep decisions only

    def __post_init__(self) -> None:
        if (self.error is None) == (self.decision.action is Action.KEEP):
            raise ValueError("error is defined exactly for Keep decisions")


@dataclass
class EmpiricalEstimates:
    """Tallies of one run (or merged shards) plus derived estimates."""

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
        names = conclusive_mask_names()
        freqs = {}
        for mask in sorted(names):
            freqs[f"freq_{names[mask]}"] = int(self.mask_counts[mask]) / self.n_trials
        singles = sum(
            int(self.mask_counts[m]) for m in range(64) if bin(m).count("1") == 1
        )
        others = self.n_trials - int(self.mask_counts[0]) - singles
        others -= sum(int(self.mask_counts[m]) for m in sorted(names))
        freqs["freq_no_click"] = int(self.mask_counts[0]) / self.n_trials
        freqs["freq_single_click"] = singles / self.n_trials
        freqs["freq_other"] = others / self.n_trials
        return freqs

    def merged_with(self, other: "EmpiricalEstimates") -> "EmpiricalEstimates":
        """Combine shard tallies; shards must come from the same seed."""
        if self.seed != other.seed:
            raise ValueError("can only merge shards of the same seeded run")
        return EmpiricalEstimates(
            self.n_trials + other.n_trials,
            self.seed,
            self.mask_counts + other.mask_counts,
            self.keep_count + other.keep_count,
            self.error_count + other.error_count,
        )

    def to_csv(self) -> str:
        """One row per estimate: name, value, stderr, n_trials, seed."""
        buffer = io.StringIO()
        buffer.write("name,value,stderr,n_trials,seed\n")

        def row(name: str, value: float, stderr: float) -> None:
            buffer.write(
                f"{name},{value:.12g},{stderr:.12g},{self.n_trials},{self.seed}\n"
            )

        row("y11_hat", self.y11_hat, self.y11_stderr)
        row("e_b_hat", self.e_b_hat, self.e_b_stderr)
        for name, value in (
            ("discard_fraction", self.discard_fraction),
            ("inconclusive_fraction", self.inconclusive_fraction),
        ):
            row(name, value, math.sqrt(value * (1.0 - value) / self.n_trials))
        for name, value in self.outcome_frequencies().items():
            row(name, value, math.sqrt(value * (1.0 - value) / self.n_trials))
        return buffer.getvalue()


def merge_estimates(parts: Sequence[EmpiricalEstimates]) -> EmpiricalEstimates:
    if not parts:
        raise ValueError("nothing to merge")
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merged_with(part)
    return merged


def _run_range(
    params: ChannelParams,
    start_trial: int,
    n_trials: int,
    seed: int,
    tables: TableSet,
) -> EmpiricalEstimates:
    mask_counts, keep, errors = _mc_fallback.run_kernel(
        seed,
        start_trial,
        n_trials,
        params.eta_a,
        params.eta_b,
        params.p_dark,
        params.e_d,
        tables,
    )
    return EmpiricalEstimates(n_trials, seed, mask_counts, int(keep), int(errors))


def run_trials(
    params: ChannelParams,
    n_trials: int,
    seed: int,
    threads: int = 1,
) -> EmpiricalEstimates:
    """Simulate n_trials rounds and tally outcomes.

    The random stream is counter-based, so the result depends only on
    (params, n_trials, seed): the thread count changes neither tallies
    nor estimates.  At most os.cpu_count() threads start.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    threads = min(max(1, int(threads)), os.cpu_count() or 1)
    tables = build_tables()

    if threads == 1:
        return _run_range(params, 0, n_trials, seed, tables)

    bounds = np.linspace(0, n_trials, threads + 1, dtype=np.int64)
    jobs = [
        (int(lo), int(hi - lo)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        parts = list(
            pool.map(
                lambda job: _run_range(params, job[0], job[1], seed, tables),
                jobs,
            )
        )
    return merge_estimates(parts)


def replay_trials(
    params: ChannelParams, n_trials: int, seed: int, start_trial: int = 0
) -> Iterator[TrialRecord]:
    """Re-derive individual trials as full records (slow path).

    Walks the same counter-based stream as the tally kernel, so
    aggregating replayed records reproduces run_trials exactly; used for
    per-trial logging and for cross-checking the kernel.
    """
    tables = build_tables()
    for i in range(start_trial, start_trial + n_trials):
        base = i * _rng.DRAWS_PER_TRIAL
        s = _rng.raw_draw(seed, base + _rng.DRAW_SETTING) >> 60
        survived_a = _rng.unit_draw(seed, base + _rng.DRAW_LOSS_A) < params.eta_a
        survived_b = _rng.unit_draw(seed, base + _rng.DRAW_LOSS_B) < params.eta_b
        case = 2 * int(survived_a) + int(survived_b)

        u = _rng.unit_draw(seed, base + _rng.DRAW_PATTERN)
        cum = tables.outcome_cum[s, case]
        signal_mask = 0
        while u >= cum[signal_mask]:
            signal_mask += 1

        dark_mask = 0
        for j in range(6):
            if _rng.unit_draw(seed, base + _rng.DRAW_DARK_BASE + j) < params.p_dark:
                dark_mask |= 1 << j
        mask = signal_mask | dark_mask

        clicks = clicks_of_mask(mask)
        if len(clicks) <= 2:
            outcome: Optional[DetectionOutcome] = DetectionOutcome(clicks)
            decision = sift(outcome)
        else:
            # more than two clicks falls outside the announcement table
            outcome = None
            decision = SiftDecision(Action.INCONCLUSIVE)

        setting = PhaseSetting.from_bits(*setting_bits(s))
        error: Optional[bool] = None
        if decision.action is Action.KEEP:
            alice, bob = extract_bits(decision, setting)
            error = alice != bob
            if _rng.unit_draw(seed, base + _rng.DRAW_MISALIGN) < params.e_d:
                error = not error

        yield TrialRecord(
            trial_index=i,
            phase_setting=setting,
            loss_pattern=(bool(survived_a), bool(survived_b)),
            dark_pattern=clicks_of_mask(dark_mask),
            outcome=outcome,
            decision=decision,
            error=error,
        )
