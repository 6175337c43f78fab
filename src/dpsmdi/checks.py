"""The self-checks behind ``dpsmdi verify`` and the acceptance tests.

Each check takes the draws or sizes it runs on and raises
:class:`CheckFailure` naming the first disagreement it finds; callers
choose the sizes, seeds and sigma bounds.  The reconciliation and Bell
checks compare the package against the keep/discard rule as stated in
``_rule``, not against the package's own announcement table, and the
Bell check projects the relay's output states itself.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .channel import ChannelParams
from .fock_optics import conclusive_output_state, discrete_settings, output_state
from .keyrate_asymptotic import qber_asymptotic, yield_Y11
from .keyrate_decoy import (
    direct_gain_quadrature,
    direct_qber_quadrature,
    overall_gain,
    overall_qber,
)
from .montecarlo import run_trials
from .noise_security import NoiseMatrix, bit_error_rate, error_gap, phase_error_rate
from .protocol_sifting import (
    Action,
    BellLabel,
    DetectionOutcome,
    Register,
    SiftDecision,
    extract_bits,
    sift,
)


class CheckFailure(AssertionError):
    """A self-check found the package disagreeing with what it checks."""


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckFailure(detail)


def _rule(outcome: DetectionOutcome) -> Tuple[SiftDecision, Optional[BellLabel]]:
    """The reconciliation rule for one announcement, with the Bell state a
    kept one leaves: a bin-1 click paired with a bin-k click (k = 2, 3)
    keeps a bit read from register A1B1 (k = 2) or A2B2 (k = 3), flipped
    and anticorrelated exactly when the detectors differ; a bins {2, 3}
    pair is discarded; everything else is inconclusive."""
    bins = sorted(time_bin for _detector, time_bin in outcome.clicks)
    if bins == [2, 3]:
        return SiftDecision(Action.DISCARD), None
    if bins not in ([1, 2], [1, 3]):
        return SiftDecision(Action.INCONCLUSIVE), None
    crossed = len({detector for detector, _bin in outcome.clicks}) == 2
    label = BellLabel.ANTICORRELATED if crossed else BellLabel.CORRELATED
    register = Register.A1B1 if bins[1] == 2 else Register.A2B2
    return SiftDecision(Action.KEEP, register, crossed), label


def _outcomes() -> List[DetectionOutcome]:
    """Every announcement of at most two clicks."""
    clicks = [(detector, time_bin) for detector in "cd" for time_bin in (1, 2, 3)]
    return [
        DetectionOutcome(frozenset(chosen))
        for count in range(3)
        for chosen in combinations(clicks, count)
    ]


def reconciliation_table() -> None:
    """``sift`` follows the rule on every announcement, and on each of the
    16 settings' post-selected states a kept row carries 1/6 when its
    phase difference matches its detector pairing (with agreeing noiseless
    bits) and 0 otherwise, while the discarded rows carry 1/3."""
    rules = {outcome: _rule(outcome)[0] for outcome in _outcomes()}
    for outcome, expected in rules.items():
        decision = sift(outcome)
        _require(decision.action is expected.action, f"action mismatch at {outcome}")
        _require(decision == expected, f"register or flip mismatch at {outcome}")
    for setting in discrete_settings():
        support = {}
        for pattern, amplitude in conclusive_output_state(setting).pruned().amplitudes.items():
            outcome = DetectionOutcome.from_pattern(pattern)
            support[outcome] = support.get(outcome, 0.0) + abs(amplitude) ** 2
        for outcome, expected in rules.items():
            if expected.action is not Action.KEEP:
                continue
            if expected.register is Register.A1B1:
                parity = setting.j_a1 ^ setting.j_b1
            else:
                parity = setting.j_a2 ^ setting.j_b2
            probability = support.get(outcome, 0.0)
            # support exactly when equal phases meet one detector, or
            # opposite phases both detectors
            if expected.bit_flip == parity:
                _require(
                    abs(probability - 1.0 / 6.0) <= 1e-12,
                    f"support {probability} at {outcome} under {setting}, expected 1/6",
                )
                bits = extract_bits(expected, setting)
                _require(bits[0] == bits[1], f"noiseless bits disagree at {outcome} under {setting}")
            else:
                _require(
                    abs(probability) <= 1e-12,
                    f"support {probability} at {outcome} under {setting}, expected 0",
                )
        discarded = sum(
            p for outcome, p in support.items() if sift(outcome).action is Action.DISCARD
        )
        _require(
            abs(discarded - 1.0 / 3.0) <= 1e-12,
            f"discarded mass {discarded} under {setting}, expected 1/3",
        )


# Bell vectors over one register's (sender-a bit, sender-b bit), index 2 a + b.
_BELL_VECTORS = {
    BellLabel.CORRELATED: np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    BellLabel.ANTICORRELATED: np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
}


def bell_state_mapping() -> None:
    """Each announcement the rule keeps leaves, in the entanglement-based
    picture, the Bell state the rule names on the register ``sift`` names.

    Each sender holds one ancilla qubit per modulated bin, entangled with
    that bin's phase bit, so projecting the relay's output onto the
    announced clicks leaves on the ancillas (A1, B1, A2, B2) the amplitude
    of those clicks under the setting of those bits.  With the named
    register's bits (a, b) as row 2 a + b and the other register's as
    column, that 4 x 4 matrix must be outer(bell, v) to 1e-12 with every
    |v| equal and nonzero: the Bell state on the named register and a
    Z-uniform state on the other.  An announcement ``sift`` does not keep
    names no register and fails."""
    states = [(s, output_state(s).amplitudes) for s in discrete_settings()]
    for outcome in _outcomes():
        decision, label = _rule(outcome)
        if decision.action is not Action.KEEP:
            continue
        register = sift(outcome).register
        # one photon in each clicked detector-bin
        clicks = tuple(outcome.mask >> mode & 1 for mode in range(6))
        ancilla = np.zeros((2, 2, 2, 2), dtype=complex)  # [a1, b1, a2, b2]
        for s, amplitudes in states:
            ancilla[s.j_a1, s.j_b1, s.j_a2, s.j_b2] = amplitudes.get(clicks, 0j)
        matrix = ancilla.reshape(4, 4)
        if register is Register.A2B2:
            matrix = matrix.T
        bell = _BELL_VECTORS[label]
        v = bell @ matrix
        magnitudes = np.abs(v)
        _require(
            register is not None
            and np.allclose(matrix, np.outer(bell, v), rtol=0.0, atol=1e-12)
            and magnitudes.min() > 1e-12
            and np.ptp(magnitudes) <= 1e-12,
            f"{outcome} leaves no {label.value} state on register "
            f"{register.value if register else None}",
        )


def phase_error_bound(pairs: Iterable[Tuple[NoiseMatrix, NoiseMatrix]]) -> None:
    """On every (noise_a, noise_b) pair the gap is non-negative, the phase
    error stays at or below the bit error and their difference is the gap,
    each to 1e-12; identity noise has gap 4/9."""
    identity = NoiseMatrix.identity()
    _require(
        abs(error_gap(identity, identity) - 4.0 / 9.0) <= 1e-12,
        "identity-noise gap is not 4/9",
    )
    for index, (noise_a, noise_b) in enumerate(pairs):
        e_b = bit_error_rate(noise_a, noise_b)
        e_p = phase_error_rate(noise_a, noise_b)
        gap = error_gap(noise_a, noise_b)
        _require(gap >= -1e-12, f"negative gap {gap} at draw {index}")
        _require(e_p <= e_b + 1e-12, f"phase error exceeds bit error at draw {index}")
        _require(abs((e_b - e_p) - gap) <= 1e-12, f"gap identity violated at draw {index}")


def gain_vs_quadrature(points: Iterable[Tuple[float, float, ChannelParams]]) -> None:
    """At every (mu_a, mu_b, params) point the closed-form gain and error
    product agree with the direct quadrature to 1e-8 absolute."""
    for mu_a, mu_b, params in points:
        for what, closed_form, quadrature in (
            ("gain", overall_gain, direct_gain_quadrature),
            ("error product", overall_qber, direct_qber_quadrature),
        ):
            gap = abs(closed_form(mu_a, mu_b, params) - quadrature(mu_a, mu_b, params))
            _require(
                gap <= 1e-8,
                f"{what} disagrees with quadrature by {gap:.3g} at mu {mu_a}, {mu_b}, {params}",
            )


def _binomial_tail(count: int, n: int, p: float) -> float:
    """P(X >= count) for X ~ binomial(n, p) where count is at least the
    mean n p, else P(X <= count).

    The first term comes from ``math.lgamma`` in log space; each next one,
    outward from count, from the ratio of neighbouring terms, until the
    terms stop mattering.  The terms only fall that way, since count lies
    at or past the mode on its side.
    """
    if not 0.0 < p < 1.0:
        # all of X at 0 or at n
        return 1.0 if count == n * p else 0.0
    log_first = (
        math.lgamma(n + 1) - math.lgamma(count + 1) - math.lgamma(n - count + 1)
        + count * math.log(p) + (n - count) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    upper = count >= n * p
    total = term = 1.0
    for j in range(count, n) if upper else range(count, 0, -1):
        term *= (n - j) / (j + 1) * odds if upper else j / ((n - j + 1) * odds)
        total += term
        if term < 1e-17 * total:
            break
    return math.exp(log_first + math.log(total))


def _binomial_count(count: int, n: int, p: float, sigmas: float, what: str) -> None:
    """count of n lies inside the two-sided level erfc(sigmas / sqrt 2) of
    binomial(n, p), the level a normal band of ``sigmas`` standard
    deviations has, with each tail tested exactly."""
    tail = _binomial_tail(count, n, p)
    level = math.erfc(sigmas / math.sqrt(2.0))
    if tail < 0.5 * level:
        raise CheckFailure(
            f"{what} {count} of {n} ({count / n:.6g}) lies beyond the {sigmas:g}-sigma "
            f"level of binomial({n}, {p:.6g}): its tail is {tail:.3g}"
        )


def mc_vs_analytic(
    params: ChannelParams, n_trials: int, seed: int, sigmas: float
) -> None:
    """A Monte Carlo run lands inside the two-sided ``sigmas``-sigma level
    of the binomial laws the closed forms give: the kept count of
    binomial(n_trials, ``yield_Y11``), and the error count among kept
    trials of binomial(kept, half-weight e_b) (the verbatim e_b less half
    its background term, the convention the simulation realizes).  Each
    count is tested against its exact tail, since a kept count of a few
    trials is far from normal.  When the error probability is 0, no error
    may occur.  A run that keeps no trial is judged by its kept count
    alone: its error count of 0 of 0 is the one possible outcome.

    The error fraction is compared with e_b - background / 2 uncapped, not
    with ``half_weight_qber``: the uncapped value is the fraction of kept
    trials the simulation makes err, and it passes 1/2 when e_d > 1/2.
    The cap at 1/2 only shapes the entropy input of the key rates."""
    estimates = run_trials(params, n_trials, seed)
    keeps = estimates.keep_count
    _binomial_count(keeps, n_trials, yield_Y11(params), sigmas, f"kept count on {params}")
    e_b, background = qber_asymptotic(params)
    _binomial_count(
        estimates.error_count, keeps, e_b - 0.5 * background, sigmas,
        f"error count on {params}",
    )
