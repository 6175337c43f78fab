"""Closed-form single-photon asymptotic key-rate analysis.

Yield, error rates and the secure rate for the relay protocol with
ideal single-photon sources, plus a transparent stand-in for the
conventional (non-relay) 3-pulse differential-phase protocol used as
the distance-comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .channel import ALPHA_DB_PER_KM, E_D, ETA_DET, F_EC, P_DARK, ChannelParams

# Phase-information amplification factor for the non-relay baseline: a
# single announced click leaks phase correlations of two neighboring
# bins, modeled as doubling the phase error relative to the bit error.
# The cutoff-distance comparison is insensitive to this in [1, 3].
DPS_PHASE_AMPLIFICATION = 2.0


@dataclass(frozen=True)
class AsymptoticReport:
    """Secure-rate breakdown at one parameter point.

    e_b uses the all-errors dark bookkeeping; e_p_bound is the
    half-weight value the entropy terms actually consume (see
    secure_rate). R is clamped at zero; R_unclamped keeps the possibly
    negative analytic value for diagnostics.
    """

    Y11: float
    e_b: float
    e_b_background: float
    e_p_bound: float
    R: float
    R_unclamped: float


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _dark_bracket(params: ChannelParams) -> float:
    """One- and two-dark-count part of the kept-coincidence bracket."""
    eta_a, eta_b, p = params.eta_a, params.eta_b, params.p_dark
    return p * ((eta_a + eta_b) / 3.0 - 5.0 * eta_a * eta_b / 9.0) + p * p * (
        1.0 - eta_a
    ) * (1.0 - eta_b)


def yield_Y11(params: ChannelParams) -> float:
    """Probability per round of a kept announcement with single photons.

    Sum over the eight kept coincidence classes of the signal term, the
    one-dark-count assists and the two-dark-count floor, weighted by the
    no-spurious-click factor (1 - p_dark)^4 on the remaining bins.
    """
    signal = params.eta_a * params.eta_b / 18.0
    return 8.0 * (1.0 - params.p_dark) ** 4 * (signal + _dark_bracket(params))


def qber_asymptotic(params: ChannelParams) -> Tuple[float, float]:
    """(e_b, e_b_background): error fractions among kept bits.

    The background part counts only dark-count contributions; the full
    e_b adds the misalignment term e_d on the signal part. Note the
    convention here weights every dark-assisted keep as a full error;
    physically random clicks err half the time, which is what the Monte
    Carlo shows. The two conventions differ by exactly half the
    background term, and the test suite asserts that relation instead
    of hiding it.
    """
    y11 = yield_Y11(params)
    if y11 == 0.0:
        raise ValueError("QBER is undefined when the yield is zero")
    signal = params.eta_a * params.eta_b / 18.0
    dark = _dark_bracket(params)
    scale = 8.0 * (1.0 - params.p_dark) ** 4
    e_b = scale * (params.e_d * signal + dark) / y11
    e_b_background = scale * dark / y11
    return e_b, e_b_background


def half_weight_qber(e_b: float, e_b_background: float) -> float:
    """The error fraction the entropy terms use, from qber_asymptotic's pair.

    Dark-assisted keeps produce a random bit, so they err half the
    time, which is e_b minus half the background (the Monte Carlo
    agrees with this value). Feeding the all-errors bookkeeping value
    straight into h() would push e_b past 1/2 once darks dominate and,
    by the symmetry of h, revive a spurious positive rate at long
    distance. The value is capped at 1/2: past that no key is possible
    anyway.
    """
    return min(0.5, e_b - 0.5 * e_b_background)


def secure_rate(params: ChannelParams) -> AsymptoticReport:
    """Asymptotic secure key rate with the phase error bounded by e_b;
    the entropy terms use half_weight_qber."""
    y11 = yield_Y11(params)
    e_b, e_b_background = qber_asymptotic(params)
    e_rate = half_weight_qber(e_b, e_b_background)
    e_p = e_rate  # one-way bound from the noise analysis
    unclamped = y11 * (
        1.0 - params.f * binary_entropy(e_rate) - binary_entropy(e_p)
    )
    return AsymptoticReport(
        Y11=y11,
        e_b=e_b,
        e_b_background=e_b_background,
        e_p_bound=e_p,
        R=max(0.0, unclamped),
        R_unclamped=unclamped,
    )


def dps_reference_rate(params: ChannelParams) -> float:
    """Asymptotic rate of the non-relay 3-pulse baseline protocol.

    The single physical channel's end-to-end transmissivity (receiver
    efficiency included) is the product eta_a * eta_b, so callers model
    a full-length line by putting the detector efficiency on one factor
    and the fiber loss on the other. Half the detected rounds are
    sifted; dark counts over the four relevant detection windows count
    as half errors; the phase error is amplified over the bit error by
    DPS_PHASE_AMPLIFICATION.
    """
    eta = params.eta_a * params.eta_b
    p = params.p_dark
    click = eta + 4.0 * p * (1.0 - eta)
    if click == 0.0:
        return 0.0
    gain = 0.5 * click
    e_b = (params.e_d * eta + 2.0 * p * (1.0 - eta)) / click
    e_p = min(0.5, DPS_PHASE_AMPLIFICATION * e_b)
    rate = gain * (1.0 - params.f * binary_entropy(e_b) - binary_entropy(e_p))
    return max(0.0, rate)


def dps_reference_params(
    total_km: float,
    eta_det: float = ETA_DET,
    p_dark: float = P_DARK,
    e_d: float = E_D,
    alpha_db_per_km: float = ALPHA_DB_PER_KM,
    f: float = F_EC,
) -> ChannelParams:
    """Channel parameters for the baseline: one fiber spanning the full
    distance, detection at the far end only."""
    return ChannelParams(
        eta_a=eta_det,
        eta_b=ChannelParams.side_transmissivity(total_km, 1.0, alpha_db_per_km),
        p_dark=p_dark,
        e_d=e_d,
        f=f,
    )


def distance_grid(l_min: float, l_max: float, l_step: float) -> List[float]:
    """Inclusive float grid [l_min, l_min + k*l_step <= l_max]."""
    if l_step <= 0.0:
        raise ValueError("L_step must be positive")
    if l_max < l_min:
        raise ValueError("L_max must be >= L_min")
    count = int(math.floor((l_max - l_min) / l_step + 1e-9)) + 1
    return [l_min + k * l_step for k in range(count)]
