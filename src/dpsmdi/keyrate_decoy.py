"""Weak-coherent-source (decoy-state) key-rate analysis.

Coherent pulses with random overall phases replace the single photons.
Detector click probabilities and the resulting gain/error products depend
on the senders' overall phases only through their difference, so every
phase average (over all phases or over one post-selection slice) is a
line integral, taken here with one fixed Gauss-Legendre rule.
Post-selecting the senders' phases into narrow slices trades raw rate
for a much lower intrinsic error, which is what makes the weak-coherent
variant usable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.integrate import dblquad

from .fock_optics import PhaseSetting
from .keyrate_asymptotic import binary_entropy, qber_asymptotic, yield_Y11
from .montecarlo import ChannelParams

# A 64-point Gauss-Legendre rule on each half of a slice's triangular
# weight: slice m of N (width w = pi/N) averages a density g to
# sum(_TRIANGLE_WEIGHTS * g(w * (m + _TRIANGLE_OFFSETS))) / N. The
# unsliced gain on a lossless channel stays within 6e-12 of a 50-digit
# reference up to mu = 1000 (x = 333); 32 points lose 2.4e-7 already at
# mu = 300.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_UNIT = 0.5 * (_GL_NODES + 1.0)
_TRIANGLE_OFFSETS = np.concatenate((_GL_UNIT - 1.0, _GL_UNIT))
_TRIANGLE_WEIGHTS = 0.5 * np.concatenate(
    (_GL_WEIGHTS * _GL_UNIT, _GL_WEIGHTS * (1.0 - _GL_UNIT))
)


class QuadratureError(RuntimeError):
    """Adaptive integration (the direct oracles) did not reach the
    requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved absolute tolerance {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class DecoyIntermediates:
    """Derived quantities the coherent-state formulas are written in.

    mu_prime: mean photon number arriving at the relay;
    x: interference strength sqrt(eta_a mu_a eta_b mu_b)/3;
    y: probability factor (1 - p_dark) exp(-mu_prime/6) of a bin staying
    silent.
    """

    mu_prime: float
    x: float
    y: float

    @classmethod
    def from_point(
        cls, mu_a: float, mu_b: float, params: ChannelParams
    ) -> "DecoyIntermediates":
        if mu_a < 0.0 or mu_b < 0.0:
            raise ValueError("intensities must be non-negative")
        mu_prime = params.eta_a * mu_a + params.eta_b * mu_b
        x = math.sqrt(params.eta_a * mu_a * params.eta_b * mu_b) / 3.0
        y = (1.0 - params.p_dark) * math.exp(-mu_prime / 6.0)
        return cls(mu_prime, x, y)


@dataclass(frozen=True)
class SliceConfig:
    """Phase post-selection slice: index m of N equal slices of [0, pi),
    plus the antipodal interval (the same slice shifted by pi)."""

    n_slices: int
    index: int

    def __post_init__(self) -> None:
        if self.n_slices < 1:
            raise ValueError("need at least one slice")
        if not 0 <= self.index < self.n_slices:
            raise ValueError("slice index must lie in [0, n_slices)")


class ClickProbabilities(NamedTuple):
    c1: float
    c2: float
    c3: float
    d1: float
    d2: float
    d3: float


def click_probabilities(
    mu_a: float,
    mu_b: float,
    params: ChannelParams,
    setting: PhaseSetting,
    theta_a: float,
    theta_b: float,
) -> ClickProbabilities:
    """Per-bin click probabilities from the interfering coherent amplitudes.

    Each bin carries amplitude sqrt(eta mu / 6) from each sender with
    that sender's bin phase plus overall phase; detector c sees the sum,
    detector d the difference, and a threshold click happens unless both
    the coherent component and the dark count stay silent.
    """
    amp_a = math.sqrt(params.eta_a * mu_a / 6.0)
    amp_b = math.sqrt(params.eta_b * mu_b / 6.0)
    phases_a = (0.0, setting.phi_a1, setting.phi_a2)
    phases_b = (0.0, setting.phi_b1, setting.phi_b2)
    silent = 1.0 - params.p_dark
    values = []
    for sign in (+1.0, -1.0):
        for k in range(3):
            field = amp_a * cmath.exp(1j * (phases_a[k] + theta_a)) + sign * (
                amp_b * cmath.exp(1j * (phases_b[k] + theta_b))
            )
            values.append(1.0 - silent * math.exp(-abs(field) ** 2))
    return ClickProbabilities(*values)


def _phase_sums(
    mu_a: float, mu_b: float, params: ChannelParams, config: SliceConfig
) -> Tuple[float, float, float]:
    """(scale, gain sum, error sum) of one post-selection slice; its gain
    is scale * gain sum and its error product scale * error sum.

    Bob's phase runs over his first slice, Alice's over slice m; the
    antipodal halves duplicate the integrand exactly, so the N/pi^2
    double integral over the w x w square (w = pi/N) depends only on
    d = theta_a - theta_b and folds to the triangle-weighted line
    integral N/pi^2 int (w - |d - lo|) g(d) dd over [lo - w, lo + w].
    The densities are even in cos d, hence pi-periodic, so N = 1 is the
    fully random-phase average. With u+- = expm1(log y +- x cos d)
    they read

        gain:  4 [y^4 e^(2x cos d) u-^2 + y^4 e^(-2x cos d) u+^2]
        error: 8 y^4 u+ u-

    which subtract no nearly equal terms as y -> 1 and x -> 0. Their
    common factor y^4 e^(2x) / N is the scale, so no exponent in either
    sum is positive, since x <= mu'/6 <= -log y, and the error fraction,
    error sum / gain sum, stays finite where the products underflow
    (mu above about 560 per sender on a lossless channel).
    """
    inter = DecoyIntermediates.from_point(mu_a, mu_b, params)
    log_y = math.log1p(-params.p_dark) - inter.mu_prime / 6.0
    n = config.n_slices
    xc = inter.x * np.cos((math.pi / n) * (config.index + _TRIANGLE_OFFSETS))
    u_plus = np.expm1(log_y + xc)
    u_minus = np.expm1(log_y - xc)
    gain = (
        np.exp(2.0 * (xc - inter.x)) * u_minus**2
        + np.exp(-2.0 * (xc + inter.x)) * u_plus**2
    )
    return (
        math.exp(4.0 * log_y + 2.0 * inter.x) / n,
        4.0 * float(_TRIANGLE_WEIGHTS @ gain),
        8.0 * math.exp(-2.0 * inter.x) * float(_TRIANGLE_WEIGHTS @ (u_plus * u_minus)),
    )


def _gain_qber(
    mu_a: float, mu_b: float, params: ChannelParams, config: SliceConfig
) -> Tuple[float, float]:
    """(gain, error fraction) of one slice; the fraction comes from the sums."""
    scale, gain_sum, error_sum = _phase_sums(mu_a, mu_b, params, config)
    if gain_sum == 0.0:
        raise ValueError("QBER is undefined at zero gain (no light, no dark counts)")
    # By AM-GM each gain node 4 [a u-^2 + b u+^2] >= 8 sqrt(ab) |u+ u-|, the
    # error node, so the fraction is at most 1; the cap removes only the last
    # ulp rounding can add once dark counts dominate.
    return scale * gain_sum, min(1.0, error_sum / gain_sum)


_UNSLICED = SliceConfig(1, 0)


def overall_gain(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Kept-coincidence probability with fully random overall phases:
    8 y^4 [I0(2x) - 2 y I0(x) + y^2]."""
    scale, gain_sum, _ = _phase_sums(mu_a, mu_b, params, _UNSLICED)
    return scale * gain_sum


def overall_qber(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Product (error fraction) x (gain) with fully random phases:
    8 y^4 [1 - 2 y I0(x) + y^2]. Divide by overall_gain for the fraction."""
    scale, _, error_sum = _phase_sums(mu_a, mu_b, params, _UNSLICED)
    return scale * error_sum


def intrinsic_qber(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Error fraction among kept coincidences, phases fully random."""
    return _gain_qber(mu_a, mu_b, params, _UNSLICED)[1]


def sliced_gain_qber(
    mu_a: float, mu_b: float, params: ChannelParams, config: SliceConfig
) -> Tuple[float, float]:
    """(gain, error fraction) after phase post-selection on one slice."""
    return _gain_qber(mu_a, mu_b, params, config)


def gain_Q11(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Joint single-photon contribution: Poisson weight times the
    single-photon yield."""
    return mu_a * mu_b * math.exp(-mu_a - mu_b) * yield_Y11(params)


def vacuum_term(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Probability that Alice sends vacuum yet a kept coincidence occurs.

    Closed form e^(-mu_a) * 8 yt^4 (1 - yt)^2 with
    yt = (1 - p_dark) exp(-eta_b mu_b / 6): the zero-interference gain
    driven by Bob's light and dark counts alone.
    """
    y_tilde = (1.0 - params.p_dark) * math.exp(-params.eta_b * mu_b / 6.0)
    return math.exp(-mu_a) * 8.0 * y_tilde**4 * (1.0 - y_tilde) ** 2


@dataclass(frozen=True)
class DecoyRateReport:
    """Modified sliced key rate and its ingredients at one point."""

    rate: float  # clamped at zero
    rate_unclamped: float
    increased_cost_rate: float  # unsliced-signal variant, unclamped
    q_mu: float
    e_mu: float
    q11: float
    e_p_bound: float
    vacuum: float
    q_slice0: float
    e_slice0: float


def decoy_key_rate(
    mu_a: float, mu_b: float, params: ChannelParams, n_slices: int
) -> DecoyRateReport:
    """Secure rate of the sliced weak-coherent scheme.

    The kept signal is the single-photon part of the first slice (hence
    the 1/n_slices weight on the single-photon gain), credited with the
    Alice-vacuum term, and charged error correction only for that
    slice. The increased-cost variant charges error correction for
    every slice against the full single-photon gain; it goes negative
    where the sliced rate stays positive, which is the point of slicing.
    """
    q11 = gain_Q11(mu_a, mu_b, params)
    e_b_single, background = qber_asymptotic(params)
    # Same half-weight dark convention as secure_rate, same reason.
    e_p = min(0.5, e_b_single - 0.5 * background)
    vacuum = vacuum_term(mu_a, mu_b, params)
    entropy_credit = q11 * (1.0 - binary_entropy(e_p))

    slices = [
        sliced_gain_qber(mu_a, mu_b, params, SliceConfig(n_slices, m))
        for m in range(n_slices)
    ]
    q_slice0, e_slice0 = slices[0]
    modified = (
        entropy_credit / n_slices
        + vacuum
        - q_slice0 * params.f * binary_entropy(e_slice0)
    )
    total_cost = 0.0
    for q_m, e_m in slices:
        total_cost += q_m * params.f * binary_entropy(e_m)
    increased = entropy_credit + vacuum - total_cost
    q_mu, e_mu = _gain_qber(mu_a, mu_b, params, _UNSLICED)

    return DecoyRateReport(
        rate=max(0.0, modified),
        rate_unclamped=modified,
        increased_cost_rate=increased,
        q_mu=q_mu,
        e_mu=e_mu,
        q11=q11,
        e_p_bound=e_p,
        vacuum=vacuum,
        q_slice0=q_slice0,
        e_slice0=e_slice0,
    )


# ---------------------------------------------------------------------------
# Slow validation oracles: the same gain/error products assembled from the
# direct per-detector click probabilities and integrated numerically over
# both phases, with no reduction to the phase difference. Kept in the
# package so the verify command can run the dual-route comparison end to
# end.

_KEEP_PATTERNS: Tuple[Tuple[str, str, int], ...] = (
    # (first click, second click, phase pair index 0/1); the required
    # phase difference is 0 for same-detector pairs and pi for mixed.
    ("c1", "c2", 0),
    ("d1", "d2", 0),
    ("c1", "d2", 0),
    ("c2", "d1", 0),
    ("c1", "c3", 1),
    ("d1", "d3", 1),
    ("c1", "d3", 1),
    ("c3", "d1", 1),
)


def _pattern_probability(
    probs: ClickProbabilities, first: str, second: str
) -> float:
    """Probability that exactly the two named detector-bins click."""
    total = 1.0
    for name in ("c1", "c2", "c3", "d1", "d2", "d3"):
        p = getattr(probs, name)
        total *= p if name in (first, second) else (1.0 - p)
    return total


def _pattern_setting(first: str, second: str, pair: int, flipped: bool) -> PhaseSetting:
    same_detector = first[0] == second[0]
    want_pi = same_detector == flipped
    bits = [0, 0, 0, 0]
    if want_pi:
        bits[0 if pair == 0 else 1] = 1  # put the pi on Alice's side
    return PhaseSetting.from_bits(*bits)


def _direct_density(
    mu_a: float,
    mu_b: float,
    params: ChannelParams,
    theta_a: float,
    theta_b: float,
    flipped: bool,
) -> float:
    total = 0.0
    for first, second, pair in _KEEP_PATTERNS:
        setting = _pattern_setting(first, second, pair, flipped)
        probs = click_probabilities(mu_a, mu_b, params, setting, theta_a, theta_b)
        total += _pattern_probability(probs, first, second)
    return total


def direct_gain_quadrature(
    mu_a: float, mu_b: float, params: ChannelParams, tol: float = 1e-9
) -> float:
    """Overall gain by integrating the click-product sum over both phases."""
    value, abserr = dblquad(
        lambda theta_b, theta_a: _direct_density(
            mu_a, mu_b, params, theta_a, theta_b, flipped=False
        ),
        0.0,
        2.0 * math.pi,
        0.0,
        2.0 * math.pi,
        epsabs=tol,
        epsrel=0.0,
    )
    scale = 1.0 / (2.0 * math.pi) ** 2
    if abserr * scale > tol:
        raise QuadratureError("direct gain quadrature did not converge", abserr * scale)
    return value * scale


def direct_qber_quadrature(
    mu_a: float, mu_b: float, params: ChannelParams, tol: float = 1e-9
) -> float:
    """Overall error product by integrating the click-product sum with the
    phase conditions inverted."""
    value, abserr = dblquad(
        lambda theta_b, theta_a: _direct_density(
            mu_a, mu_b, params, theta_a, theta_b, flipped=True
        ),
        0.0,
        2.0 * math.pi,
        0.0,
        2.0 * math.pi,
        epsabs=tol,
        epsrel=0.0,
    )
    scale = 1.0 / (2.0 * math.pi) ** 2
    if abserr * scale > tol:
        raise QuadratureError("direct error quadrature did not converge", abserr * scale)
    return value * scale


def slice_qber_sweep(
    mu_a: float, mu_b: float, params: ChannelParams, n_max: int
) -> List[Tuple[int, float, float]]:
    """(N, first-slice QBER, unsliced QBER) for N = 1..n_max."""
    unsliced = intrinsic_qber(mu_a, mu_b, params)
    rows = []
    for n in range(1, n_max + 1):
        _, e0 = sliced_gain_qber(mu_a, mu_b, params, SliceConfig(n, 0))
        rows.append((n, e0, unsliced))
    return rows


def decoy_distance_sweep(
    l_values: Sequence[float],
    mu_a: float = 0.5,
    mu_b: float = 0.5,
    n_slices: int = 16,
    **link: float,
) -> List[Tuple[float, float, float, float, float, float, float]]:
    """(L_km, Q_mu, E_mu, Q11, Qm0, Em0, R) rows over a distance grid.

    ``link`` overrides the standard link's eta_det, p_dark, e_d,
    alpha_db_per_km and f (see ChannelParams.from_total_distance).
    """
    rows = []
    for l_km in l_values:
        params = ChannelParams.from_total_distance(l_km, **link)
        report = decoy_key_rate(mu_a, mu_b, params, n_slices)
        rows.append(
            (
                l_km,
                report.q_mu,
                report.e_mu,
                report.q11,
                report.q_slice0,
                report.e_slice0,
                report.rate,
            )
        )
    return rows
