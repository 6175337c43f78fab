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
import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np
from scipy.integrate import dblquad

from ._mc_tables import build_tables, keep_weights
from .channel import ChannelParams
from .keyrate_asymptotic import (
    binary_entropy,
    half_weight_qber,
    qber_asymptotic,
    yield_Y11,
)

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
# Rows of _phase_sums evaluated per array pass, and how many blocks keep
# their cosine table (256 KB at most): memory stays bounded whatever the
# row count, and a decoy sweep (one two-row table per point: the kept
# slice and the unsliced average) reuses its table at every distance.
_BLOCK_ROWS = 128
_CACHED_BLOCKS = 4


class QuadratureError(RuntimeError):
    """Adaptive integration (the direct oracles) did not reach the
    requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved absolute tolerance {achieved:.3e})")
        self.achieved = achieved


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


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _signed_cosines(n_slices: Tuple[int, ...], indices: Tuple[int, ...]) -> np.ndarray:
    """cos d and -cos d at the nodes of slice indices[k] of n_slices[k],
    as a read-only (2, rows, nodes) array.

    The table depends on the slices alone, not on the channel. Negation
    is exact, so one array pass over both layers evaluates a density at
    +x cos d and at -x cos d, bit for bit as two passes would.
    """
    table = np.empty((2, len(n_slices), _TRIANGLE_OFFSETS.size))
    cos = table[0]
    np.add(np.array(indices, dtype=float)[:, None], _TRIANGLE_OFFSETS, out=cos)
    cos *= math.pi / np.array(n_slices, dtype=float)[:, None]
    np.cos(cos, out=cos)
    np.negative(cos, out=table[1])
    table.flags.writeable = False
    return table


def _check_intensities(mu_a: float, mu_b: float) -> None:
    """Raise ValueError unless both mean photon numbers are finite and >= 0."""
    if not (0.0 <= mu_a < math.inf and 0.0 <= mu_b < math.inf):
        raise ValueError(
            f"intensities must be finite and non-negative, got {mu_a} and {mu_b}"
        )


def _phase_sums(
    mu_a: float,
    mu_b: float,
    params: ChannelParams,
    n_slices: Sequence[int],
    indices: Sequence[int],
) -> Iterator[Tuple[float, float, float]]:
    """(scale, gain sum, error sum) of each post-selection slice, one row
    per entry of n_slices and indices (slice indices[k] of n_slices[k]);
    a row's gain is scale * gain sum and its error product
    scale * error sum.

    Bob's phase runs over his first slice, Alice's over slice m; the
    antipodal halves duplicate the integrand exactly, so the N/pi^2
    double integral over the w x w square (w = pi/N) depends only on
    d = theta_a - theta_b and folds to the triangle-weighted line
    integral N/pi^2 int (w - |d - lo|) g(d) dd over [lo - w, lo + w].
    The densities are even in cos d, hence pi-periodic, so row (1, 0) is
    the fully random-phase average. With u+- = expm1(log y +- x cos d)
    they read

        gain:  4 [y^4 e^(2x cos d) u-^2 + y^4 e^(-2x cos d) u+^2]
        error: 8 y^4 u+ u-

    which subtract no nearly equal terms as y -> 1 and x -> 0. Their
    common factor y^4 e^(2x) / N is the scale, so no exponent in either
    sum is positive, since x <= mu'/6 <= -log y, and the error fraction,
    error sum / gain sum, stays finite where the products underflow
    (mu above about 560 per sender on a lossless channel).

    Rows are evaluated in blocks of up to _BLOCK_ROWS (a decoy point
    asks for two rows in one call, slice_qber_sweep for one per slice
    count): each array pass covers a whole block (both signs of x cos d
    times rows times nodes, from the block's cached cosine table),
    and a block's rows are yielded once it is reduced, so memory stays
    bounded by one block whatever the row count. Each layer of a block is
    reduced by one np.vecdot with the weights, which runs the same 1-D
    inner product (DOUBLE_dot, BLAS ddot on contiguous rows) on every row
    in turn: a row's sums are the floats a dot of that row alone gives,
    whichever rows share its block, and a one-row call is the same code.
    A 2-D rows @ weights product (BLAS gemv) or einsum sums in another
    order, which can depend on the block's shape, and moves last digits.
    The sums leave as Python floats, the type every consumer's per-row
    arithmetic wants.
    """
    _check_intensities(mu_a, mu_b)
    # mu' = eta_a mu_a + eta_b mu_b arrives at the relay; x is the
    # interference strength and y a bin's probability of staying silent.
    mu_prime = params.eta_a * mu_a + params.eta_b * mu_b
    x = math.sqrt(params.eta_a * mu_a * params.eta_b * mu_b) / 3.0
    log_y = math.log1p(-params.p_dark) - mu_prime / 6.0
    common = math.exp(4.0 * log_y + 2.0 * x)
    error_factor = 8.0 * math.exp(-2.0 * x)
    for start in range(0, len(n_slices), _BLOCK_ROWS):
        block_n = tuple(n_slices[start : start + _BLOCK_ROWS])
        block_m = tuple(indices[start : start + _BLOCK_ROWS])
        # Layer 0 is x cos d, layer 1 -x cos d.
        xc = x * _signed_cosines(block_n, block_m)
        u = log_y + xc
        np.expm1(u, out=u)
        errors = np.vecdot(u[0] * u[1], _TRIANGLE_WEIGHTS).tolist()
        # Doubling is exact, so these are the floats 2 (x cos d - x) and
        # -2 (x cos d + x).
        xc *= 2.0
        xc -= 2.0 * x
        np.exp(xc, out=xc)
        np.square(u, out=u)
        xc *= u[::-1]  # e^(2x cos d - 2x) u-^2 and e^(-2x cos d - 2x) u+^2
        gains = np.vecdot(xc[0] + xc[1], _TRIANGLE_WEIGHTS).tolist()
        for n_k, gain_k, error_k in zip(block_n, gains, errors):
            yield common / n_k, 4.0 * gain_k, error_factor * error_k


def _gain_qber(scale: float, gain_sum: float, error_sum: float) -> Tuple[float, float]:
    """(gain, error fraction) of one row of _phase_sums; the fraction
    comes from the sums."""
    if gain_sum == 0.0:
        raise ValueError("QBER is undefined at zero gain (no light, no dark counts)")
    # By AM-GM each gain node 4 [a u-^2 + b u+^2] >= 8 sqrt(ab) |u+ u-|, the
    # error node, so the fraction is at most 1; the cap removes only the last
    # ulp rounding can add once dark counts dominate.
    return scale * gain_sum, min(1.0, error_sum / gain_sum)


# The fully random-phase average: slice 0 of 1.
_UNSLICED = SliceConfig(1, 0)


def overall_gain(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Kept-coincidence probability with fully random overall phases:
    8 y^4 [I0(2x) - 2 y I0(x) + y^2]."""
    [(scale, gain_sum, _)] = _phase_sums(mu_a, mu_b, params, (1,), (0,))
    return scale * gain_sum


def overall_qber(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Product (error fraction) x (gain) with fully random phases:
    8 y^4 [1 - 2 y I0(x) + y^2]. Divide by overall_gain for the fraction."""
    [(scale, _, error_sum)] = _phase_sums(mu_a, mu_b, params, (1,), (0,))
    return scale * error_sum


def sliced_gain_qber(
    mu_a: float, mu_b: float, params: ChannelParams, *configs: SliceConfig
) -> List[Tuple[float, float]]:
    """(gain, error fraction) after phase post-selection, one pair per
    slice in configs, from one _phase_sums call; each pair is the one a
    call with that slice alone gives."""
    rows = _phase_sums(
        mu_a,
        mu_b,
        params,
        [config.n_slices for config in configs],
        [config.index for config in configs],
    )
    return [_gain_qber(*row) for row in rows]


def gain_Q11(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Joint single-photon contribution: Poisson weight times the
    single-photon yield."""
    _check_intensities(mu_a, mu_b)
    return mu_a * mu_b * math.exp(-mu_a - mu_b) * yield_Y11(params)


def vacuum_term(mu_a: float, mu_b: float, params: ChannelParams) -> float:
    """Probability that Alice sends vacuum yet a kept coincidence occurs.

    Closed form e^(-mu_a) * 8 yt^4 (1 - yt)^2 with
    yt = (1 - p_dark) exp(-eta_b mu_b / 6): the zero-interference gain
    driven by Bob's light and dark counts alone.
    """
    _check_intensities(mu_a, mu_b)
    y_tilde = (1.0 - params.p_dark) * math.exp(-params.eta_b * mu_b / 6.0)
    return math.exp(-mu_a) * 8.0 * y_tilde**4 * (1.0 - y_tilde) ** 2


@dataclass(frozen=True)
class DecoyRateReport:
    """Modified sliced key rate and its ingredients at one point."""

    rate: float  # clamped at zero
    rate_unclamped: float
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
    slice, so a point costs one two-row phase-sum pass (the kept slice
    and the unsliced average) whatever n_slices is.
    Acceptance criterion 9 (tests/test_acceptance.py) builds the
    increased-cost rate, which charges every slice against the full
    single-photon gain, from one sliced_gain_qber call per slice.
    """
    q11 = gain_Q11(mu_a, mu_b, params)
    e_p = half_weight_qber(*qber_asymptotic(params))
    vacuum = vacuum_term(mu_a, mu_b, params)
    entropy_credit = q11 * (1.0 - binary_entropy(e_p))

    # Slice 0 is the kept slice; the unsliced average gives q_mu and e_mu.
    (q_slice0, e_slice0), (q_mu, e_mu) = sliced_gain_qber(
        mu_a, mu_b, params, SliceConfig(n_slices, 0), _UNSLICED
    )
    cost = q_slice0 * params.f * binary_entropy(e_slice0)
    modified = entropy_credit / n_slices + vacuum - cost

    return DecoyRateReport(
        rate=max(0.0, modified),
        rate_unclamped=modified,
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
# both phases, with no reduction to the phase difference. Everything the
# relay contributes comes from the Monte Carlo's tables (_mc_tables): each
# sender's field per detector-bin is sqrt(eta mu) times its single-photon
# output amplitude there, the phase-randomised coherent-state model of Ma &
# Razavi, PRA 86, 062319 (2012); which click masks count, and whether the
# senders' bits then agree, comes from the sifting tables (keep_weights).
# Kept in the package so the verify command can run the dual-route
# comparison end to end.


@functools.lru_cache(maxsize=1)
def _bin_fields() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (alice, bob, pick) for the kept-mask probabilities of
    every setting.

    alice[s, b] and bob[s, b] are each sender's single-photon output
    amplitude in detector-bin b (mask bit b) under setting s, as the
    Monte Carlo's tables hold them; pick[k, b] indexes [no-click | click]
    probabilities, so that probs[:, pick].prod(axis=2) is each setting's
    probability of exactly the clicks of kept mask k.
    """
    masks, _ = keep_weights()
    bits = np.arange(6)
    pick = bits + 6 * ((masks[:, None] >> bits) & 1)
    pick.flags.writeable = False
    alice, bob = build_tables().bin_amplitudes
    return alice, bob, pick


def _direct_quadrature(
    mu_a: float, mu_b: float, params: ChannelParams, tol: float, flipped: bool
) -> float:
    """Phase average, by dblquad to tol absolute, of twice the setting-
    averaged probability of a kept mask whose bits agree (or, flipped,
    disagree).

    Each detector-bin sees each sender's single-photon output amplitude
    there times sqrt(eta mu) and that sender's overall phase; the two
    fields add, and a threshold click happens unless both the coherent
    component and the dark count stay silent.
    """
    alice, bob, pick = _bin_fields()
    alice = math.sqrt(params.eta_a * mu_a) * alice
    bob = math.sqrt(params.eta_b * mu_b) * bob
    silent = 1.0 - params.p_dark
    # Twice the average over the 16 settings: one agreeing setting per kept
    # mask, the convention overall_gain and overall_qber share. ROADMAP.md's
    # item on the decoy rate's bookkeeping decides it.
    weights = 2.0 * keep_weights()[1][int(flipped)].ravel()

    def density(theta_b: float, theta_a: float) -> float:
        field = cmath.exp(1j * theta_a) * alice + cmath.exp(1j * theta_b) * bob
        quiet = silent * np.exp(-(field.real**2 + field.imag**2))
        probs = np.concatenate((quiet, 1.0 - quiet), axis=1)
        return float(weights.dot(probs[:, pick].prod(axis=2).ravel()))

    value, abserr = dblquad(
        density, 0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, epsabs=tol, epsrel=0.0
    )
    scale = 1.0 / (2.0 * math.pi) ** 2
    if abserr * scale > tol:
        which = "error" if flipped else "gain"
        raise QuadratureError(f"direct {which} quadrature did not converge", abserr * scale)
    return value * scale


def direct_gain_quadrature(
    mu_a: float, mu_b: float, params: ChannelParams, tol: float = 1e-9
) -> float:
    """Overall gain: the kept, agreeing click masks' probability averaged
    over both phases."""
    return _direct_quadrature(mu_a, mu_b, params, tol, flipped=False)


def direct_qber_quadrature(
    mu_a: float, mu_b: float, params: ChannelParams, tol: float = 1e-9
) -> float:
    """Overall error product: the kept, disagreeing click masks'
    probability averaged over both phases."""
    return _direct_quadrature(mu_a, mu_b, params, tol, flipped=True)


def slice_qber_sweep(
    mu_a: float, mu_b: float, params: ChannelParams, n_max: int
) -> List[Tuple[int, float, float]]:
    """(N, first-slice QBER, unsliced QBER) for N = 1..n_max.

    Slice 0 of every N comes from one batch; its N = 1 row is the
    unsliced average.
    """
    counts = range(1, n_max + 1)
    fractions = [
        _gain_qber(*row)[1]
        for row in _phase_sums(mu_a, mu_b, params, counts, (0,) * n_max)
    ]
    return [(n, e0, fractions[0]) for n, e0 in zip(counts, fractions)]
