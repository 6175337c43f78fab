"""Single-photon yield, QBER, secure rate, and the `asymptotic` distance sweep."""

import math
from typing import Callable

import pytest

from dpsmdi.channel import ChannelParams
from dpsmdi.cli import cmd_asymptotic
from dpsmdi.config import RunConfig
from dpsmdi.keyrate_asymptotic import (
    DPS_PHASE_AMPLIFICATION,
    binary_entropy,
    distance_grid,
    dps_reference_params,
    dps_reference_rate,
    qber_asymptotic,
    secure_rate,
    yield_Y11,
)


def cutoff_distance(
    rate_at: Callable[[float], float],
    l_max: float = 500.0,
    tol_km: float = 0.01,
) -> float:
    """Largest distance with positive rate, by bisection (criterion 7 uses it too).

    rate_at maps a total distance in km to a clamped rate. Assumes the
    rate is positive at 0 and eventually zero; returns nan otherwise.
    """
    lo, hi = 0.0, l_max
    if rate_at(lo) <= 0.0:
        return float("nan")
    if rate_at(hi) > 0.0:
        return float("inf")
    while hi - lo > tol_km:
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def params(eta, p_dark=0.0, e_d=0.0):
    return ChannelParams(eta_a=eta, eta_b=eta, p_dark=p_dark, e_d=e_d)


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
    for x in (0.03, 0.2, 0.41):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_yield_ideal_point():
    # perfect arms, no darks: only the sifted fraction survives
    assert yield_Y11(params(1.0)) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_yield_scales_with_arm_product():
    # dark-free yield is proportional to eta_a * eta_b
    base = yield_Y11(params(1.0))
    assert yield_Y11(params(0.1)) == pytest.approx(base * 0.01, rel=1e-12)
    mixed = ChannelParams(eta_a=0.2, eta_b=0.05, p_dark=0.0, e_d=0.0)
    assert yield_Y11(mixed) == pytest.approx(base * 0.01, rel=1e-12)


def test_yield_dark_floor():
    dark = ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=1e-5, e_d=0.0)
    # two independent dark clicks in a keep pattern dominate:
    # 8 patterns * p^2 to leading order, times (1-p)^4 spectator factor
    assert yield_Y11(dark) == pytest.approx(8.0 * 1e-10, rel=1e-3)


def test_qber_reduces_to_misalignment():
    e_b, background = qber_asymptotic(params(0.3, p_dark=0.0, e_d=0.015))
    assert e_b == pytest.approx(0.015, abs=1e-15)
    assert background == 0.0


def test_qber_dark_background_convention():
    """All dark-driven keeps are charged as errors in the closed form;
    the background share reported alongside makes the halved convention
    reachable as e_b - background / 2."""
    noisy = params(0.01, p_dark=3e-6, e_d=0.0)
    e_b, background = qber_asymptotic(noisy)
    assert 0.0 < background <= e_b
    halfweight = e_b - 0.5 * background
    assert 0.0 < halfweight < e_b


def test_qber_undefined_at_zero_yield():
    with pytest.raises(ValueError):
        qber_asymptotic(ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.0, e_d=0.0))


def test_secure_rate_ideal():
    report = secure_rate(params(1.0))
    assert report.e_b == 0.0
    assert report.R == pytest.approx(4.0 / 9.0, abs=1e-15)
    assert report.R == report.R_unclamped


def test_secure_rate_clamps_at_zero():
    # a dark-dominated point has entropy terms above 1
    swamped = ChannelParams(eta_a=1e-7, eta_b=1e-7, p_dark=1e-4, e_d=0.05)
    report = secure_rate(swamped)
    assert report.R == 0.0
    assert report.R_unclamped < 0.0


def test_distance_grid_inclusive():
    assert distance_grid(0.0, 10.0, 5.0) == [0.0, 5.0, 10.0]
    assert distance_grid(0.0, 9.9, 5.0) == [0.0, 5.0]
    with pytest.raises(ValueError):
        distance_grid(0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        distance_grid(10.0, 0.0, 5.0)


def test_distance_sweep_rows_decreasing():
    text, _ = cmd_asymptotic(RunConfig(L_min=0.0, L_max=100.0, L_step=50.0))
    rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    assert [r[0] for r in rows] == [0.0, 50.0, 100.0]
    y11 = [r[1] for r in rows]
    assert y11[0] > y11[1] > y11[2]
    rates = [r[3] for r in rows]
    assert rates[0] > rates[1] > rates[2] > 0.0


def test_dps_reference_shape():
    at_zero = dps_reference_rate(dps_reference_params(0.0))
    far = dps_reference_rate(dps_reference_params(400.0))
    assert at_zero > 0.0
    assert far == 0.0
    assert DPS_PHASE_AMPLIFICATION == 2.0
    # no light and no dark counts: no click, and no rate
    assert dps_reference_rate(ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.0, e_d=0.0)) == 0.0


def test_cutoff_distance_bisection():
    # synthetic monotone profile with a known root
    assert cutoff_distance(lambda l: 100.0 - l, l_max=500.0) == pytest.approx(
        100.0, abs=0.02
    )
    assert math.isnan(cutoff_distance(lambda l: -1.0))
    assert math.isinf(cutoff_distance(lambda l: 1.0, l_max=10.0))


def test_cutoff_ratio_near_two():
    """The relay sits midway, so each arm spans half the distance and the
    workable range roughly doubles against the one-way reference."""
    mdi = cutoff_distance(
        lambda l: secure_rate(ChannelParams.from_total_distance(l)).R
    )
    reference = cutoff_distance(
        lambda l: dps_reference_rate(dps_reference_params(l))
    )
    assert 1.7 <= mdi / reference <= 2.3
