"""Weak-coherent gain/QBER phase averages, slicing, and the dual quadrature route."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from dpsmdi import checks, keyrate_decoy
from dpsmdi.channel import ChannelParams
from dpsmdi.cli import cmd_decoy, main
from dpsmdi.config import RunConfig
from dpsmdi.keyrate_asymptotic import binary_entropy, qber_asymptotic, yield_Y11
from dpsmdi.keyrate_decoy import (
    DecoyRateReport,
    QuadratureError,
    SliceConfig,
    decoy_key_rate,
    direct_gain_quadrature,
    direct_qber_quadrature,
    gain_Q11,
    overall_gain,
    overall_qber,
    slice_qber_sweep,
    sliced_gain_qber,
    vacuum_term,
)

SHORT_LINK = ChannelParams.from_total_distance(0.0)
MID_LINK = ChannelParams(eta_a=0.02, eta_b=0.05, p_dark=1e-5, e_d=0.01)
LOSSLESS = ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.0, e_d=0.0)


def unsliced_qber(mu_a, mu_b, params):
    """Error fraction with fully random phases: slice 0 of 1."""
    return sliced_gain_qber(mu_a, mu_b, params, SliceConfig(1, 0))[0][1]


def reference_slice0(mu_a, mu_b, params, n_slices):
    """(gain, error product, error fraction) on slice 0 of n_slices, to 50
    digits; the fraction is taken before rounding to double.

    The Jacobi-Anger series e^(z cos d) = I0(z) + 2 sum_k I_k(z) cos(k d)
    integrated against the slice's triangular weight (w - |d|) on [-w, w],
    w = pi/N, gives the slice average of cosh(z cos d) as
    N/pi^2 [w^2 I0(z) + 4 sum_(k even) I_k(z) (1 - cos kw) / k^2]; the
    densities are 4 y^4 [(e^(xc) - y)^2 + (e^(-xc) - y)^2] and
    8 y^4 (1 - y e^(xc)) (1 - y e^(-xc)). No quadrature is involved.
    """
    with mpmath.workdps(50):
        eta_a, eta_b, mu_a, mu_b = map(
            mpmath.mpf, (params.eta_a, params.eta_b, mu_a, mu_b)
        )
        x = mpmath.sqrt(eta_a * mu_a * eta_b * mu_b) / 3
        mu_prime = eta_a * mu_a + eta_b * mu_b
        y = (1 - mpmath.mpf(params.p_dark)) * mpmath.exp(-mu_prime / 6)
        w = mpmath.pi / n_slices

        def cosh_average(z):
            total = w**2 * mpmath.besseli(0, z)
            k = 2
            while True:
                i_k = mpmath.besseli(k, z)
                total += 4 * i_k * (1 - mpmath.cos(k * w)) / k**2
                if i_k < total * mpmath.mpf(10) ** -55:
                    return n_slices * total / mpmath.pi**2
                k += 2

        cosh_x = cosh_average(x)
        gain = 8 * y**4 * (cosh_average(2 * x) - 2 * y * cosh_x + y**2 / n_slices)
        error = 8 * y**4 * ((1 + y**2) / n_slices - 2 * y * cosh_x)
        return float(gain), float(error), float(error / gain)


def rel_err(got, want):
    return 0.0 if got == want else abs(got - want) / abs(want)


def test_intermediates_shorthand_values():
    # mu' = 0.145 arrives at the relay and x = sqrt(eta_a mu_a eta_b mu_b)/3;
    # the random-phase forms are written in them and y = (1 - p_dark) e^(-mu'/6)
    x = math.sqrt(0.145 * 0.5 * 0.145 * 0.5) / 3.0
    with mpmath.workdps(30):
        y = (1 - mpmath.mpf(3e-6)) * mpmath.exp(-mpmath.mpf(0.145) / 6)
        i0_x = mpmath.besseli(0, x)
        gain = 8 * y**4 * (mpmath.besseli(0, 2 * x) - 2 * y * i0_x + y**2)
        error = 8 * y**4 * (1 - 2 * y * i0_x + y**2)
    assert overall_gain(0.5, 0.5, SHORT_LINK) == pytest.approx(float(gain), rel=1e-12)
    assert overall_qber(0.5, 0.5, SHORT_LINK) == pytest.approx(float(error), rel=1e-12)
    with pytest.raises(ValueError, match="non-negative"):
        overall_gain(-0.1, 0.5, SHORT_LINK)


def test_overall_gain_matches_direct_quadrature():
    # the gain and the error product, each to 1e-8 absolute
    checks.gain_vs_quadrature([(0.5, 0.5, SHORT_LINK), (0.2, 0.7, MID_LINK)])


def test_overall_error_product_matches_direct_quadrature():
    for mu_a, mu_b, params in [
        (0.5, 0.5, SHORT_LINK),
        (0.2, 0.7, MID_LINK),
    ]:
        closed = overall_qber(mu_a, mu_b, params)
        direct = direct_qber_quadrature(mu_a, mu_b, params)
        assert closed == pytest.approx(direct, abs=1e-8)


def test_direct_quadrature_reports_an_unreachable_tolerance():
    # 1e-22 lies far below the roundoff of a phase average of about 0.05
    params = ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.1, e_d=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        with pytest.raises(QuadratureError, match="direct gain quadrature did not converge") as info:
            direct_gain_quadrature(0.5, 0.5, params, tol=1e-22)
    assert info.value.achieved > 1e-22
    assert f"{info.value.achieved:.3e}" in str(info.value)


def test_zero_interference_closed_form():
    # one arm dark: x = 0, gain and error product collapse to 8 y^4 (1 - y)^2
    dark_arm = ChannelParams(eta_a=0.0, eta_b=0.05, p_dark=1e-5, e_d=0.01)
    y = (1.0 - 1e-5) * math.exp(-0.05 * 0.5 / 6.0)
    expected = 8.0 * y**4 * (1.0 - y) ** 2
    assert overall_gain(0.5, 0.5, dark_arm) == pytest.approx(expected, rel=1e-14)
    assert overall_qber(0.5, 0.5, dark_arm) == pytest.approx(expected, rel=1e-14)
    assert unsliced_qber(0.5, 0.5, dark_arm) == pytest.approx(1.0, rel=1e-12)


def test_vacuum_term_is_poisson_weighted_one_arm_gain():
    got = vacuum_term(0.5, 0.4, MID_LINK)
    assert got == pytest.approx(
        math.exp(-0.5) * overall_gain(0.0, 0.4, MID_LINK), rel=1e-13
    )


def test_single_photon_gain_factorization():
    got = gain_Q11(0.3, 0.6, MID_LINK)
    want = 0.3 * 0.6 * math.exp(-0.9) * yield_Y11(MID_LINK)
    assert got == pytest.approx(want, rel=1e-15)


def test_slice_config_validation():
    with pytest.raises(ValueError):
        SliceConfig(0, 0)
    with pytest.raises(ValueError):
        SliceConfig(4, 4)
    with pytest.raises(ValueError):
        SliceConfig(4, -1)


def test_single_slice_recovers_unsliced_forms():
    [(gain, qber)] = sliced_gain_qber(0.5, 0.5, SHORT_LINK, SliceConfig(1, 0))
    assert gain == pytest.approx(overall_gain(0.5, 0.5, SHORT_LINK), abs=1e-10)
    error_product = overall_qber(0.5, 0.5, SHORT_LINK)
    assert qber == pytest.approx(error_product / overall_gain(0.5, 0.5, SHORT_LINK), abs=1e-9)


def test_slices_partition_gain_and_error_product():
    for l_km in (0.0, 250.0, 500.0):
        params = ChannelParams.from_total_distance(l_km)
        for n in (4, 16):
            gain_sum = 0.0
            error_sum = 0.0
            for m in range(n):
                [(gain, qber)] = sliced_gain_qber(0.5, 0.5, params, SliceConfig(n, m))
                gain_sum += gain
                error_sum += gain * qber
            assert rel_err(gain_sum, overall_gain(0.5, 0.5, params)) <= 1e-13
            assert rel_err(error_sum, overall_qber(0.5, 0.5, params)) <= 1e-13


def test_decoy_rows_match_the_series_reference_from_0_to_500_km():
    for l_km in range(0, 501, 25):
        params = ChannelParams.from_total_distance(float(l_km))
        report = decoy_key_rate(0.5, 0.5, params, n_slices=16)
        q_mu, _, e_mu = reference_slice0(0.5, 0.5, params, 1)
        q_m0, _, e_m0 = reference_slice0(0.5, 0.5, params, 16)
        pairs = [
            (report.q_mu, q_mu),
            (report.e_mu, e_mu),
            (report.q_slice0, q_m0),
            (report.e_slice0, e_m0),
        ]
        worst = max(rel_err(got, want) for got, want in pairs)
        assert worst <= 1e-12, f"{worst:.2e} relative at {l_km} km"


@pytest.mark.parametrize("mu", [1.0, 100.0, 1000.0])
def test_lossless_channel_at_large_intensity(mu):
    # At mu = 1000 the gain is ~4e-291 and the error product (~1e-580)
    # underflows to zero, in the reference rounded to double as well; their
    # ratio, the QBER (~2e-288), does not.
    for n_slices in (1, 16):
        [(gain, qber)] = sliced_gain_qber(mu, mu, LOSSLESS, SliceConfig(n_slices, 0))
        assert math.isfinite(gain) and math.isfinite(qber)
        want_gain, want_error, want_qber = reference_slice0(mu, mu, LOSSLESS, n_slices)
        assert rel_err(gain, want_gain) <= 1e-9
        assert rel_err(gain * qber, want_error) <= 1e-9
        assert qber > 0.0
        assert rel_err(qber, want_qber) <= 1e-9
    want_gain, want_error, want_qber = reference_slice0(mu, mu, LOSSLESS, 1)
    assert rel_err(overall_gain(mu, mu, LOSSLESS), want_gain) <= 1e-9
    assert rel_err(overall_qber(mu, mu, LOSSLESS), want_error) <= 1e-9
    assert rel_err(unsliced_qber(mu, mu, LOSSLESS), want_qber) <= 1e-9


def test_first_slice_qber_improves_with_finer_slicing():
    rows = slice_qber_sweep(0.5, 0.5, SHORT_LINK, 8)
    assert [n for n, _, _ in rows] == list(range(1, 9))
    unsliced = unsliced_qber(0.5, 0.5, SHORT_LINK)
    previous = None
    for _, e0, e_full in rows:
        assert e_full == unsliced
        assert e0 <= e_full + 1e-12
        if previous is not None:
            assert e0 <= previous + 1e-12
        previous = e0


def test_decoy_rate_sign_split_at_short_distance():
    report = decoy_key_rate(0.5, 0.5, SHORT_LINK, n_slices=16)
    assert report.rate_unclamped > 0.0
    assert report.rate == report.rate_unclamped
    assert increased_cost_rate(0.5, 0.5, SHORT_LINK, n_slices=16) < 0.0
    # the slice keeps far less than the full error rate
    assert 0.30 < report.e_mu < 0.38
    assert report.e_slice0 < 0.05
    assert report.q_slice0 < report.q_mu


# every public function of the intensities
INTENSITY_CALLS = [
    lambda a, b: overall_gain(a, b, SHORT_LINK),
    lambda a, b: sliced_gain_qber(a, b, SHORT_LINK, SliceConfig(16, 0)),
    lambda a, b: decoy_key_rate(a, b, SHORT_LINK, 16),
    lambda a, b: slice_qber_sweep(a, b, SHORT_LINK, 16),
    lambda a, b: gain_Q11(a, b, SHORT_LINK),
    lambda a, b: vacuum_term(a, b, SHORT_LINK),
]


def assert_intensity_rejected(mu):
    for call in INTENSITY_CALLS:
        for mu_a, mu_b in ((mu, 0.5), (0.5, mu)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                call(mu_a, mu_b)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_non_finite_intensities_are_rejected(mu):
    # unchecked, nan gives a nan gain, and a decoy rate of 0 with e_mu = 1
    assert_intensity_rejected(mu)


def test_negative_intensities_are_rejected():
    # unchecked, gain_Q11(-0.5, 0.5, ...) is a negative gain, -2.34e-3
    assert_intensity_rejected(-0.5)


def test_qber_undefined_without_any_clicks():
    silent = ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.0, e_d=0.0)
    with pytest.raises(ValueError):
        unsliced_qber(0.0, 0.0, silent)


def test_decoy_distance_sweep_shape():
    text, _ = cmd_decoy(
        RunConfig(L_min=0.0, L_max=80.0, L_step=40.0, mu_a=0.5, mu_b=0.5, N_slices=16)
    )
    rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    assert len(rows) == 3
    assert [row[0] for row in rows] == [0.0, 40.0, 80.0]
    q_values = [row[1] for row in rows]
    assert q_values[0] > q_values[1] > q_values[2] > 0.0
    assert rows[0][6] > 0.0  # positive modified rate at zero distance
    assert all(len(row) == 7 for row in rows)


def test_error_fractions_stay_at_most_one_where_dark_counts_dominate(capsys):
    # From 1095 km the gain and error sums agree to the last ulp, and their
    # uncapped ratio read up to 1.0000000000000004.
    n_slices = 16
    for l_km in range(1090, 1201, 5):
        params = ChannelParams.from_total_distance(float(l_km))
        assert unsliced_qber(0.5, 0.5, params) <= 1.0
        for m in range(n_slices):
            [(_, e_m)] = sliced_gain_qber(0.5, 0.5, params, SliceConfig(n_slices, m))
            assert e_m <= 1.0
    assert main(["decoy", "--l-min", "1090", "--l-max", "1200", "--l-step", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 24


def per_slice_report(mu_a, mu_b, params, n_slices):
    """decoy_key_rate's report from the public one-row calls (the kept
    slice's sliced_gain_qber and the unsliced averages), in the order of
    its formula."""
    q11 = gain_Q11(mu_a, mu_b, params)
    e_b_single, background = qber_asymptotic(params)
    e_p = min(0.5, e_b_single - 0.5 * background)
    vacuum = vacuum_term(mu_a, mu_b, params)
    entropy_credit = q11 * (1.0 - binary_entropy(e_p))
    [(q_slice0, e_slice0)] = sliced_gain_qber(mu_a, mu_b, params, SliceConfig(n_slices, 0))
    modified = (
        entropy_credit / n_slices
        + vacuum
        - q_slice0 * params.f * binary_entropy(e_slice0)
    )
    return DecoyRateReport(
        rate=max(0.0, modified),
        rate_unclamped=modified,
        q_mu=overall_gain(mu_a, mu_b, params),
        e_mu=unsliced_qber(mu_a, mu_b, params),
        q11=q11,
        e_p_bound=e_p,
        vacuum=vacuum,
        q_slice0=q_slice0,
        e_slice0=e_slice0,
    )


def increased_cost_rate(mu_a, mu_b, params, n_slices):
    """The rate, unclamped, when error correction is charged for every
    slice against the full single-photon gain (one sliced_gain_qber call
    per slice); it goes negative where decoy_key_rate's sliced rate stays
    positive, which is the point of slicing."""
    report = decoy_key_rate(mu_a, mu_b, params, n_slices)
    entropy_credit = report.q11 * (1.0 - binary_entropy(report.e_p_bound))
    total_cost = 0.0
    for m in range(n_slices):
        [(q_m, e_m)] = sliced_gain_qber(mu_a, mu_b, params, SliceConfig(n_slices, m))
        total_cost += q_m * params.f * binary_entropy(e_m)
    return entropy_credit + report.vacuum - total_cost


EXACT_CHANNELS = {
    "0km": ChannelParams.from_total_distance(0.0),
    "500km": ChannelParams.from_total_distance(500.0),
    "dark-heavy": ChannelParams(eta_a=0.01, eta_b=0.01, p_dark=1e-3, e_d=0.015),
}


@pytest.mark.parametrize("channel", list(EXACT_CHANNELS))
@pytest.mark.parametrize("n_slices", [1, 2, 16, 300, 10_000])
def test_batched_decoy_rate_equals_per_slice_calls(n_slices, channel):
    # N = 1 makes the kept slice the unsliced row; 10^4 is the N_slices cap.
    params = EXACT_CHANNELS[channel]
    got = dataclasses.asdict(decoy_key_rate(0.5, 0.5, params, n_slices))
    want = dataclasses.asdict(per_slice_report(0.5, 0.5, params, n_slices))
    assert got == want


@pytest.mark.parametrize("n_slices", [1, 16])
def test_decoy_point_is_one_phase_sum_pass(n_slices, monkeypatch):
    # N = 1 makes both rows slice 0 of 1. The benchmark's tracer times a
    # point's phase sums through sliced_gain_qber, so it must see one call.
    calls = {"_phase_sums": [], "sliced_gain_qber": []}

    def counting(name):
        inner = getattr(keyrate_decoy, name)

        def wrapper(*args):
            calls[name].append(args[3:])
            return inner(*args)

        monkeypatch.setattr(keyrate_decoy, name, wrapper)

    counting("_phase_sums")
    counting("sliced_gain_qber")
    report = decoy_key_rate(0.5, 0.5, SHORT_LINK, n_slices)
    assert calls["sliced_gain_qber"] == [(SliceConfig(n_slices, 0), SliceConfig(1, 0))]
    assert calls["_phase_sums"] == [([n_slices, 1], [0, 0])]
    assert (report.q_slice0 == report.q_mu) == (n_slices == 1)


@pytest.mark.parametrize("channel", list(EXACT_CHANNELS))
def test_batched_slice_sweep_equals_per_slice_calls(channel):
    params = EXACT_CHANNELS[channel]
    unsliced = unsliced_qber(0.5, 0.5, params)
    want = [
        (n, sliced_gain_qber(0.5, 0.5, params, SliceConfig(n, 0))[0][1], unsliced)
        for n in range(1, 301)
    ]
    assert slice_qber_sweep(0.5, 0.5, params, 300) == want


# Any channel, with enough dark counts that a zero intensity still clicks.
CHANNELS = st.builds(
    ChannelParams,
    eta_a=st.floats(0.0, 1.0),
    eta_b=st.floats(0.0, 1.0),
    p_dark=st.floats(1e-12, 0.1),
    e_d=st.floats(0.0, 0.5),
    f=st.floats(1.0, 2.0),
)


@settings(max_examples=60, deadline=None)
@given(
    params=CHANNELS,
    mu_a=st.floats(0.0, 100.0),
    mu_b=st.floats(0.0, 100.0),
    n_slices=st.integers(1, 300),
)
def test_batched_rows_equal_one_row_calls_on_any_channel(params, mu_a, mu_b, n_slices):
    got = dataclasses.asdict(decoy_key_rate(mu_a, mu_b, params, n_slices))
    want = dataclasses.asdict(per_slice_report(mu_a, mu_b, params, n_slices))
    assert got == want
    unsliced = unsliced_qber(mu_a, mu_b, params)
    assert slice_qber_sweep(mu_a, mu_b, params, n_slices) == [
        (n, sliced_gain_qber(mu_a, mu_b, params, SliceConfig(n, 0))[0][1], unsliced)
        for n in range(1, n_slices + 1)
    ]


def test_slice_sweep_memory_is_bounded_by_a_block():
    # one array pass over all 10^4 rows would hold about 10 MB per array
    tracemalloc.start()
    try:
        slice_qber_sweep(0.5, 0.5, SHORT_LINK, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
