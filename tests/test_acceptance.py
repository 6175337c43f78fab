"""Release acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Tolerances are part of the contract and are pinned
inline; the Monte Carlo check uses fixed seeds, so every run is
reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dpsmdi.finite_key import (
    FiniteKeyBudget,
    SecurityParams,
    finite_rate,
    optimize_rate,
)
from dpsmdi.fock_optics import (
    conclusive_output_state,
    discrete_settings,
    joint_input,
    output_state,
    postselect_hom,
)
from dpsmdi.keyrate_asymptotic import (
    dps_reference_params,
    dps_reference_rate,
    qber_asymptotic,
    secure_rate,
    yield_Y11,
)
from dpsmdi.keyrate_decoy import (
    SliceConfig,
    decoy_key_rate,
    direct_gain_quadrature,
    direct_qber_quadrature,
    intrinsic_qber,
    overall_gain,
    overall_qber,
    sliced_gain_qber,
)
from dpsmdi.montecarlo import ChannelParams, run_trials
from dpsmdi.noise_security import (
    NoiseMatrix,
    bit_error_rate,
    error_gap,
    phase_error_rate,
)
from dpsmdi.protocol_sifting import (
    Action,
    BellLabel,
    DetectionOutcome,
    PhaseUsed,
    Register,
    extract_bits,
    sift,
    sifted_key_fraction,
    verify_entanglement_mapping,
)

from test_keyrate_asymptotic import cutoff_distance

N_GRID = (
    10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7, 3 * 10**7,
    10**8, 3 * 10**8, 10**9, 10**10, 10**11, 10**12,
)


def _outcome(*clicks):
    return DetectionOutcome(frozenset(clicks))


def _expected_table():
    """The 12 announcement rows: action, phase pair, flip, Bell state."""
    rows = {}
    for pair, phase, register in (
        (1, PhaseUsed.DELTA1, Register.A1B1),
        (2, PhaseUsed.DELTA2, Register.A2B2),
    ):
        late = pair + 1
        for det in ("c", "d"):
            rows[_outcome((det, 1), (det, late))] = (
                Action.KEEP, phase, False, BellLabel.CORRELATED, register
            )
        for first, second in ((("c", 1), ("d", late)), (("c", late), ("d", 1))):
            rows[_outcome(first, second)] = (
                Action.KEEP, phase, True, BellLabel.ANTICORRELATED, register
            )
    for first, second in (
        (("c", 2), ("c", 3)),
        (("d", 2), ("d", 3)),
        (("c", 2), ("d", 3)),
        (("c", 3), ("d", 2)),
    ):
        rows[_outcome(first, second)] = (Action.DISCARD, PhaseUsed.NONE, None, None, None)
    return rows


def test_criterion_1_reconciliation_table_all_settings():
    started = time.perf_counter()
    table = _expected_table()
    assert len(table) == 12

    for setting in discrete_settings():
        state = conclusive_output_state(setting).pruned()
        support = {}
        for pattern, amplitude in state.amplitudes.items():
            outcome = DetectionOutcome.from_pattern(pattern)
            support[outcome] = support.get(outcome, 0.0) + abs(amplitude) ** 2

        for outcome, (action, phase, flip, bell, register) in table.items():
            decision = sift(outcome)
            assert decision.action == action, f"action mismatch at {outcome}"
            assert decision.phase_used == phase
            assert decision.bit_flip == flip
            probability = support.get(outcome, 0.0)
            if action is Action.KEEP:
                # support exists exactly when the used phase difference
                # matches the detector pairing, and then carries 1/6
                delta = (
                    setting.delta_phi1 if phase is PhaseUsed.DELTA1
                    else setting.delta_phi2
                )
                same_detector = len({det for det, _ in outcome.clicks}) == 1
                expected_support = same_detector == (abs(delta) < 1e-9)
                if expected_support:
                    assert probability == pytest.approx(1.0 / 6.0, abs=1e-12)
                    bits = extract_bits(decision, setting)
                    assert bits[0] == bits[1], f"bit mismatch at {outcome}"
                else:
                    assert probability == pytest.approx(0.0, abs=1e-12)
                ancilla = verify_entanglement_mapping(outcome)
                assert ancilla.label == bell
                assert ancilla.register == register

        discard_total = sum(
            p for outcome, p in support.items()
            if sift(outcome).action is Action.DISCARD
        )
        assert discard_total == pytest.approx(1.0 / 3.0, abs=1e-12)

    assert time.perf_counter() - started < 1.0


def test_criterion_2_sifted_fraction_exact():
    assert sifted_key_fraction() == Fraction(4, 9)

    for setting in discrete_settings():
        _, survival = postselect_hom(joint_input(setting))
        assert survival == pytest.approx(2.0 / 3.0, abs=1e-12)
        keep_total = 0.0
        for pattern, amplitude in output_state(setting).pruned().amplitudes.items():
            outcome = DetectionOutcome.from_pattern(pattern)
            if sift(outcome).action is Action.KEEP:
                keep_total += abs(amplitude) ** 2
        assert keep_total == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_criterion_3_montecarlo_matches_closed_forms():
    started = time.perf_counter()
    n_trials = 10_000_000
    combo_index = 0
    for eta in (1.0, 0.1, 0.01):
        for p_dark in (0.0, 3e-6):
            for e_d in (0.0, 0.015):
                combo_index += 1
                params = ChannelParams(eta_a=eta, eta_b=eta, p_dark=p_dark, e_d=e_d)
                est = run_trials(params, n_trials, seed=7000 + combo_index)

                y_true = yield_Y11(params)
                sigma_y = math.sqrt(y_true * (1.0 - y_true) / n_trials)
                assert abs(est.y11_hat - y_true) <= 3.0 * sigma_y, (
                    f"yield off at eta={eta} p_dark={p_dark} e_d={e_d}"
                )

                e_verbatim, background = qber_asymptotic(params)
                e_half = e_verbatim - 0.5 * background
                assert est.keep_count > 0
                e_hat = est.error_count / est.keep_count
                sigma_e = math.sqrt(
                    max(e_half * (1.0 - e_half), 0.0) / est.keep_count
                )
                if sigma_e == 0.0:
                    assert est.error_count == 0
                else:
                    # the simulation realizes the half-weight convention;
                    # the discrepancy to the verbatim bookkeeping is
                    # exactly half the background term
                    assert abs(e_hat - e_half) <= 3.0 * sigma_e, (
                        f"qber off at eta={eta} p_dark={p_dark} e_d={e_d}"
                    )
                    assert abs((e_verbatim - e_hat) - 0.5 * background) <= 3.0 * sigma_e
    assert time.perf_counter() - started < 300.0


def test_criterion_4_phase_error_never_exceeds_bit_error():
    identity = NoiseMatrix.identity()
    assert error_gap(identity, identity) == pytest.approx(4.0 / 9.0, abs=1e-12)

    rng = np.random.default_rng(20260823)
    for _ in range(10**4):
        noise_a = NoiseMatrix.from_floats(rng.uniform(-1.0, 1.0, size=18))
        noise_b = NoiseMatrix.from_floats(rng.uniform(-1.0, 1.0, size=18))
        e_b = bit_error_rate(noise_a, noise_b)
        e_p = phase_error_rate(noise_a, noise_b)
        gap = error_gap(noise_a, noise_b)
        assert gap >= -1e-12
        assert e_p <= e_b + 1e-12
        assert abs((e_b - e_p) - gap) <= 1e-12


def test_criterion_5_closed_form_gain_qber_vs_quadrature():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        mu_a, mu_b = rng.uniform(0.05, 1.0, size=2)
        eta_a, eta_b = rng.uniform(1e-3, 0.5, size=2)
        p_dark = rng.uniform(0.0, 1e-4)
        params = ChannelParams(
            eta_a=eta_a, eta_b=eta_b, p_dark=p_dark, e_d=0.015
        )
        assert overall_gain(mu_a, mu_b, params) == pytest.approx(
            direct_gain_quadrature(mu_a, mu_b, params), abs=1e-8
        )
        assert overall_qber(mu_a, mu_b, params) == pytest.approx(
            direct_qber_quadrature(mu_a, mu_b, params), abs=1e-8
        )

    # one dead arm removes the interference term entirely
    dark_arm = ChannelParams(eta_a=0.0, eta_b=0.3, p_dark=1e-5, e_d=0.015)
    y = (1.0 - 1e-5) * math.exp(-0.3 * 0.4 / 6.0)
    assert overall_gain(0.7, 0.4, dark_arm) == pytest.approx(
        8.0 * y**4 * (1.0 - y) ** 2, rel=1e-14
    )


def test_criterion_6_slice_qber_regime():
    params = ChannelParams.from_total_distance(0.0)
    e_full = intrinsic_qber(0.5, 0.5, params)
    assert 0.30 <= e_full <= 0.38

    previous = None
    for n_slices in (1, 2, 4, 8, 16, 32):
        _, e0 = sliced_gain_qber(0.5, 0.5, params, SliceConfig(n_slices, 0))
        if n_slices == 16:
            assert e0 <= 0.02
        if previous is not None:
            assert e0 <= previous + 1e-12
        previous = e0


def test_criterion_7_cutoff_distance_ratio():
    def relay_rate(l_km):
        return secure_rate(ChannelParams.from_total_distance(l_km)).R

    def reference_rate(l_km):
        return dps_reference_rate(dps_reference_params(l_km))

    relay_cutoff = cutoff_distance(relay_rate)
    reference_cutoff = cutoff_distance(reference_rate)
    assert math.isfinite(relay_cutoff)
    assert math.isfinite(reference_cutoff)
    assert 1.7 <= relay_cutoff / reference_cutoff <= 2.3


def _brute_force_best(n_signals, e_b, epsilon=1e-5, epsilon_EC=1e-10):
    total = (4 * n_signals) // 9
    best = 0.0
    for u in np.geomspace(1e-5, 0.95, 60):
        m = min(max(int(round(total * u)), 1), total - 1)
        n = total - m
        for beta in np.linspace(0.05, 0.95, 19):
            eps_bar = beta * (epsilon - epsilon_EC)
            for gamma in np.geomspace(1e-3, 0.9, 25):
                sec = SecurityParams(epsilon, epsilon_EC, eps_bar, gamma * eps_bar)
                rate = finite_rate(FiniteKeyBudget(n_signals, n, m), sec, e_b)
                if rate > best:
                    best = rate
    return best


def test_criterion_8_finite_key_optimizer():
    curves = {}
    for e_b in (0.01, 0.03, 0.05):
        rates = [optimize_rate(n, 1e-5, 1e-10, e_b).rate for n in N_GRID]
        for lower, upper in zip(rates, rates[1:]):
            assert upper >= lower - 1e-15
        curves[e_b] = rates
    for low_error, high_error in ((0.01, 0.03), (0.03, 0.05)):
        for better, worse in zip(curves[low_error], curves[high_error]):
            assert better >= worse - 1e-15

    nearly_clean = optimize_rate(10**12, 1e-5, 1e-10, 1e-4).rate
    assert nearly_clean == pytest.approx(4.0 / 9.0, rel=0.02)

    for e_b in (0.01, 0.03):
        brute = _brute_force_best(10**7, e_b)
        opt = optimize_rate(10**7, 1e-5, 1e-10, e_b).rate
        assert opt == pytest.approx(brute, rel=0.01)
        assert opt >= brute - 1e-12  # refinement may only improve on the grid


def test_criterion_9_slicing_rescues_the_rate():
    params = ChannelParams.from_total_distance(0.0)
    report = decoy_key_rate(0.5, 0.5, params, n_slices=16)
    assert report.rate_unclamped > 0.0
    assert report.increased_cost_rate < 0.0
