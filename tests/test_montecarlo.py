"""Trial-level channel simulation: determinism, sharding, physics checks."""

import math
import os

import numpy as np
import pytest

from dpsmdi import montecarlo
from dpsmdi.keyrate_asymptotic import dps_reference_params, qber_asymptotic, yield_Y11
from dpsmdi.montecarlo import (
    COMPILED_AVAILABLE,
    ChannelParams,
    available_backends,
    merge_estimates,
    replay_trials,
    run_trials,
)
from dpsmdi.protocol_sifting import Action

IDEAL = ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.0, e_d=0.0)
LOSSY = ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.015)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(eta_a=1.2, eta_b=0.5, p_dark=0.0, e_d=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=-0.1, e_d=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.0, e_d=1.2)
    with pytest.raises(ValueError):
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.0, e_d=0.0, f=0.9)


def test_from_total_distance():
    at_zero = ChannelParams.from_total_distance(0.0, eta_det=0.145)
    assert at_zero.eta_a == pytest.approx(0.145)
    assert at_zero.eta_b == pytest.approx(0.145)
    # each side spans half the distance: 40 km total -> 4 dB per side
    at_forty = ChannelParams.from_total_distance(40.0, eta_det=1.0, alpha_db_per_km=0.2)
    assert at_forty.eta_a == pytest.approx(10.0 ** (-0.4))
    assert at_forty.eta_b == pytest.approx(10.0 ** (-0.4))


def test_negative_fiber_loss_is_rejected():
    with pytest.raises(ValueError, match="alpha_db_per_km"):
        ChannelParams.from_total_distance(10.0, alpha_db_per_km=-0.1)
    with pytest.raises(ValueError, match="alpha_db_per_km"):
        dps_reference_params(10.0, alpha_db_per_km=-0.1)


def test_same_seed_reproduces_exactly():
    first = run_trials(LOSSY, 40_000, seed=123)
    second = run_trials(LOSSY, 40_000, seed=123)
    assert first.keep_count == second.keep_count
    assert first.error_count == second.error_count
    assert np.array_equal(first.mask_counts, second.mask_counts)
    third = run_trials(LOSSY, 40_000, seed=124)
    assert not np.array_equal(first.mask_counts, third.mask_counts)


def test_thread_count_does_not_change_tallies():
    single = run_trials(LOSSY, 60_000, seed=9, threads=1)
    sharded = run_trials(LOSSY, 60_000, seed=9, threads=4)
    assert single.keep_count == sharded.keep_count
    assert single.error_count == sharded.error_count
    assert np.array_equal(single.mask_counts, sharded.mask_counts)


def test_thread_count_is_capped_at_the_core_count(monkeypatch):
    requested = []

    class InlinePool:
        """Records max_workers and runs the shards in the calling thread."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
    cores = os.cpu_count() or 1
    capped = run_trials(LOSSY, 300, seed=5, threads=cores + 1000)
    assert all(workers <= cores for workers in requested)
    single = run_trials(LOSSY, 300, seed=5, threads=1)
    assert np.array_equal(capped.mask_counts, single.mask_counts)


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="extension not built")
def test_backends_bit_identical():
    compiled = run_trials(LOSSY, 60_000, seed=77, backend="compiled")
    fallback = run_trials(LOSSY, 60_000, seed=77, backend="python")
    assert compiled.keep_count == fallback.keep_count
    assert compiled.error_count == fallback.error_count
    assert np.array_equal(compiled.mask_counts, fallback.mask_counts)


def test_available_backends_lists_python():
    names = available_backends()
    assert "python" in names
    if COMPILED_AVAILABLE:
        assert "compiled" in names


def test_merge_rejects_mixed_seeds():
    a = run_trials(LOSSY, 1_000, seed=1)
    b = run_trials(LOSSY, 1_000, seed=2)
    with pytest.raises(ValueError):
        a.merged_with(b)
    with pytest.raises(ValueError):
        merge_estimates([])


def test_ideal_channel_statistics():
    """No loss, no darks: keep fraction is the sifted fraction 4/9,
    discards 2/9, and nothing ever errs."""
    est = run_trials(IDEAL, 200_000, seed=5)
    sigma = math.sqrt((4.0 / 9.0) * (5.0 / 9.0) / est.n_trials)
    assert abs(est.y11_hat - 4.0 / 9.0) < 3.0 * sigma
    assert est.error_count == 0
    sigma_d = math.sqrt((2.0 / 9.0) * (7.0 / 9.0) / est.n_trials)
    assert abs(est.discard_fraction - 2.0 / 9.0) < 3.0 * sigma_d
    assert est.y11_hat + est.discard_fraction + est.inconclusive_fraction == pytest.approx(1.0)


def test_lossy_channel_matches_analytic_forms():
    est = run_trials(LOSSY, 400_000, seed=31)
    y11 = yield_Y11(LOSSY)
    assert abs(est.y11_hat - y11) < 3.0 * math.sqrt(y11 * (1 - y11) / est.n_trials)
    e_b, background = qber_asymptotic(LOSSY)
    # random dark-count clicks err half the time, so the simulation sits
    # half a background term below the all-darks-err closed form
    expected = e_b - 0.5 * background
    sigma = math.sqrt(expected * (1 - expected) / est.keep_count)
    assert abs(est.e_b_hat - expected) < 3.0 * sigma


def test_dark_only_channel_errs_half_the_time():
    dark = ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=5e-3, e_d=0.0)
    est = run_trials(dark, 600_000, seed=2)
    assert est.keep_count > 100
    sigma = math.sqrt(0.25 / est.keep_count)
    assert abs(est.e_b_hat - 0.5) < 4.0 * sigma


def test_no_keeps_yields_nan_estimates():
    silent = ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.0, e_d=0.0)
    est = run_trials(silent, 5_000, seed=3)
    assert est.keep_count == 0
    assert math.isnan(est.e_b_hat)
    assert math.isnan(est.e_b_stderr)
    assert est.mask_counts[0] == 5_000


def test_replay_matches_kernel_tallies():
    """The pure-Python per-trial replay consumes the same draw stream as
    the batch kernels and must reproduce the tallies event for event."""
    n = 30_000
    est = run_trials(LOSSY, n, seed=41)
    keeps = errors = 0
    for record in replay_trials(LOSSY, n, seed=41):
        if record.decision.action is Action.KEEP:
            keeps += 1
            errors += bool(record.error)
    assert keeps == est.keep_count
    assert errors == est.error_count


def test_replay_record_invariants():
    for record in replay_trials(LOSSY, 2_000, seed=13):
        assert (record.error is None) == (record.decision.action is not Action.KEEP)
        arrived_a, arrived_b = record.loss_pattern
        assert isinstance(arrived_a, bool) and isinstance(arrived_b, bool)
        if record.outcome is not None and len(record.outcome.clicks) < 2:
            assert record.decision.action is Action.INCONCLUSIVE


def test_replay_start_offset_is_consistent():
    full = list(replay_trials(LOSSY, 200, seed=8))
    tail = list(replay_trials(LOSSY, 100, seed=8, start_trial=100))
    for a, b in zip(full[100:], tail):
        assert a.trial_index == b.trial_index
        assert a.decision == b.decision
        assert a.outcome == b.outcome


def test_estimates_csv_shape():
    est = run_trials(LOSSY, 10_000, seed=55)
    text = est.to_csv()
    lines = text.splitlines()
    assert lines[0] == "name,value,stderr,n_trials,seed"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "y11_hat" in names and "e_b_hat" in names
    assert "freq_no_click" in names
    for line in lines[1:]:
        assert line.endswith(",10000,55")
    assert text == run_trials(LOSSY, 10_000, seed=55).to_csv()


def test_run_trials_input_validation():
    with pytest.raises(ValueError):
        run_trials(LOSSY, 0, seed=1)
    with pytest.raises(ValueError):
        run_trials(LOSSY, 10, seed=-1)
    with pytest.raises(ValueError):
        run_trials(LOSSY, 10, seed=1, backend="cuda")
