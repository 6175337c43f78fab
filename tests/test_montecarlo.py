"""Trial-level channel simulation: determinism, sharding, physics checks."""

import math
import os

import numpy as np
import pytest

from dpsmdi import _mc_fallback, _rng, montecarlo
from dpsmdi._mc_tables import KEY_SHIFT, build_tables, clicks_of_mask
from dpsmdi.keyrate_asymptotic import dps_reference_params, qber_asymptotic, yield_Y11
from dpsmdi.montecarlo import (
    ChannelParams,
    merge_estimates,
    replay_trials,
    run_trials,
)
from dpsmdi.protocol_sifting import Action

IDEAL = ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.0, e_d=0.0)
LOSSY = ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.015)
LONG_HAUL = ChannelParams.from_total_distance(200.0)
DARK_HEAVY = ChannelParams(eta_a=0.01, eta_b=0.01, p_dark=1e-3, e_d=0.015)


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


def test_available_backends_lists_python():
    # the shim the benchmark's backend gate still reads
    assert montecarlo.available_backends() == ("python",)
    assert montecarlo.COMPILED_AVAILABLE is False


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


def assert_replay_matches(est, params, seed):
    """Replaying est's trials one by one gives its tallies. Records with
    more than two clicks carry no outcome, so those masks are compared
    as one total."""
    mask_of_clicks = {clicks_of_mask(mask): mask for mask in range(64)}
    crowded = np.array([bin(mask).count("1") > 2 for mask in range(64)])
    mask_counts = np.zeros(64, dtype=np.int64)
    keeps = errors = 0
    for record in replay_trials(params, est.n_trials, seed=seed):
        if record.outcome is not None:
            mask_counts[mask_of_clicks[record.outcome.clicks]] += 1
        if record.decision.action is Action.KEEP:
            keeps += 1
            errors += bool(record.error)
    assert np.array_equal(mask_counts[~crowded], est.mask_counts[~crowded])
    assert est.n_trials - mask_counts.sum() == est.mask_counts[crowded].sum()
    assert keeps == est.keep_count
    assert errors == est.error_count


def test_replay_matches_kernel_tallies():
    """The pure-Python per-trial replay consumes the same draw stream as
    the batch kernel and must reproduce the tallies event for event."""
    for params in (LOSSY, DARK_HEAVY):
        assert_replay_matches(run_trials(params, 30_000, seed=41), params, seed=41)


# Tallies recorded from the float-comparing kernel (unit draws against
# probabilities, a linear scan of cumulative rows); the integer kernel must
# reproduce them. 150,001 trials is no multiple of a chunk, and at 2
# threads the second shard starts at trial 75,000, inside a chunk.
PINNED_TALLIES = [
    # (channel, seed, threads, keeps, errors, {mask: count})
    (IDEAL, 7, 1, 66974, 0, {
        1: 8290, 2: 8410, 3: 8356, 4: 8102, 5: 8448, 6: 8213, 8: 8291, 10: 8483,
        12: 8281, 16: 8289, 17: 8413, 20: 8468, 24: 8282, 32: 8264, 33: 8265,
        34: 8270, 40: 8446, 48: 8430,
    }),
    (LOSSY, 2**63 + 11, 2, 612, 5, {
        0: 121392, 1: 4564, 2: 4574, 3: 75, 4: 4605, 5: 90, 6: 77, 8: 4580,
        10: 57, 12: 85, 16: 4697, 17: 83, 20: 84, 24: 83, 32: 4643, 33: 73,
        34: 78, 40: 66, 48: 95,
    }),
    (LONG_HAUL, 7, 1, 0, 0, {
        0: 149572, 1: 80, 2: 65, 4: 67, 8: 72, 16: 66, 32: 79,
    }),
    (DARK_HEAVY, 2**63 + 11, 2, 14, 4, {
        0: 146141, 1: 621, 2: 635, 3: 2, 4: 624, 5: 1, 8: 628, 10: 1, 12: 3,
        16: 655, 17: 3, 18: 3, 20: 1, 24: 1, 32: 672, 33: 2, 34: 4, 36: 1,
        40: 1, 48: 2,
    }),
]


def test_kernel_tallies_are_pinned():
    for params, seed, threads, keeps, errors, counts in PINNED_TALLIES:
        est = run_trials(params, 150_001, seed=seed, threads=threads)
        expected = np.zeros(64, dtype=np.int64)
        expected[list(counts)] = list(counts.values())
        assert np.array_equal(est.mask_counts, expected), (params, seed)
        assert (est.keep_count, est.error_count) == (keeps, errors), (params, seed)


def test_integer_draw_tests_are_exact_at_their_edges():
    """The fallback's integer compares agree with comparing the unit draw
    k * 2**-53 as a float, at every boundary a draw can sit on."""
    top = 2**53
    tables = build_tables()
    cum = tables.outcome_cum.reshape(64, 64)
    for row in range(64):
        edges = {math.ceil(c * top) for c in cum[row].tolist()}
        ks = sorted(k for c in edges for k in (c - 1, c, c + 1) if 0 <= k < top)
        query = (np.uint64(row) << np.uint64(KEY_SHIFT)) | np.array(ks, dtype=np.uint64)
        from_keys = np.searchsorted(tables.pattern_keys, query, side="right") - 64 * row
        units = np.array(ks, dtype=np.float64) * 2.0**-53
        from_floats = (cum[row][None, :] <= units[:, None]).sum(axis=1)
        assert np.array_equal(from_keys, from_floats), row

    for p in (0.0, 2.0**-53, 3e-6, 0.015, np.nextafter(0.5, 0.0), 0.5, 1.0):
        t = int(_mc_fallback.threshold(p))
        for k in {t - 1, t, 0, top - 1}:
            if 0 <= k < top:
                assert (k < t) == (k * 2.0**-53 < p), (p, k)


def test_fallback_kernel_is_exact_on_boundary_draws(monkeypatch):
    """Feed both the numpy kernel and the float-comparing replay a stream
    in which every loss, pattern, dark and misalignment draw sits one
    below, on, or one above a threshold; they must still tally alike."""
    params = ChannelParams(eta_a=0.1, eta_b=0.7, p_dark=0.3, e_d=0.015)
    pattern_edges = build_tables().pattern_keys & np.uint64(2**KEY_SHIFT - 1)
    top = 2**53

    def edges(thresholds):
        ks = {k for t in thresholds for k in (t - 1, t, t + 1) if 0 <= k < top}
        return np.array(sorted(ks), dtype=np.uint64)

    def t(p):
        return int(_mc_fallback.threshold(p))

    choices = {
        _rng.DRAW_LOSS_A: edges([t(params.eta_a)]),
        _rng.DRAW_LOSS_B: edges([t(params.eta_b)]),
        _rng.DRAW_PATTERN: edges(pattern_edges.tolist()),
        _rng.DRAW_MISALIGN: edges([t(params.e_d)]),
    }
    for j in range(6):
        choices[_rng.DRAW_DARK_BASE + j] = edges([t(params.p_dark)])
    true_draws, true_draw = _rng.raw_draw_array, _rng.raw_draw

    def edge_draws(seed, counters):
        raw = true_draws(seed, counters)
        slot = counters % np.uint64(_rng.DRAWS_PER_TRIAL)
        for s, ks in choices.items():
            at = slot == s
            picked = ks[raw[at] % np.uint64(len(ks))]
            raw[at] = (picked << np.uint64(11)) | (raw[at] & np.uint64(0x7FF))
        return raw

    def edge_draw(seed, counter):
        raw = true_draw(seed, counter)
        ks = choices.get(counter % _rng.DRAWS_PER_TRIAL)
        if ks is None:
            return raw
        return (int(ks[raw % len(ks)]) << 11) | (raw & 0x7FF)

    monkeypatch.setattr(_rng, "raw_draw_array", edge_draws)
    monkeypatch.setattr(_rng, "raw_draw", edge_draw)
    est = run_trials(params, 10_000, seed=3)
    assert est.keep_count > 1_000 and est.error_count > 500
    assert_replay_matches(est, params, seed=3)


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
