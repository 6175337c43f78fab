"""Trial-level channel simulation: determinism, split ranges, physics checks."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsmdi import _mc_kernel, _mc_tables, _rng, checks, cli, montecarlo
from dpsmdi._mc_tables import (
    ACTION_KEEP,
    CODE_ERROR,
    CODE_KEEP,
    GUIDE_BITS,
    GUIDE_MISS,
    KEY_SHIFT,
    build_tables,
    keep_weights,
)
from dpsmdi.fock_optics import output_state
from dpsmdi.keyrate_asymptotic import (
    dps_reference_params,
    half_weight_qber,
    qber_asymptotic,
    yield_Y11,
)
from dpsmdi.montecarlo import ChannelParams, replay_trials, run_trials
from dpsmdi.protocol_sifting import Action

IDEAL = ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.0, e_d=0.0)
LOSSY = ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.015)
LONG_HAUL = ChannelParams.from_total_distance(200.0)
DARK_HEAVY = ChannelParams(eta_a=0.01, eta_b=0.01, p_dark=1e-3, e_d=0.015)
# no photon ever arrives, so every kept trial is kept by dark clicks alone;
# 43% of trials click, so the kernel compacts, and 88% on DARK_ONLY, so it
# draws for every trial
PHOTONLESS = ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.09, e_d=0.2)
DARK_ONLY = ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.3, e_d=0.2)
ONE_SIDE_ARRIVES = ChannelParams(eta_a=1.0, eta_b=0.3, p_dark=0.05, e_d=0.2)
# a trial clicks with probability 0.4989, just under _COMPACT_SHARE, so the
# kernel compacts where its batches of active trials are largest
JUST_COMPACT = ChannelParams(eta_a=0.29, eta_b=0.29, p_dark=1e-3, e_d=0.015)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(eta_a=1.2, eta_b=0.5, p_dark=0.0, e_d=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=-0.1, e_d=0.0)
    with pytest.raises(ValueError):
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.0, e_d=1.2)
    # from a nan f, secure_rate would report "no key" (R = 0) instead of failing
    for f in (0.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="f must be finite and >= 1"):
            ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.0, e_d=0.0, f=f)


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


def split_run(params, n_trials, seed, split):
    """run_trials' estimates from run_kernel over [0, split) and
    [split, n_trials), tallied apart and summed; run_trials' own where
    split is None."""
    if split is None:
        return run_trials(params, n_trials, seed)
    parts = [
        _mc_kernel.run_kernel(
            seed, start, stop - start,
            params.eta_a, params.eta_b, params.p_dark, params.e_d, build_tables(),
        )
        for start, stop in ((0, split), (split, n_trials))
    ]
    mask_counts, keeps, errors = (sum(column) for column in zip(*parts))
    return montecarlo.EmpiricalEstimates(n_trials, seed, mask_counts, keeps, errors)


def assert_same_tallies(first, second):
    assert first.n_trials == second.n_trials
    assert first.keep_count == second.keep_count
    assert first.error_count == second.error_count
    assert np.array_equal(first.mask_counts, second.mask_counts)


@pytest.mark.parametrize(
    "params", [LOSSY, DARK_HEAVY, IDEAL], ids=["lossy", "dark-heavy", "ideal"]
)
def test_kernel_split_ranges_sum_to_the_whole(params):
    """The stream is counter-based (Salmon et al., SC'11), so run_kernel
    over any split of the trial range sums to one range over the whole:
    split after the first trial, inside a chunk and at a chunk edge."""
    chunk = _mc_kernel._CHUNK
    n_trials = 2 * chunk + 5
    whole = run_trials(params, n_trials, seed=9)
    assert whole.keep_count > 0
    for split in (1, 1_000, chunk):
        assert_same_tallies(split_run(params, n_trials, 9, split), whole)


def test_available_backends_lists_python():
    # the shim the benchmark's backend gate still reads
    assert montecarlo.available_backends() == ("python",)
    assert montecarlo.COMPILED_AVAILABLE is False


def test_threads_keyword_changes_nothing():
    # run_trials takes threads only for perfbench's thread gate, which
    # compares threads=1 with threads=2; both run the one kernel call
    two = run_trials(LOSSY, 3_000, seed=5, threads=2)
    assert_same_tallies(two, run_trials(LOSSY, 3_000, seed=5))


def test_ideal_channel_statistics():
    """No loss, no darks: keep fraction is the sifted fraction 4/9,
    discards 2/9, and nothing ever errs."""
    est = run_trials(IDEAL, 200_000, seed=5)
    sigma = math.sqrt((4.0 / 9.0) * (5.0 / 9.0) / est.n_trials)
    assert abs(est.y11_hat - 4.0 / 9.0) < 3.0 * sigma
    assert est.error_count == 0
    values = {name: value for name, value, _ in est.rows()}
    discard, inconclusive = values["discard_fraction"], values["inconclusive_fraction"]
    sigma_d = math.sqrt((2.0 / 9.0) * (7.0 / 9.0) / est.n_trials)
    assert abs(discard - 2.0 / 9.0) < 3.0 * sigma_d
    assert est.y11_hat + discard + inconclusive == pytest.approx(1.0)


def test_lossy_channel_matches_analytic_forms():
    checks.mc_vs_analytic(LOSSY, 400_000, seed=31, sigmas=3.0)


def test_mc_check_compares_with_the_uncapped_error_fraction():
    """Past e_d = 1/2 most kept trials err: at e_d 0.8 the run reads about
    0.79 against an uncapped e_b - background / 2 of 0.80, while the
    entropy input half_weight_qber caps at 0.5, some 30 sigma away."""
    params = ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.8)
    e_b, background = qber_asymptotic(params)
    assert half_weight_qber(e_b, background) == 0.5 < e_b - 0.5 * background
    checks.mc_vs_analytic(params, 400_000, seed=31, sigmas=3.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(0.0, 1.0),
    share=st.floats(0.0, 1.0),
)
def test_binomial_tail_matches_the_exact_sum(n, p, share):
    # the mc check's tail on the count's side of the mean, against an exact
    # sum of the binomial terms: p = a / d, each term an integer over d**n
    count = round(share * n)
    a, d = p.as_integer_ratio()
    # the side is chosen in float64, as the check does: 95 * 0.8 rounds to 76
    sides = range(count, n + 1) if count >= n * p else range(count + 1)
    exact = Fraction(sum(math.comb(n, j) * a**j * (d - a) ** (n - j) for j in sides), d**n)
    tail = checks._binomial_tail(count, n, p)
    if exact < Fraction(1, 10**290):
        assert tail < 1e-280
    else:
        assert tail == pytest.approx(float(exact), rel=1e-11)


def test_binomial_tail_at_verify_sizes():
    # kept counts of the verify channel at 2M and 10^10 trials, against scipy
    p = yield_Y11(ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.015))
    for n in (2_000_000, 10**10):
        for z in (-5.0, -1.0, 0.0, 1.0, 5.0):
            count = round(n * p + z * math.sqrt(n * p * (1.0 - p)))
            above = count >= n * p
            expected = (scipy.stats.binom.sf(count - 1, n, p) if above
                        else scipy.stats.binom.cdf(count, n, p))
            assert checks._binomial_tail(count, n, p) == pytest.approx(expected, rel=1e-4)


def test_mc_check_fails_past_the_level():
    # 4 errors in 9 kept trials at an error probability of 0.015: P(>= 4) is
    # about 4e-6, below the 4-sigma level's 3.2e-5 a tail
    assert checks._binomial_tail(4, 9, 0.015) < 0.5 * math.erfc(4.0 / math.sqrt(2.0))
    with pytest.raises(checks.CheckFailure, match="error count 4 of 9"):
        checks._binomial_count(4, 9, 0.015, 4.0, "error count")
    # and no error at all where the probability is 0
    with pytest.raises(checks.CheckFailure, match="error count 1 of 9"):
        checks._binomial_count(1, 9, 0.0, 4.0, "error count")
    checks._binomial_count(0, 9, 0.0, 4.0, "error count")
    checks._binomial_count(9, 9, 1.0, 4.0, "error count")


def test_mc_check_passes_no_error_of_no_kept_trial():
    # 0 of 0 is the one outcome of binomial(0, p), at any p
    for p in (0.0, 0.015, 1.0):
        assert checks._binomial_tail(0, 0, p) == 1.0
        checks._binomial_count(0, 0, p, 4.0, "error count")


def exact_keep_and_error(params):
    """(P(keep), error fraction, mask law) the kernel samples, computed
    exactly from its tables: each setting's mask distribution from the loss
    cases and the differenced outcome_cum, dark clicks OR-ed in by a
    64 x 64 matrix, the keep weights of the sifting tables, misalignment
    flipping kept bits. The mask law is the (64,) probability of each final
    click mask, averaged over the 16 settings."""
    eta_a, eta_b, p = params.eta_a, params.eta_b, params.p_dark
    case_probs = np.array(
        [(1 - eta_a) * (1 - eta_b), (1 - eta_a) * eta_b, eta_a * (1 - eta_b), eta_a * eta_b]
    )  # case = 2 * (a arrived) + (b arrived)
    signal = np.einsum("c,scm->sm", case_probs, np.diff(build_tables().outcome_cum, prepend=0.0))
    # dark[m, n]: optical mask m becomes mask n, a superset, when the darks
    # fill exactly the bits of n outside m
    ones = np.array([bin(m).count("1") for m in range(64)])
    m, n = np.arange(64)[:, None], np.arange(64)[None, :]
    extra = np.maximum(ones[n] - ones[m], 0)
    dark = np.where(m & ~n == 0, p**extra * (1 - p) ** (6 - ones[n]), 0.0)
    per_setting = signal @ dark
    masks, weights = keep_weights()
    agree, disagree = (weights * per_setting[:, masks]).sum(axis=(1, 2))
    keep = agree + disagree
    error_fraction = ((1 - params.e_d) * disagree + params.e_d * agree) / keep
    return keep, error_fraction, per_setting.mean(axis=0)


def test_tables_expectation_matches_single_photon_closed_forms():
    """The kernel's exact expectation is the closed-form yield and the
    half-weight e_b (dark-assisted keeps err half the time) over the whole
    CLI range and random channels."""
    rng = np.random.default_rng(20261018)
    channels = [ChannelParams.from_total_distance(float(km)) for km in range(0, 501, 5)]
    for _ in range(200):
        eta_a, eta_b = rng.uniform(0.0, 1.0, size=2)
        p_dark, e_d = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.5)
        channels.append(ChannelParams(eta_a=eta_a, eta_b=eta_b, p_dark=p_dark, e_d=e_d))
    for params in channels:
        keep, error_fraction, _ = exact_keep_and_error(params)
        e_b, background = qber_asymptotic(params)
        assert keep == pytest.approx(yield_Y11(params), rel=1e-14), params
        assert error_fraction == pytest.approx(e_b - 0.5 * background, rel=1e-14), params


# the benchmark's four channels, and channels where dark clicks dominate,
# where one side always arrives, and where both sides mostly arrive
LAW_CHANNELS = {
    "ideal": IDEAL,
    "lossy": LOSSY,
    "200km": LONG_HAUL,
    "dark-heavy": DARK_HEAVY,
    "dark-only": DARK_ONLY,
    "one-side": ONE_SIDE_ARRIVES,
    "mixed": ChannelParams(eta_a=0.6, eta_b=0.7, p_dark=0.02, e_d=0.015),
}


@pytest.mark.parametrize("params", list(LAW_CHANNELS.values()), ids=list(LAW_CHANNELS))
def test_mask_frequencies_follow_the_exact_law(params):
    """The kernel and replay_trials decode the same draws, so a decoding
    error they shared would pass every replay test. Here run_trials' mask
    counts meet the exact law, built from the tables alone: a chi-square
    test over the masks expected at least 5 times (the rest pooled) at
    p >= 1e-4, each such mask within 4 sigma, and no count on a mask of
    probability 0. The kernel runs as two ranges split inside a chunk."""
    n_trials = 2**21 + 3
    est = split_run(params, n_trials, 61, split=n_trials // 2)
    law = exact_keep_and_error(params)[2]
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(est.mask_counts[law == 0.0] == 0)
    expected = n_trials * law
    frequent = expected >= 5.0
    counts = est.mask_counts[frequent]
    sigma = np.sqrt(expected[frequent] * (1.0 - law[frequent]))
    assert np.all(np.abs(counts - expected[frequent]) <= 4.0 * sigma)
    observed = np.append(counts, est.mask_counts[~frequent].sum())
    pooled = np.append(expected[frequent], expected[~frequent].sum())
    if pooled[-1] < 5.0:  # too rare a remainder to test on its own
        observed, pooled = observed[:-1], pooled[:-1]
        observed[0] += est.mask_counts[~frequent].sum()
        pooled[0] += expected[~frequent].sum()
    statistic = float(((observed - pooled) ** 2 / pooled).sum())
    assert scipy.stats.chi2.sf(statistic, observed.size - 1) >= 1e-4, statistic


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
    stderrs = {name: stderr for name, _, stderr in est.rows()}
    assert math.isnan(stderrs["e_b_hat"])
    assert est.mask_counts[0] == 5_000


@pytest.mark.parametrize("params", [IDEAL, DARK_ONLY], ids=["ideal", "dark-only"])
def test_fraction_rows_split_the_masks_twice(params):
    """Rerated on the trials of one mask alone, each mask that clicked
    fills exactly one row of each split: Y11, discard or inconclusive by
    action, and no click, one click, a conclusive pattern or other by
    clicks. The dark-only run clicks all 64 masks."""
    est = run_trials(params, 20_000, seed=4)
    kept = build_tables().action == ACTION_KEEP
    assert est.keep_count == est.mask_counts[kept].sum()
    by_action = {"y11_hat", "discard_fraction", "inconclusive_fraction"}
    for mask in np.flatnonzero(est.mask_counts):
        alone = np.zeros(64, dtype=np.int64)
        alone[mask] = est.mask_counts[mask]
        keeps = int(alone[mask]) if kept[mask] else 0
        rows = montecarlo.EmpiricalEstimates(est.n_trials, 4, alone, keeps, 0).rows()
        filled = [name for name, value, _ in rows if value > 0 and name != "e_b_hat"]
        assert len(filled) == 2 and len(by_action.intersection(filled)) == 1, (mask, filled)
    if params is DARK_ONLY:
        assert np.all(est.mask_counts > 0)


def replay_tallies(params, n_trials, seed):
    """(mask_counts, keeps, errors) aggregated from replay_trials' records."""
    mask_counts = np.zeros(64, dtype=np.int64)
    keeps = errors = 0
    for record in replay_trials(params, n_trials, seed=seed):
        mask_counts[record.mask] += 1
        if record.decision.action is Action.KEEP:
            keeps += 1
            errors += bool(record.error)
    return mask_counts, keeps, errors


def assert_replay_matches(est, params, seed, replayed=None):
    """Replaying est's trials one by one gives its tallies, mask by mask
    for all 64 masks."""
    mask_counts, keeps, errors = replayed or replay_tallies(params, est.n_trials, seed)
    assert np.array_equal(mask_counts, est.mask_counts)
    assert keeps == est.keep_count
    assert errors == est.error_count


def test_replay_matches_kernel_tallies():
    """The pure-Python per-trial replay consumes the same draw stream as
    the batch kernel and must reproduce the tallies event for event, in
    one range or split in two."""
    for params in (LOSSY, DARK_HEAVY):
        replayed = replay_tallies(params, 30_000, seed=41)
        for est in (run_trials(params, 30_000, seed=41), split_run(params, 30_000, 41, 15_000)):
            assert_replay_matches(est, params, 41, replayed)


def test_replay_matches_kernel_where_draws_are_fixed():
    """The kernel computes no draw whose test has threshold 0 or 2**53
    (probability 0 or 1); the replay draws them all, and the two must
    still tally alike, in one range or split in two."""
    always_flip = ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.0, e_d=1.0)
    for params in (
        ChannelParams(eta_a=1.0, eta_b=0.0, p_dark=0.0, e_d=1.0),
        ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.5, e_d=0.0),
        # almost every trial has a dark click: each no-dark fate is one unit
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.999, e_d=0.0),
        # the same where few photons arrive, and never from b
        ChannelParams(eta_a=0.1, eta_b=0.0, p_dark=0.999, e_d=0.0),
        # each dark fate is below one unit, so the fate is fixed and not drawn
        ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=2.0**-60, e_d=0.3),
        # dark-assisted keeps err before misalignment; e_d 0 or 1 leaves
        # their errors to be counted from the codes alone
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.05, e_d=0.0),
        ChannelParams(eta_a=0.5, eta_b=0.5, p_dark=0.05, e_d=1.0),
        always_flip,
        IDEAL,
    ):
        replayed = replay_tallies(params, 8_000, seed=17)
        for est in (run_trials(params, 8_000, seed=17), split_run(params, 8_000, 17, 4_000)):
            assert_replay_matches(est, params, 17, replayed)
    flipped = run_trials(always_flip, 8_000, seed=17)
    assert flipped.error_count == flipped.keep_count > 3_000


# a transmissivity or misalignment is drawn as an exact 0 or 1 half the time
UNIT_OR_EDGE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    eta_a=UNIT_OR_EDGE,
    eta_b=UNIT_OR_EDGE,
    p_dark=st.floats(0.0, 0.999),
    e_d=UNIT_OR_EDGE,
    seed=st.integers(0, 2**64 - 1),
)
def test_kernel_tallies_equal_the_replay_on_any_channel(eta_a, eta_b, p_dark, e_d, seed):
    """On any channel, both kernel paths, fixed fates and misalignment of
    0 or 1 included, tally as the replay does, in one range and split in
    two at trial 1,000, inside the first chunk."""
    params = ChannelParams(eta_a=eta_a, eta_b=eta_b, p_dark=p_dark, e_d=e_d)
    replayed = replay_tallies(params, 2_001, seed)
    for est in (run_trials(params, 2_001, seed=seed), split_run(params, 2_001, seed, 1_000)):
        assert_replay_matches(est, params, seed, replayed)


def small_chunks(monkeypatch):
    """Chunks of 64 trials and a flush of the sparse stage once 64 active
    trials are pending: 2,001 trials cross 32 chunks and, where many trials
    click, several flushes."""
    monkeypatch.setattr(_mc_kernel, "_CHUNK", 64)
    monkeypatch.setattr(_mc_kernel, "_FLUSH", 64)


def trial_index(z, seed):
    """The trial of each first state z = stretch(seed, 11 * trial)."""
    return draw_counter(z, seed) // np.uint64(_rng.DRAWS_PER_TRIAL)


def record_batches(monkeypatch, seed):
    """The trial indices of each batch _sparse_stage receives, as a list
    that fills as the kernel runs."""
    batches = []
    true_stage = _mc_kernel._sparse_stage

    def recording(ch, z, raw):
        batches.append(trial_index(z, seed))
        return true_stage(ch, z, raw)

    monkeypatch.setattr(_mc_kernel, "_sparse_stage", recording)
    return batches


def test_just_compact_channel_clicks_just_under_the_share():
    t_quiet = int(_mc_kernel.fate_tables(
        JUST_COMPACT.eta_a, JUST_COMPACT.eta_b, JUST_COMPACT.p_dark
    )[0][0])
    assert 0.49 < 1.0 - t_quiet * 2.0**-53 <= _mc_kernel._COMPACT_SHARE


@pytest.mark.parametrize(
    "params",
    [LOSSY, PHOTONLESS, JUST_COMPACT, ONE_SIDE_ARRIVES, IDEAL],
    ids=["lossy", "photonless", "just-compact", "one-side", "ideal"],
)
def test_kernel_split_ranges_sum_to_the_whole_across_small_chunks(monkeypatch, params):
    """With chunks and flushes of 64 trials, 2,001 trials tally alike in
    one range and split after the first trial, inside a chunk, at a chunk
    edge and at the chunk edge where the one range first flushes."""
    small_chunks(monkeypatch)
    n_trials, seed = 2_001, 9
    batches = record_batches(monkeypatch, seed)
    whole = run_trials(params, n_trials, seed=seed)
    assert whole.keep_count > 0
    splits = [1, 1_000, 64]
    if params is IDEAL or params is ONE_SIDE_ARRIVES:  # every trial draws, per chunk
        assert batches == []
    else:
        assert len(batches) > 3
        # a flush runs at the end of the chunk that holds its last trial
        first_flush = (int(batches[0].max()) // 64 + 1) * 64
        assert int(batches[1].min()) >= first_flush
        splits.append(first_flush)
    for split in splits:
        assert_same_tallies(split_run(params, n_trials, seed, split), whole)


@settings(max_examples=40, deadline=None)
@given(
    eta_a=UNIT_OR_EDGE,
    eta_b=UNIT_OR_EDGE,
    p_dark=st.floats(0.0, 0.999),
    e_d=UNIT_OR_EDGE,
    seed=st.integers(0, 2**64 - 1),
)
@example(
    eta_a=JUST_COMPACT.eta_a, eta_b=JUST_COMPACT.eta_b, p_dark=JUST_COMPACT.p_dark,
    e_d=JUST_COMPACT.e_d, seed=5,
)
def test_kernel_tallies_equal_the_replay_across_small_chunks(eta_a, eta_b, p_dark, e_d, seed):
    """As on any channel above, with chunks and flushes of 64 trials, so
    that a range's active trials reach the sparse stage in several
    batches, each gathered from several chunks where few trials click."""
    params = ChannelParams(eta_a=eta_a, eta_b=eta_b, p_dark=p_dark, e_d=e_d)
    replayed = replay_tallies(params, 2_001, seed)
    with pytest.MonkeyPatch.context() as patch:
        small_chunks(patch)
        for est in (run_trials(params, 2_001, seed=seed), split_run(params, 2_001, seed, 1_000)):
            assert_replay_matches(est, params, seed, replayed)


@pytest.mark.parametrize("params", [LONG_HAUL, JUST_COMPACT], ids=["long-haul", "just-compact"])
def test_sparse_stage_batches_stay_bounded(monkeypatch, params):
    """The sparse stage runs once _FLUSH active trials are pending, so at
    10^7 trials it holds at most _FLUSH less one plus a chunk's active
    trials, under half a chunk where the kernel compacts. At 200 km a batch
    gathers some 80 chunks' active trials; just under the share each chunk
    flushes its own."""
    batches = record_batches(monkeypatch, seed=13)
    run_trials(params, 10**7, seed=13)
    largest = max(batch.size for batch in batches)
    assert largest <= _mc_kernel._FLUSH + _mc_kernel._CHUNK // 2
    # and only the range's end flushes fewer
    assert all(batch.size >= _mc_kernel._FLUSH for batch in batches[:-1])
    assert sum(batch.size for batch in batches) > 0.002 * 10**7


# More than a chunk, in one range and split in two at trial 20,000, inside
# the first chunk of the one range.
@pytest.mark.parametrize("split", [None, 20_000], ids=["whole", "split"])
@pytest.mark.parametrize(
    "params",
    [PHOTONLESS, DARK_ONLY, ONE_SIDE_ARRIVES],
    ids=["photonless", "dark-only", "one-side"],
)
def test_replay_matches_kernel_on_photonless_keeps_and_one_sided_arrival(params, split):
    """A trial with no arrival draws its setting only once it is kept,
    where few trials click; where most click, or a side always arrives,
    every trial draws. Each tallies as the replay does, which draws every
    setting."""
    est = split_run(params, 40_001, 23, split)
    assert est.keep_count > 1_500 and est.error_count > 500
    assert_replay_matches(est, params, seed=23)


def draw_counter(z, seed):
    """The counter of each stretched state z = seed + (counter + 1) * GOLDEN:
    GOLDEN is odd, so its inverse mod 2**64 recovers it."""
    golden_inverse = np.uint64(pow(_rng.GOLDEN, -1, 2**64))
    return (z - np.uint64(_rng.stretch(seed, 0))) * golden_inverse


def trial_slot(z, seed):
    """The trial slot of each stretched state z that the kernel hands
    _rng.mix_array."""
    return draw_counter(z, seed) % np.uint64(_rng.DRAWS_PER_TRIAL)


@pytest.mark.parametrize(
    "params", [LONG_HAUL, PHOTONLESS, DARK_ONLY], ids=["long-haul", "photonless", "dark-only"]
)
def test_kernel_draws_setting_and_pattern_only_where_needed(monkeypatch, params):
    """The work the kernel skips, pinned as a count of draws: where few
    trials click, a pattern draw for each trial with an arrival, and a
    setting draw for those and for each kept trial with none; where most
    click, one of each for every trial."""
    n_trials, seed = 40_001, 29
    counts = np.zeros(_rng.DRAWS_PER_TRIAL, dtype=np.int64)
    true_mix = _rng.mix_array

    def counting(z):
        counts[:] += np.bincount(trial_slot(z, seed).astype(np.intp), minlength=counts.size)
        return true_mix(z)

    monkeypatch.setattr(_rng, "mix_array", counting)
    est = run_trials(params, n_trials, seed=seed)
    arrivals = photonless_kept = 0
    for record in replay_trials(params, n_trials, seed=seed):
        if any(record.loss_pattern):
            arrivals += 1
        elif record.decision.action is Action.KEEP:
            photonless_kept += 1
    if params is DARK_ONLY:
        assert counts[_rng.DRAW_PATTERN] == counts[_rng.DRAW_SETTING] == n_trials
        return
    assert counts[_rng.DRAW_PATTERN] == arrivals
    assert counts[_rng.DRAW_SETTING] == arrivals + photonless_kept
    assert est.keep_count >= photonless_kept
    if params is LONG_HAUL:
        assert 0 < arrivals < 0.05 * n_trials
    else:
        assert arrivals == 0 and photonless_kept == est.keep_count > 1_500


# Tallies recorded from replay_trials, which compares unit draws with
# probabilities as floats and scans cumulative rows; the integer kernel must
# reproduce them. 150,001 trials is no multiple of a chunk, and a split
# range starts its second part at trial 75,000, inside a chunk. Masks
# with three clicks, which the replay records by mask alone, without an
# outcome, would show here too. The IDEAL entry makes no fate draw and has
# stayed as it was since before the fate draw.
PINNED_TALLIES = [
    # (channel, seed, split or None, keeps, errors, {mask: count})
    (IDEAL, 7, None, 66974, 0, {
        1: 8290, 2: 8410, 3: 8356, 4: 8102, 5: 8448, 6: 8213, 8: 8291, 10: 8483,
        12: 8281, 16: 8289, 17: 8413, 20: 8468, 24: 8282, 32: 8264, 33: 8265,
        34: 8270, 40: 8446, 48: 8430,
    }),
    (LOSSY, 2**63 + 11, 75_000, 657, 6, {
        0: 121506, 1: 4567, 2: 4602, 3: 89, 4: 4586, 5: 76, 6: 89, 8: 4586,
        10: 96, 12: 64, 16: 4575, 17: 77, 20: 91, 24: 79, 32: 4587, 33: 79,
        34: 81, 40: 97, 48: 74,
    }),
    (LONG_HAUL, 7, None, 0, 0, {
        0: 149573, 1: 73, 2: 56, 4: 86, 8: 72, 16: 73, 32: 68,
    }),
    (DARK_HEAVY, 2**63 + 11, 75_000, 15, 5, {
        0: 146157, 1: 656, 2: 599, 3: 3, 4: 624, 5: 1, 6: 4, 8: 618, 12: 2,
        16: 682, 17: 2, 18: 1, 20: 1, 24: 3, 32: 637, 33: 3, 34: 1, 36: 3,
        40: 1, 48: 3,
    }),
]


def test_kernel_tallies_are_pinned():
    for params, seed, split, keeps, errors, counts in PINNED_TALLIES:
        est = split_run(params, 150_001, seed, split)
        expected = np.zeros(64, dtype=np.int64)
        expected[list(counts)] = list(counts.values())
        assert np.array_equal(est.mask_counts, expected), (params, seed)
        assert (est.keep_count, est.error_count) == (keeps, errors), (params, seed)


# dark-count probabilities from dark fates of at most one unit of 2**-53
# each to no-dark fates of one unit each
DARK_PROBABILITIES = (2.0**-60, 3e-6, 1e-3, 0.3, 0.999)
# transmissivities with both sides, one side and no side always arriving
ETA_PAIRS = ((0.1, 0.1), (1.0, 0.3), (0.6, 0.7), (0.0, 0.0))


def exact_fate_law(eta_a, eta_b, p_dark):
    """The 28 fate probabilities P(case) P(j) as Fractions, in fate order
    4 * (j + 1) + case."""
    a, b, p = Fraction(eta_a), Fraction(eta_b), Fraction(p_dark)
    cases = ((1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b)
    first_dark = [(1 - p) ** 6] + [(1 - p) ** j * p for j in range(6)]
    return [case * dark for dark in first_dark for case in cases]


def test_fate_table_is_the_law_of_losses_and_first_dark_bin():
    """The fate thresholds never decrease and end at 2**53, and each fate's
    width lies within one unit of 2**-53 of P(case) P(j)."""
    top = 2**53
    for eta_a, eta_b in ETA_PAIRS + ((1.0, 1.0), (1e-3, 0.5)):
        for p in (0.0,) + DARK_PROBABILITIES:
            t_fate, _ = _mc_kernel.fate_tables(eta_a, eta_b, p)
            t = [0] + t_fate.tolist()
            assert t == sorted(t) and t[-1] == top, (eta_a, eta_b, p)
            for f, exact in enumerate(exact_fate_law(eta_a, eta_b, p)):
                width = Fraction(t[f + 1] - t[f], top)
                assert abs(width - exact) < Fraction(1, top), (eta_a, eta_b, p, f)
                # a fate of probability 0 is never drawn
                assert exact > 0 or width == 0, (eta_a, eta_b, p, f)


@pytest.mark.parametrize(
    "params, fate_draws",
    [
        (IDEAL, 0),
        (ChannelParams(eta_a=1.0, eta_b=0.0, p_dark=0.0, e_d=0.5), 0),
        (ChannelParams(eta_a=0.0, eta_b=0.0, p_dark=0.0, e_d=0.5), 0),
        (LOSSY, 40_001),
        (DARK_ONLY, 40_001),
    ],
    ids=["ideal", "a-only", "silent", "lossy", "dark-only"],
)
def test_fixed_fate_makes_no_fate_draw(monkeypatch, params, fate_draws):
    """A channel whose fate is fixed (each transmissivity 0 or 1, no dark
    counts) makes no fate draw; any other makes one per trial. No trial
    draws at the retired slots 2 and 4."""
    n_trials, seed = 40_001, 31
    counts = np.zeros(_rng.DRAWS_PER_TRIAL, dtype=np.int64)
    true_mix = _rng.mix_array

    def counting(z):
        counts[:] += np.bincount(trial_slot(z, seed).astype(np.intp), minlength=counts.size)
        return true_mix(z)

    monkeypatch.setattr(_rng, "mix_array", counting)
    run_trials(params, n_trials, seed=seed)
    assert counts[_rng.DRAW_FATE] == fate_draws
    assert counts[2] == counts[4] == 0


def test_integer_draw_tests_are_exact_at_their_edges():
    """The kernel's integer compares agree with comparing the unit draw
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
        t = int(_mc_kernel.threshold(p))
        for k in {t - 1, t, 0, top - 1}:
            if 0 <= k < top:
                assert (k < t) == (k * 2.0**-53 < p), (p, k)

    # the fate: the kernel's guide and binary search of the T(c_f) against
    # the replay's scan of the c_f, on both sides of each T(c_f) and of the
    # edges of the bucket that holds it, with the 11 bits below k all 0 or 1
    shift = 53 - _mc_kernel._FATE_BITS
    for p in DARK_PROBABILITIES:
        for eta_a, eta_b in ETA_PAIRS:
            cum = _rng.fate_cum(eta_a, eta_b, p)
            t_fate, guide = _mc_kernel.fate_tables(eta_a, eta_b, p)
            assert t_fate.tolist() == [_mc_kernel.threshold(c) for c in cum]
            edges = {e for t in t_fate.tolist() for e in (t, t >> shift << shift)}
            edges |= {((t >> shift) + 1) << shift for t in t_fate.tolist()}
            ks = sorted({k for e in edges for k in (e - 1, e, e + 1) if 0 <= k < top})
            raw = np.array(ks, dtype=np.uint64) << np.uint64(11)
            for low in (0, 0x7FF):
                from_ints = _mc_kernel.fates(raw | np.uint64(low), t_fate, guide)
                for k, f in zip(ks, from_ints.tolist()):
                    scan = 0
                    while k * 2.0**-53 >= cum[scan]:
                        scan += 1
                    assert f == scan, (p, eta_a, eta_b, k)
    # where a dark click is a fate of less than one unit, the fate is fixed
    assert _rng.fate_cum(1.0, 1.0, 2.0**-60)[3] == 1.0
    # where every bin is almost surely dark, no dark click keeps one unit
    assert _rng.fate_cum(0.0, 0.0, 0.999)[0] == 2.0**-53


def test_dark_mask_law_from_the_integer_thresholds():
    """The fate draw keeps the two losses and the six bins independent:
    each probability of an arrival case and a dark mask, exact from the
    kernel's thresholds (the fate from the T(c_f), each later bin from
    T(p)), lies within 2**-52 of P(case) p**k (1 - p)**(6 - k) for a mask
    of k bins."""
    top = 2**53
    for eta_a, eta_b in ETA_PAIRS:
        a, b = Fraction(eta_a), Fraction(eta_b)
        cases = ((1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b)
        for p in DARK_PROBABILITIES:
            t_fate = [0] + _mc_kernel.fate_tables(eta_a, eta_b, p)[0].tolist()
            t_p = _mc_kernel.threshold(p)
            for mask in range(64):
                k = bin(mask).count("1")
                dark = Fraction(p) ** k * (1 - Fraction(p)) ** (6 - k)
                j = (mask & -mask).bit_length() - 1  # -1 for mask 0
                later = Fraction(1)
                for bit in range(j + 1, 6) if mask else ():
                    later *= Fraction(t_p if mask >> bit & 1 else top - t_p, top)
                for case in range(4):
                    f = 4 * (j + 1) + case
                    drawn = Fraction(t_fate[f + 1] - t_fate[f], top) * later
                    assert abs(drawn - cases[case] * dark) <= Fraction(1, 2**52), (
                        eta_a, eta_b, p, case, mask,
                    )


def guided_masks(tables):
    """The code guide's masks, code_guide & 63, and GUIDE_MISS where it
    misses: no code is GUIDE_MISS, as mask 63 is never kept."""
    guide = tables.code_guide
    return np.where(guide == GUIDE_MISS, GUIDE_MISS, guide & 63).astype(np.uint8)


def test_pattern_guide_is_exact():
    """Each bucket entry is the mask every draw of its bucket selects, and a
    bucket is left to the binary search only when it holds a boundary."""
    tables = build_tables()
    keys, guide = tables.pattern_keys, guided_masks(tables)
    assert guide.shape == (64, 2**GUIDE_BITS) and guide.dtype == np.uint8
    width = 2 ** (53 - GUIDE_BITS)  # draws k per bucket
    firsts = np.arange(2**GUIDE_BITS, dtype=np.uint64) * np.uint64(width)
    lasts = firsts + np.uint64(width - 1)
    for row in range(64):
        prefix = np.uint64(row) << np.uint64(KEY_SHIFT)
        at_first = np.searchsorted(keys, prefix | firsts, side="right") - 64 * row
        at_last = np.searchsorted(keys, prefix | lasts, side="right") - 64 * row
        hit = guide[row] != GUIDE_MISS
        assert np.array_equal(guide[row][hit], at_first[hit]), row
        assert np.array_equal(guide[row][hit], at_last[hit]), row
        bounds = keys[64 * row : 64 * row + 64] & np.uint64(2**KEY_SHIFT - 1)
        for b in np.flatnonzero(~hit):
            assert np.any((firsts[b] < bounds) & (bounds <= lasts[b])), (row, b)
    # the premise of the lookup: few draws go to the binary search
    assert np.count_nonzero(guide == GUIDE_MISS) < 0.01 * guide.size


def test_codes_pack_mask_keep_and_base_error():
    """Each code holds its mask, the Keep bit and the base error; the code
    guide holds the code of each bucket's guided mask under the row's
    setting."""
    tables = build_tables()
    masks = np.arange(64)
    for s in range(16):
        code = tables.codes[s].astype(np.int64)
        assert np.array_equal(code & 63, masks)
        assert np.array_equal(code & CODE_KEEP != 0, tables.action == ACTION_KEEP)
        assert np.array_equal(code & CODE_ERROR != 0, tables.base_error[s] != 0)
    # so a guide entry is GUIDE_MISS only where it misses
    assert not np.any(tables.codes == GUIDE_MISS)
    guide = guided_masks(tables)
    miss = guide == GUIDE_MISS
    settings = np.arange(64).reshape(64, 1) >> 2 | np.zeros_like(guide)
    guided = tables.codes[settings[~miss], guide[~miss]]
    assert np.array_equal(tables.code_guide[~miss], guided)


# sha256 over the C-order bytes of build_tables()'s first four arrays in
# field order, the guided masks and bin_amplitudes, then of keep_weights()'s
# masks and weights
TABLES_SHA256 = "ec651b737d0349ebb1d9bbdb242fa7faae0e1b357c493fa98b0469a817f59083"


def test_relay_tables_are_pinned():
    """The tables that the kernel, the replay and the quadrature oracle read
    stay bit-identical to those the pinned tallies and CSVs came from."""
    tables = build_tables()
    digest = hashlib.sha256()
    for array in (
        tables.outcome_cum,
        tables.action,
        tables.base_error,
        tables.pattern_keys,
        guided_masks(tables),
        tables.bin_amplitudes,
        *keep_weights(),
    ):
        digest.update(array.tobytes(order="C"))
    assert digest.hexdigest() == TABLES_SHA256


def test_tables_reject_a_distribution_that_does_not_sum_to_1(monkeypatch):
    # two-photon amplitudes scaled by 1.1 carry probability 1.21; the
    # uncached build leaves the cached tables as they were
    cached = build_tables()

    def scaled(setting):
        state = output_state(setting)
        return dataclasses.replace(
            state, amplitudes={p: 1.1 * a for p, a in state.amplitudes.items()}
        )

    monkeypatch.setattr(_mc_tables, "output_state", scaled)
    with pytest.raises(AssertionError, match="mask distribution does not sum to 1"):
        build_tables.__wrapped__()
    assert build_tables() is cached


def test_kernel_is_exact_on_boundary_draws(monkeypatch):
    """Feed both the numpy kernel and the float-comparing replay a stream
    in which every fate, pattern, dark and misalignment draw sits one
    below, on, or one above a threshold (the fate draw one of the 28
    T(c_f)), and fate and pattern draws also on either side of a bucket
    edge. The 11 bits below k are all 0 or all 1, the raw draws on either
    side of the kernel's raw < T << 11. The two must still tally alike.

    At eta_b 0.7 a trial clicks with probability 0.97 and the kernel
    draws for every trial; at eta_b 0 and p_dark 0.05 with probability
    0.34, and it draws for the trials with an arrival alone."""
    seed = 3
    pattern_edges = (build_tables().pattern_keys & np.uint64(2**KEY_SHIFT - 1)).tolist()
    # the edges of the bucket that holds each boundary: where a draw read
    # from a neighbouring bucket would select another mask
    shift = 53 - GUIDE_BITS
    bucket_edges = [((c >> shift) + up) << shift for c in pattern_edges for up in (0, 1)]
    top = 2**53

    def edges(thresholds):
        ks = {k for t in thresholds for k in (t - 1, t, t + 1) if 0 <= k < top}
        return np.array(sorted(ks), dtype=np.uint64)

    def t(p):
        return int(_mc_kernel.threshold(p))

    true_mix, true_draw = _rng.mix_array, _rng.raw_draw
    for eta_b, p_dark in ((0.7, 0.3), (0.0, 0.05)):
        params = ChannelParams(eta_a=0.1, eta_b=eta_b, p_dark=p_dark, e_d=0.015)
        fate_edges = [t(c) for c in _rng.fate_cum(params.eta_a, params.eta_b, params.p_dark)]
        fate_shift = 53 - _mc_kernel._FATE_BITS
        fate_edges += [((c >> fate_shift) + up) << fate_shift for c in fate_edges for up in (0, 1)]
        choices = {
            _rng.DRAW_FATE: edges(fate_edges),
            _rng.DRAW_PATTERN: edges(pattern_edges + bucket_edges),
            _rng.DRAW_MISALIGN: edges([t(params.e_d)]),
        }
        for b in range(1, 6):
            choices[_rng.DRAW_DARK_BASE + b] = edges([t(params.p_dark)])

        def edge_draws(z):
            slot = trial_slot(z, seed)
            raw = true_mix(z)
            for s, ks in choices.items():
                at = slot == s
                picked = ks[raw[at] % np.uint64(len(ks))]
                raw[at] = (picked << np.uint64(11)) | (raw[at] >> np.uint64(63)) * np.uint64(0x7FF)
            return raw

        def edge_draw(seed, counter):
            raw = true_draw(seed, counter)
            ks = choices.get(counter % _rng.DRAWS_PER_TRIAL)
            if ks is None:
                return raw
            return (int(ks[raw % len(ks)]) << 11) | (raw >> 63) * 0x7FF

        monkeypatch.setattr(_rng, "mix_array", edge_draws)
        monkeypatch.setattr(_rng, "raw_draw", edge_draw)
        replayed = replay_tallies(params, 10_000, seed)
        for est in (run_trials(params, 10_000, seed=seed), split_run(params, 10_000, seed, 5_000)):
            assert est.keep_count > 1_000 and est.error_count > 500, eta_b
            assert_replay_matches(est, params, seed, replayed)


def test_replay_record_invariants():
    keeps = set()
    for record in replay_trials(LOSSY, 2_000, seed=13):
        keeps.add(record.error is not None)
        assert (record.error is None) == (record.decision.action is not Action.KEEP)
        arrived_a, arrived_b = record.loss_pattern
        assert isinstance(arrived_a, bool) and isinstance(arrived_b, bool)
        if record.outcome is not None and len(record.outcome.clicks) < 2:
            assert record.decision.action is Action.INCONCLUSIVE
        # the full mask holds the dark clicks; only crowded masks lack an outcome
        assert record.mask | record.dark_mask == record.mask
        if record.outcome is None:
            assert bin(record.mask).count("1") > 2
        else:
            assert record.outcome.mask == record.mask
        # an error that contradicts the decision makes no record
        with pytest.raises(ValueError, match="exactly for Keep decisions"):
            dataclasses.replace(record, error=None if record.error is not None else False)
    assert keeps == {False, True}


def test_replay_start_offset_is_consistent():
    full = list(replay_trials(LOSSY, 200, seed=8))
    tail = list(replay_trials(LOSSY, 100, seed=8, start_trial=100))
    for a, b in zip(full[100:], tail):
        assert a.trial_index == b.trial_index
        assert a.decision == b.decision
        assert a.outcome == b.outcome


def test_estimates_csv_shape(capsys):
    # the cli prints the estimates' CSV, on the default config's channel
    args = ["montecarlo", "--n-trials", "10000", "--seed", "55"]
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "name,value,stderr,n_trials,seed"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "y11_hat" in names and "e_b_hat" in names
    assert "freq_no_click" in names
    for line in lines[1:]:
        assert line.endswith(",10000,55")
    assert cli.main(args) == 0
    assert capsys.readouterr().out == text


def test_run_trials_input_validation():
    with pytest.raises(ValueError):
        run_trials(LOSSY, 0, seed=1)
    with pytest.raises(ValueError):
        run_trials(LOSSY, 10, seed=-1)


@pytest.mark.parametrize(
    "n_trials, seed, start_trial, message",
    [
        (0, 3, 0, "n_trials must be at least 1"),
        (-1, 3, 0, "n_trials must be at least 1"),
        (3, -1, 0, "seed must fit in 64 bits"),
        (3, 2**64, 0, "seed must fit in 64 bits"),
        (3, 3, -1, "start_trial must be non-negative"),
    ],
    ids=["no-trial", "negative-trials", "negative-seed", "seed-2**64", "negative-start"],
)
def test_replay_rejects_what_run_trials_rejects(n_trials, seed, start_trial, message):
    # the replay raises before its first record, as run_trials does before
    # it draws; a seed of -1 or 2**64 would wrap to another seed's stream
    with pytest.raises(ValueError, match=message):
        next(replay_trials(LOSSY, n_trials, seed, start_trial))
    if start_trial == 0:
        with pytest.raises(ValueError, match=message):
            run_trials(LOSSY, n_trials, seed)
