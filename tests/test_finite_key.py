"""Finite-block corrections, budget constraints, and the deterministic optimizer."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dpsmdi import finite_key
from dpsmdi.finite_key import (
    ConstraintError,
    FiniteKeyBudget,
    FiniteKeyOptimum,
    SecurityParams,
    finite_key_sweep,
    finite_rate,
    optimize_rate,
    sweep_to_csv,
)

SEC = SecurityParams(epsilon=1e-5, epsilon_EC=1e-10, eps_bar=2.5e-6, eps_bar_prime=1.25e-7)


# Oracle: the finite rate of Scarani & Renner, PRL 100, 200501 (2008), and
# Cai & Scarani, NJP 11, 045024 (2009), one scalar at a time with the math
# module, written apart from the package's array formula.
def h(x):
    return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def oracle_xi(k, eps_bar_prime):
    """Broadening of an error rate estimated from k samples, over 9 outcomes."""
    return math.sqrt((2.0 * math.log(1.0 / eps_bar_prime) + 9 * math.log(k + 1.0)) / k)


def oracle_delta(n, sec):
    """Smoothing and correctness penalty in bits."""
    slack = sec.epsilon - sec.eps_bar - sec.epsilon_EC
    spread = sec.eps_bar - sec.eps_bar_prime
    return 2.0 * math.log2(1.0 / (2.0 * slack)) + 7.0 * math.sqrt(n * math.log2(2.0 / spread))


def oracle_entropy(e_b, n, m, sec):
    """Entropy bound per raw-key bit; 0 once a broadened error rate passes 1/2."""
    eb_tilde = e_b + oracle_xi(n, sec.eps_bar_prime)
    ep_tilde = e_b + oracle_xi(m, sec.eps_bar_prime)  # e_p = e_b
    if eb_tilde > 0.5 or ep_tilde > 0.5:
        return 0.0
    return 1.0 - h(eb_tilde) - h(ep_tilde)


def oracle_rate(budget, sec, e_b):
    """Unclamped (n/N)(entropy - (1.2 h(e_b) n + delta)/n)."""
    n = budget.n
    leak = 1.2 * h(e_b) * n
    entropy = oracle_entropy(e_b, n, budget.m, sec)
    return (n / budget.N_signals) * (entropy - (leak + oracle_delta(n, sec)) / n)


def asymptotic_ceiling(e_b):
    """Oracle: large-block limit of the finite rate, (4/9)(1 - 2 h(e_b) - 1.2 h(e_b))."""
    return (4.0 / 9.0) * max(0.0, 1.0 - 2.0 * h(e_b) - 1.2 * h(e_b))


def unclamped(budget, sec, e_b):
    """The package formula at one point, before finite_rate clamps it at 0."""
    return float(
        finite_key._rates(
            budget.N_signals, e_b, sec.epsilon, sec.epsilon_EC,
            budget.n, budget.m, sec.eps_bar, sec.eps_bar_prime,
        )
    )


def test_broadening_reference_value():
    value = oracle_xi(1e6, 1e-6)
    assert value == pytest.approx(0.0123276366404, abs=1e-10)
    # headline rounding of the same number
    assert value == pytest.approx(0.0123, abs=5e-5)
    # n = m = 1e6 at eps_bar' = 1e-6 broadens both error rates by that value
    sec = SecurityParams(1e-5, 1e-10, 5e-6, 1e-6)
    budget = FiniteKeyBudget(10**7, 10**6, 10**6)
    rate = finite_rate(budget, sec, 0.01)
    assert rate > 0.0
    assert rate == pytest.approx(oracle_rate(budget, sec, 0.01), rel=1e-12)


def test_broadening_monotonicity_and_rejections():
    assert oracle_xi(1e6, 1e-6) < oracle_xi(1e4, 1e-6)
    assert oracle_xi(1e6, 1e-9) > oracle_xi(1e6, 1e-6)
    # more estimation samples broaden e_p less; a smaller eps_bar' broadens both more
    n = 10**6
    few = finite_rate(FiniteKeyBudget(10**7, n, 10**4), SEC, 0.01)
    many = finite_rate(FiniteKeyBudget(10**7, n, 10**6), SEC, 0.01)
    assert 0.0 < few < many
    tight = SecurityParams(1e-5, 1e-10, 2.5e-6, 1e-12)
    assert finite_rate(FiniteKeyBudget(10**7, n, 10**6), tight, 0.01) < many
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(10**7, n, 0.5)
    with pytest.raises(ConstraintError, match="eps_bar_prime > 0"):
        SecurityParams(1e-5, 1e-10, 1e-7, 0.0)
    with pytest.raises(ConstraintError, match="eps_bar_prime > 0"):
        SecurityParams(1e-5, 1e-10, 1e-7, -1e-6)


def test_security_params_constraint_chain():
    with pytest.raises(ConstraintError, match="epsilon must be positive"):
        SecurityParams(0.0, 0.0, 1e-7, 1e-8)
    with pytest.raises(ConstraintError, match="non-negative"):
        SecurityParams(1e-5, -1e-9, 1e-7, 1e-8)
    with pytest.raises(ConstraintError, match="epsilon - epsilon_EC > eps_bar"):
        SecurityParams(1e-5, 1e-10, 1e-5, 1e-8)
    with pytest.raises(ConstraintError, match="eps_bar > eps_bar_prime"):
        SecurityParams(1e-5, 1e-10, 1e-7, 1e-7)
    with pytest.raises(ConstraintError, match="eps_bar_prime > 0"):
        SecurityParams(1e-5, 1e-10, 1e-7, -1e-9)


def test_budget_cap_is_integer_exact():
    FiniteKeyBudget(9, 2, 2)  # 9 * 4 == 4 * 9 exactly
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(9, 3, 2)
    cap = (4 * 10**12) // 9
    FiniteKeyBudget(10**12, cap - 1, 1)
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(10**12, cap, 1)


def test_budget_full_mode_and_type_checks():
    FiniteKeyBudget(10, 6, 4, allow_full_budget=True)
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(10, 6, 4)
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(10, 7, 4, allow_full_budget=True)
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(10, 1.5, 2)
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(10, -1, 2)
    with pytest.raises(ConstraintError):
        FiniteKeyBudget(0, 0, 0)


def test_penalty_formula():
    assert oracle_delta(1e6, SEC) == pytest.approx(31088.4241303437, rel=1e-12)
    # at n = 1e6 the penalty costs about 0.03 bits per raw-key bit
    budget = FiniteKeyBudget(10**7, 10**6, 10**6)
    rate = finite_rate(budget, SEC, 0.01)
    assert rate > 0.0
    assert rate == pytest.approx(oracle_rate(budget, SEC, 0.01), rel=1e-12)


def test_penalty_rejects_bad_parameter_combinations():
    with pytest.raises(ConstraintError, match="eps_bar > eps_bar_prime"):
        SecurityParams(1e-5, 0.0, 9e-6, 9e-6)
    with pytest.raises(ConstraintError, match="epsilon - epsilon_EC > eps_bar"):
        SecurityParams(1e-5, 0.0, 2e-5, 1e-6)
    # epsilon - epsilon_EC > eps_bar holds here, but the penalty's slack
    # epsilon - eps_bar - epsilon_EC rounds to 0
    with pytest.raises(ConstraintError, match="epsilon - epsilon_EC > eps_bar"):
        SecurityParams(0.6709501961841973, 0.6476488181774758, 0.023301378006721486, 1e-3)
    # the formula relies on those checks, so unchecked fields are refused
    no_spread = SimpleNamespace(
        epsilon=1e-5, epsilon_EC=0.0, eps_bar=9e-6, eps_bar_prime=9e-6
    )
    with pytest.raises(TypeError):
        finite_rate(FiniteKeyBudget(10**7, 10**6, 10**6), no_spread, 0.01)
    with pytest.raises(TypeError):
        finite_rate(SimpleNamespace(N_signals=100, n=22, m=22), SEC, 0.01)


def test_smooth_entropy_limits():
    big = 10**10
    budget = FiniteKeyBudget(10 * big, big, big)
    nearly = finite_rate(budget, SEC, 0.01)
    assert nearly == pytest.approx(oracle_rate(budget, SEC, 0.01), rel=1e-12)
    assert nearly / 0.1 == pytest.approx(1.0 - 3.2 * h(0.01), abs=5e-3)
    # broadened past 1/2: the entropy collapses to exactly zero
    small = FiniteKeyBudget(1000, 100, 100)
    assert oracle_entropy(0.45, 100, 100, SEC) == 0.0
    expected = -(1.2 * h(0.45) * 100 + oracle_delta(100, SEC)) / 1000
    assert unclamped(small, SEC, 0.45) == pytest.approx(expected, rel=1e-12)
    assert finite_rate(small, SEC, 0.45) == 0.0
    # below 1/2 the literal value is kept even when negative
    assert oracle_entropy(0.4, big, big, SEC) < 0.0
    assert unclamped(budget, SEC, 0.4) == pytest.approx(oracle_rate(budget, SEC, 0.4), rel=1e-12)
    assert finite_rate(budget, SEC, 0.4) == 0.0


def test_finite_rate_edges():
    assert finite_rate(FiniteKeyBudget(100, 0, 10), SEC, 0.01) == 0.0
    assert finite_rate(FiniteKeyBudget(100, 10, 0), SEC, 0.01) == 0.0
    # far too small a block for the penalty terms
    assert finite_rate(FiniteKeyBudget(100, 22, 22), SEC, 0.01) == 0.0


def test_finite_rate_approaches_ceiling():
    n_signals = 10**12
    total = (4 * n_signals) // 9
    m = 10**9
    budget = FiniteKeyBudget(n_signals, total - m, m)
    rate = finite_rate(budget, SEC, 0.01)
    ceiling = asymptotic_ceiling(0.01)
    assert 0.0 < rate < ceiling
    assert rate == pytest.approx(ceiling, rel=1e-2)


def test_asymptotic_ceiling_values():
    assert asymptotic_ceiling(0.0) == 4.0 / 9.0
    assert asymptotic_ceiling(1e-4) == pytest.approx((4.0 / 9.0) * (1.0 - 3.2 * h(1e-4)))
    assert asymptotic_ceiling(0.25) == 0.0


def test_optimizer_is_deterministic():
    first = optimize_rate(10**7, 1e-5, 1e-10, 0.01)
    second = optimize_rate(10**7, 1e-5, 1e-10, 0.01)
    assert first == second
    assert first.rate > 0.0
    assert first.n + first.m == (4 * 10**7) // 9


def test_optimizer_monotone_in_block_size():
    rates = [optimize_rate(n, 1e-5, 1e-10, 0.01).rate for n in (10**6, 10**7, 10**8)]
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > rates[0] > 0.0


def test_optimizer_orders_error_rates():
    by_error = [optimize_rate(10**7, 1e-5, 1e-10, e).rate for e in (0.01, 0.03, 0.05)]
    assert by_error[0] > by_error[1] > by_error[2] >= 0.0


def test_optimizer_convergence_at_large_blocks():
    # the broadening keeps a ~0.7% floor at this error rate; 1% is the
    # deliberate bound (see the sqrt penalty in xi)
    opt = optimize_rate(10**12, 1e-5, 1e-10, 0.01)
    assert opt.rate == pytest.approx(asymptotic_ceiling(0.01), rel=1e-2)


def test_optimizer_full_budget_lifts_small_blocks():
    capped = optimize_rate(10**5, 1e-5, 1e-10, 0.01)
    full = optimize_rate(10**5, 1e-5, 1e-10, 0.01, allow_full_budget=True)
    assert capped.rate == 0.0
    assert full.rate > 0.0


def test_optimizer_infeasibility_diagnostics():
    no_slack = optimize_rate(100, 1e-5, 1e-5, 0.01)
    assert no_slack.rate == 0.0
    assert "epsilon - epsilon_EC" in no_slack.diagnostic
    too_small = optimize_rate(2, 1e-5, 1e-10, 0.01)
    assert too_small.rate == 0.0
    assert "sifted budget" in too_small.diagnostic
    hopeless = optimize_rate(1000, 1e-5, 1e-10, 0.25)
    assert hopeless.rate == 0.0
    assert "zero everywhere" in hopeless.diagnostic
    with pytest.raises(ConstraintError):
        optimize_rate(0, 1e-5, 1e-10, 0.01)


# Optima of the grid search before its rate was split into sample and
# security terms, field for field.  Each is ((N_signals, epsilon,
# epsilon_EC, e_b, allow_full_budget), (rate, n, m, eps_bar, eps_bar_prime,
# diagnostic)): blocks from 1 to 1e15, e_b from 0 to 0.3 and on both sides of
# the cutoff, three (epsilon, epsilon_EC) pairs and the full budget.
NO_BUDGET = (0.0, 0, 0, 0.0, 0.0, "infeasible: sifted budget below 2 bits, "
             "cannot populate both key and estimation samples")
TOO_SHORT = (0.0, 0, 0, 0.0, 0.0, "rate is zero everywhere on the search grid "
             "(block too short for this error rate)")
PINNED_OPTIMA = [
    ((1, 1e-05, 1e-10, 0.03, False), NO_BUDGET),
    ((3, 1e-05, 1e-10, 0.0, False), NO_BUDGET),
    ((5, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((1000, 1e-05, 1e-10, 0.03, False), TOO_SHORT),
    ((100000, 1e-05, 1e-10, 0.0, False), (0.01771984450263141, 29400, 15044, 9.917426005035367e-06, 4.0435716512358626e-06, "")),
    ((100000, 1e-05, 1e-10, 0.03, False), TOO_SHORT),
    ((100000, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((300000, 1e-05, 1e-10, 0.0, False), (0.12043787192947192, 106568, 26765, 9.96074298083527e-06, 4.8931325113501885e-06, "")),
    ((300000, 1e-05, 1e-10, 0.03, False), TOO_SHORT),
    ((300000, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((1000000, 1e-05, 1e-10, 0.0, False), (0.21091509495203759, 386484, 57960, 9.98247236654332e-06, 5.62116707821162e-06, "")),
    ((1000000, 1e-05, 1e-10, 0.03, False), (0.02778648083135265, 321353, 123091, 9.975948578245661e-06, 4.357339650873156e-06, "")),
    ((1000000, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((1000000000, 1e-05, 1e-10, 0.0, False), (0.41386916391447853, 437144534, 7299910, 9.999345239312096e-06, 8.267556114964987e-06, "")),
    ((1000000000, 1e-05, 1e-10, 0.03, False), (0.1533183701904514, 433482593, 10961851, 9.999345239312096e-06, 7.002845369305239e-06, "")),
    ((1000000000, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((1000000000000, 1e-05, 1e-10, 0.0, False), (0.44069837695268055, 443386099956, 1058344488, 9.999890000099999e-06, 9.38563071571588e-06, "")),
    ((1000000000000, 1e-05, 1e-10, 0.03, False), (0.16651590809572495, 443255959316, 1188485128, 9.999890000099999e-06, 8.614910925303749e-06, "")),
    ((1000000000000, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((1000000000000000, 1e-05, 1e-10, 0.0, False), (0.44399353284419013, 444311148332489, 133296111955, 9.999890000099999e-06, 9.806716289788077e-06, "")),
    ((1000000000000000, 1e-05, 1e-10, 0.03, False), (0.16782594627996175, 444317422570067, 127021874377, 9.999890000099999e-06, 9.45782829138911e-06, "")),
    ((1000000000000000, 1e-05, 1e-10, 0.3, False), TOO_SHORT),
    ((1000000000, 1e-05, 1e-10, 0.05, False), (0.02850640334887726, 416722896, 27721548, 9.999345239312096e-06, 5.644662726278413e-06, "")),
    ((1000000000, 1e-05, 1e-10, 0.056, False), TOO_SHORT),
    ((1000000000000000, 1e-05, 1e-10, 0.056, False), (0.0015946547731547256, 441903916787094, 2540527657350, 9.999890000099999e-06, 7.506927689716634e-06, "")),
    ((1000000000000000, 1e-05, 1e-10, 0.0565, False), TOO_SHORT),
    ((10000000, 1e-05, 1e-10, 0.045, False), (0.019191207970020607, 3391713, 1052731, 9.993354828955512e-06, 4.401209518259482e-06, "")),
    ((10000000, 1e-05, 1e-10, 0.05, False), TOO_SHORT),
    ((10000, 1e-12, 0.0, 0.01, False), TOO_SHORT),
    ((1000000, 1e-12, 0.0, 0.02, False), (0.05934108121892507, 339171, 105273, 9.969528748689678e-13, 5.368562106782229e-13, "")),
    ((100000000, 1e-12, 0.0, 0.04, False), (0.07132465953328423, 40993867, 3450577, 9.997811113113575e-13, 6.40572101103092e-13, "")),
    ((10000000000, 1e-12, 0.0, 0.055, False), (0.004803054733831595, 4000140891, 444303553, 9.999445233764432e-13, 5.757935510425877e-13, "")),
    ((10000000000000, 1e-12, 0.0, 0.001, False), (0.42670480400095395, 4439525552451, 4918891993, 9.999989999999998e-13, 9.61738001984386e-13, "")),
    ((10000, 0.25, 0.1, 0.01, False), TOO_SHORT),
    ((1000000, 0.25, 0.1, 0.02, False), (0.0939665455961398, 364164, 80280, 0.14980385696913248, 0.05116155525879693, "")),
    ((100000000, 0.25, 0.1, 0.04, False), (0.07578518321670841, 41407535, 3036909, 0.1499835074580886, 0.06275154120795699, "")),
    ((10000000000, 0.25, 0.1, 0.055, False), (0.005181352437484376, 4045167242, 399277202, 0.14999984999999996, 0.05086308071893566, "")),
    ((10000000000000, 0.25, 0.1, 0.001, False), (0.4268199089233732, 4439907323330, 4537121114, 0.14999984999999996, 0.1382588599622202, "")),
    ((100000, 1e-05, 1e-10, 0.01, True), (0.082140548649021, 70517, 29483, 9.947728059776973e-06, 4.302084028535828e-06, "")),
    ((10000, 1e-05, 1e-10, 0.02, True), TOO_SHORT),
    ((20, 0.25, 0.1, 0.0, True), TOO_SHORT),
    ((1000000, 1e-12, 0.0, 0.05, True), TOO_SHORT),
    ((100000000000, 1e-05, 1e-10, 0.3, True), TOO_SHORT),
]


def test_optimizer_results_are_pinned():
    for (n_signals, epsilon, epsilon_ec, e_b, full), expected in PINNED_OPTIMA:
        opt = optimize_rate(n_signals, epsilon, epsilon_ec, e_b, allow_full_budget=full)
        assert opt == FiniteKeyOptimum(n_signals, e_b, *expected), (n_signals, epsilon, e_b)


@pytest.mark.filterwarnings("error")
def test_optimizer_security_parameter_domain():
    # at the floors of epsilon - epsilon_EC no search point overflows or
    # loses its penalty slack to rounding (a RuntimeWarning fails this test)
    assert finite_key.epsilon_gap_floor(1e-5) == pytest.approx(1e-14, rel=1e-15)
    assert finite_key.epsilon_gap_floor(1e-285) == 1e-290
    for epsilon, epsilon_ec in ((1e-290, 0.0), (0.5, 0.5 - 1e-9), (1e-5, 1e-5 - 2e-14)):
        assert optimize_rate(10**9, epsilon, epsilon_ec, 0.01).rate > 0.0
    # below them the search does not run
    for epsilon, epsilon_ec in ((5e-324, 0.0), (1e-320, 0.0), (1e-300, 0.0), (0.5, 0.5 - 2**-54)):
        below = optimize_rate(10**9, epsilon, epsilon_ec, 0.01)
        assert below.rate == 0.0
        assert "epsilon - epsilon_EC must be at least" in below.diagnostic
    # a failure probability of 1 or more, or a negative epsilon_EC, is no input
    for epsilon, epsilon_ec in ((1.0, 0.0), (1.5, 0.0), (3.0, 0.0), (1e-5, -1e-10), (0.0, -1e-10)):
        with pytest.raises(ConstraintError, match=r"epsilon must lie in \(0, 1\)"):
            optimize_rate(10**9, epsilon, epsilon_ec, 0.01)


def test_optimum_budget_roundtrip():
    opt = optimize_rate(10**6, 1e-5, 1e-10, 0.01)
    budget = FiniteKeyBudget(opt.N_signals, opt.n, opt.m)
    sec = SecurityParams(1e-5, 1e-10, opt.eps_bar, opt.eps_bar_prime)
    assert finite_rate(budget, sec, opt.e_b) == opt.rate


@pytest.mark.parametrize("allow_full_budget", [False, True])
@pytest.mark.parametrize("N_signals", [10**5, 10**7, 10**12])
def test_array_rates_match_finite_rate_on_the_coarse_grid(N_signals, allow_full_budget):
    eps, eps_ec = 1e-5, 1e-10
    grids = (finite_key._COARSE_U, finite_key._COARSE_BETA, finite_key._COARSE_GAMMA)
    total = N_signals if allow_full_budget else (4 * N_signals) // 9
    u_grid, beta_grid, gamma_grid = np.ix_(*grids)
    m = np.clip(np.rint(total * u_grid), 1, total - 1)  # the optimizer's split
    eps_bar = beta_grid * (eps - eps_ec)
    arrays = (total - m, m, eps_bar, gamma_grid * eps_bar)
    for e_b in (0.005, 0.03, 0.065):
        rates = finite_key._rates(N_signals, e_b, eps, eps_ec, *arrays)
        for index in itertools.product(*(range(len(grid)) for grid in grids)):
            u, beta, gamma = (grid[i] for grid, i in zip(grids, index))
            m_i = min(max(int(round(total * u)), 1), total - 1)
            eps_bar_i = beta * (eps - eps_ec)
            budget = FiniteKeyBudget(N_signals, total - m_i, m_i, allow_full_budget)
            sec = SecurityParams(eps, eps_ec, eps_bar_i, gamma * eps_bar_i)
            expected = max(0.0, oracle_rate(budget, sec, e_b))
            tolerance = max(1e-12 * expected, 1e-15)
            assert abs(max(0.0, float(rates[index])) - expected) <= tolerance, (index, e_b)
            assert abs(finite_rate(budget, sec, e_b) - expected) <= tolerance, (index, e_b)


def test_sweep_order():
    expected = [(10**6, 0.01), (10**6, 0.03), (10**7, 0.01), (10**7, 0.03)]
    rows = finite_key_sweep([10**6, 10**7], [0.01, 0.03], 1e-5, 1e-10)
    assert [(row.N_signals, row.e_b) for row in rows] == expected
    # one-shot iterables give every pair too
    rows = finite_key_sweep(
        (n for n in (10**6, 10**7)), (e for e in (0.01, 0.03)), 1e-5, 1e-10
    )
    assert [(row.N_signals, row.e_b) for row in rows] == expected


def test_sweep_csv_round():
    rows = finite_key_sweep([10**6], [0.01], 1e-5, 1e-10)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime"
    assert len(lines) == 2
    assert lines[1].startswith("1000000,0.01,")
    assert sweep_to_csv(rows) == text
