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
    SecurityParams,
    asymptotic_ceiling,
    delta,
    finite_key_sweep,
    finite_rate,
    optimize_rate,
    smooth_entropy,
    sweep_to_csv,
    xi,
)
from dpsmdi.keyrate_asymptotic import binary_entropy

SEC = SecurityParams(epsilon=1e-5, epsilon_EC=1e-10, eps_bar=2.5e-6, eps_bar_prime=1.25e-7)


def test_broadening_reference_value():
    value = xi(1e6, 9, 1e-6)
    assert value == pytest.approx(0.0123276366404, abs=1e-10)
    # headline rounding of the same number
    assert value == pytest.approx(0.0123, abs=5e-5)


def test_broadening_monotonicity_and_rejections():
    assert xi(1e6, 9, 1e-6) < xi(1e4, 9, 1e-6)
    assert xi(1e6, 9, 1e-9) > xi(1e6, 9, 1e-6)
    with pytest.raises(ConstraintError):
        xi(0.5, 9, 1e-6)
    with pytest.raises(ConstraintError):
        xi(1e6, 9, 0.0)
    with pytest.raises(ConstraintError):
        xi(1e6, 9, -1e-6)


def test_security_params_constraint_chain():
    with pytest.raises(ConstraintError, match="epsilon must be positive"):
        SecurityParams(0.0, 0.0, 1e-7, 1e-8)
    with pytest.raises(ConstraintError, match="non-negative"):
        SecurityParams(1e-5, -1e-9, 1e-7, 1e-8)
    with pytest.raises(ConstraintError, match="epsilon - epsilon_EC > eps_bar"):
        SecurityParams(1e-5, 1e-10, 1e-5, 1e-8)
    with pytest.raises(ConstraintError, match="eps_bar > eps_bar_prime"):
        SecurityParams(1e-5, 1e-10, 1e-7, 1e-7)
    with pytest.raises(ConstraintError, match="eps_bar_prime >= 0"):
        SecurityParams(1e-5, 1e-10, 1e-7, -1e-9)
    with pytest.raises(ConstraintError, match="fixed at 9"):
        SecurityParams(1e-5, 1e-10, 1e-7, 1e-8, d=8)


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
    slack = SEC.epsilon - SEC.eps_bar - SEC.epsilon_EC
    spread = SEC.eps_bar - SEC.eps_bar_prime
    expected = 2.0 * math.log2(1.0 / (2.0 * slack)) + 7.0 * math.sqrt(
        1e6 * math.log2(2.0 / spread)
    )
    assert delta(1e6, SEC) == pytest.approx(expected, rel=1e-12)


def test_penalty_rejects_bad_parameter_combinations():
    # SecurityParams cannot be built in these states, so fake the fields
    no_spread = SimpleNamespace(
        epsilon=1e-5, epsilon_EC=0.0, eps_bar=9e-6, eps_bar_prime=9e-6
    )
    with pytest.raises(ConstraintError, match="eps_bar > eps_bar_prime"):
        delta(1e6, no_spread)
    no_slack = SimpleNamespace(
        epsilon=1e-5, epsilon_EC=0.0, eps_bar=2e-5, eps_bar_prime=1e-6
    )
    with pytest.raises(ConstraintError, match="epsilon - eps_bar - epsilon_EC"):
        delta(1e6, no_slack)


def test_smooth_entropy_limits():
    big = 10**10
    nearly = smooth_entropy(0.01, big, big, SEC)
    assert nearly == pytest.approx(1.0 - 2.0 * binary_entropy(0.01), abs=5e-3)
    # broadened past 1/2: collapses to exactly zero
    assert smooth_entropy(0.45, 100, 100, SEC) == 0.0
    # below 1/2 the literal value is kept even when negative
    assert smooth_entropy(0.4, big, big, SEC) < 0.0


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
    h = binary_entropy(1e-4)
    assert asymptotic_ceiling(1e-4) == pytest.approx((4.0 / 9.0) * (1.0 - 3.2 * h))
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
    for e_b in (0.005, 0.03, 0.065):
        rates = finite_key._rates(N_signals, total, e_b, eps, eps_ec, *np.ix_(*grids))
        for index in itertools.product(*(range(len(grid)) for grid in grids)):
            u, beta, gamma = (grid[i] for grid, i in zip(grids, index))
            m = min(max(int(round(total * u)), 1), total - 1)
            eps_bar = beta * (eps - eps_ec)
            budget = FiniteKeyBudget(N_signals, total - m, m, allow_full_budget)
            sec = SecurityParams(eps, eps_ec, eps_bar, gamma * eps_bar)
            expected = finite_rate(budget, sec, e_b)
            got = max(0.0, float(rates[index]))
            assert abs(got - expected) <= max(1e-12 * expected, 1e-15), (index, e_b)


def test_sweep_order():
    expected = [(10**6, 0.01), (10**6, 0.03), (10**7, 0.01), (10**7, 0.03)]
    rows = finite_key_sweep([10**6, 10**7], [0.01, 0.03])
    assert [(row.N_signals, row.e_b) for row in rows] == expected
    # one-shot iterables give every pair too
    rows = finite_key_sweep((n for n in (10**6, 10**7)), (e for e in (0.01, 0.03)))
    assert [(row.N_signals, row.e_b) for row in rows] == expected


def test_sweep_csv_round():
    rows = finite_key_sweep([10**6], [0.01])
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime"
    assert len(lines) == 2
    assert lines[1].startswith("1000000,0.01,")
    assert sweep_to_csv(rows) == text
