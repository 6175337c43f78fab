"""Finite-size secret key rates.

With a finite number of exchanged signals the observed error rates carry
statistical uncertainty, and the security argument charges additional
penalties for smoothing and for error-correction verification (Scarani &
Renner, PRL 100, 200501 (2008); Cai & Scarani, NJP 11, 045024 (2009)).
This module implements those corrections and a deterministic optimizer that
splits the sifted-bit budget between key generation and parameter estimation.

Quantities per block of ``N_signals`` exchanged signals:

* ``n`` raw-key bits and ``m`` parameter-estimation bits, constrained by the
  sifted fraction: ``n + m <= (4/9) N_signals``.
* a statistical broadening ``xi(k) = sqrt((2 ln(1/eps_bar') + 9 ln(k+1)) / k)``
  added to the observed error rates: ``eb~ = e_b + xi(n)``, ``ep~ = e_b + xi(m)``,
* a penalty ``delta = 2 log2(1/(2(eps - eps_bar - eps_EC)))
  + 7 sqrt(n log2(2/(eps_bar - eps_bar')))`` bits,
* an error-correction leakage of ``1.2 h(e_b)`` bits per raw-key bit.

The extractable rate per exchanged signal is ``r = (n / N) r'`` with
``r' = 1 - h(eb~) - h(ep~) - leak/n - delta/n``, clamped at zero; the
entropy term is 0 once either broadened rate passes 1/2.  One array formula,
``_rates``, computes it: the optimizer ranks whole grids with it, and
``finite_rate`` is its checked evaluation at one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .keyrate_asymptotic import binary_entropy
from .protocol_sifting import sifted_key_fraction

# Number of distinguishable announcement outcomes entering the statistical
# broadening: 8 conclusive click patterns plus the inconclusive bucket.
POVM_OUTCOME_COUNT = 9

# Error-correction inefficiency: leak_EC = 1.2 * h(e_b) * n.
ERROR_CORRECTION_EFFICIENCY = 1.2

# Budget fraction available after sifting (survival 2/3 times keep 2/3).
SIFTED_NUMERATOR, SIFTED_DENOMINATOR = sifted_key_fraction().as_integer_ratio()


class ConstraintError(ValueError):
    """A security-parameter or budget constraint is violated.

    The message names the specific inequality that failed.
    """


@dataclass(frozen=True)
class SecurityParams:
    """Failure probabilities for the composable security statement.

    The chain ``epsilon - epsilon_EC > eps_bar > eps_bar_prime > 0`` must
    hold: the total failure budget covers error correction, smoothing, and
    the statistical broadening, in that order of nesting.
    """

    epsilon: float
    epsilon_EC: float
    eps_bar: float
    eps_bar_prime: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ConstraintError(f"epsilon must be positive, got {self.epsilon}")
        if not self.epsilon_EC >= 0.0:
            raise ConstraintError(
                f"epsilon_EC must be non-negative, got {self.epsilon_EC}"
            )
        # in the order the penalty delta subtracts, so its slack is positive
        if not self.epsilon - self.eps_bar - self.epsilon_EC > 0.0:
            raise ConstraintError(
                "constraint epsilon - epsilon_EC > eps_bar failed: "
                f"{self.epsilon} - {self.epsilon_EC} <= {self.eps_bar}"
            )
        if not self.eps_bar > self.eps_bar_prime:
            raise ConstraintError(
                "constraint eps_bar > eps_bar_prime failed: "
                f"{self.eps_bar} <= {self.eps_bar_prime}"
            )
        if not self.eps_bar_prime > 0.0:
            raise ConstraintError(
                "constraint eps_bar_prime > 0 failed (the broadening diverges "
                f"at 0): {self.eps_bar_prime}"
            )


@dataclass(frozen=True)
class FiniteKeyBudget:
    """Split of a signal block into raw-key and estimation samples.

    ``n`` raw-key bits plus ``m`` estimation bits may not exceed the sifted
    fraction 4/9 of ``N_signals``.  Set ``allow_full_budget`` to lift the
    cap to ``N_signals`` itself (useful for comparisons; not the default
    operating point).
    """

    N_signals: int
    n: int
    m: int
    allow_full_budget: bool = False

    def __post_init__(self) -> None:
        for name in ("N_signals", "n", "m"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConstraintError(f"{name} must be a non-negative integer, got {value!r}")
        if self.N_signals < 1:
            raise ConstraintError("N_signals must be at least 1")
        if self.allow_full_budget:
            if self.n + self.m > self.N_signals:
                raise ConstraintError(
                    f"n + m = {self.n + self.m} exceeds N_signals = {self.N_signals}"
                )
        elif SIFTED_DENOMINATOR * (self.n + self.m) > SIFTED_NUMERATOR * self.N_signals:
            raise ConstraintError(
                f"n + m = {self.n + self.m} exceeds the sifted budget "
                f"(4/9) * {self.N_signals}"
            )


def _rates(
    N_signals: int, e_b: float, epsilon: float, epsilon_EC: float,
    n: np.ndarray, m: np.ndarray, eps_bar: np.ndarray, eps_bar_prime: np.ndarray,
) -> np.ndarray:
    """Unclamped rate at every point of broadcastable (n, m, eps_bar, eps_bar_prime)."""
    confidence = 2.0 * np.log(1.0 / eps_bar_prime)
    eb_tilde = e_b + np.sqrt((confidence + POVM_OUTCOME_COUNT * np.log(n + 1.0)) / n)
    ep_tilde = e_b + np.sqrt((confidence + POVM_OUTCOME_COUNT * np.log(m + 1.0)) / m)

    def h(x: np.ndarray) -> np.ndarray:
        x = np.minimum(x, 0.5)  # keeps log2 finite; np.where zeroes points past 1/2
        return -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)

    entropy = np.where(
        (eb_tilde > 0.5) | (ep_tilde > 0.5), 0.0, 1.0 - h(eb_tilde) - h(ep_tilde)
    )
    leak = ERROR_CORRECTION_EFFICIENCY * binary_entropy(e_b) * n
    penalty = 2.0 * np.log2(1.0 / (2.0 * (epsilon - eps_bar - epsilon_EC))) + 7.0 * np.sqrt(
        n * np.log2(2.0 / (eps_bar - eps_bar_prime))
    )
    return (n / N_signals) * (entropy - (leak + penalty) / n)


def finite_rate(budget: FiniteKeyBudget, sec: SecurityParams, e_b: float) -> float:
    """Secret bits per exchanged signal for a fixed budget split.

    The 0-d evaluation of _rates, clamped at zero; a block with no raw-key
    bits or no estimation bits yields nothing.  The formula relies on the
    checks of FiniteKeyBudget and SecurityParams, so only those types pass.
    """
    if not isinstance(budget, FiniteKeyBudget) or not isinstance(sec, SecurityParams):
        raise TypeError("finite_rate takes a FiniteKeyBudget and a SecurityParams")
    if budget.n == 0 or budget.m == 0:
        return 0.0
    rate = _rates(
        budget.N_signals, e_b, sec.epsilon, sec.epsilon_EC,
        budget.n, budget.m, sec.eps_bar, sec.eps_bar_prime,
    )
    return max(0.0, float(rate))


@dataclass(frozen=True)
class FiniteKeyOptimum:
    """Best rate found for one (N_signals, e_b) point, with its argmax."""

    N_signals: int
    e_b: float
    rate: float
    n: int
    m: int
    eps_bar: float
    eps_bar_prime: float
    diagnostic: str = ""


# Coarse search grids.  u is the fraction of the sifted budget handed to
# parameter estimation (m = u * budget), beta places eps_bar inside
# (0, epsilon - epsilon_EC), gamma places eps_bar_prime inside (0, eps_bar).
_COARSE_U = tuple(10.0 ** (-7.0 + 6.954 * k / 24.0) for k in range(25))
_COARSE_BETA = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_COARSE_GAMMA = (0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
_REFINE_ROUNDS = 4
_REFINE_POINTS = 9
# Lower edges of the refinement brackets for u, beta and gamma.
_REFINE_FLOORS = (1e-9, 1e-6, 1e-6)


def _bracket(value: float, grid: Sequence[float], floor: float, ceil: float) -> tuple[float, float]:
    """Neighbours of value in grid, padded multiplicatively at the edges."""
    below = [g for g in grid if g < value]
    above = [g for g in grid if g > value]
    lo = max(below) if below else max(floor, value / 4.0)
    hi = min(above) if above else min(ceil, value * 4.0)
    return lo, hi


def _geom_grid(lo: float, hi: float, count: int) -> list[float]:
    if not lo < hi:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**k for k in range(count)]


def optimize_rate(
    N_signals: int,
    epsilon: float,
    epsilon_EC: float,
    e_b: float,
    allow_full_budget: bool = False,
) -> FiniteKeyOptimum:
    """Maximize the finite rate over the budget split and smoothing parameters.

    Deterministic two-stage search: a fixed coarse grid over (u, beta,
    gamma) followed by rounds of per-coordinate geometric refinement, so
    repeated runs yield identical optima.  Degrees of freedom:

    * u: fraction of the sifted budget spent on parameter estimation,
    * beta: eps_bar as a fraction of (epsilon - epsilon_EC),
    * gamma: eps_bar_prime as a fraction of eps_bar.

    Candidates are ranked as arrays, the whole coarse grid or one refinement
    line per evaluation; the first maximum wins and a move needs a strictly
    larger rate.  The reported rate is one call of finite_rate at the winner.

    The full sifted budget n + m is always spent; enlarging either share
    never hurts, so interior points are dominated.
    """
    if N_signals < 1:
        raise ConstraintError(f"N_signals must be at least 1, got {N_signals}")
    if not epsilon - epsilon_EC > 0.0:
        return FiniteKeyOptimum(
            N_signals, e_b, 0.0, 0, 0, 0.0, 0.0,
            diagnostic="infeasible: epsilon - epsilon_EC must be positive",
        )
    if allow_full_budget:
        total = N_signals
    else:
        total = (SIFTED_NUMERATOR * N_signals) // SIFTED_DENOMINATOR
    if total < 2:
        return FiniteKeyOptimum(
            N_signals, e_b, 0.0, 0, 0, 0.0, 0.0,
            diagnostic="infeasible: sifted budget below 2 bits, "
            "cannot populate both key and estimation samples",
        )

    def split(u):
        """Estimation bits m ~ u * total, leaving both shares at least 1."""
        return np.clip(np.rint(total * u), 1, total - 1)

    def rated(u, beta, gamma) -> np.ndarray:
        # clamped like finite_rate, so a grid that is 0 everywhere keeps its first point
        m = split(u)
        eps_bar = beta * (epsilon - epsilon_EC)
        rates = _rates(N_signals, e_b, epsilon, epsilon_EC, total - m, m, eps_bar, gamma * eps_bar)
        return np.maximum(rates, 0.0)

    grids: list[Sequence[float]] = [_COARSE_U, _COARSE_BETA, _COARSE_GAMMA]
    coarse = rated(*np.ix_(*grids))
    index = np.unravel_index(np.argmax(coarse), coarse.shape)
    best = coarse[index]
    point = [grid[i] for grid, i in zip(grids, index)]
    for _ in range(_REFINE_ROUNDS):
        for axis in range(3):
            lo, hi = _bracket(point[axis], grids[axis], _REFINE_FLOORS[axis], 0.999999)
            grids[axis] = _geom_grid(lo, hi, _REFINE_POINTS)
            line = list(point)
            line[axis] = np.asarray(grids[axis])
            rates = rated(*line)
            k = int(np.argmax(rates))
            if rates[k] > best:
                best = rates[k]
                point[axis] = grids[axis][k]

    u, beta, gamma = point
    m = int(split(u))
    n = total - m
    eps_bar = beta * (epsilon - epsilon_EC)
    eps_bar_prime = gamma * eps_bar
    rate = finite_rate(
        FiniteKeyBudget(N_signals, n, m, allow_full_budget),
        SecurityParams(epsilon, epsilon_EC, eps_bar, eps_bar_prime),
        e_b,
    )
    if rate <= 0.0:
        return FiniteKeyOptimum(
            N_signals, e_b, 0.0, 0, 0, 0.0, 0.0,
            diagnostic="rate is zero everywhere on the search grid "
            "(block too short for this error rate)",
        )
    return FiniteKeyOptimum(N_signals, e_b, rate, n, m, eps_bar, eps_bar_prime)


def finite_key_sweep(
    n_signals_values: Iterable[int],
    e_b_values: Iterable[float],
    epsilon: float,
    epsilon_EC: float,
    allow_full_budget: bool = False,
) -> list[FiniteKeyOptimum]:
    """Optimize every (N_signals, e_b) pair; row order follows input order.

    Both inputs are read once, so one-shot iterables give every pair too.
    """
    e_b_values = [float(e_b) for e_b in e_b_values]
    return [
        optimize_rate(
            int(n_sig), epsilon, epsilon_EC, e_b, allow_full_budget=allow_full_budget
        )
        for n_sig in n_signals_values
        for e_b in e_b_values
    ]


def sweep_to_csv(rows: Iterable[FiniteKeyOptimum]) -> str:
    """Render sweep results as deterministic CSV text."""
    lines = ["N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime"]
    for row in rows:
        lines.append(
            f"{row.N_signals},{row.e_b:.12g},{row.rate:.12g},"
            f"{row.n},{row.m},{row.eps_bar:.12g},{row.eps_bar_prime:.12g}"
        )
    return "\n".join(lines) + "\n"
