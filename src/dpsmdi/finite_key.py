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
``_rates``, computes the unclamped rate at every point of a grid.  Every
point gets the same float64 operations in the same order at any grid shape,
so a grid value equals the 0-d call at that point, bit for bit.
``finite_rate`` is the checked evaluation at one point.

The optimizer makes one ``_rates`` pass over the coarse grid and one per
refinement round, over the product of three lines that each start at the
current point; it then moves along u, beta and gamma in turn, reading each
line from that one pass.

Past the cutoff ``1 - (2 + 1.2) h(e_b) <= 0`` no split and no smoothing
parameter leaves a positive rate: the entropy term is at most
``1 - 2 h(e_b)`` (or 0), the leak takes ``1.2 h(e_b)`` and the penalty more
than 5 bits.  There the optimizer returns the zero optimum without a search,
with a diagnostic that names the cutoff.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import epsilon_gap_floor
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
    fraction 4/9 of ``N_signals``.  A budget of ``n + m = N`` bits at ``N``
    signals, the convention of Scarani & Renner, is this cap at ``9N/4``
    signals (see optimize_rate).
    """

    N_signals: int
    n: int
    m: int

    def __post_init__(self) -> None:
        for name in ("N_signals", "n", "m"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConstraintError(f"{name} must be a non-negative integer, got {value!r}")
        if self.N_signals < 1:
            raise ConstraintError("N_signals must be at least 1")
        if SIFTED_DENOMINATOR * (self.n + self.m) > SIFTED_NUMERATOR * self.N_signals:
            raise ConstraintError(
                f"n + m = {self.n + self.m} exceeds the sifted budget "
                f"(4/9) * {self.N_signals}"
            )


def _rates(
    N_signals: int, e_b: float, epsilon: float, epsilon_EC: float,
    n: np.ndarray, m: np.ndarray, eps_bar: np.ndarray, eps_bar_prime: np.ndarray,
) -> np.ndarray:
    """Unclamped rate at every point of broadcastable (n, m) and (eps_bar, eps_bar_prime).

    n is stacked over m on the broadcast shape of (n, m), so one broadening
    pass and one h pass cover both samples; the security terms are computed
    on the shape of (eps_bar, eps_bar_prime), and the two broadcast in the
    combination.  Most steps write in place into the array the step before
    made.  Some sums and products take their operands in another order than
    the formula, and -h stands in for h; float64 rounding is commutative and
    symmetric in sign, so every value is the formula's, bit for bit, at any
    shape.
    """
    samples = np.empty((2,) + np.broadcast(n, m).shape)
    samples[0] = n
    samples[1] = m
    n = samples[0]
    # 2 ln(1/eps_bar'), the penalty's 2 log2(1/(2(eps - eps_bar - eps_EC)))
    # and the log2(2/(eps_bar - eps_bar')) under its square root
    confidence = 2.0 * np.log(1.0 / eps_bar_prime)
    slack_bits = 2.0 * np.log2(1.0 / (2.0 * (epsilon - eps_bar - epsilon_EC)))
    spread_bits = np.log2(2.0 / (eps_bar - eps_bar_prime))
    # the broadened e_b and e_p in one pass: eb~ = e_b + xi(n), ep~ = e_b + xi(m)
    sample_logs = np.log(samples + 1.0)
    sample_logs *= POVM_OUTCOME_COUNT
    tilde = confidence + sample_logs
    tilde /= samples
    np.sqrt(tilde, out=tilde)
    tilde += e_b
    past_half = np.maximum(tilde[0], tilde[1]) > 0.5
    # -h(x) = x log2 x + (1 - x) log2(1 - x); the minimum keeps log2 finite,
    # and np.where zeroes the entropy of points past 1/2
    x = np.minimum(tilde, 0.5, out=tilde)
    neg_h = np.log2(x)
    neg_h *= x
    one_minus_x = 1.0 - x
    x_log = np.log2(one_minus_x, out=x)
    x_log *= one_minus_x
    neg_h += x_log
    entropy = 1.0 + neg_h[0]
    entropy += neg_h[1]
    rate = np.where(past_half, 0.0, entropy)
    penalty = np.sqrt(n * spread_bits)
    penalty *= 7.0
    penalty += slack_bits
    # (leak + penalty) / n, with the leak 1.2 h(e_b) n
    penalty += ERROR_CORRECTION_EFFICIENCY * binary_entropy(e_b) * n
    penalty /= n
    rate -= penalty
    rate *= n / N_signals
    return rate


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
# Lower edges of the refinement brackets for u, beta and gamma, and the
# upper edge of all three.
_REFINE_FLOORS = (1e-9, 1e-6, 1e-6)
_REFINE_CEIL = 0.999999


def _bracket(value: float, grid: Sequence[float], floor: float, ceil: float) -> tuple[float, float]:
    """Neighbours of value in the ascending grid, padded multiplicatively at the edges."""
    below = bisect_left(grid, value)
    above = bisect_right(grid, value)
    lo = grid[below - 1] if below else max(floor, value / 4.0)
    hi = grid[above] if above < len(grid) else min(ceil, value * 4.0)
    return lo, hi


def _geom_grid(lo: float, hi: float, count: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**k for k in range(count)]


def _zero_everywhere(
    N_signals: int,
    e_b: float,
    diagnostic: str = "rate is zero everywhere on the search grid "
    "(block too short for this error rate)",
) -> FiniteKeyOptimum:
    return FiniteKeyOptimum(N_signals, e_b, 0.0, 0, 0, 0.0, 0.0, diagnostic=diagnostic)


def optimize_rate(
    N_signals: int,
    epsilon: float,
    epsilon_EC: float,
    e_b: float,
) -> FiniteKeyOptimum:
    """Maximize the finite rate over the budget split and smoothing parameters.

    Deterministic two-stage search: a fixed coarse grid over (u, beta,
    gamma) followed by rounds of per-coordinate geometric refinement, so
    repeated runs yield identical optima.  Degrees of freedom:

    * u: fraction of the sifted budget spent on parameter estimation,
    * beta: eps_bar as a fraction of (epsilon - epsilon_EC),
    * gamma: eps_bar_prime as a fraction of eps_bar.

    One _rates pass rates the product of the coarse axes.  Each refinement
    round brackets the current value of every axis in that axis's last
    grid, spreads 9 geometric points over each bracket, puts the current
    value in front of each 9 and rates the 10 x 10 x 10 product in one
    pass.  It then moves along u, then beta, then gamma, each along its line
    through the points already chosen: the first maximum wins, and a move
    needs a strictly larger rate.  The reported rate is one call of
    finite_rate at the winner.  Past the cutoff 1 - 3.2 h(e_b) <= 0 every
    rate is negative, so the zero optimum returns before the search; its
    diagnostic names the cutoff, as no block size would help.

    The full sifted budget n + m is always spent; enlarging either share
    never hurts, so interior points are dominated.  The rate per sifted bit
    at N sifted bits (the n + m = N convention of Scarani & Renner) is
    9/4 times the rate at 9N/4 signals, for N a multiple of 4, with the same
    n, m, eps_bar and eps_bar_prime.

    Raises ConstraintError for an N_signals that is not an integer of at
    least 1, epsilon outside (0, 1) or a negative epsilon_EC.  An
    epsilon - epsilon_EC that is not positive, or below
    epsilon_gap_floor(epsilon), gives an infeasible diagnostic.
    """
    if not isinstance(N_signals, int) or N_signals < 1:
        raise ConstraintError(f"N_signals must be an integer of at least 1, got {N_signals!r}")
    if not (0.0 < epsilon < 1.0 and epsilon_EC >= 0.0):
        raise ConstraintError(
            "epsilon must lie in (0, 1) and epsilon_EC in [0, epsilon), "
            f"got {epsilon} and {epsilon_EC}"
        )
    gap = epsilon - epsilon_EC
    if not gap > 0.0:
        return _zero_everywhere(
            N_signals, e_b, "infeasible: epsilon - epsilon_EC must be positive"
        )
    gap_floor = epsilon_gap_floor(epsilon)
    if not gap >= gap_floor:
        return _zero_everywhere(
            N_signals,
            e_b,
            f"infeasible: epsilon - epsilon_EC must be at least {gap_floor:g} "
            "for float64 to resolve every search point",
        )
    total = (SIFTED_NUMERATOR * N_signals) // SIFTED_DENOMINATOR
    if total < 2:
        return _zero_everywhere(
            N_signals,
            e_b,
            "infeasible: sifted budget below 2 bits, "
            "cannot populate both key and estimation samples",
        )

    h_e_b = binary_entropy(e_b)
    # The rate is negative at every split once 1 - 3.2 h(e_b) <= 0.  h rises
    # on [0, 1/2] and both broadened rates exceed e_b, so the entropy term is
    # at most 1 - 2 h(e_b), or 0; the leak is 1.2 h(e_b) per raw-key bit; and
    # the penalty exceeds 5 bits, as slack_bits > -2 and 7 sqrt(n spread_bits)
    # >= 7.  So each candidate's rate is at most
    # (n/N)(1 - 3.2 h(e_b) - penalty/n) with penalty/n >= (7 sqrt(n) - 2)/n:
    # a margin of about 7/sqrt(n), far above float64 rounding for n < 1e30.
    if 1.0 - (2.0 + ERROR_CORRECTION_EFFICIENCY) * h_e_b <= 0.0:
        return _zero_everywhere(
            N_signals,
            e_b,
            "rate is zero at every block size: e_b is past the cutoff "
            f"1 - {2.0 + ERROR_CORRECTION_EFFICIENCY:g} h(e_b) <= 0",
        )
    last = total - 1.0

    def arguments(u, beta, gamma):
        """_rates' n, m, eps_bar and eps_bar_prime on the product of the three
        axes, with m ~ u * total and both shares at least 1."""
        m = np.minimum(np.maximum(np.rint(total * np.array(u).reshape(-1, 1, 1)), 1.0), last)
        eps_bar = np.array(beta).reshape(-1, 1) * gap
        return total - m, m, eps_bar, np.array(gamma) * eps_bar

    grids: list[Sequence[float]] = [_COARSE_U, _COARSE_BETA, _COARSE_GAMMA]
    coarse = _rates(N_signals, e_b, epsilon, epsilon_EC, *arguments(*grids))
    # clamped like finite_rate, so a grid that is 0 everywhere keeps its first
    # point; best is then never negative, and a line's unclamped maximum
    # moves the point exactly when its clamped one would
    np.maximum(coarse, 0.0, out=coarse)
    i_u, i_rest = divmod(int(coarse.argmax()), len(_COARSE_BETA) * len(_COARSE_GAMMA))
    i_beta, i_gamma = divmod(i_rest, len(_COARSE_GAMMA))
    best = coarse[i_u, i_beta, i_gamma]
    point = [_COARSE_U[i_u], _COARSE_BETA[i_beta], _COARSE_GAMMA[i_gamma]]
    for _ in range(_REFINE_ROUNDS):
        lines = []
        for axis in range(3):
            lo, hi = _bracket(point[axis], grids[axis], _REFINE_FLOORS[axis], _REFINE_CEIL)
            grids[axis] = _geom_grid(lo, hi, _REFINE_POINTS)
            lines.append([point[axis]] + grids[axis])
        # each line starts at the current point, so index 0 on an axis keeps it
        rates = _rates(N_signals, e_b, epsilon, epsilon_EC, *arguments(*lines))
        index: list[int | slice] = [0, 0, 0]
        for axis in range(3):
            index[axis] = slice(None)
            candidates = rates[tuple(index)]
            k = int(candidates.argmax())
            if candidates[k] > best:
                best = candidates[k]
            else:
                k = 0
            index[axis] = k
        point = [line[k] for line, k in zip(lines, index)]

    n, m, eps_bar, eps_bar_prime = (array.item() for array in arguments(*point))
    n, m = int(n), int(m)
    rate = finite_rate(
        FiniteKeyBudget(N_signals, n, m),
        SecurityParams(epsilon, epsilon_EC, eps_bar, eps_bar_prime),
        e_b,
    )
    if rate <= 0.0:
        return _zero_everywhere(N_signals, e_b)
    return FiniteKeyOptimum(N_signals, e_b, rate, n, m, eps_bar, eps_bar_prime)
