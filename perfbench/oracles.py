"""References the benchmark checks the program against, written apart from
the package: the stored mpmath table of the decoy sweep and the finite-key
formula as the finite_key module documents it."""

from __future__ import annotations

import json
import math
import os
from statistics import NormalDist

HERE = os.path.dirname(os.path.abspath(__file__))

SIFTED = 4.0 / 9.0
LEAK_FACTOR = 1.2
OUTCOMES = 9


def load_decoy_reference():
    with open(os.path.join(HERE, "decoy_reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def asymptotic_ceiling(e_b: float) -> float:
    """Infinite-block rate (4/9)(1 - 2 h(e_b) - 1.2 h(e_b)), at least 0."""
    return SIFTED * max(0.0, 1.0 - (2.0 + LEAK_FACTOR) * h2(e_b))


def finite_rate(N, n, m, e_b, eps, eps_ec, eps_bar, eps_bar_prime):
    """r = (n/N)(1 - h(e_b + xi(n)) - h(e_b + xi(m)) - (leak + delta)/n),
    clamped at 0; the entropy term is 0 once a broadened rate passes 1/2."""

    def xi(k):
        return math.sqrt((2.0 * math.log(1.0 / eps_bar_prime) + OUTCOMES * math.log(k + 1.0)) / k)

    eb, ep = e_b + xi(n), e_b + xi(m)
    entropy = 0.0 if eb > 0.5 or ep > 0.5 else 1.0 - h2(eb) - h2(ep)
    leak = LEAK_FACTOR * h2(e_b) * n
    delta = 2.0 * math.log2(1.0 / (2.0 * (eps - eps_bar - eps_ec))) + 7.0 * math.sqrt(
        n * math.log2(2.0 / (eps_bar - eps_bar_prime))
    )
    return max(0.0, (n / N) * (entropy - (leak + delta) / n))


# Feasible (u, beta, gamma) points: u is the share of the sifted budget spent
# on estimation, eps_bar = beta (eps - eps_EC), eps_bar' = gamma eps_bar. They
# lie on the optimizer's coarse grid, so its optimum can never fall below them.
FIXED_POINTS = tuple(
    (10.0 ** (-7.0 + 6.954 * k / 24.0), beta, gamma)
    for k in (6, 12, 18, 24)
    for beta, gamma in ((0.1, 0.03), (0.5, 0.3), (0.9, 0.9))
)


def fixed_point_rates(N, e_b, eps, eps_ec):
    total = (4 * N) // 9
    rates = []
    for u, beta, gamma in FIXED_POINTS:
        m = min(max(int(round(total * u)), 1), total - 1)
        eps_bar = beta * (eps - eps_ec)
        rates.append(
            finite_rate(N, total - m, m, e_b, eps, eps_ec, eps_bar, gamma * eps_bar)
        )
    return rates


def sigma_distance(k: int, n: int, p: float) -> float:
    """How far k successes in n trials lie from the mean n p, as the number
    of standard deviations of a normal variable with the same two-sided
    tail probability. The tail is exact (binomial) when n p (1 - p) is
    small, where the normal approximation would understate it."""
    mean, var = n * p, n * p * (1.0 - p)
    if var >= 400.0:
        return abs(k - mean) / math.sqrt(var)
    if var == 0.0:
        return 0.0 if k == mean else math.inf

    def pmf(j):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )

    if k > mean:
        tail = max(0.0, 1.0 - math.fsum(pmf(j) for j in range(k)))
    else:
        tail = math.fsum(pmf(j) for j in range(k + 1))
    two_sided = min(1.0, 2.0 * tail)
    return abs(NormalDist().inv_cdf(two_sided / 2.0)) if two_sided > 0.0 else math.inf
