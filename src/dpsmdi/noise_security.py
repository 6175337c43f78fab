"""Per-bin amplitude noise model and the closed-form error rates.

Each side's channel (including anything an adversary does to it) is
summarized by a 3x3 complex matrix whose (i, j) entry is the amplitude
for a photon in time bin j to end up in time bin i. From the two
matrices the sifted-bit error probability, the phase error probability
and their non-negative difference follow in closed form; the difference
being a sum of squared magnitudes is what gives the one-way bound
"phase error rate <= bit error rate" that the key-rate modules rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

_PREFACTOR = 16.0 / 288.0


@dataclass
class NoiseMatrix:
    """3x3 complex amplitude map on one sender's time bins.

    ``entries[i, j]`` is the amplitude taking bin j to bin i. Column
    norms at most 1 mark a map that can be realized with at most unit
    probability per input bin.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (3, 3):
            raise ValueError(f"noise matrix must be 3x3, got shape {arr.shape}")
        self.entries = arr

    @classmethod
    def identity(cls) -> "NoiseMatrix":
        return cls(np.eye(3, dtype=complex))


def haar_random_physical(
    rng: np.random.Generator, damping: Optional[Iterable[float]] = None
) -> NoiseMatrix:
    """Haar-random unitary, optionally right-composed with diagonal damping.

    With damping values in [0, 1] the column norms stay <= 1, so the
    result is always physical. Used as the randomized-input generator
    for the property tests.
    """
    gaussian = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(gaussian)
    # Fix the QR gauge so the distribution is Haar rather than QR-biased.
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    if damping is not None:
        damp = np.asarray(list(damping), dtype=float)
        if damp.shape != (3,) or np.any(damp < 0.0) or np.any(damp > 1.0):
            raise ValueError("damping must be 3 values in [0, 1]")
        q = q @ np.diag(damp)
    return NoiseMatrix(q)


def _sum_of_squares_minus_difference(x: complex, y: complex) -> float:
    """|x|^2 + |y|^2 - |x - y|^2, i.e. twice the real overlap of x and y."""
    return abs(x) ** 2 + abs(y) ** 2 - abs(x - y) ** 2


def _brackets(a: np.ndarray, b: np.ndarray) -> Tuple[float, float, float, float]:
    """The four bracket products, one per kept coincidence class: each
    pairs the overlap of the relevant bin amplitudes on side a with the
    matching overlap on side b."""
    return (
        _sum_of_squares_minus_difference(a[0, 1], a[0, 0])
        * _sum_of_squares_minus_difference(b[1, 1], b[1, 0]),
        _sum_of_squares_minus_difference(a[1, 0], a[1, 1])
        * _sum_of_squares_minus_difference(b[0, 1], b[0, 0]),
        _sum_of_squares_minus_difference(a[0, 2], a[0, 0])
        * _sum_of_squares_minus_difference(b[2, 2], b[2, 0]),
        _sum_of_squares_minus_difference(a[2, 2], a[2, 0])
        * _sum_of_squares_minus_difference(b[0, 2], b[0, 0]),
    )


def bit_error_rate(noise_a: NoiseMatrix, noise_b: NoiseMatrix) -> float:
    """Closed-form sifted-bit error probability for one time slot: one
    minus the prefactor times the four bracket products.

    Note the convention is unnormalized by the coincidence success
    probability, so noiseless channels evaluate to 1 rather than 0;
    downstream consumers only ever use differences and bounds, which are
    unaffected.
    """
    return 1.0 - _PREFACTOR * sum(_brackets(noise_a.entries, noise_b.entries))


def _gap_groups(a: np.ndarray, b: np.ndarray) -> Tuple[float, float, float, float]:
    """The four non-negative summands separating bit and phase errors."""
    g1 = abs(a[0, 1]) ** 2 * (abs(b[1, 0]) ** 2 + abs(b[1, 2]) ** 2) + abs(
        b[1, 1]
    ) ** 2 * (abs(a[0, 0]) ** 2 + abs(a[0, 2]) ** 2)
    g2 = abs(a[1, 1]) ** 2 * (abs(b[0, 0]) ** 2 + abs(b[0, 2]) ** 2) + abs(
        b[0, 1]
    ) ** 2 * (abs(a[1, 0]) ** 2 + abs(a[1, 2]) ** 2)
    g3 = abs(a[0, 2]) ** 2 * (abs(b[2, 0]) ** 2 + abs(b[2, 1]) ** 2) + abs(
        b[2, 2]
    ) ** 2 * (abs(a[0, 0]) ** 2 + abs(a[0, 1]) ** 2)
    g4 = abs(a[2, 2]) ** 2 * (abs(b[0, 0]) ** 2 + abs(b[0, 1]) ** 2) + abs(
        b[0, 2]
    ) ** 2 * (abs(a[2, 0]) ** 2 + abs(a[2, 1]) ** 2)
    return g1, g2, g3, g4


def error_gap(noise_a: NoiseMatrix, noise_b: NoiseMatrix) -> float:
    """bit_error_rate minus phase_error_rate, as an explicit sum.

    Every summand is a product of squared magnitudes, so the gap is
    non-negative for any complex input; that single fact is the phase
    error bound.
    """
    g1, g2, g3, g4 = _gap_groups(noise_a.entries, noise_b.entries)
    return 2.0 * _PREFACTOR * (g1 + g2 + g3 + g4)


def phase_error_rate(noise_a: NoiseMatrix, noise_b: NoiseMatrix) -> float:
    """Closed-form phase error probability for one time slot.

    Same unnormalized convention as bit_error_rate. Computed from its
    own per-class accumulation (bracket plus twice the gap summand per
    class) rather than by calling the other two functions, so agreement
    with bit_error_rate - error_gap compares two differently grouped sums.
    """
    a = noise_a.entries
    b = noise_b.entries
    class_terms = (
        bracket + 2.0 * gap for bracket, gap in zip(_brackets(a, b), _gap_groups(a, b))
    )
    return 1.0 - _PREFACTOR * sum(class_terms)
