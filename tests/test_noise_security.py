"""Collective-noise error rates and the conjugate-basis bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsmdi import checks
from dpsmdi.noise_security import (
    NoiseMatrix,
    bit_error_rate,
    error_gap,
    haar_random_physical,
    phase_error_rate,
)

finite = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
matrix_floats = st.lists(finite, min_size=18, max_size=18)


def noise_from_floats(values):
    """Noise matrix of 18 reals: row-major entries, re/im interleaved."""
    flat = np.asarray(values, dtype=float)
    return NoiseMatrix((flat[0::2] + 1j * flat[1::2]).reshape(3, 3))


def test_identity_noise_reference_values():
    """Frozen reference point: no cross-bin amplitudes at either sender."""
    identity = NoiseMatrix.identity()
    assert bit_error_rate(identity, identity) == pytest.approx(1.0, abs=1e-12)
    assert error_gap(identity, identity) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert phase_error_rate(identity, identity) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_noise_matrix_validates_shape():
    with pytest.raises(ValueError):
        NoiseMatrix(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        NoiseMatrix(np.zeros(9))


def test_haar_random_is_physical():
    rng = np.random.default_rng(5)
    for _ in range(50):
        # column norms at most 1: at most unit probability per input bin
        unitary = haar_random_physical(rng)
        assert np.allclose(np.linalg.norm(unitary.entries, axis=0), 1.0, atol=1e-12)
        damped = haar_random_physical(rng, damping=[0.3, 0.9, 0.5])
        norms = np.linalg.norm(damped.entries, axis=0)
        assert np.allclose(norms, [0.3, 0.9, 0.5], atol=1e-12)
    with pytest.raises(ValueError):
        haar_random_physical(rng, damping=[0.5, 0.5])
    with pytest.raises(ValueError):
        haar_random_physical(rng, damping=[0.5, 0.5, 1.5])


@settings(max_examples=300, deadline=None)
@given(matrix_floats, matrix_floats)
def test_phase_error_never_exceeds_bit_error(a_floats, b_floats):
    """The gap is a sum of products of squared magnitudes, hence >= 0,
    for arbitrary complex matrices, physical or not, and two independent
    arithmetic paths give the same decomposition."""
    noise_a = noise_from_floats(a_floats)
    noise_b = noise_from_floats(b_floats)
    checks.phase_error_bound([(noise_a, noise_b)])


def test_gap_scales_with_fourth_power():
    # every gap term is a product of two squared magnitudes per sender
    rng = np.random.default_rng(23)
    noise_a = haar_random_physical(rng)
    noise_b = haar_random_physical(rng)
    base = error_gap(noise_a, noise_b)
    half_a = NoiseMatrix(noise_a.entries * 0.5)
    half_b = NoiseMatrix(noise_b.entries * 0.5)
    assert error_gap(half_a, half_b) == pytest.approx(base / 16.0, rel=1e-9)
