"""State algebra: encoding, interference, post-selection."""

import itertools
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsmdi.fock_optics import (
    INPUT,
    OUTPUT,
    BasisMismatchError,
    PhaseSetting,
    TwoPartyFockState,
    beamsplitter_transform,
    discrete_settings,
    encode_single_photon,
    joint_input,
    output_state,
    postselect_hom,
)
from dpsmdi.protocol_sifting import Action, DetectionOutcome, Register, sift


def test_phase_setting_differences():
    """The phase difference on a later bin is the xor of the senders'
    bits there: the relative sign of (a in that bin, b in bin 1) and
    (a in bin 1, b in that bin)."""
    amplitudes = joint_input(PhaseSetting(1, 0, 0, 1)).amplitudes
    # bin 2: j_a1 xor j_b1 = 1; bin 3: j_a2 xor j_b2 = 1
    assert amplitudes[(0, 1, 0, 1, 0, 0)] == -amplitudes[(1, 0, 0, 0, 1, 0)]
    assert amplitudes[(0, 0, 1, 1, 0, 0)] == -amplitudes[(1, 0, 0, 0, 0, 1)]
    same = joint_input(PhaseSetting(1, 1, 1, 1)).amplitudes
    assert same[(0, 1, 0, 1, 0, 0)] == same[(1, 0, 0, 0, 1, 0)]
    assert same[(0, 0, 1, 1, 0, 0)] == same[(1, 0, 0, 0, 0, 1)]


def test_phase_setting_is_four_bits():
    assert [(f.name, f.type) for f in fields(PhaseSetting)] == [
        ("j_a1", "int"), ("j_a2", "int"), ("j_b1", "int"), ("j_b2", "int")
    ]
    # a multiple of pi beyond pi is no bit either
    for bits in ((2, 0, 0, 0), (0, 0, 0, -1)):
        with pytest.raises(ValueError):
            PhaseSetting(*bits)


def test_discrete_settings_enumeration():
    settings_list = discrete_settings()
    # setting index s is 8 j_a1 + 4 j_a2 + 2 j_b1 + j_b2
    assert [(s.j_a1, s.j_a2, s.j_b1, s.j_b2) for s in settings_list] == list(
        itertools.product((0, 1), repeat=4)
    )
    assert len(set(settings_list)) == 16


def test_single_photon_encoding_amplitudes():
    """Each bit pattern flips the sign of the matching later bin."""
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    state = encode_single_photon(0, 0, port="a")
    assert state.amplitudes[(1, 0, 0, 0, 0, 0)] == pytest.approx(inv_sqrt3)
    assert state.amplitudes[(0, 1, 0, 0, 0, 0)] == pytest.approx(inv_sqrt3)
    assert state.amplitudes[(0, 0, 1, 0, 0, 0)] == pytest.approx(inv_sqrt3)
    flipped = encode_single_photon(1, 0, port="b")
    assert flipped.amplitudes[(0, 0, 0, 0, 1, 0)] == pytest.approx(-inv_sqrt3)
    assert flipped.amplitudes[(0, 0, 0, 0, 0, 1)] == pytest.approx(inv_sqrt3)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="input ports 'a' or 'b'"):
        encode_single_photon(0, 0, port="c")
    for bits in ((2, 0), (0, -1)):
        with pytest.raises(ValueError, match="encoding bits must be 0 or 1"):
            encode_single_photon(*bits)


def test_joint_input_norm_and_size():
    for setting in discrete_settings():
        state = joint_input(setting)
        assert state.port_basis == INPUT
        assert len(state.amplitudes) == 9
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_postselection_survival_probability():
    # Two photons land in the same bin in 3 of 9 product terms.
    for setting in discrete_settings():
        survivor, survival = postselect_hom(joint_input(setting))
        assert survival == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert survivor.norm() == pytest.approx(1.0, abs=1e-12)
        for pattern in survivor.amplitudes:
            same_bin = any(pattern[k] and pattern[3 + k] for k in range(3))
            assert not same_bin


def test_postselection_rejects_wrong_basis_and_zero():
    out = output_state(discrete_settings()[0])
    with pytest.raises(BasisMismatchError):
        postselect_hom(out)
    with pytest.raises(ValueError):
        postselect_hom(TwoPartyFockState({}, INPUT))
    # both photons in time bin 1: every amplitude bunches
    with pytest.raises(ValueError, match="no amplitude survives"):
        postselect_hom(TwoPartyFockState({(1, 0, 0, 1, 0, 0): 1.0}, INPUT))
    with pytest.raises(ValueError, match="cannot normalize the zero state"):
        TwoPartyFockState({}, INPUT).normalized()
    # the beamsplitter acts once, on input-basis states
    with pytest.raises(BasisMismatchError):
        beamsplitter_transform(out)


def probability(state, pattern):
    return abs(state.amplitudes.get(pattern, 0j)) ** 2


def test_beamsplitter_bunches_same_bin_photons():
    """One photon per arm in the same bin never produces a coincidence."""
    state = TwoPartyFockState({(1, 0, 0, 1, 0, 0): 1.0}, INPUT)
    transformed = beamsplitter_transform(state)
    expect = 1.0 / math.sqrt(2.0)
    assert probability(transformed, (2, 0, 0, 0, 0, 0)) == pytest.approx(0.5, abs=1e-12)
    assert probability(transformed, (0, 0, 0, 2, 0, 0)) == pytest.approx(0.5, abs=1e-12)
    assert transformed.amplitudes[(2, 0, 0, 0, 0, 0)].real == pytest.approx(expect)
    # the coincidence amplitude cancels
    assert probability(transformed, (1, 0, 0, 1, 0, 0)) == pytest.approx(0.0, abs=1e-24)


def test_beamsplitter_acts_per_time_bin():
    state = TwoPartyFockState({(1, 0, 0, 0, 1, 0): 1.0}, INPUT)
    transformed = beamsplitter_transform(state)
    # distinct bins: four equally likely two-click patterns
    for pattern in ((1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0),
                    (0, 1, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0)):
        assert probability(transformed, pattern) == pytest.approx(0.25, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * 6).filter(
            lambda p: 0 < sum(p) <= 3
        ),
        st.complex_numbers(
            min_magnitude=0.0, max_magnitude=2.0, allow_infinity=False, allow_nan=False
        ),
        min_size=1,
        max_size=6,
    )
)
def test_beamsplitter_preserves_norm(amplitudes):
    state = TwoPartyFockState(amplitudes, INPUT)
    transformed = beamsplitter_transform(state)
    assert transformed.port_basis == OUTPUT
    assert transformed.norm_squared() == pytest.approx(
        state.norm_squared(), rel=1e-9, abs=1e-12
    )


def test_output_state_completeness():
    """Kept + discarded + inconclusive weights exhaust the output state."""
    for setting in discrete_settings():
        # cancelled same-bin coincidence terms stay in the dict with zero
        # amplitude; prune before classifying
        state = output_state(setting).pruned()
        weights = {action: 0.0 for action in Action}
        per_register = {Register.A1B1: [], Register.A2B2: []}
        for pattern, amp in state.amplitudes.items():
            weight = abs(amp) ** 2
            decision = sift(DetectionOutcome.from_pattern(pattern))
            weights[decision.action] += weight
            if decision.action is Action.KEEP:
                per_register[decision.register].append(weight)
            elif decision.action is Action.INCONCLUSIVE:
                # only bunched photons (two in one detector-bin) go unannounced
                assert max(pattern) == 2, pattern
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert weights[Action.KEEP] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert weights[Action.DISCARD] == pytest.approx(2.0 / 9.0, abs=1e-12)
        assert weights[Action.INCONCLUSIVE] == pytest.approx(1.0 / 3.0, abs=1e-12)
        # per register, only one detector pairing (same or cross, by the
        # phase difference) interferes constructively: two patterns of 1/9
        for kept in per_register.values():
            assert kept == pytest.approx([1.0 / 9.0, 1.0 / 9.0], abs=1e-12)


def test_pruned_drops_small_amplitudes():
    state = TwoPartyFockState(
        {(1, 0, 0, 0, 0, 0): 1.0, (0, 1, 0, 0, 0, 0): 1e-16}, INPUT
    )
    assert len(state.pruned().amplitudes) == 1


def test_pattern_validation():
    with pytest.raises(ValueError):
        TwoPartyFockState({(1, 0, 0, 0, 0): 1.0}, INPUT)  # five modes
    with pytest.raises(ValueError):
        TwoPartyFockState({(1, 0, 0, 0, 0, -1): 1.0}, INPUT)
    with pytest.raises(ValueError):
        TwoPartyFockState({(1, 0, 0, 0, 0, 0): 1.0}, "ab")
