"""Announcement classification, bit extraction, and the ancilla mapping."""

import re
from dataclasses import fields
from fractions import Fraction

import pytest

from dpsmdi import checks, protocol_sifting
from dpsmdi.fock_optics import PhaseSetting
from dpsmdi.protocol_sifting import (
    Action,
    BellLabel,
    DetectionOutcome,
    Register,
    SiftDecision,
    conclusive_rows,
    extract_bits,
    sift,
    sifted_key_fraction,
)


def outcome(*clicks):
    return DetectionOutcome(frozenset(clicks))


def test_keep_rows_same_detector():
    for detector in ("c", "d"):
        for late_bin, register in ((2, Register.A1B1), (3, Register.A2B2)):
            decision = sift(outcome((detector, 1), (detector, late_bin)))
            assert decision.action is Action.KEEP
            assert decision.register is register
            assert decision.bit_flip is False


def test_keep_rows_cross_detector_flip():
    for first, second in ((("c", 1), ("d", 2)), (("d", 1), ("c", 2))):
        decision = sift(outcome(first, second))
        assert decision == SiftDecision(Action.KEEP, Register.A1B1, True)
    for first, second in ((("c", 1), ("d", 3)), (("d", 1), ("c", 3))):
        decision = sift(outcome(first, second))
        assert decision == SiftDecision(Action.KEEP, Register.A2B2, True)


def test_discard_rows_skip_reference_bin():
    for clicks in (
        (("c", 2), ("c", 3)),
        (("d", 2), ("d", 3)),
        (("c", 2), ("d", 3)),
        (("c", 3), ("d", 2)),
    ):
        assert sift(outcome(*clicks)).action is Action.DISCARD


def test_unmatched_announcements_are_inconclusive():
    assert sift(outcome()).action is Action.INCONCLUSIVE
    assert sift(outcome(("c", 2))).action is Action.INCONCLUSIVE
    # same bin on both detectors never matches a table row
    for time_bin in (1, 2, 3):
        decision = sift(outcome(("c", time_bin), ("d", time_bin)))
        assert decision.action is Action.INCONCLUSIVE
        assert decision.register is None
        assert decision.bit_flip is None


def test_outcome_rejects_more_than_two_clicks():
    with pytest.raises(ValueError):
        DetectionOutcome(frozenset({("c", 1), ("c", 2), ("d", 3)}))
    with pytest.raises(ValueError):
        DetectionOutcome(frozenset({("e", 1)}))
    with pytest.raises(ValueError, match="time_bin must be 1, 2 or 3"):
        DetectionOutcome(frozenset({("c", 4)}))


def test_decision_field_coupling():
    assert [f.name for f in fields(SiftDecision)] == ["action", "register", "bit_flip"]
    with pytest.raises(ValueError):
        SiftDecision(Action.KEEP)  # missing register and flip
    with pytest.raises(ValueError):
        SiftDecision(Action.KEEP, Register.A1B1)  # missing flip
    with pytest.raises(ValueError):
        SiftDecision(Action.DISCARD, Register.A1B1)
    with pytest.raises(ValueError):
        SiftDecision(Action.DISCARD, bit_flip=False)


def test_extract_bits_unflipped():
    decision = sift(outcome(("c", 1), ("c", 2)))
    setting = PhaseSetting(1, 0, 0, 0)
    assert extract_bits(decision, setting) == (1, 0)
    setting2 = PhaseSetting(1, 0, 1, 0)
    assert extract_bits(decision, setting2) == (1, 1)


def test_extract_bits_flip_inverts_bob():
    """A cross-detector announcement anti-correlates the raw phases, so
    the recorded bits agree only after Bob's inversion."""
    decision = sift(outcome(("c", 1), ("d", 2)))
    setting = PhaseSetting(0, 0, 1, 0)
    assert extract_bits(decision, setting) == (0, 0)


def test_extract_bits_uses_selected_phase_pair():
    decision = sift(outcome(("d", 1), ("d", 3)))  # second phase difference
    setting = PhaseSetting(0, 1, 0, 1)
    assert extract_bits(decision, setting) == (1, 1)


def test_extract_bits_non_keep_and_bad_phase():
    assert extract_bits(sift(outcome(("c", 2), ("c", 3))), PhaseSetting(0, 0, 0, 0)) is None
    # a phase that is no multiple of pi has no bit, and no setting holds it
    with pytest.raises(ValueError):
        PhaseSetting(0.3, 0, 0, 0)


def test_sifted_key_fraction_exact():
    assert sifted_key_fraction() == Fraction(4, 9)


def test_conclusive_rows_are_complete():
    rows = conclusive_rows()
    assert len(rows) == 12
    actions = [d.action for d in rows.values()]
    assert actions.count(Action.KEEP) == 8
    assert actions.count(Action.DISCARD) == 4
    # table order: keeps first
    assert all(a is Action.KEEP for a in actions[:8])
    # a copy: dropping a row from it leaves sift as it was
    dropped = outcome(("c", 1), ("c", 2))
    del rows[dropped]
    assert sift(dropped) == SiftDecision(Action.KEEP, Register.A1B1, False)


def test_click_mask_layout():
    # bits 0..2 the 'c' detector in bins 1..3, bits 3..5 the 'd' detector
    assert outcome(("c", 1), ("d", 2)).mask == 0b010001
    assert DetectionOutcome.from_mask(0b100100) == outcome(("c", 3), ("d", 3))
    for mask in range(64):
        if bin(mask).count("1") <= 2:
            assert DetectionOutcome.from_mask(mask).mask == mask
        else:
            with pytest.raises(ValueError):
                DetectionOutcome.from_mask(mask)


def test_from_pattern_roundtrip():
    assert DetectionOutcome.from_pattern((1, 0, 0, 0, 1, 0)) == outcome(("c", 1), ("d", 2))
    assert DetectionOutcome.from_pattern((0, 0, 0, 0, 0, 0)) == outcome()
    # threshold detection collapses double occupancy to one click
    assert DetectionOutcome.from_pattern((2, 0, 0, 0, 0, 0)) == outcome(("c", 1))


def rejected_as(register):
    """The Bell check's failure at (c,1)+(c,2), whose phi- factor sits on
    A1B1, when sift names ``register`` for it."""
    message = f"(c,1)+(c,2) leaves no phi_minus state on register {register}"
    return pytest.raises(checks.CheckFailure, match=f"^{re.escape(message)}$")


def test_entanglement_mapping_rejects_non_keep(monkeypatch):
    # an announcement the rule keeps but sift discards names no register
    announced = outcome(("c", 1), ("c", 2))
    monkeypatch.setitem(protocol_sifting._DECISION_TABLE, announced, SiftDecision(Action.DISCARD))
    with rejected_as(None):
        checks.bell_state_mapping()


def test_entanglement_mapping_names_the_bell_state(monkeypatch):
    # unflipped rows leave phi-, flipped rows psi-, on the register sift
    # names; a rule naming the other state fails at the first kept row
    checks.bell_state_mapping()
    rule = checks._rule
    other = {
        BellLabel.CORRELATED: BellLabel.ANTICORRELATED,
        BellLabel.ANTICORRELATED: BellLabel.CORRELATED,
        None: None,
    }

    def flipped(announced):
        decision, label = rule(announced)
        return decision, other[label]

    monkeypatch.setattr(checks, "_rule", flipped)
    with pytest.raises(checks.CheckFailure, match="leaves no psi_minus state on register A1B1"):
        checks.bell_state_mapping()


def test_entanglement_mapping_rejects_a_wrong_register(monkeypatch):
    # a table naming A2B2 for (c,1)+(c,2) must fail
    announced = outcome(("c", 1), ("c", 2))
    table_row = SiftDecision(Action.KEEP, Register.A2B2, False)
    monkeypatch.setitem(protocol_sifting._DECISION_TABLE, announced, table_row)
    with rejected_as("A2B2"):
        checks.bell_state_mapping()
