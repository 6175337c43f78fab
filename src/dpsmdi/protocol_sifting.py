"""Announcement alphabet and reconciliation rules of the relay protocol.

The relay announces which threshold detectors fired in which time bins.
Coincidences that pair the first bin with a later bin let the senders
keep a bit (flipping Bob's when the detectors differ), coincidences on
the two later bins are discarded, and everything else is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .fock_optics import PhaseSetting, discrete_settings, output_state

Click = Tuple[str, int]

# The relay's six detector-bins in output-mode order: entry i is mode i of
# an occupation pattern and bit i of a click mask.
_DETECTOR_BINS: Tuple[Click, ...] = tuple((d, t) for d in "cd" for t in (1, 2, 3))


class Action(str, Enum):
    KEEP = "Keep"
    DISCARD = "Discard"
    INCONCLUSIVE = "Inconclusive"


class BellLabel(str, Enum):
    """Bell state shared on the retained ancilla register after a Keep."""

    CORRELATED = "phi_minus"  # (|00> - |11>)/sqrt(2)
    ANTICORRELATED = "psi_minus"  # (|01> - |10>)/sqrt(2)


class Register(str, Enum):
    """The ancilla register a kept bit is read from, in the
    entanglement-based picture: A1B1 holds the senders' bin-2 phase bits,
    A2B2 their bin-3 bits."""

    A1B1 = "A1B1"
    A2B2 = "A2B2"


@dataclass(frozen=True)
class DetectionOutcome:
    """Set of relay clicks, each a (detector, time_bin) pair.

    Threshold detectors give at most one click per (detector, bin), and
    single-photon inputs never produce more than two clicks, so 0, 1 or
    2 entries are allowed.
    """

    clicks: FrozenSet[Click] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        clicks = frozenset(tuple(c) for c in self.clicks)
        object.__setattr__(self, "clicks", clicks)
        if len(clicks) > 2:
            raise ValueError(f"at most 2 clicks per announcement, got {len(clicks)}")
        for detector, time_bin in clicks:
            if detector not in ("c", "d"):
                raise ValueError(f"detector must be 'c' or 'd', got {detector!r}")
            if time_bin not in (1, 2, 3):
                raise ValueError(f"time_bin must be 1, 2 or 3, got {time_bin}")

    def __str__(self) -> str:
        if not self.clicks:
            return "(none)"
        return "+".join(f"({d},{t})" for d, t in sorted(self.clicks))

    @property
    def mask(self) -> int:
        """Click mask: bits 0..2 the 'c' detector in bins 1..3, bits 3..5
        the 'd' detector."""
        return sum(1 << _DETECTOR_BINS.index(click) for click in self.clicks)

    @classmethod
    def from_mask(cls, mask: int) -> "DetectionOutcome":
        """Clicks of a click mask (see ``mask``)."""
        return cls(frozenset(c for i, c in enumerate(_DETECTOR_BINS) if mask >> i & 1))

    @classmethod
    def from_pattern(cls, pattern: Sequence[int]) -> "DetectionOutcome":
        """Clicks implied by a six-mode photon-number pattern.

        Mode order matches the detector-side state: (c1, c2, c3, d1, d2, d3).
        Threshold detection: any positive occupancy is one click.
        """
        return cls(frozenset(c for c, n in zip(_DETECTOR_BINS, pattern) if n > 0))


@dataclass(frozen=True)
class SiftDecision:
    """What the senders do with one announcement.

    ``register`` names the ancilla register a kept bit is read from, and
    ``bit_flip`` whether Bob inverts his; both are set exactly for Keep
    decisions.
    """

    action: Action
    register: Optional[Register] = None
    bit_flip: Optional[bool] = None

    def __post_init__(self) -> None:
        keep = self.action is Action.KEEP
        if (self.register is None) == keep:
            raise ValueError("register is set exactly for Keep decisions")
        if (self.bit_flip is None) == keep:
            raise ValueError("bit_flip is defined exactly for Keep decisions")


def _keep(register: Register, flip: bool) -> SiftDecision:
    return SiftDecision(Action.KEEP, register, flip)


# The 12 conclusive announcement rows, in documentation order: first the
# unflipped coincidences (same detector, bin 1 with bin 2 or 3), then the
# flipped ones (opposite detectors), then the discarded bins-{2,3} pairs.
_DECISION_TABLE: Dict[DetectionOutcome, SiftDecision] = {
    DetectionOutcome(frozenset(clicks)): decision
    for clicks, decision in (
        ({("c", 1), ("c", 2)}, _keep(Register.A1B1, False)),
        ({("d", 1), ("d", 2)}, _keep(Register.A1B1, False)),
        ({("c", 1), ("c", 3)}, _keep(Register.A2B2, False)),
        ({("d", 1), ("d", 3)}, _keep(Register.A2B2, False)),
        ({("c", 1), ("d", 2)}, _keep(Register.A1B1, True)),
        ({("c", 2), ("d", 1)}, _keep(Register.A1B1, True)),
        ({("c", 1), ("d", 3)}, _keep(Register.A2B2, True)),
        ({("c", 3), ("d", 1)}, _keep(Register.A2B2, True)),
        ({("c", 2), ("c", 3)}, SiftDecision(Action.DISCARD)),
        ({("d", 2), ("d", 3)}, SiftDecision(Action.DISCARD)),
        ({("c", 2), ("d", 3)}, SiftDecision(Action.DISCARD)),
        ({("c", 3), ("d", 2)}, SiftDecision(Action.DISCARD)),
    )
}

_INCONCLUSIVE = SiftDecision(Action.INCONCLUSIVE)

# Bell vectors over (sender-a bit, sender-b bit), index 2*a + b.
_BELL_VECTORS = {
    BellLabel.CORRELATED: np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    BellLabel.ANTICORRELATED: np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
}


def sift(outcome: DetectionOutcome) -> SiftDecision:
    """Classify one announcement per the reconciliation table.

    The 8 Keep and 4 Discard coincidence rows are matched exactly;
    every other announcement (no click, one click, or a same-bin
    cross-detector pair) is Inconclusive.
    """
    return _DECISION_TABLE.get(outcome, _INCONCLUSIVE)


def extract_bits(
    decision: SiftDecision, setting: PhaseSetting
) -> Optional[Tuple[int, int]]:
    """Final key bits of both senders for a Keep decision.

    Each sender's bit is their phase bit on the bin of the decision's
    register; Bob's bit is inverted when the decision carries a flip.
    Returns None for non-Keep decisions.
    """
    if decision.action is not Action.KEEP:
        return None
    if decision.register is Register.A1B1:
        alice, bob = setting.j_a1, setting.j_b1
    else:
        alice, bob = setting.j_a2, setting.j_b2
    return alice, bob ^ decision.bit_flip


def sifted_key_fraction() -> Fraction:
    """Fraction of rounds that yield a key bit: 2/3 survive bunching,
    2 of 3 surviving coincidence classes are kept."""
    return Fraction(2, 3) * Fraction(2, 3)


def conclusive_rows() -> Dict[DetectionOutcome, SiftDecision]:
    """All 12 two-click reconciliation rows, in table order: every
    announcement ``sift`` does not call Inconclusive.  A copy: changing
    it leaves ``sift`` as it is."""
    return dict(_DECISION_TABLE)


def verify_entanglement_mapping(outcome: DetectionOutcome) -> BellLabel:
    """Bell state left on the senders' ancilla qubits after a Keep announcement.

    Rebuilds the joint state in the equivalent entanglement-based picture:
    each sender holds two ancilla qubits (one per modulated bin) that are
    uniformly entangled with the emitted phase pattern. Projecting the
    optical part onto the announced click pattern leaves a 16-component
    ancilla vector over (A1, B1, A2, B2); it must factorize into a Bell
    state on the register ``sift`` names and a Z-uniform state on the
    other register, or this raises.
    """
    decision = sift(outcome)
    if decision.action is not Action.KEEP:
        raise ValueError(f"entanglement mapping is defined for Keep outcomes, got {outcome}")
    # one photon in each clicked detector-bin
    pattern = tuple(int(click in outcome.clicks) for click in _DETECTOR_BINS)

    # ancilla[a1, b1, a2, b2] = optical amplitude of the click pattern
    # when the senders' phase bits equal the ancilla basis labels.
    ancilla = np.zeros((2, 2, 2, 2), dtype=complex)
    for s in discrete_settings():
        ancilla[s.j_a1, s.j_b1, s.j_a2, s.j_b2] = output_state(s).amplitudes.get(pattern, 0j)
    matrix = ancilla.reshape(4, 4)  # rows: (A1,B1), columns: (A2,B2)
    if np.linalg.matrix_rank(matrix, tol=1e-9) != 1:
        raise AssertionError(f"projected ancilla state for {outcome} does not factorize")

    # Rank 1: split into kept-register and traced-out-register factors.
    i0, j0 = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
    row_factor = matrix[:, j0]
    col_factor = matrix[i0, :] / matrix[i0, j0]
    if not np.allclose(np.outer(row_factor, col_factor), matrix, atol=1e-12):
        raise AssertionError(f"rank-1 factorization failed for {outcome}")

    if decision.register is Register.A1B1:
        kept, other = row_factor, col_factor
    else:
        kept, other = col_factor, row_factor

    other_mags = np.abs(other)
    if not np.allclose(other_mags, other_mags[0], atol=1e-12):
        raise AssertionError(f"traced-out register is not Z-uniform for {outcome}")

    kept = kept / np.linalg.norm(kept)
    for label, vector in _BELL_VECTORS.items():
        if abs(np.vdot(vector, kept)) >= 1.0 - 1e-9:
            return label
    raise AssertionError(f"kept register state for {outcome} is not a recognized Bell state")
