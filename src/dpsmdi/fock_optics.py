"""Fock-space model of the two-sender, three-time-bin interferometric setup.

States are sparse superpositions over six optical modes: three time bins
for each of two ports. On the input side the ports are the senders (a, b);
the untrusted relay's 50:50 beamsplitter maps them to output ports (c, d),
one threshold detector per output port and time bin. Each sender shifts
its two later bins by 0 or pi, so a phase setting is four bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

Pattern = Tuple[int, int, int, int, int, int]

INPUT = "input"
OUTPUT = "output"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BasisMismatchError(ValueError):
    """An operation was fed a state expressed in the wrong port basis."""


@dataclass(frozen=True)
class PhaseSetting:
    """Phase bits the senders apply to their second and third bins.

    The first time bin of each sender is the unmodulated reference, so a
    setting is four bits, bit value 1 meaning a pi shift: ``j_a1``/``j_a2``
    on the two later bins of sender a, ``j_b1``/``j_b2`` on those of
    sender b.
    """

    j_a1: int
    j_a2: int
    j_b1: int
    j_b2: int

    def __post_init__(self) -> None:
        for j in (self.j_a1, self.j_a2, self.j_b1, self.j_b2):
            if j not in (0, 1):
                raise ValueError(f"phase bits must be 0 or 1, got {j}")


def discrete_settings() -> List[PhaseSetting]:
    """All 16 phase settings, lexicographic in (j_a1, j_a2, j_b1, j_b2):
    setting index s is 8 j_a1 + 4 j_a2 + 2 j_b1 + j_b2."""
    return [PhaseSetting(*bits) for bits in itertools.product((0, 1), repeat=4)]


def _check_pattern(pattern: Pattern) -> None:
    if len(pattern) != 6:
        raise ValueError(f"occupation pattern needs 6 entries, got {pattern!r}")
    for n in pattern:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"occupation numbers must be non-negative ints: {pattern!r}")


@dataclass
class TwoPartyFockState:
    """Sparse superposition over six-mode occupation patterns.

    ``amplitudes`` maps ``(n_x1, n_x2, n_x3, n_y1, n_y2, n_y3)`` to a
    complex amplitude, where ``(x, y)`` is ``(a, b)`` in the input basis
    and ``(c, d)`` in the output basis. States are not forced to unit
    norm; callers that need probabilities normalize explicitly.
    """

    amplitudes: Dict[Pattern, complex]
    port_basis: str = INPUT

    def __post_init__(self) -> None:
        if self.port_basis not in (INPUT, OUTPUT):
            raise ValueError(f"port_basis must be {INPUT!r} or {OUTPUT!r}")
        for pattern in self.amplitudes:
            _check_pattern(pattern)
        self.amplitudes = {p: complex(a) for p, a in self.amplitudes.items()}

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "TwoPartyFockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return TwoPartyFockState({p: a / n for p, a in self.amplitudes.items()}, self.port_basis)

    def pruned(self, eps: float = 1e-14) -> "TwoPartyFockState":
        """Copy with amplitudes of magnitude <= eps dropped."""
        kept = {p: a for p, a in self.amplitudes.items() if abs(a) > eps}
        return TwoPartyFockState(kept, self.port_basis)


def encode_single_photon(j1: int, j2: int, port: str = "a") -> TwoPartyFockState:
    """Single photon spread over the three time bins of one sender port.

    Bin 1 is the reference; bins 2 and 3 carry signs (-1)**j1 and
    (-1)**j2. The other sender's modes stay in vacuum.
    """
    if port not in ("a", "b"):
        raise ValueError(f"photons are encoded on input ports 'a' or 'b', got {port!r}")
    for j in (j1, j2):
        if j not in (0, 1):
            raise ValueError(f"encoding bits must be 0 or 1, got {j}")
    offset = 0 if port == "a" else 3
    amp = 1.0 / math.sqrt(3.0)
    signs = (1.0, (-1.0) ** j1, (-1.0) ** j2)
    amplitudes: Dict[Pattern, complex] = {}
    for k in range(3):
        pattern = [0, 0, 0, 0, 0, 0]
        pattern[offset + k] = 1
        amplitudes[tuple(pattern)] = amp * signs[k]
    return TwoPartyFockState(amplitudes, INPUT)


def joint_input(setting: PhaseSetting) -> TwoPartyFockState:
    """Joint product state of both senders for one phase setting.

    Nine patterns with one photon per side; the amplitude of (bin k of a,
    bin l of b) is (-1)**(j_a,k + j_b,l) / 3 with bin-1 bits zero.
    """
    bits_a = (0, setting.j_a1, setting.j_a2)
    bits_b = (0, setting.j_b1, setting.j_b2)
    amplitudes: Dict[Pattern, complex] = {}
    for k in range(3):
        for l in range(3):
            pattern = [0, 0, 0, 0, 0, 0]
            pattern[k] = 1
            pattern[3 + l] += 1
            amplitudes[tuple(pattern)] = (-1.0) ** (bits_a[k] + bits_b[l]) / 3.0
    return TwoPartyFockState(amplitudes, INPUT)


def postselect_hom(state: TwoPartyFockState) -> Tuple[TwoPartyFockState, float]:
    """Drop patterns where both senders occupy the same time bin.

    Those are the components that bunch at the beamsplitter and carry no
    usable which-bin information. Returns the renormalized surviving
    state together with the survival probability.
    """
    if state.port_basis != INPUT:
        raise BasisMismatchError("bunching post-selection acts on input-basis states")
    total = state.norm_squared()
    if total == 0.0:
        raise ValueError("cannot post-select the zero state")
    kept = {
        p: a
        for p, a in state.amplitudes.items()
        if not any(p[k] >= 1 and p[3 + k] >= 1 for k in range(3))
    }
    survival = sum(abs(a) ** 2 for a in kept.values()) / total
    if not kept or survival == 0.0:
        raise ValueError("no amplitude survives the bunching post-selection")
    survivor = TwoPartyFockState(kept, INPUT).normalized()
    return survivor, survival


def _polynomial_times_split_mode(
    poly: Dict[Pattern, complex], time_bin_index: int, d_sign: float
) -> Dict[Pattern, complex]:
    """Multiply a creation-operator polynomial by (c_k + d_sign*d_k)/sqrt(2)."""
    out: Dict[Pattern, complex] = {}
    for exponents, coeff in poly.items():
        for offset, factor in (
            (time_bin_index, _INV_SQRT2),
            (time_bin_index + 3, d_sign * _INV_SQRT2),
        ):
            bumped = list(exponents)
            bumped[offset] += 1
            key = tuple(bumped)
            out[key] = out.get(key, 0j) + coeff * factor
    return out


def beamsplitter_transform(state: TwoPartyFockState) -> TwoPartyFockState:
    """Propagate an input-basis state through the relay's 50:50 beamsplitter.

    Creation operators map as a_k -> (c_k + d_k)/sqrt(2) and
    b_k -> (c_k - d_k)/sqrt(2). Each pattern is expanded as its
    creation-operator monomial (divided by sqrt(n!) per mode), the
    substitution is multiplied out, and output patterns pick up their
    own sqrt(n!) Fock normalization. Exact for any photon number.
    """
    if state.port_basis != INPUT:
        raise BasisMismatchError("the beamsplitter maps input-basis states to output basis")
    accumulated: Dict[Pattern, complex] = {}
    for pattern, amp in state.amplitudes.items():
        base = complex(amp)
        for n in pattern:
            base /= math.sqrt(math.factorial(n))
        poly: Dict[Pattern, complex] = {(0, 0, 0, 0, 0, 0): base}
        for k in range(3):
            for _ in range(pattern[k]):
                poly = _polynomial_times_split_mode(poly, k, +1.0)
            for _ in range(pattern[3 + k]):
                poly = _polynomial_times_split_mode(poly, k, -1.0)
        for out_pattern, coeff in poly.items():
            scale = 1.0
            for n in out_pattern:
                scale *= math.sqrt(math.factorial(n))
            accumulated[out_pattern] = accumulated.get(out_pattern, 0j) + coeff * scale
    return TwoPartyFockState(accumulated, OUTPUT)


def output_state(setting: PhaseSetting) -> TwoPartyFockState:
    """Full detector-side state for one phase setting, no post-selection."""
    return beamsplitter_transform(joint_input(setting))


def conclusive_output_state(setting: PhaseSetting) -> TwoPartyFockState:
    """Detector-side state conditioned on surviving the bunching post-selection."""
    survivor, _ = postselect_hom(joint_input(setting))
    return beamsplitter_transform(survivor)
