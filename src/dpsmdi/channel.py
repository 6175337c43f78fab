"""The link every rate, the config and the simulator share.

Two sender arms of fiber meet at the relay; the detector efficiency, dark
counts, misalignment and the error-correction inefficiency complete the
model.  This module reads only the standard library, so the closed-form
rates and the config can use it without loading the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The standard link every default of the package reads: the operating point
# of Lo, Curty & Qi, PRL 108, 130503 (2012).
ETA_DET = 0.145  # detector efficiency
P_DARK = 3e-6  # dark-count probability per detector per bin
E_D = 0.015  # misalignment error probability
ALPHA_DB_PER_KM = 0.2  # fiber loss
F_EC = 1.16  # error-correction inefficiency


@dataclass(frozen=True)
class ChannelParams:
    """Physical channel and detection parameters for one simulation point.

    eta_a/eta_b are the end-to-end transmissivities of the two sender
    arms with detector efficiency folded in; p_dark is the dark-count
    probability per detector per bin; e_d the misalignment error
    probability; f the error-correction inefficiency.
    """

    eta_a: float
    eta_b: float
    p_dark: float
    e_d: float
    f: float = F_EC

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_a <= 1.0 or not 0.0 <= self.eta_b <= 1.0:
            raise ValueError("transmissivities must lie in [0, 1]")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError("p_dark must lie in [0, 1)")
        if not 0.0 <= self.e_d <= 1.0:
            raise ValueError("e_d must lie in [0, 1]")
        if not 1.0 <= self.f < math.inf:
            raise ValueError("error-correction inefficiency f must be finite and >= 1")

    @staticmethod
    def side_transmissivity(
        side_km: float, eta_det: float, alpha_db_per_km: float
    ) -> float:
        """Transmissivity of one arm: detector efficiency times fiber loss."""
        if alpha_db_per_km < 0.0:
            raise ValueError("alpha_db_per_km must be non-negative")
        return eta_det * 10.0 ** (-alpha_db_per_km * side_km / 10.0)

    @classmethod
    def from_total_distance(
        cls,
        total_km: float,
        eta_det: float = ETA_DET,
        p_dark: float = P_DARK,
        e_d: float = E_D,
        alpha_db_per_km: float = ALPHA_DB_PER_KM,
        f: float = F_EC,
    ) -> "ChannelParams":
        """Symmetric link with the relay halfway between the senders."""
        eta = cls.side_transmissivity(total_km / 2.0, eta_det, alpha_db_per_km)
        return cls(eta, eta, p_dark, e_d, f)
