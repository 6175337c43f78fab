"""Simulation and key-rate analysis for a three-pulse phase-encoded QKD
protocol measured at an untrusted relay.

Layout:

- :mod:`dpsmdi.channel` — the link model and its defaults (standard library
  only)
- :mod:`dpsmdi.fock_optics` — few-photon state algebra, beamsplitter,
  post-selection
- :mod:`dpsmdi.protocol_sifting` — announcement reconciliation and bit extraction
- :mod:`dpsmdi.noise_security` — collective-noise error rates and the
  phase-error bound
- :mod:`dpsmdi.montecarlo` — trial-level channel simulation (one exact numpy
  kernel)
- :mod:`dpsmdi.keyrate_asymptotic` — single-photon yields, QBER, rates
- :mod:`dpsmdi.keyrate_decoy` — weak-coherent gains, phase slicing, decoy rate
- :mod:`dpsmdi.finite_key` — finite-block corrections and budget optimization
- :mod:`dpsmdi.config` — run configuration and the finite-key epsilon floors
- :mod:`dpsmdi.checks` — the self-checks shared by ``dpsmdi verify`` and the
  acceptance tests
- :mod:`dpsmdi.cli` — the ``dpsmdi`` command
"""

from .fock_optics import (
    PhaseSetting,
    TwoPartyFockState,
    beamsplitter_transform,
    conclusive_output_state,
    discrete_settings,
    encode_single_photon,
    joint_input,
    output_state,
    postselect_hom,
)
from .protocol_sifting import (
    Action,
    BellLabel,
    DetectionOutcome,
    Register,
    SiftDecision,
    conclusive_rows,
    extract_bits,
    sift,
    sifted_key_fraction,
    verify_entanglement_mapping,
)
from .noise_security import (
    NoiseMatrix,
    bit_error_rate,
    error_gap,
    phase_error_rate,
)
from .channel import ChannelParams
from .montecarlo import (
    EmpiricalEstimates,
    replay_trials,
    run_trials,
)
from .keyrate_asymptotic import (
    binary_entropy,
    dps_reference_rate,
    qber_asymptotic,
    secure_rate,
    yield_Y11,
)
from .keyrate_decoy import (
    SliceConfig,
    decoy_key_rate,
    overall_gain,
    overall_qber,
    sliced_gain_qber,
)
from .finite_key import (
    FiniteKeyBudget,
    SecurityParams,
    finite_rate,
    optimize_rate,
)
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BellLabel",
    "ChannelParams",
    "DetectionOutcome",
    "EmpiricalEstimates",
    "FiniteKeyBudget",
    "NoiseMatrix",
    "PhaseSetting",
    "Register",
    "RunConfig",
    "SecurityParams",
    "SiftDecision",
    "SliceConfig",
    "TwoPartyFockState",
    "beamsplitter_transform",
    "binary_entropy",
    "bit_error_rate",
    "conclusive_output_state",
    "conclusive_rows",
    "decoy_key_rate",
    "discrete_settings",
    "dps_reference_rate",
    "encode_single_photon",
    "error_gap",
    "extract_bits",
    "finite_rate",
    "joint_input",
    "optimize_rate",
    "output_state",
    "overall_gain",
    "overall_qber",
    "phase_error_rate",
    "postselect_hom",
    "qber_asymptotic",
    "replay_trials",
    "run_trials",
    "secure_rate",
    "sift",
    "sifted_key_fraction",
    "sliced_gain_qber",
    "verify_entanglement_mapping",
    "yield_Y11",
    "__version__",
]
