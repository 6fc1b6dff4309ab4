"""Control-pulse design and verification for a spin-orbit-coupled atom in
an exponential (Morse-type) trap.

The toolkit designs transfer schedules between neighbouring vibrational
levels with a spin flip, verifies them by exact two-level propagation and
by full 1D spinor grid simulation, and scans their robustness against
systematic and stochastic Zeeman-channel errors.
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DesignInfeasibleError,
    DomainError,
    NumericalFailureError,
    SocmorseError,
)
from .morse import (
    BoundState,
    MatrixElements,
    MorseSpec,
    characteristic_length,
    eigenfunction,
    matrix_elements,
    overlap_Q,
    position_moment,
    potential,
)
from .numerics import OdeSettings, QuadratureSpec, integrate, laguerre, log_gamma
from .pulse_design import (
    AdiabaticityWarning,
    PulseSchedule,
    SmallAngleWarning,
    TransferSpec,
    design_scheme1,
    design_scheme2,
    design_scheme2_interacting,
    effective_g,
    invariant_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AdiabaticityWarning",
    "BoundState",
    "ConfigError",
    "DesignInfeasibleError",
    "DomainError",
    "MatrixElements",
    "MorseSpec",
    "NumericalFailureError",
    "OdeSettings",
    "PulseSchedule",
    "QuadratureSpec",
    "SmallAngleWarning",
    "SocmorseError",
    "TransferSpec",
    "characteristic_length",
    "design_scheme1",
    "design_scheme2",
    "design_scheme2_interacting",
    "effective_g",
    "eigenfunction",
    "integrate",
    "invariant_residual",
    "laguerre",
    "log_gamma",
    "matrix_elements",
    "overlap_Q",
    "position_moment",
    "potential",
    "__version__",
]
