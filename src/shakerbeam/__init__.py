"""Spectral analysis of a hinged Euler-Bernoulli beam carrying an interior
mass-spring attachment: exact and truncated characteristic equations, root
scanning with localization checks, and eigenmode reconstruction.
"""

from .core import (
    BeamParameters,
    DomainError,
    SpectralPoint,
    ValidationError,
    to_spectral_point,
    validate_parameters,
)
from .freqeq import (
    mu_hat,
    phi,
    phi0,
    phi0_prime,
    phi1,
)
from .modes import (
    DegenerateModeError,
    ModeShape,
    evaluate_mode,
    full_state,
    normalize_L2,
    solve_mode,
)
from .roots import (
    ConfigurationError,
    LocalizationPreconditionError,
    LocalizationReport,
    PairingStatus,
    Root,
    RootPairing,
    Target,
    closed_form_roots_half,
    detect_rational_ratio,
    pair_mutual_nearest,
    scan_roots,
    scan_with_suspects,
    verify_localization,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParameters",
    "ConfigurationError",
    "DegenerateModeError",
    "DomainError",
    "LocalizationPreconditionError",
    "LocalizationReport",
    "ModeShape",
    "PairingStatus",
    "Root",
    "RootPairing",
    "SpectralPoint",
    "Target",
    "ValidationError",
    "closed_form_roots_half",
    "detect_rational_ratio",
    "evaluate_mode",
    "full_state",
    "mu_hat",
    "normalize_L2",
    "pair_mutual_nearest",
    "phi",
    "phi0",
    "phi0_prime",
    "phi1",
    "scan_roots",
    "scan_with_suspects",
    "solve_mode",
    "to_spectral_point",
    "validate_parameters",
    "verify_localization",
]
