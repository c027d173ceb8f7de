"""Domain types and unit handling.

The beam model is the hinged-hinged Euler-Bernoulli equation u'''' = mu^4 u with a
point mass-spring attachment at an interior point.  Everything downstream works in
coherent SI units; conversion happens once, in ``validate_parameters``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ValidationError",
    "DomainError",
    "BeamParameters",
    "SpectralPoint",
    "validate_parameters",
    "to_spectral_point",
]


class ValidationError(ValueError):
    """Raised for invalid parameter sets or malformed unit-annotated input."""


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's mathematical domain."""


@dataclass(frozen=True)
class BeamParameters:
    """Mechanical constants of the beam-shaker system, SI-coherent.

    youngs_modulus : Pa
    second_moment : m^4
    linear_density : kg/m
    length : m
    attachment_point : m (interior, 0 < attachment_point < length)
    shaker_mass : kg
    spring_stiffness : N/m
    """

    youngs_modulus: float
    second_moment: float
    linear_density: float
    length: float
    attachment_point: float
    shaker_mass: float
    spring_stiffness: float

    def __post_init__(self) -> None:
        positives = {
            "youngs_modulus": self.youngs_modulus,
            "second_moment": self.second_moment,
            "linear_density": self.linear_density,
            "length": self.length,
            "shaker_mass": self.shaker_mass,
            "spring_stiffness": self.spring_stiffness,
        }
        for name, value in positives.items():
            if not (value > 0.0) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
        if not (0.0 < self.attachment_point < self.length):
            raise ValidationError(
                f"attachment point outside span: l0={self.attachment_point!r} "
                f"not in (0, {self.length!r})"
            )

    @property
    def flexural_rigidity(self) -> float:
        """EI in N m^2."""
        return self.youngs_modulus * self.second_moment

    @property
    def omega_factor(self) -> float:
        """sqrt(EI/rho): omega = omega_factor * mu^2."""
        return math.sqrt(self.flexural_rigidity / self.linear_density)


@dataclass(frozen=True)
class SpectralPoint:
    """One eigenvalue in all four parametrizations.

    mu : spectral parameter, 1/m
    omega : angular frequency, rad/s
    lambda_imag : imaginary part of the eigenvalue (= omega; the eigenvalue is i*omega)
    nu : modal frequency, Hz
    """

    mu: float
    omega: float
    lambda_imag: float
    nu: float


# unit -> (si multiplier, dimension tag); dimension tags are compared textually
_UNITS = {
    "": (1.0, ""),
    "m": (1.0, "m"),
    "mm": (1e-3, "m"),
    "cm": (1e-2, "m"),
    "m^2": (1.0, "m^2"),
    "m^4": (1.0, "m^4"),
    "kg": (1.0, "kg"),
    "g": (1e-3, "kg"),
    "kg/m": (1.0, "kg/m"),
    "kg/m^3": (1.0, "kg/m^3"),
    "Pa": (1.0, "Pa"),
    "GPa": (1e9, "Pa"),
    "N/m": (1.0, "N/m"),
    "N/mm": (1e3, "N/m"),
    "kN/m": (1e3, "N/m"),
}

# field -> accepted dimension tag
_FIELD_DIMS = {
    "E": "Pa",
    "I": "m^4",
    "rho": "kg/m",
    "rho0": "kg/m^3",
    "section_area": "m^2",
    "l": "m",
    "l0": "m",
    "m": "kg",
    "kappa": "N/m",
}


def _parse_quantity(field: str, raw: object) -> float:
    """Parse '7 N/mm' style annotated values into SI floats for a known field."""
    if isinstance(raw, (int, float)):
        return float(raw)
    text = str(raw).strip()
    parts = text.split(None, 1)
    try:
        value = float(parts[0])
    except (ValueError, IndexError):
        raise ValidationError(f"{field}: cannot parse numeric value from {raw!r}") from None
    unit = parts[1].strip() if len(parts) > 1 else ""
    if unit not in _UNITS:
        raise ValidationError(f"{field}: unknown unit {unit!r}")
    factor, dim = _UNITS[unit]
    expected = _FIELD_DIMS[field]
    if dim and dim != expected:
        raise ValidationError(f"{field}: expected a {expected} quantity, got unit {unit!r}")
    return value * factor


def validate_parameters(raw: dict) -> BeamParameters:
    """Normalize a unit-annotated parameter mapping into SI BeamParameters.

    Accepts either ``rho`` (linear density) directly or the composite pair
    ``rho0`` (volumetric density) and ``section_area``.  Values may be numbers
    (assumed SI) or strings with unit suffixes, e.g. ``"7 N/mm"``.
    """
    unknown = set(raw) - set(_FIELD_DIMS)
    if unknown:
        raise ValidationError(f"unknown parameter(s): {sorted(unknown)}")

    if "rho" in raw:
        rho = _parse_quantity("rho", raw["rho"])
    elif "rho0" in raw and "section_area" in raw:
        rho = _parse_quantity("rho0", raw["rho0"]) * _parse_quantity(
            "section_area", raw["section_area"]
        )
    else:
        raise ValidationError("linear density missing: give rho, or rho0 and section_area")

    required = {"E", "I", "l", "l0", "m", "kappa"}
    missing = required - set(raw)
    if missing:
        raise ValidationError(f"missing parameter(s): {sorted(missing)}")

    return BeamParameters(
        youngs_modulus=_parse_quantity("E", raw["E"]),
        second_moment=_parse_quantity("I", raw["I"]),
        linear_density=rho,
        length=_parse_quantity("l", raw["l"]),
        attachment_point=_parse_quantity("l0", raw["l0"]),
        shaker_mass=_parse_quantity("m", raw["m"]),
        spring_stiffness=_parse_quantity("kappa", raw["kappa"]),
    )


def to_spectral_point(mu: float, params: BeamParameters) -> SpectralPoint:
    """Convert a spectral parameter to (omega, lambda, nu)."""
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    omega = params.omega_factor * mu**2
    return SpectralPoint(mu=mu, omega=omega, lambda_imag=omega, nu=omega / (2.0 * math.pi))
