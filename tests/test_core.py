"""Krylov fundamental solutions, parameter validation, unit handling, and the
package's public names."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shakerbeam
from shakerbeam import (
    BeamParameters,
    DomainError,
    ValidationError,
    to_spectral_point,
    validate_parameters,
)
from reference import krylov


class TestKrylov:
    def test_value_at_zero(self):
        z = krylov(2.0, 0.0)
        assert (z.z1, z.z2, z.z3, z.z4) == (1.0, 0.0, 0.0, 0.0)

    def test_known_values_at_pi(self):
        # mu = 1, x = pi: cos = -1, sin = 0 collapse the four combinations
        z = krylov(1.0, math.pi)
        assert z.z1 == pytest.approx(0.5 * (math.cosh(math.pi) - 1.0), rel=1e-15)
        assert z.z2 == pytest.approx(0.5 * math.sinh(math.pi), rel=1e-15)
        assert z.z3 == pytest.approx(0.5 * (math.cosh(math.pi) + 1.0), rel=1e-15)
        assert z.z4 == pytest.approx(0.5 * math.sinh(math.pi), rel=1e-15)

    def test_scaling_relation(self):
        # z_k(mu, x) carries the factor mu^(1-k) relative to the mu=1 functions
        z = krylov(3.0, 0.7)
        base = krylov(1.0, 2.1)
        assert z.z1 == pytest.approx(base.z1, rel=1e-14)
        assert z.z2 == pytest.approx(base.z2 / 3.0, rel=1e-14)
        assert z.z3 == pytest.approx(base.z3 / 9.0, rel=1e-14)
        assert z.z4 == pytest.approx(base.z4 / 27.0, rel=1e-14)

    def test_array_input(self):
        xs = np.array([0.0, 0.3, 1.1])
        z = krylov(2.0, xs)
        assert z.z1.shape == xs.shape
        single = krylov(2.0, 0.3)
        assert z.z3[1] == single.z3

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DomainError):
            krylov(0.0, 1.0)
        with pytest.raises(DomainError):
            krylov(-2.0, 1.0)

    def test_derivative_chain_finite_difference(self):
        mu, x, h = 1.7, 0.9, 1e-6
        up = krylov(mu, x + h)
        dn = krylov(mu, x - h)
        z = krylov(mu, x)
        assert (up.z1 - dn.z1) / (2 * h) == pytest.approx(mu**4 * z.z4, rel=1e-5)
        assert (up.z2 - dn.z2) / (2 * h) == pytest.approx(z.z1, rel=1e-5)
        assert (up.z3 - dn.z3) / (2 * h) == pytest.approx(z.z2, rel=1e-5)
        assert (up.z4 - dn.z4) / (2 * h) == pytest.approx(z.z3, rel=1e-5)


class TestBeamParameters:
    def test_derived_properties(self, params):
        assert params.flexural_rigidity == pytest.approx(11.64375, rel=1e-12)
        assert params.omega_factor == pytest.approx(math.sqrt(11.64375 / 0.6075), rel=1e-12)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValidationError):
            BeamParameters(6.9e10, 1.7e-10, 0.6, -1.0, 0.5, 0.1, 7000.0)
        with pytest.raises(ValidationError):
            BeamParameters(6.9e10, 0.0, 0.6, 1.9, 0.5, 0.1, 7000.0)

    def test_rejects_attachment_outside_span(self):
        with pytest.raises(ValidationError, match="attachment point"):
            BeamParameters(6.9e10, 1.7e-10, 0.6, 1.9, 1.9, 0.1, 7000.0)
        with pytest.raises(ValidationError, match="attachment point"):
            BeamParameters(6.9e10, 1.7e-10, 0.6, 1.9, 0.0, 0.1, 7000.0)


class TestValidateParameters:
    RAW = {
        "l": "1.905 m",
        "l0": "1.4 m",
        "rho0": "2700 kg/m^3",
        "section_area": "2.25e-4 m^2",
        "E": "6.9e10 Pa",
        "I": "1.6875e-10 m^4",
        "m": "0.1 kg",
        "kappa": "7 N/mm",
    }

    def test_composite_density_and_stiffness_units(self):
        p = validate_parameters(self.RAW)
        assert p.linear_density == pytest.approx(0.6075, rel=1e-12)
        assert p.spring_stiffness == pytest.approx(7000.0, rel=1e-12)

    def test_direct_linear_density(self):
        raw = {k: v for k, v in self.RAW.items() if k not in ("rho0", "section_area")}
        raw["rho"] = "0.6075 kg/m"
        p = validate_parameters(raw)
        assert p.linear_density == pytest.approx(0.6075, rel=1e-12)

    def test_bare_numbers_are_si(self):
        raw = dict(self.RAW, kappa=7000, E=6.9e10)
        assert validate_parameters(raw).spring_stiffness == 7000.0

    def test_gpa_alias(self):
        raw = dict(self.RAW, E="69 GPa")
        assert validate_parameters(raw).youngs_modulus == pytest.approx(6.9e10, rel=1e-12)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValidationError, match="unknown unit"):
            validate_parameters(dict(self.RAW, kappa="7 lbf/in"))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError):
            validate_parameters(dict(self.RAW, l="1.905 kg"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            validate_parameters(dict(self.RAW, shear_modulus="1 Pa"))

    def test_missing_density_rejected(self):
        raw = {k: v for k, v in self.RAW.items() if k not in ("rho0", "section_area")}
        with pytest.raises(ValidationError, match="density"):
            validate_parameters(raw)

    def test_attachment_outside_span_rejected(self):
        with pytest.raises(ValidationError, match="attachment point"):
            validate_parameters(dict(self.RAW, l0="2.5 m"))


class TestSpectralPoint:
    def test_conversion_chain(self, params):
        pt = to_spectral_point(3.0, params)
        omega = math.sqrt(11.64375 / 0.6075) * 9.0
        assert pt.omega == pytest.approx(omega, rel=1e-13)
        assert pt.lambda_imag == pytest.approx(omega, rel=1e-13)
        assert pt.nu == pytest.approx(omega / (2 * math.pi), rel=1e-13)

    def test_frequency_scale_factor(self, params):
        # nu = factor * mu^2 with factor = sqrt(EI/rho)/(2 pi) for this beam
        pt = to_spectral_point(1.0, params)
        assert pt.nu == pytest.approx(0.6967763904483287, rel=1e-10)

    @given(mu=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_mu(self, mu, params):
        lo = to_spectral_point(mu, params)
        hi = to_spectral_point(mu * 1.01, params)
        assert hi.omega > lo.omega
        assert hi.nu > lo.nu

    def test_rejects_nonpositive_mu(self, params):
        with pytest.raises(DomainError):
            to_spectral_point(-1.0, params)


class TestPublicNames:
    NAMES = [
        "BeamParameters", "ConfigurationError", "DegenerateModeError", "DomainError",
        "LocalizationPreconditionError", "LocalizationReport", "ModeShape", "PairingStatus",
        "Root", "RootPairing", "SpectralPoint", "Target", "ValidationError",
        "closed_form_roots_half", "detect_rational_ratio", "evaluate_mode",
        "mu_hat", "normalize_L2", "pair_mutual_nearest", "phi", "phi0", "phi0_prime", "phi1",
        "scan_roots", "scan_with_suspects", "solve_mode", "to_spectral_point",
        "validate_parameters", "verify_localization",
    ]

    def test_all_is_the_thirty_public_names(self):
        assert shakerbeam.__all__ == sorted(self.NAMES)
        assert len(set(shakerbeam.__all__)) == 29

    def test_each_name_resolves(self):
        for name in self.NAMES:
            assert getattr(shakerbeam, name).__name__ == name
