"""Eigenmode reconstruction: interface matching, force balance, ODE residual,
normalization, and degeneracy detection."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from shakerbeam import (
    DegenerateModeError,
    DomainError,
    Root,
    Target,
    ValidationError,
    evaluate_mode,
    normalize_L2,
    scan_roots,
    solve_mode,
    to_spectral_point,
)
from conftest import default_step, seeded_beams
from reference import _branch_quadrature


def sign_changes(values: np.ndarray) -> int:
    signs = np.sign(values[np.abs(values) > 1e-9 * np.max(np.abs(values))])
    return int(np.sum(signs[1:] != signs[:-1]))


@pytest.fixture(scope="module")
def modes(params, exact_roots):
    return [solve_mode(r, params) for r in exact_roots]


class TestSolveMode:
    def test_interface_continuity(self, params, modes):
        l0 = params.attachment_point
        for mode in modes:
            scale = max(abs(evaluate_mode(mode, x)) for x in (0.3, l0, 1.7))
            for der in (0, 1, 2):
                left = evaluate_mode(mode, l0 - 1e-9, der)
                right = evaluate_mode(mode, l0 + 1e-9, der)
                rel = abs(left - right) / max(abs(left), abs(right), scale * mode.mu**der)
                assert rel < 1e-6

    def test_third_derivative_jump_balance(self, params, modes):
        # EI (u'''(l0-) - u'''(l0+)) = (kappa - m omega^2) u(l0): the spring
        # force enters as a shear discontinuity at the attachment
        for mode in modes:
            omega = to_spectral_point(mode.mu, params).omega
            jump = evaluate_mode(mode, params.attachment_point - 1e-12, 3) - evaluate_mode(
                mode, params.attachment_point + 1e-12, 3
            )
            lhs = params.flexural_rigidity * jump
            rhs = (params.spring_stiffness - params.shaker_mass * omega**2) * mode.attachment[0]
            scale = max(abs(lhs), abs(rhs), params.flexural_rigidity * mode.mu**3 * 1e-12)
            assert abs(lhs - rhs) / scale < 1e-6

    def test_ode_residual_finite_difference(self, params, modes):
        rng = np.random.default_rng(3)
        for mode in modes[::4]:
            h = 0.01 / mode.mu
            for x in rng.uniform(4 * h, params.length - 4 * h, 5):
                if abs(x - params.attachment_point) < 4 * h:
                    continue
                u = [evaluate_mode(mode, x + k * h) for k in (-2, -1, 0, 1, 2)]
                u4 = (u[0] - 4 * u[1] + 6 * u[2] - 4 * u[3] + u[4]) / h**4
                target = mode.mu**4 * u[2]
                denom = max(abs(target), mode.mu**4 * 1e-3)
                assert abs(u4 - target) / denom < 1e-3

    def test_hinged_end_conditions(self, params, modes):
        l = params.length
        for mode in modes:
            assert evaluate_mode(mode, 0.0) == 0.0
            assert evaluate_mode(mode, l) == 0.0
            scale = abs(evaluate_mode(mode, 0.0, 2)) + abs(evaluate_mode(mode, l, 2))
            curv_scale = mode.mu**2 * max(abs(evaluate_mode(mode, 0.3)), 1e-12)
            assert scale <= 1e-9 * curv_scale

    def test_nodal_count_grows_with_index(self, params, modes):
        xs = np.linspace(1e-4, params.length - 1e-4, 4000)
        counts = [sign_changes(np.asarray(evaluate_mode(m, xs))) for m in modes]
        assert counts[0] == 1
        assert counts == sorted(counts)
        for j, count in enumerate(counts, start=1):
            assert j - 2 <= count <= j + 1

    def test_gauge_normalizes_a_boundary_derivative(self, modes):
        for mode in modes:
            assert mode.gauge in ("u3(l)=1", "u1(l)=1")
            assert 0.0 <= mode.nullspace_ratio <= 1e-6

    def test_fields_finite_past_sinh_overflow(self, params):
        # At mu l > 710 sinh(mu l) overflows; no field of the mode may depend on it.
        roots = scan_roots(Target.Phi, params, 440.0, 460.0, math.pi / (80.0 * params.length))
        root = min(roots, key=lambda r: abs(r.mu - 448.43))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mode = solve_mode(root, params)
        fields = (mode.mu, *mode.amplitudes, *mode.boundary_values, *mode.attachment)
        assert all(math.isfinite(v) for v in fields)
        assert math.isfinite(mode.nullspace_ratio)

    def test_rejects_truncated_target_root(self, params, truncated_roots):
        with pytest.raises(ValidationError, match="exact"):
            solve_mode(truncated_roots[0], params)

    def test_degenerate_off_root(self, params):
        fake = Root(mu=2.07, residual=0.0, bracket=(2.06, 2.08), iterations=0, target=Target.Phi)
        with pytest.raises(DegenerateModeError) as exc_info:
            solve_mode(fake, params)
        assert 1e-6 < exc_info.value.nullspace_ratio <= 1.0

    def test_midspan_symmetry_classes(self, half_params):
        # with the attachment at l/2 modes alternate between symmetric and
        # antisymmetric about midspan
        roots = scan_roots(Target.Phi, half_params, 0.1, 9.0, math.pi / (80.0 * 2.0))
        modes = [solve_mode(r, half_params) for r in roots[:4]]
        l = half_params.length
        xs = np.linspace(0.05, 0.95, 19) * l
        u0 = np.asarray(evaluate_mode(modes[0], xs))
        u1 = np.asarray(evaluate_mode(modes[1], xs))
        # mode 1 here is antisymmetric (node at the attachment), mode 2 symmetric
        assert np.max(np.abs(u0 + u0[::-1])) < 1e-6 * np.max(np.abs(u0))
        assert np.max(np.abs(u1 - u1[::-1])) < 1e-6 * np.max(np.abs(u1))

    def test_attachment_value_matches_curve(self, params, modes):
        for mode in modes[:6]:
            assert mode.attachment[0] == pytest.approx(
                evaluate_mode(mode, params.attachment_point), rel=1e-9, abs=1e-12
            )


class TestEvaluateMode:
    def test_rejects_outside_span(self, params, modes):
        with pytest.raises(DomainError):
            evaluate_mode(modes[0], -0.1)
        with pytest.raises(DomainError):
            evaluate_mode(modes[0], params.length + 0.1)

    def test_rejects_bad_derivative(self, modes):
        with pytest.raises(DomainError):
            evaluate_mode(modes[0], 0.5, 4)

    def test_array_and_scalar_agree(self, modes):
        xs = np.array([0.2, 0.9, 1.6])
        arr = evaluate_mode(modes[2], xs)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert evaluate_mode(modes[2], float(x)) == v

    def test_derivatives_match_central_differences(self, params, modes):
        xs = np.array([0.3, 0.9, 1.2, 1.55, 1.8])  # both sides of l0 = 1.4
        for mode in modes[::3]:
            h = 1e-4 / mode.mu
            scale = np.max(np.abs(evaluate_mode(mode, xs)))
            for der in (0, 1, 2):
                slope = (evaluate_mode(mode, xs + h, der) - evaluate_mode(mode, xs - h, der)) / (2 * h)
                exact = evaluate_mode(mode, xs, der + 1)
                assert np.max(np.abs(slope - exact)) < 1e-6 * scale * mode.mu ** (der + 1)

    def test_branch_continuity_at_attachment(self, params, modes):
        l0 = params.attachment_point
        for mode in modes[::5]:
            lo = evaluate_mode(mode, l0 - 1e-8)
            hi = evaluate_mode(mode, l0 + 1e-8)
            assert lo == pytest.approx(hi, rel=1e-5, abs=1e-10)


class TestNormalize:
    def test_unit_l2_norm(self, params, modes):
        l = params.length
        xs = np.linspace(0.0, l, 100_001)
        for mode in modes[::4]:
            normed = normalize_L2(mode)
            u = np.asarray(evaluate_mode(normed, xs))
            assert np.trapezoid(u * u, xs) == pytest.approx(1.0, abs=1e-8)

    def test_idempotent(self, modes):
        once = normalize_L2(modes[0])
        twice = normalize_L2(once)
        assert twice.amplitudes == pytest.approx(once.amplitudes, rel=1e-12)
        assert twice.normalization == pytest.approx(once.normalization, rel=1e-12)

    def test_scale_invariance(self, modes):
        mode = modes[1]
        scaled = dataclasses.replace(mode, amplitudes=tuple(37.0 * a for a in mode.amplitudes))
        a = normalize_L2(mode)
        b = normalize_L2(scaled)
        assert b.amplitudes == pytest.approx(a.amplitudes, rel=1e-10)

    def test_sign_convention_positive_slope_at_left_end(self, params, modes):
        for mode in modes:
            normed = normalize_L2(mode)
            assert evaluate_mode(normed, 0.0, 1) > 0.0

    def test_derived_fields_follow_amplitudes(self, params, modes):
        l, l0 = params.length, params.attachment_point
        for mode in modes[::4]:
            for m in (mode, normalize_L2(mode)):
                ends = [evaluate_mode(m, x, der) for x in (0.0, l) for der in (1, 3)]
                assert m.boundary_values == pytest.approx(ends, rel=1e-9, abs=1e-9 * max(map(abs, ends)))
                p, q = m.attachment
                assert p == pytest.approx(evaluate_mode(m, l0), rel=1e-12)
                assert q == pytest.approx(to_spectral_point(m.mu, params).omega * p, rel=1e-12)

    def test_records_normalization_factor(self, modes):
        normed = normalize_L2(modes[0])
        assert normed.normalization is not None
        assert normed.normalization > 0.0
        assert normed.sign_convention in (-1.0, 1.0)


def mode_near(params, mu):
    """The exact-equation mode at the first root in [mu, mu + 3)."""
    roots = scan_roots(Target.Phi, params, mu, mu + 3.0, default_step(params))
    return solve_mode(roots[0], params)


def mp_norm_sq(mode):
    """The closed-form branch integrals of u^2 in 50-digit arithmetic."""
    with mpmath.workdps(50):
        mu = mpmath.mpf(mode.mu)
        l, l0 = mpmath.mpf(mode.params.length), mpmath.mpf(mode.params.attachment_point)
        a, B, c, D = (mpmath.mpf(v) for v in mode.amplitudes)
        total = mpmath.mpf(0)
        for t, p, q in ((l0, a, B), (l - l0, c, D)):
            b = mu * t
            e2 = mpmath.exp(-2 * b)
            sh_sh = (-mpmath.expm1(-4 * b) / (2 * mu) - 2 * t * e2) / 4
            sh_sin = (mpmath.sin(b) - mpmath.cos(b) + e2 * (mpmath.sin(b) + mpmath.cos(b))) / (4 * mu)
            sin_sin = t / 2 - mpmath.sin(2 * b) / (4 * mu)
            total += p * p * sh_sh + 2 * p * q * sh_sin + q * q * sin_sin
        return total


class TestClosedFormNorm:
    """normalize_L2 integrates u^2 in closed form; these tie it to quadrature."""

    def assert_matches_quadrature(self, params, mu_max):
        roots = scan_roots(Target.Phi, params, 0.1, mu_max, default_step(params))
        assert roots
        for root in roots:
            normed = normalize_L2(solve_mode(root, params))
            n = max(64, int(0.8 * normed.mu * params.length) + 16)
            assert abs(_branch_quadrature(normed, n) - 1.0) < 1e-12

    def test_matches_quadrature_on_shipped_configs(self, params, half_params):
        for beam in (params, half_params):
            self.assert_matches_quadrature(beam, 40.0)

    def test_matches_quadrature_near_the_ends(self):
        # small mu t on the short branch is where the sh^2 integral cancels
        rng = np.random.default_rng(20261019)
        for beam in seeded_beams(20261019, 12):
            ratio = rng.uniform(0.05, 0.95)
            beam = dataclasses.replace(beam, attachment_point=ratio * beam.length)
            self.assert_matches_quadrature(beam, 40.0)

    def test_matches_mpmath_quadrature_at_mu_1000(self, params):
        normed = normalize_L2(mode_near(params, 1000.0))
        mu = mpmath.mpf(normed.mu)
        l, l0 = params.length, params.attachment_point
        a, B, c, D = normed.amplitudes
        total = mpmath.mpf(0)
        with mpmath.workdps(20):
            # the right branch under y = l - x is minus the left-branch form
            for t, p, q in ((l0, a, B), (l - l0, c, D)):
                t = mpmath.mpf(t)

                def u(y):
                    sh = (mpmath.exp(mu * (y - t)) - mpmath.exp(-mu * (y + t))) / 2
                    return (p * sh + q * mpmath.sin(mu * y)) ** 2

                # panels of a quarter period resolve the oscillation
                panels = 2 * int(mu * t / mpmath.pi) + 2
                total += mpmath.quad(u, mpmath.linspace(0, t, panels + 1), method="gauss-legendre")
        assert abs(float(total) - 1.0) < 1e-12

    @pytest.mark.parametrize("mu", [451.0, 1e3, 1e5, 1e6])
    def test_unit_norm_and_finite_fields_at_high_mu(self, params, mu):
        normed = normalize_L2(mode_near(params, mu))
        assert abs(float(mpmath.sqrt(mp_norm_sq(normed))) - 1.0) < 1e-12
        fields = (
            normed.mu,
            *normed.amplitudes,
            *normed.boundary_values,
            *normed.attachment,
            normed.nullspace_ratio,
            normed.normalization,
        )
        assert all(math.isfinite(v) for v in fields)

