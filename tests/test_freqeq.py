"""Characteristic equation: the unscaled reference forms (closed form vs 4x4
determinant), the scaled form and its decomposition into dominant and
correction parts, and its agreement with the scaled interface system that
the modes are built from."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakerbeam import (
    BeamParameters,
    mu_hat,
    phi,
    phi0,
    phi0_prime,
    phi1,
)
from shakerbeam.freqeq import _exp_neg, _phi1_bound, _phi1_prime_bound
from shakerbeam.modes import _interface_system
from conftest import seeded_beams
from reference import (
    RangeError,
    det_M_closed,
    det_M_oracle,
    det_M_scale,
    interface_matrix,
    krylov,
    phi0_unfused,
    phi1_mp,
    phi1_unfused,
    phi_unfused,
)


def growth_factor(mu: float, p: BeamParameters) -> float:
    return p.shaker_mass * math.exp(mu * p.length) / (8.0 * p.linear_density * mu)


class TestInterfaceMatrix:
    def test_row_structure(self, params):
        mu = 1.3
        m = interface_matrix(mu, params)
        a = krylov(mu, params.attachment_point)
        b = krylov(mu, params.attachment_point - params.length)
        mh = mu_hat(mu, params)
        expected = np.array(
            [
                [a.z2, a.z4, -b.z2, -b.z4],
                [a.z1, a.z3, -b.z1, -b.z3],
                [mu**4 * a.z4, a.z2, -(mu**4) * b.z4, -b.z2],
                [mu**4 * a.z3 - mh * a.z2, a.z1 - mh * a.z4, -(mu**4) * b.z3, -b.z1],
            ]
        )
        np.testing.assert_allclose(m, expected, rtol=1e-14)

    def test_mu_hat_definition(self, params):
        mu = 2.4
        expected = params.spring_stiffness / params.flexural_rigidity - (
            params.shaker_mass / params.linear_density
        ) * mu**4
        assert mu_hat(mu, params) == pytest.approx(expected, rel=1e-15)


class TestClosedVsOracle:
    def test_agreement_moderate_mu(self, params):
        for mu in (0.5, 1.7, 4.3, 9.1):
            closed = det_M_closed(mu, params)
            oracle = det_M_oracle(mu, params)
            assert abs(closed - oracle) <= 1e-8 * det_M_scale(mu, params)

    def test_oracle_sign_change_brackets_first_root(self, params):
        assert det_M_oracle(2.5, params) * det_M_oracle(2.6, params) < 0

    def test_attachment_reflection_symmetry(self):
        # The determinant only sees l0 through min(l0, l - l0)
        a = BeamParameters(6.9e10, 1.6875e-10, 0.6075, 1.905, 1.4, 0.1, 7000.0)
        b = BeamParameters(6.9e10, 1.6875e-10, 0.6075, 1.905, 0.505, 0.1, 7000.0)
        mu = 3.3
        assert det_M_closed(mu, a) == pytest.approx(det_M_closed(mu, b), rel=1e-12)

    def test_vanishing_attachment_reduces_to_hinged(self, params):
        # m, kappa -> 0 leaves det = -sin(mu l) sinh(mu l) / mu^2
        tiny = BeamParameters(6.9e10, 1.6875e-10, 0.6075, 1.905, 1.4, 1e-12, 1e-12)
        mu = 2.0
        expected = -math.sin(mu * 1.905) * math.sinh(mu * 1.905) / mu**2
        assert det_M_closed(mu, tiny) == pytest.approx(expected, rel=1e-9)

    def test_closed_form_raises_past_exp_range(self, params):
        with pytest.raises(RangeError, match="phi"):
            det_M_closed(400.0, params)

    def test_oracle_raises_past_conditioning_range(self, params):
        with pytest.raises(RangeError):
            det_M_oracle(120.0, params)

    def test_oracle_matches_closed_form_over_its_whole_range(self, params):
        # An LU determinant of the raw interface matrix drifts to 1e7 of the
        # scale by mu l = 76; the scaled assembly must hold up to mu l = 170.
        mus = np.linspace(0.1, 170.0 / params.length, 2000)
        worst = max(
            abs(det_M_oracle(mu, params) - det_M_closed(mu, params)) / det_M_scale(mu, params)
            for mu in mus
        )
        assert worst <= 1e-12

    def test_oracle_column_operations_are_exact(self, params):
        # Below mu = 2 the raw matrix is well conditioned, so its LU
        # determinant checks that the column-equivalent assembly is exact.
        for mu in np.linspace(0.1, 2.0, 100):
            raw = np.linalg.det(interface_matrix(mu, params))
            assert det_M_oracle(mu, params) == pytest.approx(raw, rel=1e-12)

    def test_small_at_refined_root(self, params, exact_roots):
        mu = exact_roots[0].mu
        assert abs(det_M_closed(mu, params)) <= 1e-6 * det_M_scale(mu, params)

    def test_value_regression_near_first_root(self, params):
        assert phi(2.552, params) == pytest.approx(0.03746759209522865, rel=1e-12)


class TestPhi:
    def test_prefactor_identity_spot(self, params):
        for mu in (1.0, 3.0, 7.0):
            lhs = det_M_closed(mu, params)
            rhs = growth_factor(mu, params) * (phi0(mu, params.length, params.attachment_point) + phi1(mu, params))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_prefactor_identity_sweep(self, params):
        mus = np.linspace(0.5, 300.0, 1200)
        worst = 0.0
        for mu in mus:
            lhs = det_M_closed(mu, params)
            rhs = growth_factor(mu, params) * phi(mu, params)
            envelope = growth_factor(mu, params) * (
                abs(phi0(mu, params.length, params.attachment_point)) + abs(phi1(mu, params))
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), envelope))
        assert worst <= 1e-8

    def test_same_sign_as_determinant(self, params):
        rng = np.random.default_rng(7)
        for mu in rng.uniform(0.3, 60.0, 100):
            s1 = math.copysign(1.0, phi(mu, params))
            s2 = math.copysign(1.0, det_M_closed(mu, params))
            assert s1 == s2

    def test_equals_scaled_interface_determinant(self):
        # The two production forms of the interface problem, phi for the roots
        # and the scaled 4x4 system for the modes, agree far past the range of
        # the unscaled references: det(H) max(1, |jump|) 2 rho / (m mu) = phi.
        mus = np.geomspace(0.1, 1e5, 600)
        worst = 0.0
        for p in seeded_beams(20260815, 20):
            l, l0 = p.length, p.attachment_point
            for mu in mus:
                jump = mu_hat(mu, p) / mu**3
                lhs = np.linalg.det(_interface_system(mu, p)) * max(1.0, abs(jump))
                lhs *= 2.0 * p.linear_density / (p.shaker_mass * mu)
                envelope = abs(phi0(mu, l, l0)) + abs(phi1(mu, p))
                worst = max(worst, abs(lhs - phi(mu, p)) / envelope)
        assert worst <= 1e-8

    def test_finite_far_past_overflow(self, params):
        for mu in (500.0, 1e4, 1e6):
            assert math.isfinite(phi(mu, params))

    def test_correction_regression_and_decay(self, params):
        assert phi1(50.0, params) == pytest.approx(-0.40915033542367607, rel=1e-12)
        assert phi1(0.5, params) == pytest.approx(-1819.135612118441, rel=1e-12)
        # dominant correction term is -(8 rho / (m mu)) sh sin: O(1/mu) envelope
        for mu in (50.0, 200.0, 800.0):
            bound = 8.0 * params.linear_density / (params.shaker_mass * mu) + 6.0 + 2.0 * (
                params.spring_stiffness
                * params.linear_density
                / (params.flexural_rigidity * params.shaker_mass * mu**4)
            )
            assert abs(phi1(mu, params)) <= bound
        assert abs(phi1(4000.0, params)) < abs(phi1(50.0, params))

    def test_phi0_prime_finite_difference(self, params):
        l, l0, h = params.length, params.attachment_point, 1e-6
        for mu in (0.7, 3.1, 12.4):
            fd = (phi0(mu + h, l, l0) - phi0(mu - h, l, l0)) / (2 * h)
            assert phi0_prime(mu, l, l0) == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_phi0_periodicity_default_geometry(self, params):
        # l0/l = 280/381, so phi0 repeats with period 2 pi * 381 / l = 400 pi
        l, l0 = params.length, params.attachment_point
        period = 2.0 * math.pi * 381.0 / l
        for mu in (0.9, 2.3, 5.8):
            assert phi0(mu + period, l, l0) == pytest.approx(phi0(mu, l, l0), abs=5e-12)

    @given(
        p=st.integers(min_value=1, max_value=11),
        q=st.integers(min_value=2, max_value=12),
        l=st.floats(min_value=0.5, max_value=3.0),
        mu=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_phi0_periodicity_rational_attachment(self, p, q, l, mu):
        frac = Fraction(p, q)
        if not (0 < frac < 1):
            return
        l0 = float(frac) * l
        period = 2.0 * math.pi * frac.denominator / l
        assert phi0(mu + period, l, l0) == pytest.approx(phi0(mu, l, l0), abs=1e-10)

    def test_phi0_array_broadcast(self, params):
        mus = np.array([0.5, 1.0, 2.0])
        vals = phi0(mus, params.length, params.attachment_point)
        assert vals.shape == mus.shape
        assert vals[1] == phi0(1.0, params.length, params.attachment_point)


def _subnormal_bands(beam):
    """mu where 2 mu t, for each exponent length t of phi1, lies in
    (708, 746]: exp(-2 mu t) is subnormal there, or just rounds to 0.0."""
    l, l0 = beam.length, beam.attachment_point
    bands = []
    for t in (l, l0, l - l0):
        band = np.linspace(708.0, 746.0, 2001)[1:] / (2.0 * t)
        edge = 746.0 / (2.0 * t)
        bands += [band, np.nextafter(edge, [0.0, math.inf]), np.array([745.1, 745.2]) / (2.0 * t)]
    return np.concatenate(bands)


class TestFusedKernel:
    """phi shares sin(mu l) between phi0 and phi1 and skips numpy's slow
    underflow path; neither may change a bit of any value."""

    def test_equals_unfused_reference(self, params):
        for beam in [params] + seeded_beams(20261019, 8):
            grids = [
                np.linspace(0.1, 1e5, 200_001),
                np.linspace(0.1, 1000.0, 48_507),
                _subnormal_bands(beam),
            ]
            for g in grids:
                assert np.array_equal(phi(g, beam), phi_unfused(g, beam))
                assert np.array_equal(phi1(g, beam), phi1_unfused(g, beam))
                l, l0 = beam.length, beam.attachment_point
                assert np.array_equal(phi0(g, l, l0), phi0_unfused(g, l, l0))
            for mu in _subnormal_bands(beam)[::250].tolist() + [0.1, 2.5, 1e3, 1e5, 1e6]:
                value = phi(mu, beam)
                assert type(value) is float and value == phi_unfused(mu, beam)
                assert phi1(mu, beam) == phi1_unfused(mu, beam)

    def test_masked_exp_equals_numpy_exp(self):
        # below -746 exp rounds to 0.0; in the subnormal band above it the
        # masked call must still compute every value
        x = np.concatenate([
            -np.linspace(0.0, 800.0, 400_001),
            -np.nextafter(746.0, [0.0, math.inf]),
            -np.array([708.0, 744.4, 745.1, 745.2, 1e300, math.inf]),
        ])
        with np.errstate(under="ignore"):
            assert np.array_equal(_exp_neg(x), np.exp(x))
            assert all(_exp_neg(np.array(v)) == np.exp(v) for v in x[::4000].tolist())

    def test_independent_of_caller_errstate(self, params):
        # whatever the caller's np.errstate, the subnormal band must neither
        # raise nor change: here under the strictest setting
        g = _subnormal_bands(params)
        expected = phi(g, params)
        with np.errstate(all="raise"):
            assert np.array_equal(phi(g, params), expected)
            assert [phi(mu, params) for mu in g[::500].tolist()] == expected[::500].tolist()


class TestPhi1Bound:
    """B(mu) = 5 e^{-2 mu d} + 4 rho/(m mu) + 4 kappa rho/(EI m mu^4) bounds
    |phi1| for mu in [1e-6, 1e6]; the Phi scan skips phi1 where |phi0| > B.
    Rounding may put a computed |phi1| an ulp above B, hence the 1e-12."""

    @staticmethod
    def _beams(params, half_params):
        beams = [params, half_params] + seeded_beams(20261022, 6)
        for beam in (params, *seeded_beams(20261023, 2)):
            beams += [dataclasses.replace(beam, attachment_point=r * beam.length) for r in (0.05, 0.95)]
        return beams

    def test_bounds_high_precision_phi1(self, params, half_params):
        for beam in self._beams(params, half_params):
            # where |sin mu l| = 1 the 4 rho/(m mu) term is sharp
            peaks = (math.pi / 2.0 + np.geomspace(1.0, 5e5, 10).round() * math.pi) / beam.length
            for mu in np.concatenate([np.geomspace(1e-6, 1e6, 25), peaks]).tolist():
                bound = float(_phi1_bound(np.array([mu]), beam)[0])
                assert abs(phi1_mp(mu, beam)) <= (1.0 + 1e-12) * bound

    def test_bounds_phi1_on_dense_grids(self, params, half_params):
        mu = np.concatenate([np.geomspace(1e-6, 1e6, 200_001), np.linspace(15.0, 1000.0, 50_001)])
        for beam in self._beams(params, half_params):
            bound, value = _phi1_bound(mu, beam), np.abs(phi1(mu, beam))
            assert np.all(value <= (1.0 + 1e-12) * bound)
            # and it is sharp: a bound 0.1% lower fails
            high = mu >= 100.0
            assert np.max(value[high] / bound[high]) > 0.999

    def test_decreasing(self, params, half_params):
        mu = np.geomspace(1e-6, 1e6, 100_001)
        for beam in self._beams(params, half_params):
            assert np.all(np.diff(_phi1_bound(mu, beam)) <= 0.0)


class TestPhi1PrimeBound:
    """B'(mu) = 12 l e^{-2 mu d} + (4 rho/(m mu)) (l (1 + e^{-2 mu l}) + 1/mu)
    + (3 kappa rho/(EI m mu^4)) (l (1 + 2 e^{-2 mu d}) + 4/mu) bounds |phi1'|
    for mu in [1e-6, 1e6]; with B it certifies one root per half-period above
    mu* (``roots._certified``) on the same beams as B."""

    _beams = staticmethod(TestPhi1Bound._beams)

    def test_bounds_high_precision_derivative(self, params, half_params):
        for beam in self._beams(params, half_params):
            # where |cos mu l| = 1 the 4 rho l/(m mu) term is sharp
            peaks = np.geomspace(1.0, 5e5, 10).round() * math.pi / beam.length
            for mu in np.concatenate([np.geomspace(1e-6, 1e6, 25), peaks]).tolist():
                with mpmath.workdps(40):
                    slope = mpmath.diff(lambda x: phi1_mp(x, beam), mpmath.mpf(mu))
                assert abs(slope) <= (1.0 + 1e-12) * _phi1_prime_bound(mu, beam)

    def test_bounds_phi1_increments_on_dense_grids(self, params, half_params):
        # by the mean value theorem and B' decreasing, |phi1(b) - phi1(a)| <= B'(a) (b - a).
        # Rounding adds a few ulp of the terms of phi1, each at most B, and moves
        # the arguments mu l, mu (l - 2 l0) by a few ulp, so b - a by ~eps mu
        grids = [np.geomspace(1e-6, 1e6, 200_001), np.linspace(15.0, 1000.0, 50_001)]
        top = np.linspace(1e6 - 10.0, 1e6, 100_001)
        eps = np.finfo(float).eps
        for beam in self._beams(params, half_params):
            for mu in grids + [top]:
                a, b, rise = mu[:-1], mu[1:], np.abs(np.diff(phi1(mu, beam)))
                allowed = _phi1_prime_bound(a, beam) * (b - a)
                slack = _phi1_prime_bound(a, beam) * 8.0 * eps * b + 1e-14 * _phi1_bound(a, beam)
                assert np.all(rise <= allowed + slack)
            # and it is sharp: a bound 1% lower fails
            assert np.max(rise / allowed) > 0.99

    def test_decreasing(self, params, half_params):
        mu = np.geomspace(1e-6, 1e6, 100_001)
        for beam in self._beams(params, half_params):
            assert np.all(np.diff(_phi1_prime_bound(mu, beam)) <= 0.0)

    def test_float_and_array_agree(self, params):
        mu = np.geomspace(1e-6, 1e6, 1001)
        for bound in (_phi1_bound, _phi1_prime_bound):
            scalars = [bound(m, params) for m in mu.tolist()]
            assert all(isinstance(b, float) for b in scalars)
            assert np.allclose(scalars, bound(mu, params), rtol=1e-15, atol=0.0)
