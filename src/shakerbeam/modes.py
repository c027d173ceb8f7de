"""Eigenmode reconstruction, evaluation, normalization, and state assembly.

A mode at spectral parameter mu is piecewise

    u(x) = A sinh(mu x)      + B sin(mu x),        0 <= x <= l0,
    u(x) = C sinh(mu (x-l))  + D sin(mu (x-l)),    l0 <= x <= l,

which satisfies the hinged-end conditions u = u'' = 0 at both ends by
construction.  The four amplitudes are fixed (up to scale) by continuity of
u, u', u'' at the attachment point plus the third-derivative force balance of
the mass-spring unit.  Internally the growing amplitudes are stored scaled,
A = a e^{-mu l0} and C = c e^{-mu (l-l0)}, so every matrix entry and every
evaluation term stays bounded: the raw boundary-data formulation loses
eps * e^{mu l0} to cancellation and destroys high modes.  The public fields
still expose the end derivative data (u1 = u', u3 = u''') in the gauge
u3(l) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import BeamParameters, DomainError, ValidationError, to_spectral_point
from .freqeq import mu_hat
from .roots import Root, Target

__all__ = [
    "DegenerateModeError",
    "ModeShape",
    "solve_mode",
    "evaluate_mode",
    "normalize_L2",
    "full_state",
]

_NULLSPACE_RATIO = 1e-6
_GAUGE_FLOOR = 1e-10


class DegenerateModeError(ValueError):
    """No one-dimensional mode space at the requested mu.

    Carries nullspace_ratio, sigma_min/sigma_max of the scaled interface system.
    """

    def __init__(self, message: str, nullspace_ratio: float):
        super().__init__(message)
        self.nullspace_ratio = nullspace_ratio


@dataclass(frozen=True)
class ModeShape:
    """A reconstructed eigenmode.

    boundary_values : (u'(0), u'''(0), u'(l), u'''(l)) -- end derivative data;
        u'''(l) = 1 in the primary gauge
    attachment : (p, q_magnitude) with p = u(l0) and q = i omega p (magnitude
        stored; the eigenvalue is purely imaginary)
    normalization : scale factor applied by normalize_L2 (None before)
    sign_convention : +1/-1 applied so u'(0) > 0 (None before normalization)
    gauge : which boundary value was pinned to 1 by solve_mode
    nullspace_ratio : sigma_min/sigma_max of the scaled interface system at
        mu, in [0, 1]; solve_mode accepts a root only below 1e-6
    """

    mu: float
    params: BeamParameters
    amplitudes: tuple  # (a, B, c, D): scaled sinh/sin amplitudes per branch
    boundary_values: tuple
    attachment: tuple
    gauge: str
    nullspace_ratio: float
    normalization: Optional[float] = None
    sign_convention: Optional[int] = None


def _interface_system(mu: float, params: BeamParameters) -> np.ndarray:
    """Scaled 4x4 interface system H @ (a, B, c, D) = 0.

    Rows: continuity of u, u', u'' and the third-derivative jump balance at
    l0, each divided by its mu power (and the jump row by its coefficient
    scale); all hyperbolics are folded so entries are O(1) for any mu.
    """
    l, l0 = params.length, params.attachment_point
    b0, b1 = mu * l0, mu * (l - l0)
    S0, C0 = 0.5 * (1.0 - math.exp(-2.0 * b0)), 0.5 * (1.0 + math.exp(-2.0 * b0))
    S1, C1 = 0.5 * (1.0 - math.exp(-2.0 * b1)), 0.5 * (1.0 + math.exp(-2.0 * b1))
    s0, c0 = math.sin(b0), math.cos(b0)
    s1, c1 = math.sin(b1), math.cos(b1)
    jump = mu_hat(mu, params) / mu**3  # (kappa - m omega^2) / (EI mu^3)
    row4 = np.array([C0 - jump * S0, -c0 - jump * s0, -C1, c1])
    return np.array(
        [
            [S0, s0, S1, s1],
            [C0, c0, -C1, -c1],
            [S0, -s0, S1, -s1],
            row4 / max(1.0, abs(jump)),
        ]
    )


def _boundary_values(mu: float, params: BeamParameters, amps: tuple) -> tuple:
    a, B, c, D = amps
    ea = math.exp(-mu * params.attachment_point)
    eb = math.exp(-mu * (params.length - params.attachment_point))
    return (
        mu * (a * ea + B),  # u'(0)
        mu**3 * (a * ea - B),  # u'''(0)
        mu * (c * eb + D),  # u'(l)
        mu**3 * (c * eb - D),  # u'''(l)
    )


def solve_mode(root: Root, params: BeamParameters) -> ModeShape:
    """Reconstruct the eigenmode at a refined root of the exact equation.

    The amplitude vector is the null direction of the scaled interface system,
    rescaled to the gauge u'''(l) = 1 (fallback u'(l) = 1 if the third
    derivative vanishes at the right end).  The system's sigma_min/sigma_max is
    kept as nullspace_ratio.  Raises DegenerateModeError when it exceeds 1e-6,
    i.e. the system has no one-dimensional null space at root.mu -- the value
    is not actually an eigenvalue, or the eigenspace is defective.
    """
    if root.target is not Target.Phi:
        raise ValidationError(
            f"mode reconstruction needs a root of the exact equation, got target {root.target}"
        )
    mu = root.mu
    l0 = params.attachment_point
    H = _interface_system(mu, params)
    _, singular_values, vt = np.linalg.svd(H)
    ratio = float(singular_values[-1] / singular_values[0])
    if ratio > _NULLSPACE_RATIO:
        raise DegenerateModeError(
            f"no mode at mu = {mu:.9g}: interface system has no null direction"
            f" (sigma_min/sigma_max = {ratio:.3e})",
            nullspace_ratio=ratio,
        )
    amps = vt[-1]
    u1_0, u3_0, u1_l, u3_l = _boundary_values(mu, params, tuple(amps))
    if abs(u3_l) > _GAUGE_FLOOR * mu**3:
        amps = amps / u3_l
        gauge = "u3(l)=1"
    elif abs(u1_l) > _GAUGE_FLOOR * mu:
        amps = amps / u1_l
        gauge = "u1(l)=1"
    else:
        raise DegenerateModeError(
            f"mode at mu = {mu:.9g} has vanishing right-end derivative data;"
            f" no gauge applicable (sigma_min/sigma_max = {ratio:.3e})",
            nullspace_ratio=ratio,
        )
    amps = tuple(float(v) for v in amps)
    p = _eval_amps(l0, mu, params, amps, 0, force_left=True)
    omega = to_spectral_point(mu, params).omega
    return ModeShape(
        mu=mu,
        params=params,
        amplitudes=amps,
        boundary_values=_boundary_values(mu, params, amps),
        attachment=(float(p), float(omega * p)),
        gauge=gauge,
        nullspace_ratio=ratio,
    )


def _eval_amps(x, mu, params, amps, derivative, force_left=False):
    """Evaluate the mode (or a derivative) from the scaled amplitudes.

    sinh(mu x) e^{-mu l0} is computed as (e^{mu(x-l0)} - e^{-mu(x+l0)})/2 --
    both exponents are <= 0 on the branch, so no term exceeds 1/2 in magnitude
    and the evaluation is cancellation-free at any mu.
    """
    a, B, c, D = amps
    l, l0 = params.length, params.attachment_point
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    left = (x <= l0) | np.full(x.shape, force_left)
    out = np.empty_like(x)

    xl = x[left]
    sh = 0.5 * (np.exp(mu * (xl - l0)) - np.exp(-mu * (xl + l0)))
    ch = 0.5 * (np.exp(mu * (xl - l0)) + np.exp(-mu * (xl + l0)))
    s, co = np.sin(mu * xl), np.cos(mu * xl)
    if derivative == 0:
        out[left] = a * sh + B * s
    elif derivative == 1:
        out[left] = mu * (a * ch + B * co)
    elif derivative == 2:
        out[left] = mu**2 * (a * sh - B * s)
    else:
        out[left] = mu**3 * (a * ch - B * co)

    xr = x[~left]
    if xr.size:
        t = l - l0
        sh = 0.5 * (np.exp(mu * (xr - l) - mu * t) - np.exp(-mu * (xr - l) - mu * t))
        ch = 0.5 * (np.exp(mu * (xr - l) - mu * t) + np.exp(-mu * (xr - l) - mu * t))
        s, co = np.sin(mu * (xr - l)), np.cos(mu * (xr - l))
        if derivative == 0:
            out[~left] = c * sh + D * s
        elif derivative == 1:
            out[~left] = mu * (c * ch + D * co)
        elif derivative == 2:
            out[~left] = mu**2 * (c * sh - D * s)
        else:
            out[~left] = mu**3 * (c * ch - D * co)
    return float(out[0]) if scalar else out


def evaluate_mode(mode: ModeShape, x, derivative: int = 0):
    """Displacement (or derivative up to order 3) at x in [0, l].

    The left branch is used for x <= l0, the right branch beyond; both end
    points return exactly 0 for the displacement.
    """
    if derivative not in (0, 1, 2, 3):
        raise DomainError(f"derivative order must be 0..3, got {derivative}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > mode.params.length):
        raise DomainError(
            f"x outside the beam span [0, {mode.params.length}]: {x!r}"
        )
    return _eval_amps(arr, mode.mu, mode.params, mode.amplitudes, derivative)


def _branch_quadrature(mode: ModeShape, n: int) -> float:
    """integral of u^2 over [0, l] by composite Gauss-Legendre, one panel per branch."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    total = 0.0
    l, l0 = mode.params.length, mode.params.attachment_point
    for lo, hi in ((0.0, l0), (l0, l)):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        xs = mid + half * nodes
        u = evaluate_mode(mode, xs)
        total += half * float(np.dot(weights, u * u))
    return total


def normalize_L2(mode: ModeShape, quadrature_points: Optional[int] = None) -> ModeShape:
    """Rescale so the L2 norm of u over [0, l] is 1, with sign u'(0) > 0.

    quadrature_points is the Gauss-Legendre order per branch (>= 64); the
    default grows with mu so the oscillatory integrand stays resolved.
    """
    if quadrature_points is None:
        quadrature_points = max(64, int(0.8 * mode.mu * mode.params.length) + 16)
    if quadrature_points < 64:
        raise ValidationError(
            f"quadrature_points must be >= 64, got {quadrature_points}"
        )
    norm_sq = _branch_quadrature(mode, quadrature_points)
    if not norm_sq > 0.0 or not math.isfinite(norm_sq):
        raise DegenerateModeError(
            f"mode at mu = {mode.mu:.9g} has numerically zero norm",
            nullspace_ratio=mode.nullspace_ratio,
        )
    scale = 1.0 / math.sqrt(norm_sq)
    u1_0 = mode.boundary_values[0]
    sign = 1 if u1_0 * scale > 0.0 else -1
    factor = sign * scale
    amps = tuple(v * factor for v in mode.amplitudes)
    p = mode.attachment[0] * factor
    omega = to_spectral_point(mode.mu, mode.params).omega
    return replace(
        mode,
        amplitudes=amps,
        boundary_values=tuple(v * factor for v in mode.boundary_values),
        attachment=(p, omega * p),
        normalization=(mode.normalization or 1.0) * abs(factor),
        sign_convention=sign if mode.sign_convention is None else sign * mode.sign_convention,
    )


def full_state(mode: ModeShape, n_samples: int = 401) -> dict:
    """Sample the eigen-state (u, v, p, q) on a uniform grid.

    The eigenvalue is i*omega, so the velocity component is v = i omega u;
    magnitudes are reported with times_i = True flagging the 90-degree phase.
    """
    if mode.normalization is None:
        raise ValidationError("full_state requires a normalized mode (run normalize_L2)")
    omega = to_spectral_point(mode.mu, mode.params).omega
    x = np.linspace(0.0, mode.params.length, n_samples)
    u = evaluate_mode(mode, x)
    return {
        "x": x,
        "u": u,
        "v_magnitude": omega * u,
        "p": mode.attachment[0],
        "q_magnitude": mode.attachment[1],
        "omega": omega,
        "times_i": True,
    }
