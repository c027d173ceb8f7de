"""Eigenmode reconstruction, evaluation and normalization.

A mode at spectral parameter mu is piecewise

    u(x) = A sinh(mu x)      + B sin(mu x),        0 <= x <= l0,
    u(x) = C sinh(mu (x-l))  + D sin(mu (x-l)),    l0 <= x <= l,

which satisfies the hinged-end conditions u = u'' = 0 at both ends by
construction.  The four amplitudes are fixed (up to scale) by continuity of
u, u', u'' at the attachment point plus the third-derivative force balance of
the mass-spring unit.  Internally the growing amplitudes are stored scaled,
A = a e^{-mu l0} and C = c e^{-mu (l-l0)}, so every matrix entry and every
evaluation term stays bounded: the raw boundary-data formulation loses
eps * e^{mu l0} to cancellation and destroys high modes.  A ModeShape stores
only these amplitudes and derives its end derivative data and attachment state
from them.  The L2 norm comes in closed form from the same scaled amplitudes.
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

    amplitudes : (a, B, c, D), the scaled sinh/sin amplitudes of the two
        branches; they alone fix the mode's scale, and boundary_values and
        attachment are derived from them
    normalization : scale factor applied by normalize_L2 (None before)
    sign_convention : +1/-1 applied so u'(0) > 0 (None before normalization)
    gauge : which boundary value was pinned to 1 by solve_mode
    nullspace_ratio : sigma_min/sigma_max of the scaled interface system at
        mu, in [0, 1]; solve_mode accepts a root only below 1e-6
    """

    mu: float
    params: BeamParameters
    amplitudes: tuple
    gauge: str
    nullspace_ratio: float
    normalization: Optional[float] = None
    sign_convention: Optional[int] = None

    @property
    def boundary_values(self) -> tuple:
        """(u'(0), u'''(0), u'(l), u'''(l)); u'''(l) = 1 in the primary gauge."""
        return _boundary_values(self.mu, self.params, self.amplitudes)

    @property
    def attachment(self) -> tuple:
        """(p, |q|): p = u(l0), and q = i omega p, as the eigenvalue is purely imaginary."""
        p = _eval_amps(self.params.attachment_point, self.mu, self.params, self.amplitudes, 0)
        return (p, to_spectral_point(self.mu, self.params).omega * p)


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
    return ModeShape(
        mu=mu,
        params=params,
        amplitudes=tuple(float(v) for v in amps),
        gauge=gauge,
        nullspace_ratio=ratio,
    )


def _eval_amps(x, mu, params, amps, derivative):
    """Evaluate the mode (or a derivative) from the scaled amplitudes.

    sinh(mu x) e^{-mu l0} is computed as (e^{mu(x-l0)} - e^{-mu(x+l0)})/2 --
    both exponents are <= 0 on the branch, so no term exceeds 1/2 in magnitude
    and the evaluation is cancellation-free at any mu.
    """
    a, B, c, D = amps
    l, l0 = params.length, params.attachment_point
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    left = x <= l0
    out = np.empty_like(x)

    xl = x[left]
    sh = 0.5 * (np.exp(mu * (xl - l0)) - np.exp(-mu * (xl + l0)))
    ch = 0.5 * (np.exp(mu * (xl - l0)) + np.exp(-mu * (xl + l0)))
    s, co = np.sin(mu * xl), np.cos(mu * xl)
    out[left] = _branch_derivative(mu, derivative, a, B, sh, ch, s, co)

    xr = x[~left]
    if xr.size:
        t = l - l0
        sh = 0.5 * (np.exp(mu * (xr - l) - mu * t) - np.exp(-mu * (xr - l) - mu * t))
        ch = 0.5 * (np.exp(mu * (xr - l) - mu * t) + np.exp(-mu * (xr - l) - mu * t))
        s, co = np.sin(mu * (xr - l)), np.cos(mu * (xr - l))
        out[~left] = _branch_derivative(mu, derivative, c, D, sh, ch, s, co)
    return float(out[0]) if scalar else out


def _branch_derivative(mu, derivative, p, q, sh, ch, s, co):
    """The derivative of p sh + q s on one branch, given sh' = mu ch, s' = mu co."""
    if derivative == 0:
        return p * sh + q * s
    if derivative == 1:
        return mu * (p * ch + q * co)
    if derivative == 2:
        return mu**2 * (p * sh - q * s)
    return mu**3 * (p * ch - q * co)


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


def _branch_norm_sq(mu: float, t: float, p: float, q: float) -> float:
    """Integral over [0, t] of (p sh(y) + q sin(mu y))^2 in closed form.

    sh(y) = (e^{mu(y-t)} - e^{-mu(y+t)})/2 = sinh(mu y) e^{-mu t} is the scaled
    hyperbolic of either branch (of the right one under y = l - x, up to sign).
    Every term below is bounded by t or 1/mu, so the sum is finite at any mu.
    """
    b = mu * t
    e2 = math.exp(-2.0 * b)
    s, co = math.sin(b), math.cos(b)
    sh_sh = (-math.expm1(-4.0 * b) / (2.0 * mu) - 2.0 * t * e2) / 4.0
    sh_sin = (s - co + e2 * (s + co)) / (4.0 * mu)
    sin_sin = t / 2.0 - math.sin(2.0 * b) / (4.0 * mu)
    return p * p * sh_sh + 2.0 * p * q * sh_sin + q * q * sin_sin


def normalize_L2(mode: ModeShape) -> ModeShape:
    """Rescale so the L2 norm of u over [0, l] is 1, with sign u'(0) > 0.

    The squared norm sums two closed-form branch integrals: O(1) at any mu.
    """
    mu, l, l0 = mode.mu, mode.params.length, mode.params.attachment_point
    a, B, c, D = mode.amplitudes
    norm_sq = _branch_norm_sq(mu, l0, a, B) + _branch_norm_sq(mu, l - l0, c, D)
    if not norm_sq > 0.0 or not math.isfinite(norm_sq):
        raise DegenerateModeError(
            f"mode at mu = {mode.mu:.9g} has numerically zero norm",
            nullspace_ratio=mode.nullspace_ratio,
        )
    scale = 1.0 / math.sqrt(norm_sq)
    sign = 1 if mode.boundary_values[0] * scale > 0.0 else -1
    factor = sign * scale
    return replace(
        mode,
        amplitudes=tuple(v * factor for v in mode.amplitudes),
        normalization=(mode.normalization or 1.0) * abs(factor),
        sign_convention=sign if mode.sign_convention is None else sign * mode.sign_convention,
    )

