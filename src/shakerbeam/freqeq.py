"""Characteristic functions of the beam-shaker eigenvalue problem.

An eigenfrequency parameter mu > 0 must satisfy det M(mu) = 0, where M is the
4x4 interface matrix tying the two hinged half-spans together at the attachment
point.  Its entries grow like e^{mu l}, so det M itself overflows near
mu l ~ 700.  Root finding instead uses the exponentially scaled characteristic
function

* ``phi0`` -- the truncated part 2 sin mu(l-l0) sin mu l0 - sin mu l, which
  dominates as mu grows,
* ``phi1`` -- the correction, with every hyperbolic folded against e^{-mu l},
* ``phi`` -- Phi = Phi0 + Phi1, with det M = (m e^{mu l}/(8 rho mu)) * Phi;
  phi is overflow-free for any mu and has the same positive zeros as det M.
"""

from __future__ import annotations

import numpy as np

from .core import BeamParameters, DomainError

__all__ = [
    "mu_hat",
    "phi0",
    "phi0_prime",
    "phi1",
    "phi",
]


def mu_hat(mu: float, params: BeamParameters) -> float:
    """The attachment coefficient kappa/(EI) - (m/rho) mu^4."""
    return params.spring_stiffness / params.flexural_rigidity - (
        params.shaker_mass / params.linear_density
    ) * mu**4


def phi0(mu, l: float, l0: float):
    """Truncated characteristic function 2 sin mu(l-l0) sin mu l0 - sin mu l.

    Accepts any real mu (arrays allowed); roots are sought on mu > 0.
    """
    mu = np.asarray(mu, dtype=float)
    out = _phi0(mu, l, l0, np.sin(mu * l))
    return float(out) if out.ndim == 0 else out


def _phi0(mu, l, l0, s):
    """phi0 given s = sin(mu l), which phi shares with phi1."""
    return 2.0 * np.sin(mu * (l - l0)) * np.sin(mu * l0) - s


def phi0_prime(mu, l: float, l0: float):
    """d phi0 / d mu, used for empirical localization margins."""
    mu = np.asarray(mu, dtype=float)
    out = (
        2.0 * (l - l0) * np.cos(mu * (l - l0)) * np.sin(mu * l0)
        + 2.0 * l0 * np.sin(mu * (l - l0)) * np.cos(mu * l0)
        - l * np.cos(mu * l)
    )
    return float(out) if out.ndim == 0 else out


def phi1(mu, params: BeamParameters):
    """Correction term Phi1 with every hyperbolic pre-folded against e^{-mu l}.

    sinh mu l * e^{-mu l} becomes (1 - e^{-2 mu l})/2 and so on; each folded
    factor is bounded by 1, so the evaluation neither overflows nor cancels
    catastrophically for any mu > 0.
    """
    mu = np.asarray(mu, dtype=float)
    out = _phi1(mu, params, np.sin(mu * params.length))
    return float(out) if out.ndim == 0 else out


def _exp_neg(x):
    """np.exp(x) without numpy's slow underflow path: exp rounds to 0.0 for x <= -746."""
    return np.exp(x, out=np.zeros_like(x), where=x > -746.0)


def _phi1(mu, params, s):
    """phi1 given s = sin(mu l); its subnormal underflow is ignored whatever
    the caller's np.errstate, so that it gives the same result in any thread."""
    if np.any(mu <= 0.0):
        raise DomainError("mu must be positive")
    l, l0 = params.length, params.attachment_point
    with np.errstate(under="ignore"):
        e2l, e2a, e2b = _exp_neg(np.multiply.outer((l, l0, l - l0), -2.0 * mu))
        sh = 0.5 * (1.0 - e2l)  # sinh(mu l) e^{-mu l}
        ch = 0.5 * (1.0 + e2l)  # cosh(mu l) e^{-mu l}
        chd = 0.5 * (e2a + e2b)  # cosh(mu (l - 2 l0)) e^{-mu l}
        c = np.cos(mu * l)
        cd = np.cos(mu * (l - 2.0 * l0))
        rho, m = params.linear_density, params.shaker_mass
        kap, ei = params.spring_stiffness, params.flexural_rigidity
        return (
            2.0 * sh * cd
            - 2.0 * sh * c
            - 2.0 * ch * s
            + 2.0 * s * chd
            + (c + s - cd)
            - (8.0 * rho / (m * mu)) * sh * s
            + (2.0 * kap * rho / (ei * m * mu**4)) * ((ch - chd) * s + (c - cd) * sh)
        )


def phi(mu, params: BeamParameters):
    """Scaled characteristic function phi0 + phi1; its positive zeros are
    exactly the positive zeros of det M."""
    mu = np.asarray(mu, dtype=float)
    s = np.sin(mu * params.length)
    out = _phi0(mu, params.length, params.attachment_point, s) + _phi1(mu, params, s)
    return float(out) if out.ndim == 0 else out
