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

import math

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
    """np.exp(x) without numpy's slow underflow path: exp rounds to 0.0 for x <= -746.
    A float x takes math.exp, which is faster on one value."""
    if isinstance(x, float):
        return math.exp(x)
    return np.exp(x, out=np.zeros_like(x), where=x > -746.0)


def _phi1(mu, params, s):
    """phi1 given s = sin(mu l); its subnormal underflow is ignored, so that it
    gives the same result whatever the caller's np.errstate."""
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


def _phi1_bound(mu, params):
    """B(mu) = 5 e^{-2 mu d} + 4 rho/(m mu) + 4 kappa rho/(EI m mu^4) >= |phi1(mu)|
    for mu > 0, with d = min(l0, l - l0); B decreases in mu.

    Write e_t = e^{-2 mu t} and fold sh, ch and chd as in _phi1.
    * The O(1) group 2 sh (cd - c) - 2 ch s + 2 s chd + (c + s - cd) equals
      e_l (c - cd - s) + s (e_l0 + e_{l-l0}), so it is at most 3 e_l + 2 e_d <= 5 e_d.
    * 0 <= sh <= 1/2, so the rho term is at most 4 rho/(m mu).  This term is
      sharp: |sh s| reaches 1/2 as e_l -> 0 wherever |sin mu l| = 1.
    * 0 <= ch - chd <= 1, because 1 + e_l - e_l0 - e_{l-l0} = (1 - e_l0)(1 - e_{l-l0}),
      so the kappa term is at most (2 kappa rho/(EI m mu^4)) (1 + 2 * 1/2).
    """
    l, l0 = params.length, params.attachment_point
    rho, m = params.linear_density, params.shaker_mass
    kap, ei = params.spring_stiffness, params.flexural_rigidity
    with np.errstate(under="ignore"):
        tail = (4.0 * rho / m + (4.0 * kap * rho / (ei * m)) / mu**3) / mu
        return 5.0 * _exp_neg(-2.0 * min(l0, l - l0) * mu) + tail


def _phi1_prime_bound(mu, params):
    """B'(mu) = 12 l e_d + (4 rho/(m mu)) (l (1 + e_l) + 1/mu)
    + (3 kappa rho/(EI m mu^4)) (l (1 + 2 e_d) + 4/mu) >= |phi1'(mu)| for mu > 0,
    with e_t = e^{-2 mu t} and d = min(l0, l - l0); B' decreases in mu.

    Differentiate _phi1 group by group, with e_t' = -2 t e_t, sh' = l e_l,
    s' = l c, c' = -l s, cd' = -delta sin(mu delta) for delta = l - 2 l0,
    |delta| < l, and e_l, e_l0, e_{l-l0} <= e_d.
    * The O(1) group G = e_l (c - cd - s) + s (e_l0 + e_{l-l0}) has
      G' = -2 l e_l (c - cd - s) + e_l (delta sin(mu delta) - l (s + c))
      + l c (e_l0 + e_{l-l0}) - 2 s (l0 e_l0 + (l - l0) e_{l-l0}),
      so |G'| <= (2 (1 + sqrt 2) + sqrt 2 + 1 + 2 + 2) l e_d < 12 l e_d.
    * The rho term -(8 rho/m) sh s/mu has derivative
      -(8 rho/m) ((sh' s + l sh c)/mu - sh s/mu^2), and
      |sh' s + l sh c| <= l e_l + l (1 - e_l)/2 = l (1 + e_l)/2, |sh s| <= 1/2.
      Its leading part 4 rho l/(m mu) is sharp where |cos mu l| = 1.
    * The kappa term (2 kappa rho/(EI m)) H/mu^4 with H = (ch - chd) s + (c - cd) sh
      has derivative (2 kappa rho/(EI m)) (H'/mu^4 - 4 H/mu^5).  Here
      0 <= ch - chd = (1 - e_l0)(1 - e_{l-l0})/2 <= 1/2, so |H| <= 3/2, and
      H' = (ch' - chd') s + l (ch - chd) c - (l s - delta sin(mu delta)) sh + (c - cd) sh'
      with ch' - chd' = -l e_l + l0 e_l0 + (l - l0) e_{l-l0}, a difference of
      two terms in [0, l e_d]; so |H'| <= l e_d + l/2 + l + 2 l e_l <= (3/2) l (1 + 2 e_d).
    """
    l, l0 = params.length, params.attachment_point
    rho, m = params.linear_density, params.shaker_mass
    kap, ei = params.spring_stiffness, params.flexural_rigidity
    with np.errstate(under="ignore"):
        e_d = _exp_neg(-2.0 * min(l0, l - l0) * mu)
        rho_term = (4.0 * rho / m) * (l * (1.0 + _exp_neg(-2.0 * l * mu)) + 1.0 / mu) / mu
        kap_term = (3.0 * kap * rho / (ei * m)) * (l * (1.0 + 2.0 * e_d) + 4.0 / mu) / mu**4
        return 12.0 * l * e_d + rho_term + kap_term


def phi(mu, params: BeamParameters):
    """Scaled characteristic function phi0 + phi1; its positive zeros are
    exactly the positive zeros of det M."""
    mu = np.asarray(mu, dtype=float)
    s = np.sin(mu * params.length)
    out = _phi0(mu, params.length, params.attachment_point, s) + _phi1(mu, params, s)
    return float(out) if out.ndim == 0 else out
