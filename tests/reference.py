"""Unscaled reference forms of the interface problem, used only by the tests.

The package evaluates the characteristic equation in two scaled, overflow-free
forms: ``shakerbeam.phi`` (root finding) and the scaled interface system in
``shakerbeam.modes`` (mode reconstruction).  The forms below work with the raw
exponentials and serve as independent references for them, each within its
own valid range:

* ``krylov`` / ``KrylovValues`` -- the fundamental solutions z1..z4 of
  u'''' = mu^4 u.  cosh and sinh overflow once mu |x| exceeds about 710, and
  z3, z4 lose relative accuracy as mu |x| -> 0 (cosh - cos, sinh - sin).
* ``interface_matrix`` -- the 4x4 interface matrix M built from ``krylov``.
  Its entries are exact, but columns 1, 2 share e^{mu l0} and columns 3, 4
  share e^{mu (l - l0)}, so an LU determinant of M loses
  eps * e^{mu max(l0, l - l0)} of det M; the tests take one only for
  mu <= 2 on the default beam.
* ``det_M_closed`` -- the closed-form expansion of det M, for mu l <= 690
  (``RangeError`` past the cosh overflow bound).  Below mu ~ 0.1 its term
  groups cancel: against a 60-digit mpmath determinant of M it is off by
  1.0e-7 of |det M| at mu = 0.005 and by 1.9e-11 at mu = 0.05, so it is no
  reference there.
* ``det_M_scale`` -- the sum of the closed form's term-group bounds, the
  yardstick for relative agreement (unlike |det M| it does not vanish at
  roots); it overflows where cosh does.
* ``det_M_oracle`` -- an LU determinant of a column-equivalent matrix with
  the exponentials folded out, for mu l <= 170 (``RangeError`` past it),
  where it matches ``det_M_closed`` to 1e-12 of ``det_M_scale``.  It calls
  neither ``phi`` nor ``det_M_closed``.

The tests import these with ``from reference import ...``; pytest puts this
directory on ``sys.path`` as it does for ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from shakerbeam import BeamParameters, DomainError, mu_hat

# cosh overflows double just above exp(710); stay below with margin
_CLOSED_MAX_MUL = 690.0
# the documented range over which the oracle cross-validates det_M_closed
# (tested to 1e-12 of det_M_scale); past it, use the scaled phi
_ORACLE_MAX_MUL = 170.0


class RangeError(ValueError):
    """Raised when an unscaled evaluation would overflow double precision."""


@dataclass(frozen=True)
class KrylovValues:
    """The four fundamental solutions of u'''' = mu^4 u evaluated at one (mu, x).

    z1 = (cosh mu x + cos mu x)/2            z1' = mu^4 z4
    z2 = (sinh mu x + sin mu x)/(2 mu)       z2' = z1
    z3 = (cosh mu x - cos mu x)/(2 mu^2)     z3' = z2
    z4 = (sinh mu x - sin mu x)/(2 mu^3)     z4' = z3
    """

    z1: float
    z2: float
    z3: float
    z4: float


def krylov(mu: float, x):
    """Evaluate z1..z4 at (mu, x); x may be negative and may be an ndarray."""
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    mx = mu * np.asarray(x, dtype=float)
    ch, sh = np.cosh(mx), np.sinh(mx)
    c, s = np.cos(mx), np.sin(mx)
    z1 = 0.5 * (ch + c)
    z2 = (sh + s) / (2.0 * mu)
    z3 = (ch - c) / (2.0 * mu**2)
    z4 = (sh - s) / (2.0 * mu**3)
    if np.ndim(x) == 0:
        return KrylovValues(float(z1), float(z2), float(z3), float(z4))
    return KrylovValues(z1, z2, z3, z4)


def interface_matrix(mu: float, params: BeamParameters) -> np.ndarray:
    """The 4x4 interface matrix M on (u1(0), u3(0), u1(l), u3(l)).

    Rows: continuity of u, u', u'' across the attachment point, then the
    third-derivative force balance of the mass-spring unit.
    """
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    l, l0 = params.length, params.attachment_point
    a = krylov(mu, l0)
    b = krylov(mu, l0 - l)
    m4 = mu**4
    mh = mu_hat(mu, params)
    return np.array(
        [
            [a.z2, a.z4, -b.z2, -b.z4],
            [a.z1, a.z3, -b.z1, -b.z3],
            [m4 * a.z4, a.z2, -m4 * b.z4, -b.z2],
            [m4 * a.z3 - mh * a.z2, a.z1 - mh * a.z4, -m4 * b.z3, -b.z1],
        ]
    )


def det_M_closed(mu: float, params: BeamParameters) -> float:
    """Closed-form det M: the m/(4 mu rho) group, -sin*sinh/mu^2, and the
    kappa/(4 EI mu^5) group."""
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    l, l0 = params.length, params.attachment_point
    if mu * l > _CLOSED_MAX_MUL:
        raise RangeError(
            f"mu*l = {mu * l:.3g} exceeds the cosh overflow bound {_CLOSED_MAX_MUL};"
            " use the scaled characteristic function phi instead"
        )
    sl, cl = math.sin(mu * l), math.cos(mu * l)
    shl, chl = math.sinh(mu * l), math.cosh(mu * l)
    chd = math.cosh(mu * (l - 2 * l0))
    cd = math.cos(mu * (l - 2 * l0))
    mass_group = (params.shaker_mass / (4.0 * mu * params.linear_density)) * (
        (chd - chl) * sl + (cd - cl) * shl
    )
    spring_group = (
        params.spring_stiffness / (4.0 * params.flexural_rigidity * mu**5)
    ) * ((chl - chd) * sl + (cl - cd) * shl)
    return mass_group - sl * shl / mu**2 + spring_group


def det_M_scale(mu: float, params: BeamParameters) -> float:
    """Magnitude envelope of det_M_closed: sum of the term-group bounds.

    The natural yardstick for 'relative' agreement between determinant
    evaluations -- unlike |det M| itself it does not vanish at roots.
    """
    l, l0 = params.length, params.attachment_point
    ch = math.cosh(mu * l) + math.cosh(mu * (l - 2 * l0))
    return (
        (params.shaker_mass / (4.0 * mu * params.linear_density)) * 2.0 * ch
        + math.cosh(mu * l) / mu**2
        + (params.spring_stiffness / (4.0 * params.flexural_rigidity * mu**5)) * 2.0 * ch
    )


def det_M_oracle(mu: float, params: BeamParameters) -> float:
    """Independent det M: LU determinant of a matrix column-equivalent to the
    interface matrix, assembled entry-by-entry from sin/cos and folded
    exponentials.

    The columns of M pair up by segment: columns 1, 2 share the hyperbolic
    part e^{mu l0}, columns 3, 4 the part e^{mu (l - l0)}, so an LU
    determinant of the raw entries cancels them and loses
    eps * e^{mu max(l0, l - l0)} of the result.  Instead the unit-determinant
    operations col1 -= mu^2 col2 and col3 -= mu^2 col4 leave columns 1 and 3
    purely trigonometric, e^{-mu l0} and e^{-mu (l - l0)} are folded out of
    columns 2 and 4 (sinh x e^{-x} = (1 - e^{-2x})/2), and
    det M = e^{mu l} det N for the resulting O(1) matrix N.
    """
    l, l0 = params.length, params.attachment_point
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    if mu * l > _ORACLE_MAX_MUL:
        raise RangeError(
            f"mu*l = {mu * l:.3g} exceeds the oracle's cross-validation range"
            f" {_ORACLE_MAX_MUL}; use the scaled characteristic function phi instead"
        )
    b0, b1 = mu * l0, mu * (l - l0)
    s0, c0 = math.sin(b0), math.cos(b0)
    s1, c1 = math.sin(b1), math.cos(b1)
    a1, a2, a3, a4 = _folded_krylov(mu, l0)
    # krylov(mu, l0 - l) = (z1, -z2, z3, -z4) of krylov(mu, l - l0)
    d1, d2, d3, d4 = _folded_krylov(mu, l - l0)
    mh = mu_hat(mu, params)
    n = np.array(
        [
            [s0 / mu, a4, s1 / mu, d4],
            [c0, a3, -c1, -d3],
            [-mu * s0, a2, -mu * s1, d2],
            [-(mu**2) * c0 - mh * s0 / mu, a1 - mh * a4, mu**2 * c1, -d1],
        ]
    )
    return float(np.linalg.det(n)) * math.exp(mu * l)


def _folded_krylov(mu: float, x: float) -> tuple:
    """Krylov values z1..z4 at (mu, x > 0) times e^{-mu x}, each O(1)/mu^k."""
    t = mu * x
    sh = -0.5 * math.expm1(-2.0 * t)  # sinh(t) e^{-t}
    ch = 1.0 - sh  # cosh(t) e^{-t}
    e = math.exp(-t)
    s, c = math.sin(t) * e, math.cos(t) * e
    return (
        0.5 * (ch + c),
        (sh + s) / (2.0 * mu),
        (ch - c) / (2.0 * mu**2),
        (sh - s) / (2.0 * mu**3),
    )
