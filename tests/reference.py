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

It also keeps the scalar forms of two ``shakerbeam.roots`` routines that the
package now runs in batches, as exact references for them:

* ``scan_with_suspects_scalar`` (with ``_brent``) -- the scan with one
  scalar Brent refinement per bracket and a per-point suspect loop.  It takes
  the package's grid/closed-form split: ``np.linspace`` points up to the
  first one at or above ``shakerbeam.roots._mu_star``, then the edges
  (pi/4 + k pi)/l and mu_max.  The batched ``scan_with_suspects`` does the
  same arithmetic per bracket for Phi, so the two must return equal ``Root``
  tuples and suspects; for Phi0, which the package solves by Newton per
  half-period, the same roots within ``_BRACKET_TOL``.
* ``pair_mutual_nearest_quadratic`` -- mutual-nearest pairing by a linear
  ``min`` search per root, O(n^2).

the kernel of ``shakerbeam.phi`` before it shared sin(mu l) between its two
parts and skipped numpy's slow path for underflowing exponentials:

* ``phi0_unfused``, ``phi1_unfused`` and ``phi_unfused`` -- phi0, phi1 and
  their sum as two independent evaluations, each computing its own
  sin(mu l) and taking every exponential with a plain ``np.exp``.
  The package's kernel does the same arithmetic per point, so the two must
  be equal, not just close.

and a high-precision form of the correction term:

* ``phi1_mp`` -- phi1 in mpmath with the hyperbolics unfolded (sinh mu l,
  cosh mu l and cosh mu (l - 2 l0), each times e^{-mu l}), the reference for
  the envelope ``shakerbeam.freqeq._phi1_bound``.

and the quadrature that ``shakerbeam.normalize_L2`` replaced by a closed form:

* ``_branch_quadrature`` -- the integral of u^2 over [0, l] by one
  Gauss-Legendre panel of order n per branch.  The package used
  n = max(64, int(0.8 mu l) + 16), which resolves the integrand; its
  n x n eigenproblem costs about 1 s at mu ~ 451 and cannot be allocated
  at mu ~ 1e5, so the tests use it only for mu <= 40.

The tests import these with ``from reference import ...``; pytest puts this
directory on ``sys.path`` as it does for ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from shakerbeam import BeamParameters, DomainError, ModeShape, evaluate_mode, mu_hat, phi, phi0
from shakerbeam.roots import (
    _BRACKET_TOL,
    _GRID_ZERO,
    _RESIDUAL_FACTOR,
    _SUSPECT_LEVEL,
    ConfigurationError,
    Root,
    Target,
    _mu_star,
)

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


def _brent(f: Callable, a: float, fa: float, b: float, fb: float):
    """Safeguarded Brent: bisection fallback, inverse-quadratic/secant steps.

    Returns (root, f(root), iterations, bracket).  Iterates until the bracket
    is below _BRACKET_TOL, then reports the best function value seen.
    """
    c, fc = a, fa
    d = e = b - a
    best_x, best_f = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    iterations = 0
    for _ in range(200):
        iterations += 1
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _BRACKET_TOL + 2.0 * np.finfo(float).eps * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b = b + (d if abs(d) > tol else math.copysign(tol, m))
        fb = f(b)
        if abs(fb) < abs(best_f):
            best_x, best_f = b, fb
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    # polish: secant through the straddling pair pushes |f| from the
    # slope-limited ~|f'| * bracket level down to interpolation accuracy
    for _ in range(3):
        if fb == 0.0 or fc == 0.0 or fb == fc or b == c:
            break
        x = (b * fc - c * fb) / (fc - fb)
        if not (min(b, c) < x < max(b, c)):
            break
        fx = f(x)
        iterations += 1
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) >= abs(fb) and abs(fx) >= abs(fc):
            break
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
        else:
            c, fc = x, fx
    lo, hi = (b, c) if b < c else (c, b)
    # widen by one ulp so the reported root is strictly interior and the
    # endpoints still straddle the (simple) zero
    lo = float(np.nextafter(min(lo, best_x), -math.inf))
    hi = float(np.nextafter(max(hi, best_x), math.inf))
    return best_x, best_f, iterations, (lo, hi)


def _target_fn(target: Target, params: BeamParameters) -> Callable:
    """The target's function of mu on one beam."""
    if target is Target.Phi:
        return lambda mu: phi(mu, params)
    return lambda mu: phi0(mu, params.length, params.attachment_point)


def scan_with_suspects_scalar(
    target: Target,
    params: BeamParameters,
    mu_min: float,
    mu_max: float,
    step: float,
) -> tuple:
    """Scan a window; return (roots, suspects).

    Suspects are grid local minima of |f| below 1e-10 without a sign change --
    near-tangent configurations that must not be silently promoted to roots.
    """
    if not (0.0 < mu_min < mu_max):
        raise ConfigurationError(f"window must satisfy 0 < mu_min < mu_max, got ({mu_min}, {mu_max})")
    if step <= 0.0:
        raise ConfigurationError(f"step must be positive, got {step}")
    max_step = math.pi / (4.0 * params.length)
    if step >= max_step:
        raise ConfigurationError(
            f"step {step:.6g} too coarse: must be below pi/(4 l) = {max_step:.6g}"
            " to resolve the sin(mu l) oscillation"
        )
    f = _target_fn(target, params)
    n = int(math.ceil((mu_max - mu_min) / step))
    grid = np.linspace(mu_min, mu_max, n + 1)
    # past the first grid point at or above mu*, brackets are the edges
    # (pi/4 + k pi)/l, one root per half-period
    cut = int(np.searchsorted(grid, _mu_star(params, mu_max)))
    if cut < n:
        l = params.length
        k = np.arange(math.floor(grid[cut] * l / math.pi), math.ceil(mu_max * l / math.pi) + 1)
        edges = (k + 0.25) * (math.pi / l)
        edges = edges[(edges > grid[cut]) & (edges < mu_max)]
        grid = np.concatenate((grid[: cut + 1], edges, [mu_max]))
    values = np.asarray(f(grid), dtype=float)

    roots: list = []
    # grid points that are numerically exact zeros: degenerate brackets
    exact_hits = np.flatnonzero(np.abs(values) < _GRID_ZERO)
    for i in exact_hits:
        roots.append(
            Root(
                mu=float(grid[i]),
                residual=float(values[i]),
                bracket=(float(grid[i]), float(grid[i])),
                iterations=0,
                target=target,
                degenerate=True,
            )
        )
    sign = np.sign(values)
    sign[np.abs(values) < _GRID_ZERO] = 0.0
    crossings = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    for i in crossings:
        x, fx, iters, bracket = _brent(
            f, float(grid[i]), float(values[i]), float(grid[i + 1]), float(values[i + 1])
        )
        fscale = 1.0 + max(abs(float(values[i])), abs(float(values[i + 1])))
        if abs(fx) > _RESIDUAL_FACTOR * fscale:
            continue  # refinement failed to meet the residual contract: not a root
        roots.append(
            Root(mu=float(x), residual=float(fx), bracket=bracket, iterations=iters, target=target)
        )
    roots.sort(key=lambda r: r.mu)

    suspects: list = []
    absv = np.abs(values)
    # not at the grid's last point, where the edge brackets start
    for i in range(1, len(grid) - 1):
        if (
            i != cut
            and absv[i] < _SUSPECT_LEVEL
            and absv[i] <= absv[i - 1]
            and absv[i] <= absv[i + 1]
            and sign[i - 1] * sign[i + 1] > 0.0
            and absv[i] >= _GRID_ZERO
        ):
            suspects.append((float(grid[i]), float(values[i])))
    return roots, suspects


def pair_mutual_nearest_quadratic(exact: list, truncated: list) -> list:
    """Mutual nearest-neighbour pairing of two sorted root lists.

    Returns rows (exact_mu or None, truncated_mu or None, status-string) --
    exact-bearing rows first in mu order, then leftover truncated roots.
    """

    def nearest(x, pool):
        return min(pool, key=lambda y: abs(y - x)) if pool else None

    rows = []
    used_truncated = set()
    for m in exact:
        t = nearest(m, truncated)
        if t is not None and nearest(t, exact) == m:
            rows.append((m, t, "paired"))
            used_truncated.add(t)
        else:
            rows.append((m, None, "exact_only"))
    for t in truncated:
        if t not in used_truncated:
            rows.append((None, t, "truncated_only"))
    return rows


def phi1_unfused(mu, params: BeamParameters):
    """Correction term Phi1 with every hyperbolic pre-folded against e^{-mu l}.

    sinh mu l * e^{-mu l} becomes (1 - e^{-2 mu l})/2 and so on; each folded
    factor is bounded by 1, so the evaluation neither overflows nor cancels
    catastrophically for any mu > 0.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0):
        raise DomainError("mu must be positive")
    l, l0 = params.length, params.attachment_point
    e2l = np.exp(-2.0 * mu * l)
    e2a = np.exp(-2.0 * mu * l0)
    e2b = np.exp(-2.0 * mu * (l - l0))
    sh = 0.5 * (1.0 - e2l)  # sinh(mu l) e^{-mu l}
    ch = 0.5 * (1.0 + e2l)  # cosh(mu l) e^{-mu l}
    chd = 0.5 * (e2a + e2b)  # cosh(mu (l - 2 l0)) e^{-mu l}
    s, c = np.sin(mu * l), np.cos(mu * l)
    cd = np.cos(mu * (l - 2.0 * l0))
    rho, m = params.linear_density, params.shaker_mass
    kap, ei = params.spring_stiffness, params.flexural_rigidity
    out = (
        2.0 * sh * cd
        - 2.0 * sh * c
        - 2.0 * ch * s
        + 2.0 * s * chd
        + (c + s - cd)
        - (8.0 * rho / (m * mu)) * sh * s
        + (2.0 * kap * rho / (ei * m * mu**4)) * ((ch - chd) * s + (c - cd) * sh)
    )
    return float(out) if out.ndim == 0 else out


def phi_unfused(mu, params: BeamParameters):
    """Scaled characteristic function phi0 + phi1; its positive zeros are
    exactly the positive zeros of det M."""
    return phi0_unfused(mu, params.length, params.attachment_point) + phi1_unfused(mu, params)


def phi0_unfused(mu, l: float, l0: float):
    """Truncated characteristic function 2 sin mu(l-l0) sin mu l0 - sin mu l."""
    mu = np.asarray(mu, dtype=float)
    out = 2.0 * np.sin(mu * (l - l0)) * np.sin(mu * l0) - np.sin(mu * l)
    return float(out) if out.ndim == 0 else out


def phi1_mp(mu: float, params: BeamParameters, dps: int = 40):
    """phi1 at the double mu, as an mpmath number computed with dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        mu = mpmath.mpf(mu)
        l, l0 = mpmath.mpf(params.length), mpmath.mpf(params.attachment_point)
        scale = mpmath.exp(-mu * l)
        sh, ch = mpmath.sinh(mu * l) * scale, mpmath.cosh(mu * l) * scale
        chd = mpmath.cosh(mu * (l - 2 * l0)) * scale
        s, c, cd = mpmath.sin(mu * l), mpmath.cos(mu * l), mpmath.cos(mu * (l - 2 * l0))
        rho, m = mpmath.mpf(params.linear_density), mpmath.mpf(params.shaker_mass)
        kap, ei = mpmath.mpf(params.spring_stiffness), mpmath.mpf(params.flexural_rigidity)
        return +(
            2 * sh * (cd - c)
            - 2 * ch * s
            + 2 * s * chd
            + (c + s - cd)
            - (8 * rho / (m * mu)) * sh * s
            + (2 * kap * rho / (ei * m * mu**4)) * ((ch - chd) * s + (c - cd) * sh)
        )


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
