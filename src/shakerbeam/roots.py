"""Root location for the exact and truncated characteristic functions.

``scan_roots`` brackets sign changes of phi on a uniform grid up to mu*, the
edge (pi/4 + k pi)/l from which every half-period between two such edges
provably holds exactly one root (``_certified``); above mu* the edges
themselves are the brackets.  It refines the brackets in one lockstep
safeguarded Brent batch, _BLOCK at a time: each round evaluates once, on an
array of the brackets still open.  phi0 needs no grid: every half-period
from k = 0 holds exactly one simple root of it and (0, mu_0] none, so its
scan is the Newton solve of each half-period that meets the window
(``_phi0_locate``), with Brent on the whole half-period as the fallback.
The module holds no state between calls.
``verify_localization`` takes the phi0 scan's roots as its anchors and checks
the asymptotic pairing structure: above a threshold, every truncated root has
exactly one exact root in its epsilon-neighborhood, its nearest, and the
complement holds none.  It and ``pair_mutual_nearest`` find nearest roots
with ``_nearest_index``.
``closed_form_roots_half`` generates the explicit root sequence available when
the attachment sits at midspan.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import BeamParameters
from .freqeq import _phi1_bound, _phi1_prime_bound, phi, phi0, phi0_prime

__all__ = [
    "ConfigurationError",
    "LocalizationPreconditionError",
    "Target",
    "Root",
    "PairingStatus",
    "RootPairing",
    "LocalizationReport",
    "scan_roots",
    "scan_with_suspects",
    "closed_form_roots_half",
    "verify_localization",
    "pair_mutual_nearest",
    "detect_rational_ratio",
]

_BRACKET_TOL = 1e-10
_RESIDUAL_FACTOR = 1e-9
_GRID_ZERO = 1e-13
_SUSPECT_LEVEL = 1e-10
_MAX_DENOMINATOR = 10**6  # largest q detect_rational_ratio tries
_BLOCK = 2**13  # grid points per scan block: fits the cache, amortizes numpy calls
_MU_MIN = 1e-6  # window floor: below ~1e-77, mu**4 underflows and phi is NaN
_MU_MAX = 1e6  # window limit, the range phi is tested on; scans may end 0.1% past it
_MAX_POINTS = 2**32  # limit on the grid below mu*; above mu* there is none
_NEWTON_STEPS = 8  # phi0 lanes take at most 5 from ``_phi0_start`` on beams with l0/l in [0.01, 0.99]
_EPS = float(np.finfo(float).eps)


class ConfigurationError(ValueError):
    """Raised for scan settings that would make root capture unreliable."""


class LocalizationPreconditionError(ValueError):
    """Raised when the requested neighborhoods are too wide to be disjoint."""


class Target(enum.Enum):
    Phi = "phi"
    Phi0 = "phi0"


class Root(NamedTuple):
    """A refined zero of a characteristic function.

    degenerate marks grid points where |f| < 1e-13 without a usable sign
    change (the bracket collapses to the point itself).  iterations counts
    the evaluations spent on the root: Brent's on its bracket, or for phi0
    those of ``_phi0_locate``; 0 for a degenerate root.  A tuple: equal to
    any tuple of the same fields.
    """

    mu: float
    residual: float
    bracket: tuple
    iterations: int
    target: Target
    degenerate: bool = False


class PairingStatus(enum.Enum):
    PairedUnique = "paired_unique"
    NoExactRootInNeighborhood = "no_exact_root_in_neighborhood"
    MultipleExactRoots = "multiple_exact_roots"


class RootPairing(NamedTuple):
    truncated_root: float
    exact_root: Optional[float]
    distance: Optional[float]
    epsilon: float
    status: PairingStatus


@dataclass(frozen=True)
class LocalizationReport:
    """The outcome of ``verify_localization``.

    min_abs_phi0_complement is a sampled upper bound, not the minimum: the
    least |phi0| over those of 4,001 evenly spaced points in the window that
    lie above the threshold and outside every neighborhood.  The true minimum
    over the complement can be lower (0.39175 sampled against 0.39133 from
    400k points on the default beam, epsilon = 0.35, M = 15, mu_max = 1000).
    min_abs_phi0_prime_neighborhoods is the least |phi0'| at the anchors.
    """

    threshold_M: float
    epsilon: float
    pairings: tuple
    stray_roots: tuple
    verdict: bool
    warning: Optional[str] = None
    min_abs_phi0_complement: Optional[float] = None
    min_abs_phi0_prime_neighborhoods: Optional[float] = None
    rational_ratio: Optional[tuple] = None


def _min(x, y):
    """Elementwise min(x, y) as Python's builtin picks it: x unless y < x."""
    return np.where(y < x, y, x)


def _max(x, y):
    """Elementwise max(x, y) as Python's builtin picks it: x unless y > x."""
    return np.where(y > x, y, x)


def _refine_brackets(f: Callable, a, fa, b, fb):
    """Safeguarded Brent on every bracket [a_i, b_i] at once, in lockstep.

    Each lane takes bisection fallback, inverse-quadratic or secant steps until
    its bracket is below _BRACKET_TOL (at most 200 steps), then up to three
    secant polish steps; each round calls f once on the lanes still active.
    Lanes never mix, and each does exactly the scalar Brent arithmetic (kept
    as the test reference), so the results do not depend on the batch.

    Returns arrays (root, f(root), iterations, lo, hi); root is the best point
    seen and (lo, hi) a bracket that holds it strictly inside.
    """
    c, fc = a, fa
    d = e = b - a
    first = np.abs(fa) < np.abs(fb)
    best_x, best_f = np.where(first, a, b), np.where(first, fa, fb)
    iterations = np.zeros(a.shape, dtype=int)
    active = np.ones(a.shape, dtype=bool)
    # stopped lanes are still computed and may divide by zero; np.where
    # drops their results
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            iterations += active
            swap = active & (np.abs(fc) < np.abs(fb))
            a, b, c = np.where(swap, b, a), np.where(swap, c, b), np.where(swap, b, c)
            fa, fb, fc = np.where(swap, fb, fa), np.where(swap, fc, fb), np.where(swap, fb, fc)
            tol = 0.5 * _BRACKET_TOL + 2.0 * _EPS * np.abs(b)
            m = 0.5 * (c - b)
            active &= (np.abs(m) > tol) & (fb != 0.0)
            if not active.any():
                break
            s = fb / fa
            q, r = fa / fc, fb / fc
            secant = a == c
            p = np.where(
                secant, 2.0 * m * s, s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
            )
            q = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            q = np.where(p > 0.0, -q, q)
            p = np.abs(p)
            interpolate = (
                (np.abs(e) >= tol)
                & (np.abs(fa) > np.abs(fb))
                & (2.0 * p < _min(3.0 * m * q - np.abs(tol * q), np.abs(e * q)))
            )
            d, e = np.where(interpolate, p / q, m), np.where(interpolate, d, m)
            a, fa = b, fb
            b = np.where(active, b + np.where(np.abs(d) > tol, d, np.copysign(tol, m)), b)
            fb = fb.copy()  # fa shares the old array
            fb[active] = f(b[active])
            better = active & (np.abs(fb) < np.abs(best_f))
            best_x, best_f = np.where(better, b, best_x), np.where(better, fb, best_f)
            flip = active & ((fb > 0.0) == (fc > 0.0))
            c, fc = np.where(flip, a, c), np.where(flip, fa, fc)
            d, e = np.where(flip, b - a, d), np.where(flip, b - a, e)

        # polish: secant through the straddling pair pushes |f| from the
        # slope-limited ~|f'| * bracket level down to interpolation accuracy
        active = np.ones(a.shape, dtype=bool)
        for _ in range(3):
            x = (b * fc - c * fb) / (fc - fb)
            active &= (fb != 0.0) & (fc != 0.0) & (fb != fc) & (b != c)
            active &= (_min(b, c) < x) & (x < _max(b, c))
            if not active.any():
                break
            fx = np.zeros(a.shape)
            fx[active] = f(x[active])
            iterations += active
            better = active & (np.abs(fx) < np.abs(best_f))
            best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
            active &= (np.abs(fx) < np.abs(fb)) | (np.abs(fx) < np.abs(fc))
            same = (fx > 0.0) == (fb > 0.0)
            b, fb = np.where(active & same, x, b), np.where(active & same, fx, fb)
            c, fc = np.where(active & ~same, x, c), np.where(active & ~same, fx, fc)
    lo, hi = np.where(b < c, b, c), np.where(b < c, c, b)
    # widen by one ulp so the reported root is strictly interior and the
    # endpoints still straddle the (simple) zero
    lo = np.nextafter(_min(lo, best_x), -math.inf)
    hi = np.nextafter(_max(hi, best_x), math.inf)
    return best_x, best_f, iterations, lo, hi


def _reduce(x, values, own0: int, own1: int) -> tuple:
    """Reduce ascending points x with their values to arrays (a, fa, b, fb) of
    sign-changing brackets (x[i], x[i + 1]), (x, fx) of exact zeros and (x, fx) of
    suspects, for the owned points own0 <= i < own1."""
    absv = np.abs(values)
    zero = absv < _GRID_ZERO
    hits = np.flatnonzero(zero[own0:own1]) + own0
    sign = np.sign(values)
    sign[zero] = 0.0
    i = np.flatnonzero((sign[:-1] * sign[1:] < 0.0)[own0:own1]) + own0
    # local minima of |f| below the suspect level without a sign change, not at the ends of x
    k = np.flatnonzero(absv[1:-1] < _SUSPECT_LEVEL) + 1
    k = k[(k >= own0) & (k < own1)]
    k = k[
        (absv[k] <= absv[k - 1])
        & (absv[k] <= absv[k + 1])
        & (sign[k - 1] * sign[k + 1] > 0.0)
        & (absv[k] >= _GRID_ZERO)
    ]
    return x[i], values[i], x[i + 1], values[i + 1], x[hits], values[hits], x[k], values[k]


def _reduce_block(f: Callable, mu_min: float, mu_max: float, n: int, i0: int, end: int) -> tuple:
    """``_reduce`` on the points i0 <= i < min(i0 + _BLOCK, end) of
    np.linspace(mu_min, mu_max, n + 1), bit for bit.  A one-point halo on each
    side makes brackets (i, i + 1) and suspects (i - 1, i, i + 1) as on the
    whole grid."""
    j0, j1 = max(i0 - 1, 0), min(i0 + _BLOCK + 1, end + 1, n + 1)
    x = np.arange(j0, j1, dtype=float) * ((mu_max - mu_min) / n) + mu_min
    if j1 == n + 1:
        x[-1] = mu_max
    return _reduce(x, np.asarray(f(x), dtype=float), i0 - j0, min(i0 + _BLOCK, end) - j0)


def _edge(k, l: float):
    """The edge mu_k = (pi/4 + k pi)/l, where sin(mu l + pi/4) = (-1)^k."""
    return (k + 0.25) * (math.pi / l)


def _certified(k: int, params: BeamParameters) -> bool:
    """Whether every half-period (mu_j, mu_{j+1}) with j >= k holds exactly one
    root of phi, and of phi0.

    phi0(mu) = cos(delta mu) - sqrt 2 sin(l mu + pi/4) with delta = l - 2 l0,
    and |phi - phi0| = |phi1| <= B (``_phi1_bound``), |phi1'| <= B'
    (``_phi1_prime_bound``), both decreasing, so their values at mu_k hold on
    every later half-period.
    * If B < sqrt 2 - 1, then |phi(mu_j)| >= sqrt 2 - 1 - B > 0 with the sign
      (-1)^(j+1) of phi0(mu_j): phi changes sign on the half-period.
    * Wherever |phi0| <= B, which holds at every zero of phi,
      |sin(l mu + pi/4)| <= (1 + B)/sqrt 2, so
      |sqrt 2 l cos(l mu + pi/4)| >= l sqrt(2 - (1 + B)^2).  If that exceeds
      |delta| + B', then phi' = -sqrt 2 l cos(l mu + pi/4) - delta sin(delta mu)
      + phi1' is nonzero with the sign of -cos(l mu + pi/4), fixed on the
      half-period.  Every zero there is simple and crosses the same way, so
      there is exactly one.
    The same holds for phi0, with phi1 = 0.
    """
    l, l0 = params.length, params.attachment_point
    mu = _edge(k, l)
    b = _phi1_bound(mu, params)
    if not b < math.sqrt(2.0) - 1.0:
        return False
    return l * math.sqrt(2.0 - (1.0 + b) ** 2) - abs(l - 2.0 * l0) > _phi1_prime_bound(mu, params)


def _mu_star(params: BeamParameters, mu_max: float) -> float:
    """mu*, the least edge mu_k from which ``_certified`` holds, or inf if it does
    not hold at the last edge below mu_max.  The test is monotone in k, so one
    scalar test decides windows below mu* and a bisection finds mu* otherwise."""
    l = params.length
    top = math.ceil(mu_max * l / math.pi - 0.25) - 1  # the last edge below mu_max
    if top < 0 or not _certified(top, params):
        return math.inf
    lo, hi = -1, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _certified(mid, params) else (mid, hi)
    return _edge(hi, l)


def _grid_end(mu_min: float, mu_max: float, n: int, mu_star: float) -> int:
    """Index c of the first point of np.linspace(mu_min, mu_max, n + 1) at or
    above mu_star, or n + 1 if that is the last point or there is none: the grid
    owns its points i < c."""
    if not mu_star < mu_max:
        return n + 1
    d = (mu_max - mu_min) / n
    c = min(max(math.ceil((mu_star - mu_min) / d), 0), n)
    while c > 0 and (c - 1) * d + mu_min >= mu_star:
        c -= 1
    while c < n and c * d + mu_min < mu_star:
        c += 1
    return c if c < n else n + 1


def _reduce_edges(f: Callable, g: float, mu_max: float, l: float) -> tuple:
    """``_reduce`` on g, the edges mu_k strictly between g and mu_max, and mu_max,
    for g >= mu*: each full half-period is a bracket, and so is either partial
    one exactly when its end values differ in sign."""
    k = np.arange(math.floor(g * l / math.pi - 0.25), math.ceil(mu_max * l / math.pi - 0.25) + 1)
    edges = _edge(k, l)
    x = np.concatenate(([g], edges[(edges > g) & (edges < mu_max)], [mu_max]))
    return _reduce(x, np.asarray(f(x), dtype=float), 0, x.size)


def _check_window(params: BeamParameters, mu_min: float, mu_max: float, step: float, top="mu_max") -> float:
    """Raise ``ConfigurationError`` for an invalid scan window or step; top is
    the name the window-limit message gives mu_max.  Returns mu* (``_mu_star``)."""
    if not (_MU_MIN <= mu_min < mu_max):
        raise ConfigurationError(f"window needs {_MU_MIN:g} <= mu_min < mu_max, got ({mu_min}, {mu_max})")
    if step <= 0.0:
        raise ConfigurationError(f"step must be positive, got {step}")
    if not (math.isfinite(mu_max) and math.isfinite(step)):
        raise ConfigurationError(f"window and step must be finite, got {mu_max=}, {step=}")
    max_step = math.pi / (4.0 * params.length)
    if step >= max_step:
        raise ConfigurationError(
            f"step {step:.6g} too coarse: must be below pi/(4 l) = {max_step:.6g}"
            " to resolve the sin(mu l) oscillation"
        )
    if mu_max > 1.001 * _MU_MAX:
        raise ConfigurationError(f"{top} = {mu_max} is above the window limit {_MU_MAX:g}")
    mu_star = _mu_star(params, mu_max)
    grid = (min(mu_max, mu_star) - mu_min) / step  # none above mu* (``_grid_end``)
    if not (grid < _MAX_POINTS and (mu_max - mu_min) / step < math.inf):  # and n, the nominal count, is finite
        raise ConfigurationError(f"step {step:g} too fine: the grid would exceed {_MAX_POINTS} points")
    return mu_star


def _check_limit(mu_max: float) -> None:
    """Raise ``ConfigurationError`` for a window that ends above _MU_MAX; only
    verify's exact scan, to mu_max + epsilon, may pass it."""
    if mu_max > _MU_MAX:
        raise ConfigurationError(f"mu_max = {mu_max} is above the window limit {_MU_MAX:g}")


def _scan(target: Target, params: BeamParameters, mu_min: float, mu_max: float, step: float, top="mu_max") -> tuple:
    """``scan_with_suspects`` as arrays: ((mu, residual, lo, hi, iterations,
    degenerate) of the roots in ascending mu, (x, fx) of the suspects); top
    names mu_max in the window-limit message.  No grid point lies above mu*."""
    mu_star = _check_window(params, mu_min, mu_max, step, top)
    if target is Target.Phi0:
        return _phi0_scan(params, mu_min, mu_max), (np.empty(0), np.empty(0))
    f = lambda mu: phi(mu, params)  # the module's phi, the name a tracer wraps
    n = int(math.ceil((mu_max - mu_min) / step))
    end = _grid_end(mu_min, mu_max, n, mu_star)
    blocks = (_reduce_block(f, mu_min, mu_max, n, i0, end) for i0 in range(0, end, _BLOCK))
    parts = [block for block in blocks if any(part.size for part in block)]
    if end <= n:
        g = end * ((mu_max - mu_min) / n) + mu_min
        parts.append(_reduce_edges(f, g, mu_max, params.length))
    a, fa, b, fb, hit_x, hit_f, sus_x, sus_f = (np.concatenate(c) for c in zip(*parts or [(np.empty(0),) * 8]))
    refined = [np.empty(a.size, dtype=dtype) for dtype in (float, float, int, float, float)]
    for i in range(0, a.size, _BLOCK):
        for out, column in zip(refined, _refine_brackets(f, *(c[i : i + _BLOCK] for c in (a, fa, b, fb)))):
            out[i : i + _BLOCK] = column
    x, fx, iterations, lo, hi = refined
    # refinements that miss the residual contract are not roots
    met = np.abs(fx) <= _RESIDUAL_FACTOR * (1.0 + _max(np.abs(fa), np.abs(fb)))
    # grid points that are numerically exact zeros are degenerate brackets (x, x)
    hits = (hit_x, hit_f, hit_x, hit_x, np.zeros(hit_x.size, dtype=int), np.ones(hit_x.size, dtype=bool))
    tails = (x, fx, lo, hi, iterations, np.zeros(x.size, dtype=bool))
    columns = [np.concatenate((hit, column[met])) for hit, column in zip(hits, tails)]
    order = np.argsort(columns[0], kind="stable")
    return tuple(column[order] for column in columns), (sus_x, sus_f)


def _phi0_scan(params: BeamParameters, mu_min: float, mu_max: float) -> tuple:
    """``_scan``'s root columns for phi0 in (mu_min, mu_max]: ``_phi0_locate``'s
    roots and brackets, residuals from one phi0 call.  A residual above
    _RESIDUAL_FACTOR (``_scan``'s contract, its scale taken as 1) sends the lane
    to ``_phi0_brent``, and it is kept.  A window end where |phi0| < _GRID_ZERO
    is its half-period's root, a degenerate bracket (end, end), as on a grid;
    phi0 < 0 on (0, mu_0], so mu_min's half-period is the first."""
    l, l0 = params.length, params.attachment_point
    k, x, lo, hi, iterations = _phi0_locate(params, mu_min, mu_max)
    values = phi0(np.append(x, (mu_min, mu_max)), l, l0)
    fx = values[:-2]
    bad = np.flatnonzero(~(np.abs(fx) <= _RESIDUAL_FACTOR))
    if bad.size:
        x[bad], fx[bad], spent, lo[bad], hi[bad] = _phi0_brent(k[bad], l, l0)
        iterations[bad] += spent
    degenerate = np.zeros(x.size, dtype=bool)
    for i, end, value in ((0, mu_min, values[-2]), (-1, mu_max, values[-1])):
        if abs(value) < _GRID_ZERO:
            x[i] = lo[i] = hi[i] = end
            fx[i], iterations[i], degenerate[i] = value, 0, True
    keep = degenerate | ((x > mu_min) & (x <= mu_max))
    return tuple(column[keep] for column in (x, fx, lo, hi, iterations, degenerate))


def _phi0_start(k, l: float, l0: float):
    """Newton's start in half-period k: phi0 = 0 solved as sin(l (mu - m)) = (-1)^(k+1) cos(delta mu)/sqrt 2
    with cos(delta mu) taken at the midpoint m = (k + 3/4) pi/l, so the root itself when delta = 0."""
    m = (k + 0.75) * (math.pi / l)
    return m - (1.0 - 2.0 * (k & 1)) * np.arcsin(np.cos((l - 2.0 * l0) * m) / math.sqrt(2.0)) / l


def _phi0_brent(k, l: float, l0: float) -> tuple:
    """``_refine_brackets`` of phi0 on the whole half-periods k: (x, phi0(x),
    evaluations, lo, hi), the two edge values counted."""
    f = lambda mu: phi0(mu, l, l0)
    a, b = _edge(k, l), _edge(k + 1, l)
    x, fx, iterations, lo, hi = _refine_brackets(f, a, f(a), b, f(b))
    return x, fx, iterations + 2, lo, hi


def _phi0_locate(params: BeamParameters, mu_min: float, mu_max: float) -> tuple:
    """(k, x, lo, hi, evaluations) for the root x of each half-period k that
    meets [mu_min, mu_max], _BLOCK half-periods at a time, (lo, hi) strictly
    holding it: two evaluations per Newton step, two for the bracket test.

    ``_certified``'s argument with phi1 = 0 (B = B' = 0) needs only l > |delta|,
    which 0 < l0 < l gives, so from k = 0 every half-period (mu_k, mu_{k+1})
    holds exactly one root of phi0, a simple one, and |phi0'| >= l - |delta|
    near it.  On (0, mu_0], sqrt 2 sin(l mu + pi/4) > 1 >= cos(delta mu):
    phi0 < 0, no root.  Newton steps from ``_phi0_start`` until every step is
    below the Brent tolerance tol, and a lane keeps (x - tol, x + tol) if phi0
    differs in sign at its ends.  A lane that ends outside its half-period,
    takes more than _NEWTON_STEPS steps, or fails that test takes the root and
    bracket of ``_phi0_brent`` on the whole half-period instead.
    """
    l, l0 = params.length, params.attachment_point
    # an edge that rounding misplaces only adds or drops a half-period whose root lies far outside the window
    k0, k1 = (math.floor(mu * l / math.pi - 0.25) for mu in (mu_min, mu_max))
    k = np.arange(max(k0, 0), k1 + 1)
    columns = np.empty((3, k.size))
    evaluations = np.empty(k.size, dtype=int)
    for i in range(0, k.size, _BLOCK):
        kb = k[i : i + _BLOCK]
        a, b, x = _edge(kb, l), _edge(kb + 1, l), _phi0_start(kb, l, l0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for steps in range(1, _NEWTON_STEPS + 1):
                step = phi0(x, l, l0) / phi0_prime(x, l, l0)
                x = x - step
                tol = 0.5 * _BRACKET_TOL + _EPS * np.abs(x)
                if np.all(np.abs(step) <= tol):
                    break
            straddle = np.sign(phi0(x - tol, l, l0)) * np.sign(phi0(x + tol, l, l0)) < 0.0
        columns[:, i : i + _BLOCK] = x, x - tol, x + tol
        evaluations[i : i + _BLOCK] = 2 * steps + 2  # in lockstep
        bad = np.flatnonzero(~((a < x) & (x < b) & (np.abs(step) <= tol) & straddle))
        if bad.size:
            x, _, spent, lo, hi = _phi0_brent(kb[bad], l, l0)
            columns[:, i + bad] = x, lo, hi
            evaluations[i + bad] += spent
    return (k, *columns, evaluations)


def scan_with_suspects(
    target: Target,
    params: BeamParameters,
    mu_min: float,
    mu_max: float,
    step: float,
) -> tuple:
    """Scan a window; return (roots, suspects).

    For Phi the grid is np.linspace(mu_min, mu_max, n + 1) up to its first
    point at or above mu* (``_mu_star``; all of it if mu* lies above the
    window), walked in blocks: memory is O(block + roots).  Above that point
    the brackets are the edges (pi/4 + k pi)/l, each half-period holding
    exactly one root, and the two partial half-periods at the ends hold one
    exactly when their end values differ in sign.  Roots below mu* are those
    of the whole grid, bit for bit.  Suspects are grid local minima of |f|
    below 1e-10 without a sign change -- near-tangent configurations that must
    not be silently promoted to roots.  Above mu* there are none, nor exact
    zeros at grid points: there is no grid there, and |phi'| > 0 wherever
    |phi0| <= B, so every zero of phi there is a simple crossing.

    Phi0 has no grid and reads step only to check it: Newton solves the one
    root of each half-period (``_phi0_scan``).  It has no suspects, and its
    only degenerate roots are window ends where |phi0| < 1e-13.  The window
    lies in [_MU_MIN, 1.001 * _MU_MAX].  Roots are ``Root`` tuples.
    """
    roots, suspects = _scan(target, params, mu_min, mu_max, step)
    mu, residual, lo, hi, iterations, degenerate = (column.tolist() for column in roots)
    rows = zip(mu, residual, zip(lo, hi), iterations, itertools.repeat(target), degenerate)
    return list(map(Root._make, rows)), list(zip(*(column.tolist() for column in suspects)))


def scan_roots(
    target: Target,
    params: BeamParameters,
    mu_min: float,
    mu_max: float,
    step: float,
) -> list:
    """All roots of the target function in (mu_min, mu_max), sorted ascending."""
    roots, _ = scan_with_suspects(target, params, mu_min, mu_max, step)
    return roots


def closed_form_roots_half(l: float, count: int) -> list:
    """Truncated-equation roots for midspan attachment: (pi/l)(frac(j/2) + 2*floor(j/2))."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    out = []
    for j in range(1, count + 1):
        half = j / 2.0
        out.append((math.pi / l) * ((half - math.floor(half)) + 2.0 * math.floor(half)))
    return out


def detect_rational_ratio(l: float, l0: float):
    """Return (p, q) if l0/l is genuinely a rational p/q, else None.

    Every double has continued-fraction convergents within ~1/q^2, so a flat
    tolerance would flag irrational ratios too.  Demand the error be far below
    the Dirichlet 1/q^2 level, which only true rationals achieve.
    """
    ratio = l0 / l
    frac = Fraction(ratio).limit_denominator(_MAX_DENOMINATOR)
    if abs(ratio - float(frac)) <= 1e-9 / frac.denominator**2:
        return (frac.numerator, frac.denominator)
    return None


def verify_localization(
    params: BeamParameters,
    epsilon: float,
    threshold_M: float,
    mu_max: float,
    step: Optional[float] = None,
) -> LocalizationReport:
    """Check the asymptotic localization structure on (threshold_M, mu_max].

    Every truncated root above the threshold must contain exactly one exact
    root in its epsilon-neighborhood, and the complement must contain none.
    The report's min_abs_phi0_complement is sampled on 4,001 points, an upper
    bound on the true minimum (see ``LocalizationReport``).

    Its anchors are the roots above threshold_M of a phi0 scan to mu_max,
    which reads step only to check it.  It checks the epsilon precondition on
    them before it checks the exact window, to mu_max + epsilon, and scans Phi
    there: a violated precondition wins over an invalid exact window and costs
    no Phi scan.  The pairings are ``RootPairing`` tuples.
    """
    if epsilon <= 0.0:
        raise LocalizationPreconditionError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(epsilon):
        raise LocalizationPreconditionError(f"epsilon must be finite, got {epsilon}")
    if not math.isfinite(threshold_M):
        raise ConfigurationError(f"threshold_M must be finite, got {threshold_M}")
    _check_limit(mu_max)
    rational = detect_rational_ratio(params.length, params.attachment_point)
    if threshold_M >= mu_max:
        return LocalizationReport(
            threshold_M=threshold_M,
            epsilon=epsilon,
            pairings=(),
            stray_roots=(),
            verdict=True,
            warning=(
                f"threshold_M = {threshold_M:.6g} is not below mu_max = {mu_max:.6g}:"
                " no anchors in range, verdict vacuously true"
            ),
            rational_ratio=rational,
        )
    if step is None:
        step = math.pi / (80.0 * params.length)
    lo = max(threshold_M, _MU_MIN)
    anchors = _scan(Target.Phi0, params, lo, mu_max, step)[0][0]
    anchors = anchors[anchors > threshold_M]
    gaps = np.diff(anchors)
    if gaps.size and epsilon >= 0.5 * gaps.min():
        i = int(np.argmin(gaps))
        raise LocalizationPreconditionError(
            f"epsilon = {epsilon:.6g} is not below half the minimum anchor gap"
            f" {gaps[i]:.6g} (between {anchors[i]:.6g} and {anchors[i + 1]:.6g}):"
            " neighborhoods would overlap"
        )
    exact = _scan(Target.Phi, params, lo, mu_max + epsilon, step, "mu_max + epsilon")[0][0]
    exact = exact[exact > threshold_M]

    # the anchor whose neighborhood holds each exact root and margin sample, or -1:
    # epsilon is below half the least anchor gap, so only the nearest can
    sample = np.linspace(lo, mu_max, 4001)
    points = np.concatenate((exact, sample))
    owner = np.full(points.size, -1)
    if anchors.size:
        k = _nearest_index(points, anchors)
        owner = np.where(np.abs(points - anchors[k]) < epsilon, k, -1)
    owner, outside = owner[: exact.size], (owner[exact.size :] < 0) & (sample > threshold_M)
    counts = np.bincount(owner[owner >= 0], minlength=anchors.size)
    # an anchor's nearest exact root lies in its neighborhood whenever any
    # does; a tie goes to the lower root
    nearest = exact[_nearest_index(anchors, exact)] if exact.size else anchors  # no partner is read
    paired = counts > 0
    kinds = (PairingStatus.NoExactRootInNeighborhood, PairingStatus.PairedUnique, PairingStatus.MultipleExactRoots)
    status = np.array(kinds, dtype=object)[np.minimum(counts, 2)]  # by count: 0, 1, 2 or more
    columns = (np.where(paired, nearest, None), np.where(paired, np.abs(nearest - anchors), None))
    rows = zip(anchors.tolist(), *(c.tolist() for c in columns), itertools.repeat(epsilon), status.tolist())
    strays = tuple(exact[(owner < 0) & (exact <= mu_max)].tolist())
    verdict = bool(np.all(counts == 1)) and not strays

    # empirical margins: min |phi0| over the complement, min |phi0'| near anchors
    l, l0 = params.length, params.attachment_point
    margin_p = float(np.min(np.abs(phi0_prime(anchors, l, l0)))) if anchors.size else None
    complement_vals = np.abs(phi0(sample, l, l0))[outside]
    margin_c = float(np.min(complement_vals)) if complement_vals.size else None
    return LocalizationReport(
        threshold_M=threshold_M,
        epsilon=epsilon,
        pairings=tuple(map(RootPairing._make, rows)),
        stray_roots=strays,
        verdict=verdict,
        warning=None,
        min_abs_phi0_complement=margin_c,
        min_abs_phi0_prime_neighborhoods=margin_p,
        rational_ratio=rational,
    )


def _nearest_index(x: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Index of the first value of an ascending array at the least distance
    from each x; a value equally near two others takes the lower one."""
    k = np.searchsorted(pool, x)
    right = np.abs(pool[np.minimum(k, pool.size - 1)] - x)
    lower = np.flatnonzero((k == pool.size) | ((k > 0) & (np.abs(pool[k - 1] - x) <= right)))
    k[lower] -= 1
    # rounding or repeats can give several values the same distance: take the first.  Values
    # pool[i - 1] <= pool[i] < x tie only if pool[i] - pool[i - 1] <= eps (|x| + |pool[i - 1]|)
    gap = (pool[1:] - pool[:-1]).min() if pool.size > 1 else math.inf
    tie = lower.size and not gap > 2.0 * _EPS * (np.abs(x).max() + max(-pool[0], pool[-1]))  # NaN walks
    while tie and lower.size:
        i = k[lower]
        lower = lower[(i > 0) & (np.abs(pool[i - 1] - x[lower]) == np.abs(pool[i] - x[lower]))]
        k[lower] -= 1
    return k


def pair_mutual_nearest(exact: list, truncated: list) -> list:
    """Mutual nearest-neighbour pairing of two sorted root lists.

    Returns rows (exact_mu or None, truncated_mu or None, status-string) --
    exact-bearing rows first in mu order, then leftover truncated roots.
    A root equally near two others pairs with the lower one.
    """
    e, t = np.asarray(exact, dtype=float), np.asarray(truncated, dtype=float)
    if not t.size:
        return [(m, None, "exact_only") for m in e.tolist()]
    mate = t[_nearest_index(e, t)]
    paired = e[_nearest_index(mate, e)] == e
    rows = zip(e.tolist(), mate.tolist(), paired.tolist())
    rows = [(m, u, "paired") if p else (m, None, "exact_only") for m, u, p in rows]
    used = set(mate[paired].tolist())
    return rows + [(None, u, "truncated_only") for u in t.tolist() if u not in used]
