"""Root location for the exact and truncated characteristic functions.

``scan_roots`` brackets sign changes of phi or phi0 on a uniform grid up to
mu*, the edge (pi/4 + k pi)/l from which every half-period between two such
edges provably holds exactly one root (``_certified``); above mu* the edges
themselves are the brackets.  It refines the brackets of a scan, or of a pair
of scans, in one lockstep safeguarded Brent batch, _BLOCK at a time: each
round evaluates once, on an array of the brackets still open.  On a phi grid, phi1 is
evaluated only where a phi0 screen cannot show that it leaves the scan
unchanged.  Full half-periods refined by the last scan of a function above
mu* are kept in a table and taken from it, not refined again, when the next
scan of the same beam brackets them identically.  ``verify_localization`` checks the
asymptotic pairing structure: above a threshold, every truncated root has
exactly one exact root in its epsilon-neighborhood and the complement holds
none.  It and ``pair_mutual_nearest`` search the sorted roots with ``np.searchsorted``.
``closed_form_roots_half`` generates the explicit root sequence available when
the attachment sits at midspan.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import BeamParameters
from .freqeq import _phi0, _phi1, _phi1_bound, _phi1_prime_bound, phi, phi0, phi0_prime

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
_SCREEN_SPAN = 64  # grid points that share one value of the phi1 envelope
_MAX_POINTS = 2**32  # grid size limit, ~90x the default grid to mu = 1e6


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
    change (the bracket collapses to the point itself).  A tuple: equal to
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
    UnpairedExactRoot = "unpaired_exact_root"


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


class _Phi:
    """phi of one beam: called for refinement, and through grid() on a scan block."""

    def __init__(self, params: BeamParameters):
        self.params = params

    def __call__(self, mu):
        return phi(mu, self.params)

    def grid(self, x):
        """(values, full) for ascending grid points x: values[i] is phi(x[i]), or
        phi0(x[i]) where the phi0 screen shows phi1 cannot change the scan there;
        full(i) is phi(x[i]) for an index array i, bit for bit.

        phi = phi0 + phi1 with |phi1| <= B (``_phi1_bound``).  phi1 is added only
        where |phi0| <= (1 + 1e-9) B + 1e-9; elsewhere phi has the sign of phi0 and
        |phi| > 1e-9, above _SUSPECT_LEVEL and _GRID_ZERO, so the skipped points
        give the same signs, zeros and suspects.  B decreases in mu, so each span
        of _SCREEN_SPAN points takes B at its left end.
        """
        p = self.params
        s = np.sin(x * p.length)
        values = _phi0(x, p.length, p.attachment_point, s)
        bound = np.repeat(_phi1_bound(x[::_SCREEN_SPAN], p), _SCREEN_SPAN)[: x.size]
        keep = np.abs(values) <= (1.0 + 1e-9) * bound + 1e-9
        if 2 * np.count_nonzero(keep) > x.size:  # most points kept: no gather
            values += _phi1(x, p, s)
            return values, values.__getitem__
        values[keep] += _phi1(x[keep], p, s[keep])

        def full(i):
            out, late = values[i], ~keep[i]
            out[late] += _phi1(x[i[late]], p, s[i[late]])
            return out

        return values, full


class _Phi0:
    """phi0 of one beam."""

    def __init__(self, params: BeamParameters):
        self.params = params

    def __call__(self, mu):
        return phi0(mu, self.params.length, self.params.attachment_point)


def _target_fn(target: Target, params: BeamParameters) -> Callable:
    return _Phi(params) if target is Target.Phi else _Phi0(params)


# function class -> None, or (params, keys, columns) of the full half-periods
# that its last scan above mu* refined: keys[i] = (a, fa, b, fb), ascending in
# a, and columns the five ``_refine_brackets`` arrays.  An entry is replaced
# whole, so a concurrent scan reads either the old table or the new one.
_HALF_PERIODS: dict = {_Phi: None, _Phi0: None}


def _min(x, y):
    """Elementwise min(x, y) as Python's builtin picks it: x unless y < x."""
    return np.where(y < x, y, x)


def _max(x, y):
    """Elementwise max(x, y) as Python's builtin picks it: x unless y > x."""
    return np.where(y > x, y, x)


def _refine_brackets(f: Callable, a, fa, b, fb, lanes=None):
    """Safeguarded Brent on every bracket [a_i, b_i] at once, in lockstep.

    Each lane takes bisection fallback, inverse-quadratic or secant steps until
    its bracket is below _BRACKET_TOL (at most 200 steps), then up to three
    secant polish steps; each round calls f once on the lanes still active,
    as f(x), or as f(x, lanes[active]) when lanes tags them (``_lanes_fn``).
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
            tol = 0.5 * _BRACKET_TOL + 2.0 * np.finfo(float).eps * np.abs(b)
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
            fb[active] = f(b[active]) if lanes is None else f(b[active], lanes[active])
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
            fx[active] = f(x[active]) if lanes is None else f(x[active], lanes[active])
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


def _lookup(f: Callable, a, fa, b, fb) -> tuple:
    """(run, lane, stored) for the ascending brackets of a scan of f above mu*:
    the slice run of its full half-periods (mu_k, mu_{k+1}), the lanes left to
    refine (slice(None) without a table), and the columns that the table of
    f's class holds for the others.  The full half-periods follow the grid
    brackets and at most one partial one, so they are one run a[s:t].  A lane
    is taken only when the table holds f's beam and a, fa, b and fb bitwise;
    its refinement depends on nothing else, so it is a cold one, bit for bit."""
    l = f.params.length

    def full(i: int) -> bool:
        k = round(float(a[i]) * l / math.pi - 0.25)
        return _edge(k, l) == a[i] and _edge(k + 1, l) == b[i]

    t = a.size - (a.size > 0 and not full(a.size - 1))
    s = bisect.bisect_left(range(t), True, key=full)
    table = _HALF_PERIODS[type(f)]
    if table is None or table[0] != f.params:
        return slice(s, t), slice(None), ()
    _, stored, cached = table
    # only the run's brackets within the stored edges can match, at most _BLOCK
    i0 = s + int(np.searchsorted(a[s:t], stored[0, 0]))
    i1 = s + int(np.searchsorted(a[s:t], stored[-1, 0], side="right"))
    keys = np.stack((a[i0:i1], fa[i0:i1], b[i0:i1], fb[i0:i1]), axis=1)
    j = np.minimum(np.searchsorted(stored[:, 0], keys[:, 0]), stored.shape[0] - 1)
    same = np.all(stored[j].view(np.int64) == keys.view(np.int64), axis=1)
    lane = np.ones(a.size, dtype=bool)
    lane[i0:i1] = ~same
    return slice(s, t), lane, tuple(column[j[same]] for column in cached)


def _lanes_fn(fns: list) -> Callable:
    """f(x, job) for a batch whose lane i refines fns[job[i]], each a ``_Phi``
    or ``_Phi0`` of one beam: s = sin(mu l) and phi0 on every lane, plus phi1
    on the phi lanes only, bit for bit as ``phi`` and ``phi0`` give them."""
    p = fns[0].params
    exact = np.array([type(fn) is _Phi for fn in fns])

    def pair(x, job):
        s = np.sin(x * p.length)
        out, on = _phi0(x, p.length, p.attachment_point, s), exact[job]
        out[on] += _phi1(x[on], p, s[on])
        return out

    return pair


def _reduce(x, values, full, own0: int, own1: int) -> tuple:
    """Reduce ascending points x with their values to arrays (a, fa, b, fb) of
    sign-changing brackets (x[i], x[i + 1]), (x, fx) of exact zeros and (x, fx) of
    suspects, for the owned points own0 <= i < own1; full(i) gives the exact
    value at an index array i where values may hold a screened one."""
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
    return x[i], full(i), x[i + 1], full(i + 1), x[hits], values[hits], x[k], values[k]


def _reduce_block(f: Callable, mu_min: float, mu_max: float, n: int, i0: int, end: int) -> tuple:
    """``_reduce`` on the points i0 <= i < min(i0 + _BLOCK, end) of
    np.linspace(mu_min, mu_max, n + 1), bit for bit.  A one-point halo on each
    side makes brackets (i, i + 1) and suspects (i - 1, i, i + 1) as on the
    whole grid."""
    j0, j1 = max(i0 - 1, 0), min(i0 + _BLOCK + 1, end + 1, n + 1)
    x = np.arange(j0, j1, dtype=float) * ((mu_max - mu_min) / n) + mu_min
    if j1 == n + 1:
        x[-1] = mu_max
    grid = getattr(f, "grid", None)
    if grid is None:
        values = np.asarray(f(x), dtype=float)
        full = values.__getitem__
    else:
        values, full = grid(x)
    return _reduce(x, values, full, i0 - j0, min(i0 + _BLOCK, end) - j0)


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


@functools.lru_cache(maxsize=16)
def _mu_star(params: BeamParameters, mu_max: float) -> float:
    """mu*, the least edge mu_k from which ``_certified`` holds, or inf if it does
    not hold at the last edge below mu_max.  The test is monotone in k, so one
    scalar test decides windows below mu* and a bisection finds mu* otherwise.
    Cached: a caller scans the same beam and window once per target."""
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
    values = np.asarray(f(x), dtype=float)
    return _reduce(x, values, values.__getitem__, 0, x.size)


def _check_window(params: BeamParameters, mu_min: float, mu_max: float, step: float, top="mu_max") -> None:
    """Raise ``ConfigurationError`` for an invalid scan window or step; top is
    the name the window-limit message gives mu_max."""
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
    if (mu_max - mu_min) / step >= _MAX_POINTS:
        raise ConfigurationError(f"step {step:g} too fine: the grid would exceed {_MAX_POINTS} points")


def _scan_jobs(params: BeamParameters, step: float, jobs) -> list:
    """``_scan`` of each (target, mu_min, mu_max) job on one beam and step: each
    job's brackets and table hits (``_lookup``) are those of its own scan, and
    one Brent batch refines the lanes left of every job, _BLOCK at a time.
    Lanes never mix, so the columns are bit for bit those of separate scans."""
    fns = [_target_fn(target, params) for target, _, _ in jobs]
    found, looked = [], []
    for f, (_, mu_min, mu_max) in zip(fns, jobs):
        _check_window(params, mu_min, mu_max, step)
        n = int(math.ceil((mu_max - mu_min) / step))
        end = _grid_end(mu_min, mu_max, n, _mu_star(params, mu_max))
        blocks = (_reduce_block(f, mu_min, mu_max, n, i0, end) for i0 in range(0, end, _BLOCK))
        parts = [block for block in blocks if any(part.size for part in block)]
        if end <= n:
            g = end * ((mu_max - mu_min) / n) + mu_min
            parts.append(_reduce_edges(f, g, mu_max, params.length))
        found.append([np.concatenate(column) for column in zip(*parts or [(np.empty(0),) * 8])])
        above = end <= n and type(f) in _HALF_PERIODS
        looked.append(_lookup(f, *found[-1][:4]) if above else (None, slice(None), ()))
    pending = [[column[lane] for column in c[:4]] for c, (_, lane, _) in zip(found, looked)]
    counts = [a.size for a, *_ in pending]
    batch = [np.concatenate(column) if len(column) > 1 else column[0] for column in zip(*pending)]
    f, job = (fns[0], None) if len(fns) == 1 else (_lanes_fn(fns), np.repeat(np.arange(len(fns)), counts))
    solved = None
    for i in range(0, batch[0].size or 1, _BLOCK):
        tags = None if job is None else job[i : i + _BLOCK]
        part = _refine_brackets(f, *(column[i : i + _BLOCK] for column in batch), tags)
        solved = solved or [np.empty(batch[0].size, dtype=column.dtype) for column in part]
        for out, column in zip(solved, part):
            out[i : i + _BLOCK] = column
    del pending, batch, job, tags, part  # before the result columns are built; tags views job
    split = zip(*(np.split(column, np.cumsum(counts)[:-1]) for column in solved))
    results = []
    for f, columns, (run, lane, stored), refined in zip(fns, found, looked, split):
        a, fa, b, fb, hit_x, hit_f, sus_x, sus_f = columns
        if stored:  # the lanes taken from the table go back in their places
            left, refined = refined, [np.empty(a.size, dtype=column.dtype) for column in refined]
            for out, column, stored_column in zip(refined, left, stored):
                out[lane], out[~lane] = column, stored_column
        if run is not None:  # the run replaces the table, or empties it if longer than _BLOCK
            entry = None
            if 0 < run.stop - run.start <= _BLOCK:
                keys = np.stack((a[run], fa[run], b[run], fb[run]), axis=1)
                entry = (params, keys, tuple(column[run].copy() for column in refined))
            _HALF_PERIODS[type(f)] = entry
        x, fx, iterations, lo, hi = refined
        # refinements that miss the residual contract are not roots
        met = np.abs(fx) <= _RESIDUAL_FACTOR * (1.0 + _max(np.abs(fa), np.abs(fb)))
        # grid points that are numerically exact zeros are degenerate brackets (x, x)
        hits = (hit_x, hit_f, hit_x, hit_x, np.zeros(hit_x.size, dtype=int), np.ones(hit_x.size, dtype=bool))
        tails = (x, fx, lo, hi, iterations, np.zeros(x.size, dtype=bool))
        columns = [np.concatenate((hit, column[met])) for hit, column in zip(hits, tails)]
        order = np.argsort(columns[0], kind="stable")
        results.append((tuple(column[order] for column in columns), (sus_x, sus_f)))
    return results


def _scan(target: Target, params: BeamParameters, mu_min: float, mu_max: float, step: float) -> tuple:
    """``scan_with_suspects`` as arrays: ((mu, residual, lo, hi, iterations,
    degenerate) of the roots in ascending mu, (x, fx) of the suspects)."""
    return _scan_jobs(params, step, [(target, mu_min, mu_max)])[0]


def scan_with_suspects(
    target: Target,
    params: BeamParameters,
    mu_min: float,
    mu_max: float,
    step: float,
) -> tuple:
    """Scan a window; return (roots, suspects).

    The grid is np.linspace(mu_min, mu_max, n + 1) up to its first point at
    or above mu* (``_mu_star``; all of it if mu* lies above the window), walked
    in blocks: memory is O(block + roots).  Above that point the brackets are
    the edges (pi/4 + k pi)/l, each half-period holding exactly one root, and
    the two partial half-periods at the ends hold one exactly when their end
    values differ in sign.  Roots below mu* are those of the whole grid, bit
    for bit.  Suspects are grid local minima of |f| below 1e-10 without a sign
    change -- near-tangent configurations that must not be silently promoted
    to roots.  Above mu* there are none, nor exact zeros at grid points: there
    is no grid there, and |phi'| > 0 wherever |phi0| <= B, so every zero of phi
    there is a simple crossing.  The window lies in [_MU_MIN, 1.001 * _MU_MAX].

    Each full half-period's refinement depends only on the beam, the target
    and its edges, so a scan above mu* keeps its full half-periods (at most
    _BLOCK) in a per-target table, and the next scan of the same beam takes
    those it brackets identically from there (``_lookup``); the roots are
    bit for bit those of a cold scan.  Grid brackets and the two partial
    half-periods are always refined.  Roots are ``Root`` tuples.
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

    It scans Phi0 over (threshold_M, mu_max] and Phi to mu_max + epsilon
    itself, in one Brent batch (``_scan_jobs``); above mu* those scans take
    the full half-periods that the caller's last scans of the beam refined
    from the table (see ``scan_with_suspects``).  A violated epsilon
    precondition wins over an invalid exact window.  The pairings are
    ``RootPairing`` tuples.
    """
    if epsilon <= 0.0:
        raise LocalizationPreconditionError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(epsilon):
        raise LocalizationPreconditionError(f"epsilon must be finite, got {epsilon}")
    if not math.isfinite(threshold_M):
        raise ConfigurationError(f"threshold_M must be finite, got {threshold_M}")
    if mu_max > _MU_MAX:
        raise ConfigurationError(f"mu_max = {mu_max} is above the window limit {_MU_MAX:g}")
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
    jobs, late = [(Target.Phi0, lo, mu_max), (Target.Phi, lo, mu_max + epsilon)], None
    try:  # an exact window that fails raises after the precondition, as on its own scan
        _check_window(params, lo, mu_max + epsilon, step, "mu_max + epsilon")
    except ConfigurationError as exc:
        jobs, late = jobs[:1], exc
    found = [roots[0] for roots, _ in _scan_jobs(params, step, jobs)]  # the mu columns
    anchors = found[0][found[0] > threshold_M]
    gaps = np.diff(anchors)
    if gaps.size and epsilon >= 0.5 * gaps.min():
        i = int(np.argmin(gaps))
        raise LocalizationPreconditionError(
            f"epsilon = {epsilon:.6g} is not below half the minimum anchor gap"
            f" {gaps[i]:.6g} (between {anchors[i]:.6g} and {anchors[i + 1]:.6g}):"
            " neighborhoods would overlap"
        )
    if late is not None:
        raise late
    exact = found[1][found[1] > threshold_M]

    # anchors are more than 2 epsilon apart, so an exact root lies in at most
    # one neighborhood, that of one of its two neighbouring anchors
    owner = np.full(exact.size, -1)
    if anchors.size:
        above = np.searchsorted(anchors, exact)
        for k in (np.maximum(above - 1, 0), np.minimum(above, anchors.size - 1)):
            owner = np.where(np.abs(exact - anchors[k]) < epsilon, k, owner)
    owned = owner >= 0
    counts = np.bincount(owner[owned], minlength=anchors.size).tolist()
    starts = np.searchsorted(owner[owned], np.arange(anchors.size)).tolist()
    inside_all = exact[owned].tolist()
    pairings = []
    unique = PairingStatus.PairedUnique  # looked up once: it costs as much as a row
    for anchor, start, count in zip(anchors.tolist(), starts, counts):
        if count == 1:
            partner = inside_all[start]
            pairings.append((anchor, partner, abs(partner - anchor), epsilon, unique))
        elif not count:
            pairings.append((anchor, None, None, epsilon, PairingStatus.NoExactRootInNeighborhood))
        else:
            partner = min(inside_all[start : start + count], key=lambda m: abs(m - anchor))
            status = PairingStatus.MultipleExactRoots
            pairings.append((anchor, partner, abs(partner - anchor), epsilon, status))
    strays = tuple(exact[~owned & (exact <= mu_max)].tolist())
    verdict = all(count == 1 for count in counts) and not strays

    # empirical margins: min |phi0| over the complement, min |phi0'| near anchors
    sample = np.linspace(lo, mu_max, 4001)
    in_neighborhood = np.zeros(sample.shape, dtype=bool)
    l, l0 = params.length, params.attachment_point
    margin_p = None
    if anchors.size:
        # a sample's nearest anchor is one of its two neighbours in the list
        above = np.minimum(np.searchsorted(anchors, sample), anchors.size - 1)
        for k in (np.maximum(above - 1, 0), above):
            in_neighborhood |= np.abs(sample - anchors[k]) < epsilon
        margin_p = float(np.min(np.abs(phi0_prime(anchors, l, l0))))
    phi0_vals = np.abs(phi0(sample, l, l0))
    complement_vals = phi0_vals[(~in_neighborhood) & (sample > threshold_M)]
    margin_c = float(np.min(complement_vals)) if complement_vals.size else None
    return LocalizationReport(
        threshold_M=threshold_M,
        epsilon=epsilon,
        pairings=tuple(map(RootPairing._make, pairings)),
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
    # rounding can give several values the same distance: take the first
    while lower.size:
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
