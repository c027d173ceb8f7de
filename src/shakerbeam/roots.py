"""Root location for the exact and truncated characteristic functions.

``scan_roots`` brackets sign changes of phi or phi0 on a uniform grid and
refines all brackets of a scan together with a lockstep safeguarded Brent
iteration: each round evaluates the function once, on an array of the brackets
still open.  ``verify_localization`` checks the asymptotic pairing structure:
above a threshold, every truncated root has exactly one exact root in its
epsilon-neighborhood and the complement holds none.  It and
``pair_mutual_nearest`` search the sorted root lists by bisection.
``closed_form_roots_half`` generates the explicit root sequence available when
the attachment sits at midspan.
"""

from __future__ import annotations

import bisect
import enum
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .core import BeamParameters
from .freqeq import phi, phi0, phi0_prime

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
_BLOCK = 2**13  # grid points per scan block: fits the cache, amortizes numpy calls
_MU_MAX = 1e6  # window limit, the range phi is tested on; scans may end 0.1% past it


class ConfigurationError(ValueError):
    """Raised for scan settings that would make root capture unreliable."""


class LocalizationPreconditionError(ValueError):
    """Raised when the requested neighborhoods are too wide to be disjoint."""


class Target(enum.Enum):
    Phi = "phi"
    Phi0 = "phi0"


@dataclass(frozen=True)
class Root:
    """A refined zero of a characteristic function.

    degenerate marks grid points where |f| < 1e-13 without a usable sign
    change (the bracket collapses to the point itself).
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


@dataclass(frozen=True)
class RootPairing:
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


def _target_fn(target: Target, params: BeamParameters) -> Callable:
    if target is Target.Phi:
        return lambda mu: phi(mu, params)
    return lambda mu: phi0(mu, params.length, params.attachment_point)


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


_pool = None  # the scan's ThreadPoolExecutor, created on first use
_pool_lock = threading.Lock()
# a forked child has none of the parent's threads: it builds its own pool
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None, _pool_lock=threading.Lock()))


def _map_blocks(reduce: Callable, n: int):
    """reduce(i0) for the start i0 of each block of the n + 1 grid points, in order:
    in the calling thread if there is one block or one CPU, else on the thread
    pool with at most two blocks per worker pending."""
    global _pool
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers < 2 or n + 1 <= _BLOCK:
        yield from map(reduce, range(0, n + 1, _BLOCK))
        return
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # imports logging: ~10 ms

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="shakerbeam-scan")
    pending: list = []
    try:
        for i0 in range(0, n + 1, _BLOCK):
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
            pending.append(_pool.submit(reduce, i0))
        while pending:
            yield pending.pop(0).result()
    finally:  # after an error: drop the blocks not started, wait for the rest
        for future in pending:
            future.cancel() or future.exception()


def _reduce_block(f: Callable, mu_min: float, mu_max: float, n: int, i0: int) -> tuple:
    """Points i0 <= i < i0 + _BLOCK of np.linspace(mu_min, mu_max, n + 1), bit for
    bit, reduced to arrays (a, fa, b, fb) of sign-changing brackets, (x, fx) of
    exact grid zeros and (x, fx) of suspects.  A one-point halo on each side
    makes brackets (i, i + 1) and suspects (i - 1, i, i + 1) as on the whole grid."""
    j0, j1 = max(i0 - 1, 0), min(i0 + _BLOCK + 1, n + 1)
    x = np.arange(j0, j1, dtype=float) * ((mu_max - mu_min) / n) + mu_min
    if j1 == n + 1:
        x[-1] = mu_max
    values = np.asarray(f(x), dtype=float)
    own0, own1 = i0 - j0, min(i0 + _BLOCK, n + 1) - j0  # local owned range
    absv = np.abs(values)
    zero = absv < _GRID_ZERO
    hits = np.flatnonzero(zero[own0:own1]) + own0
    sign = np.sign(values)
    sign[zero] = 0.0
    i = np.flatnonzero((sign[:-1] * sign[1:] < 0.0)[own0:own1]) + own0
    # local minima of |f| below the suspect level without a sign change, not at the grid's ends
    k = np.flatnonzero(absv[1:-1] < _SUSPECT_LEVEL) + 1
    k = k[(k >= own0) & (k < own1)]
    k = k[
        (absv[k] <= absv[k - 1])
        & (absv[k] <= absv[k + 1])
        & (sign[k - 1] * sign[k + 1] > 0.0)
        & (absv[k] >= _GRID_ZERO)
    ]
    return x[i], values[i], x[i + 1], values[i + 1], x[hits], values[hits], x[k], values[k]


def scan_with_suspects(
    target: Target,
    params: BeamParameters,
    mu_min: float,
    mu_max: float,
    step: float,
) -> tuple:
    """Scan a window; return (roots, suspects).

    Suspects are grid local minima of |f| below 1e-10 without a sign change --
    near-tangent configurations that must not be silently promoted to roots.
    The grid is walked in blocks, in parallel if there are several blocks and CPUs:
    memory is O(blocks in flight + roots).  mu_max may be up to 1.001 * _MU_MAX.
    """
    if not (0.0 < mu_min < mu_max):
        raise ConfigurationError(f"window must satisfy 0 < mu_min < mu_max, got ({mu_min}, {mu_max})")
    if step <= 0.0:
        raise ConfigurationError(f"step must be positive, got {step}")
    if not (math.isfinite(mu_max) and math.isfinite(step) and math.isfinite((mu_max - mu_min) / step)):
        raise ConfigurationError(f"window, step and grid size must be finite, got {mu_max=}, {step=}")
    max_step = math.pi / (4.0 * params.length)
    if step >= max_step:
        raise ConfigurationError(
            f"step {step:.6g} too coarse: must be below pi/(4 l) = {max_step:.6g}"
            " to resolve the sin(mu l) oscillation"
        )
    if mu_max > 1.001 * _MU_MAX:
        raise ConfigurationError(f"mu_max = {mu_max} is above the window limit {_MU_MAX:g}")
    f = _target_fn(target, params)
    n = int(math.ceil((mu_max - mu_min) / step))
    blocks = _map_blocks(lambda i0: _reduce_block(f, mu_min, mu_max, n, i0), n)
    parts = [block for block in blocks if any(part.size for part in block)]
    a, fa, b, fb, hit_x, hit_f, sus_x, sus_f = (
        np.concatenate(column) for column in zip(*parts or [(np.empty(0),) * 8])
    )

    # grid points that are numerically exact zeros: degenerate brackets
    roots = [Root(x, fx, (x, x), 0, target, True) for x, fx in zip(hit_x.tolist(), hit_f.tolist())]
    x, fx, iterations, lo, hi = _refine_brackets(f, a, fa, b, fb)
    # refinements that miss the residual contract are not roots
    met = np.abs(fx) <= _RESIDUAL_FACTOR * (1.0 + _max(np.abs(fa), np.abs(fb)))
    brackets = zip(lo[met].tolist(), hi[met].tolist())
    refined = zip(x[met].tolist(), fx[met].tolist(), brackets, iterations[met].tolist())
    roots += [Root(*fields, target) for fields in refined]
    roots.sort(key=lambda r: r.mu)
    # merge duplicates (a degenerate grid hit adjacent to a refined bracket)
    deduped: list = []
    for r in roots:
        if deduped and abs(r.mu - deduped[-1].mu) < 10.0 * _BRACKET_TOL:
            if deduped[-1].degenerate and not r.degenerate:
                deduped[-1] = r
            continue
        deduped.append(r)
    return deduped, list(zip(sus_x.tolist(), sus_f.tolist()))


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


def detect_rational_ratio(l: float, l0: float, max_denominator: int = 10**6):
    """Return (p, q) if l0/l is genuinely a rational p/q, else None.

    Every double has continued-fraction convergents within ~1/q^2, so a flat
    tolerance would flag irrational ratios too.  Demand the error be far below
    the Dirichlet 1/q^2 level, which only true rationals achieve.
    """
    ratio = l0 / l
    frac = Fraction(ratio).limit_denominator(max_denominator)
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
    lo = max(threshold_M, 1e-6)
    anchors = [r.mu for r in scan_roots(Target.Phi0, params, lo, mu_max, step)]
    anchors = [a for a in anchors if a > threshold_M]
    gaps = [b - a for a, b in zip(anchors, anchors[1:])]
    if gaps and epsilon >= 0.5 * min(gaps):
        i = int(np.argmin(gaps))
        raise LocalizationPreconditionError(
            f"epsilon = {epsilon:.6g} is not below half the minimum anchor gap"
            f" {min(gaps):.6g} (between {anchors[i]:.6g} and {anchors[i + 1]:.6g}):"
            " neighborhoods would overlap"
        )
    exact = [
        r.mu
        for r in scan_roots(Target.Phi, params, lo, mu_max + epsilon, step)
        if r.mu > threshold_M
    ]

    pairings = []
    for anchor in anchors:
        inside = _within(exact, anchor, epsilon)
        if len(inside) == 1:
            status = PairingStatus.PairedUnique
            partner, dist = inside[0], abs(inside[0] - anchor)
        elif not inside:
            status, partner, dist = PairingStatus.NoExactRootInNeighborhood, None, None
        else:
            status = PairingStatus.MultipleExactRoots
            partner = min(inside, key=lambda m: abs(m - anchor))
            dist = abs(partner - anchor)
        pairings.append(
            RootPairing(
                truncated_root=anchor,
                exact_root=partner,
                distance=dist,
                epsilon=epsilon,
                status=status,
            )
        )
    strays = tuple(m for m in exact if m <= mu_max and not _within(anchors, m, epsilon))
    verdict = bool(
        all(p.status is PairingStatus.PairedUnique for p in pairings) and not strays
    )

    # empirical margins: min |phi0| over the complement, min |phi0'| near anchors
    sample = np.linspace(lo, mu_max, 4001)
    in_neighborhood = np.zeros(sample.shape, dtype=bool)
    l, l0 = params.length, params.attachment_point
    margin_p = None
    if anchors:
        # a sample's nearest anchor is one of its two neighbours in the list
        arr = np.array(anchors)
        above = np.minimum(np.searchsorted(arr, sample), len(arr) - 1)
        for k in (np.maximum(above - 1, 0), above):
            in_neighborhood |= np.abs(sample - arr[k]) < epsilon
        margin_p = float(np.min(np.abs(phi0_prime(arr, l, l0))))
    phi0_vals = np.abs(phi0(sample, l, l0))
    complement_vals = phi0_vals[(~in_neighborhood) & (sample > threshold_M)]
    margin_c = float(np.min(complement_vals)) if complement_vals.size else None
    return LocalizationReport(
        threshold_M=threshold_M,
        epsilon=epsilon,
        pairings=tuple(pairings),
        stray_roots=strays,
        verdict=verdict,
        warning=None,
        min_abs_phi0_complement=margin_c,
        min_abs_phi0_prime_neighborhoods=margin_p,
        rational_ratio=rational,
    )


def _within(values: list, center: float, radius: float) -> list:
    """The values v of an ascending list with abs(v - center) < radius.

    Bisection on the doubled interval finds a superset despite the rounding
    of center +- radius; the exact test then picks from it.
    """
    lo = bisect.bisect_left(values, center - 2.0 * radius)
    hi = bisect.bisect_right(values, center + 2.0 * radius)
    return [v for v in values[lo:hi] if abs(v - center) < radius]


def _nearest(x: float, pool: list):
    """The first value of an ascending list at the least distance from x."""
    j = bisect.bisect_left(pool, x)
    if j == len(pool) or (j > 0 and abs(pool[j - 1] - x) <= abs(pool[j] - x)):
        j -= 1
        if j < 0:
            return None
        # rounding can give several values the same distance: take the first
        while j > 0 and abs(pool[j - 1] - x) == abs(pool[j] - x):
            j -= 1
    return pool[j]


def pair_mutual_nearest(exact: list, truncated: list) -> list:
    """Mutual nearest-neighbour pairing of two sorted root lists.

    Returns rows (exact_mu or None, truncated_mu or None, status-string) --
    exact-bearing rows first in mu order, then leftover truncated roots.
    A root equally near two others pairs with the lower one.
    """
    rows = []
    used_truncated = set()
    for m in exact:
        t = _nearest(m, truncated)
        if t is not None and _nearest(t, exact) == m:
            rows.append((m, t, "paired"))
            used_truncated.add(t)
        else:
            rows.append((m, None, "exact_only"))
    for t in truncated:
        if t not in used_truncated:
            rows.append((None, t, "truncated_only"))
    return rows
