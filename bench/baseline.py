"""Regenerate the reachable rows of ROADMAP.md's "Baseline measurements" table.

Same method as the table: best of several timeit repeats on the beam, window
and scan step of configs/default.cfg.  The rows are
informational; nothing gates on them.  The normalize-at-mu~1e5 row is left
out: today it requests a 173 GiB matrix.
"""

from __future__ import annotations

import timeit

import numpy as np

import shakerbeam as sb


def _best(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def rows(config) -> list:
    """(layer / workload, time, notes) rows for a RunConfig, times already formatted."""
    p, step, eps = config.params, config.scan_step, config.epsilon
    lo, hi = config.mu_min, config.mu_max
    grid = np.linspace(lo, hi, 10001)
    paper = sb.scan_roots(sb.Target.Phi, p, lo, hi, step)
    wide = sb.scan_roots(sb.Target.Phi, p, lo, 1000.0, step)
    high = min(sb.scan_roots(sb.Target.Phi, p, 440.0, 460.0, step), key=lambda r: abs(r.mu - 451.0))
    out = [
        ("`phi` scalar call", f"{_best(lambda: sb.phi(20.0, p), 2000, 5) * 1e6:.1f} µs/call", ""),
        (
            "`phi` vectorized",
            f"{_best(lambda: sb.phi(grid, p), 20, 5) / grid.size * 1e6:.3f} µs/point",
            f"{grid.size} points",
        ),
        (
            f"`scan_roots(Phi)`, μ∈({lo:g}, {hi:g})",
            f"{_best(lambda: sb.scan_roots(sb.Target.Phi, p, lo, hi, step), 5, 5) * 1e3:.2f} ms",
            f"{len(paper)} roots",
        ),
        (
            "`scan_roots(Phi0)`, same window",
            f"{_best(lambda: sb.scan_roots(sb.Target.Phi0, p, lo, hi, step), 5, 5) * 1e3:.2f} ms",
            "",
        ),
        (
            f"`scan_roots(Phi)`, μ∈({lo:g}, 1000)",
            f"{_best(lambda: sb.scan_roots(sb.Target.Phi, p, lo, 1000.0, step), 1, 3) * 1e3:.1f} ms",
            f"{len(wide)} roots, {sum(r.iterations for r in wide)} refinement iterations",
        ),
        (
            f"`verify_localization` (ε={eps:g}, M=15, μ≤{hi:g})",
            f"{_best(lambda: sb.verify_localization(p, eps, 15.0, hi, step), 5, 5) * 1e3:.2f} ms",
            "",
        ),
        (
            f"`solve_mode` × {len(paper)}",
            f"{_best(lambda: [sb.solve_mode(r, p) for r in paper], 3, 5) * 1e3:.2f} ms",
            "",
        ),
        (
            f"`normalize_L2(solve_mode)` × {len(paper)}",
            f"{_best(lambda: [sb.normalize_L2(sb.solve_mode(r, p)) for r in paper], 1, 5) * 1e3:.1f} ms",
            "",
        ),
        (
            f"normalize one mode at μ≈{high.mu:.0f}",
            f"{_best(lambda: sb.normalize_L2(sb.solve_mode(high, p)), 1, 3) * 1e3:.1f} ms",
            f"μ = {high.mu:.4f}",
        ),
    ]
    return out
