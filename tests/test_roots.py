"""Root scanning, bracket refinement, closed-form midspan roots, and the
asymptotic localization check."""

import dataclasses
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from shakerbeam import (
    BeamParameters,
    ConfigurationError,
    LocalizationPreconditionError,
    PairingStatus,
    Root,
    RootPairing,
    Target,
    closed_form_roots_half,
    detect_rational_ratio,
    pair_mutual_nearest,
    phi,
    phi0,
    scan_roots,
    scan_with_suspects,
    verify_localization,
)
import shakerbeam.cli
import shakerbeam.roots
import reference
from shakerbeam.roots import _BRACKET_TOL, _edge, _mu_star, _refine_brackets, _scan
from conftest import EXACT_ROOTS_REF, TRUNCATED_ROOTS_REF, default_step, seeded_beams
from reference import _brent, pair_mutual_nearest_quadratic, scan_with_suspects_scalar


class TestScan:
    def test_exact_roots_match_reference(self, params, exact_roots):
        assert len(exact_roots) == len(EXACT_ROOTS_REF)
        for root, ref in zip(exact_roots, EXACT_ROOTS_REF):
            assert root.mu == pytest.approx(ref, abs=5e-7)

    def test_truncated_roots_match_reference(self, params, truncated_roots):
        assert len(truncated_roots) == len(TRUNCATED_ROOTS_REF)
        for root, ref in zip(truncated_roots, TRUNCATED_ROOTS_REF):
            assert root.mu == pytest.approx(ref, abs=5e-7)

    def test_roots_sorted_and_tagged(self, exact_roots, truncated_roots):
        for roots, target in ((exact_roots, Target.Phi), (truncated_roots, Target.Phi0)):
            mus = [r.mu for r in roots]
            assert mus == sorted(mus)
            assert all(r.target is target for r in roots)
            assert not any(r.degenerate for r in roots)

    def test_bracket_contains_root_with_sign_change(self, params, exact_roots, truncated_roots):
        truncated = lambda mu: phi0(mu, params.length, params.attachment_point)
        for roots, f in ((exact_roots, lambda mu: phi(mu, params)), (truncated_roots, truncated)):
            for root in roots:
                lo, hi = root.bracket
                assert lo < root.mu < hi
                assert hi - lo <= 1e-9
                assert f(lo) * f(hi) <= 0.0

    def test_residual_bound(self, exact_roots):
        assert all(abs(r.residual) <= 1e-8 for r in exact_roots)

    def test_step_refinement_invariance(self, params):
        step = default_step(params)
        coarse = scan_roots(Target.Phi, params, 0.1, 20.0, step)
        fine = scan_roots(Target.Phi, params, 0.1, 20.0, step / 3.0)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert a.mu == pytest.approx(b.mu, abs=1e-8)

    def test_empty_window_returns_no_roots(self, params):
        assert scan_roots(Target.Phi, params, 0.2, 0.5, 0.01) == []

    def test_coarse_step_rejected(self, params):
        bad = math.pi / (3.0 * params.length)
        with pytest.raises(ConfigurationError, match="step"):
            scan_roots(Target.Phi, params, 0.1, 10.0, bad)

    def test_invalid_window_rejected(self, params):
        with pytest.raises(ConfigurationError):
            scan_roots(Target.Phi, params, 5.0, 2.0, 0.01)

    @pytest.mark.parametrize(
        "mu_min, mu_max, step",
        [
            (0.1, math.inf, 0.01),
            (0.1, math.nan, 0.01),
            (math.nan, 38.5, 0.01),
            (0.1, 38.5, math.nan),
            (0.1, 38.5, 1e-320),  # the grid size overflows
        ],
    )
    def test_non_finite_window_or_step_rejected(self, params, mu_min, mu_max, step):
        with pytest.raises(ConfigurationError):
            scan_with_suspects(Target.Phi, params, mu_min, mu_max, step)

    def test_no_suspects_for_default_beam(self, params):
        _, suspects = scan_with_suspects(Target.Phi, params, 0.1, 38.5, default_step(params))
        assert suspects == []

    def test_grid_zero_flagged_degenerate(self, half_params):
        # 2 pi / l lies on this grid and phi evaluates there to -7.0e-15, below
        # the grid-zero threshold: reported as a degenerate (zero-width) bracket
        l = half_params.length
        step = math.pi / (8.0 * l)
        roots = scan_roots(Target.Phi, half_params, step, 4.0 * math.pi / l, step)
        degenerate = [r for r in roots if r.degenerate]
        assert degenerate
        assert any(abs(r.mu - 2.0 * math.pi / l) < 1e-12 for r in degenerate)
        for r in degenerate:
            assert abs(r.residual) < 1e-13
            assert r.bracket == (r.mu, r.mu)

    def test_near_double_root_reports_both(self, params, monkeypatch):
        # two simple roots 4e-10 apart, straddling the grid point 10.5: two
        # sign changes, so two roots, however close they are
        a, b = 10.5 - 2e-10, 10.5 + 2e-10

        def near_double(x):
            x = np.asarray(x, dtype=float)
            return 1e10 * (x - a) * (x - b)

        _patch_phi(monkeypatch, near_double)
        beam = dataclasses.replace(params, length=0.5, attachment_point=0.2)
        args = (Target.Phi, beam, 0.5, 20.5, 1.0)
        roots, suspects = scan_with_suspects(*args)
        assert (roots, suspects) == reference.scan_with_suspects_scalar(*args)
        assert [r.mu for r in roots] == pytest.approx([a, b], abs=1e-12)
        assert not any(r.degenerate for r in roots)
        assert suspects == []


def _patch_phi(monkeypatch, f):
    """Make f the function that the package's Phi scan and the scalar reference scan."""
    monkeypatch.setattr(shakerbeam.roots, "phi", lambda mu, p: f(mu))
    monkeypatch.setattr(reference, "_target_fn", lambda target, p: f)


def _assert_close_roots(roots, want):
    """The same number of roots, each within the Brent tolerance of the one it replaces."""
    assert len(roots) == len(want)
    assert all(abs(r.mu - w.mu) <= _BRACKET_TOL for r, w in zip(roots, want))


def _awkward(x):
    """A piecewise test function with an exact zero at 0.5, a pole at 15, a
    jump at 25.3 and a flat triple root at 35.1."""
    return np.where(
        x < 10.0,
        x - 0.5,
        np.where(
            x < 20.0,
            np.tan(x - 15.0 + math.pi / 2.0),
            np.where(x < 30.0, np.sign(x - 25.3), (x - 35.1) ** 3),
        ),
    )


# sign-changing brackets of _awkward; the pole's is later rejected by the
# residual contract, but its refinement must still match
_AWKWARD_BRACKETS = (
    np.array([0.0, 0.25, 14.5, 24.0, 33.0, 35.0]),
    np.array([1.0, 0.6, 15.5, 26.0, 36.0, 35.2]),
)


class TestBatchedRefinement:
    """The lockstep refinement against the scalar Brent it replaced."""

    def test_scan_equals_scalar_reference(self, half_params):
        # Phi: the same arithmetic per bracket, so equal Root tuples and
        # suspects, not just close ones.  Phi0, solved by Newton per
        # half-period: the same roots within the Brent tolerance, no suspects
        windows = [(0.1, 38.5), (0.1, 1000.0), (15.0, 1000.35), (450.0, 500.0)]
        for beam in seeded_beams(20261018, 20):
            step = default_step(beam)
            for lo, hi in windows:
                assert scan_with_suspects(Target.Phi, beam, lo, hi, step) == (
                    scan_with_suspects_scalar(Target.Phi, beam, lo, hi, step)
                )
                roots, suspects = scan_with_suspects(Target.Phi0, beam, lo, hi, step)
                want, want_suspects = scan_with_suspects_scalar(Target.Phi0, beam, lo, hi, step)
                _assert_close_roots(roots, want)
                assert suspects == want_suspects == []
        # midspan with 2 pi / l on the grid: a degenerate hit to dedup
        step = math.pi / (8.0 * half_params.length)
        args = (Target.Phi, half_params, step, 32.0 * step, step)
        roots, suspects = scan_with_suspects(*args)
        assert any(r.degenerate for r in roots)
        assert (roots, suspects) == scan_with_suspects_scalar(*args)

    def test_lanes_equal_scalar_brent(self):
        a, b = _AWKWARD_BRACKETS
        x, fx, iterations, lo, hi = _refine_brackets(_awkward, a, _awkward(a), b, _awkward(b))
        for k in range(a.size):
            fa, fb = float(_awkward(a[k])), float(_awkward(b[k]))
            ref = _brent(lambda m: float(_awkward(m)), a[k], fa, b[k], fb)
            assert (x[k], fx[k], iterations[k], (lo[k], hi[k])) == ref

    def test_no_runtime_warnings(self, params):
        # lanes that stopped keep being computed and masked out; the exact
        # zero of the first awkward bracket makes them divide 0 by 0
        a, b = _AWKWARD_BRACKETS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in Target:
                scan_with_suspects(target, params, 0.1, 1000.0, default_step(params))
            _refine_brackets(_awkward, a, _awkward(a), b, _awkward(b))


def _edge_features(x):
    """On the grid x = 1, 2, ..., 48 (global points i = x - 1): a sign change
    between i = 7 and 8, an exact zero at i = 16, near-tangent minima at
    i = 24 and 31, and a sign change between i = 39 and 40.  With blocks of 8
    every feature sits on a block edge; other block sizes put them elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.where(
        x < 12.5,
        x - 8.5,
        np.where(
            x < 20.5,
            0.1 * (x - 17.0) ** 2,
            np.where(
                x < 28.5,
                1e-11 + 1e-3 * (x - 25.0) ** 2,
                np.where(x < 36.5, 1e-11 + 1e-3 * (x - 32.0) ** 2, 40.5 - x),
            ),
        ),
    )
    return float(out) if out.ndim == 0 else out


class TestBlockScan:
    """The scan walks its grid in blocks with a one-point halo, in the calling
    thread; every block size must give the whole-grid result."""

    SHORT = [(0.1, 38.5), (450.0, 500.0)]
    LONG = [(0.1, 1000.0), (15.0, 1000.35)]

    @staticmethod
    def _midspan_args(half_params):
        step = math.pi / (8.0 * half_params.length)
        return (Target.Phi, half_params, step, 32.0 * step, step)

    def test_block_sizes_equal_default(self, half_params, monkeypatch):
        # Phi bit for bit; Phi0, whose Newton lanes step in lockstep per block
        # of half-periods, within the Brent tolerance of the scalar reference
        beams = seeded_beams(20261018, 2)
        cases = [
            (target, beam, lo, hi, default_step(beam))
            for beam in beams
            for target in Target
            for lo, hi in self.SHORT + self.LONG
        ] + [self._midspan_args(half_params)]
        expected = [
            scan_with_suspects(*args) if args[0] is Target.Phi else scan_with_suspects_scalar(*args) for args in cases
        ]
        assert any(r.degenerate for r in expected[-1][0])
        for block in (1, 2, 3, 7, 64):
            monkeypatch.setattr(shakerbeam.roots, "_BLOCK", block)
            for args, want in zip(cases, expected):
                # tiny blocks on the long windows cost seconds and add nothing
                if block < 64 and args[3] - args[2] > 100.0:
                    continue
                if args[0] is Target.Phi:
                    assert scan_with_suspects(*args) == want
                else:
                    roots, suspects = scan_with_suspects(*args)
                    _assert_close_roots(roots, want[0])
                    assert suspects == want[1] == []

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 8, 64])
    def test_features_on_block_edges(self, params, monkeypatch, block):
        beam = dataclasses.replace(params, length=0.5, attachment_point=0.2)
        _patch_phi(monkeypatch, _edge_features)
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", block)
        args = (Target.Phi, beam, 1.0, 48.0, 1.0)
        roots, suspects = scan_with_suspects(*args)
        assert (roots, suspects) == reference.scan_with_suspects_scalar(*args)
        assert [r.mu for r in roots] == [8.5, 17.0, 40.5]
        assert [r.degenerate for r in roots] == [False, True, False]
        assert suspects == [(25.0, 1e-11), (32.0, 1e-11)]

    def test_block_points_equal_linspace(self, params, monkeypatch):
        # every grid point, the last one included, is the np.linspace point; the
        # grid stops at the first point at or above mu*, and one more call takes
        # that point, the edges (pi/4 + k pi)/l above it and mu_max
        calls = []

        def record(x):
            calls.append(np.array(x))
            return np.ones_like(x)

        monkeypatch.setattr(shakerbeam.roots, "phi", lambda mu, p: record(mu))
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 1000)
        step, l = default_step(params), params.length
        cuts = []
        for lo, hi in [(0.1, 38.5), (0.1, 1000.0), (15.0, 1000.35), (3.3, 7777.7)]:
            calls.clear()
            assert scan_with_suspects(Target.Phi, params, lo, hi, step) == ([], [])
            n = int(math.ceil((hi - lo) / step))
            grid = np.linspace(lo, hi, n + 1)
            cut = int(np.searchsorted(grid, _mu_star(params, hi)))
            cuts.append(cut < n)
            if cut >= n:
                assert np.array_equal(np.unique(np.concatenate(calls)), grid)
                continue
            *blocks, edges = calls
            assert np.array_equal(np.unique(np.concatenate(blocks)), grid[: cut + 1])
            assert edges[0] == grid[cut] and edges[-1] == hi
            k = np.arange(math.ceil(edges[0] * l / math.pi - 0.25), math.floor(hi * l / math.pi - 0.25) + 1)
            assert np.array_equal(edges[1:-1], (k + 0.25) * (math.pi / l))
        assert cuts == [False, True, True, True]

    def test_block_exception_reaches_caller(self, params, monkeypatch):
        class Boom(Exception):
            pass

        def explode(x):
            if np.any(x > 30.0):
                raise Boom("block above 30")
            return np.ones_like(x)

        monkeypatch.setattr(shakerbeam.roots, "phi", lambda mu, p: explode(mu))
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 64)
        with pytest.raises(Boom, match="block above 30"):
            scan_with_suspects(Target.Phi, params, 0.1, 38.5, default_step(params))

    def test_concurrent_callers_get_the_same_scan(self, params, monkeypatch):
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 256)
        args = (Target.Phi, params, 0.1, 38.5, default_step(params))
        expected = scan_with_suspects(*args)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                scans = callers.map(lambda _: scan_with_suspects(*args), range(16), timeout=120)
                results = list(scans)
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 16

    def test_multi_block_scan_starts_no_thread(self, params, monkeypatch):
        callers = set()

        def sine(x):
            callers.add(threading.get_ident())
            return np.sin(x)

        monkeypatch.setattr(shakerbeam.roots, "phi", lambda mu, p: sine(mu))
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = threading.active_count()
        roots, _ = scan_with_suspects(Target.Phi, params, 0.1, 38.5, default_step(params))
        assert len(roots) == 12  # the zeros k pi of sin in (0.1, 38.5)
        assert callers == {threading.get_ident()}
        assert threading.active_count() == threads

    def test_phi_grid_calls_phi(self, params, monkeypatch):
        # the Phi grid goes through the module's phi, the name a tracer wraps
        seen = []

        def counting_phi(mu, p):
            seen.append(np.array(mu, dtype=float).ravel())
            return phi(mu, p)

        monkeypatch.setattr(shakerbeam.roots, "phi", counting_phi)
        step = default_step(params)
        scan_with_suspects(Target.Phi, params, 0.1, 38.5, step)
        grid = np.linspace(0.1, 38.5, math.ceil(38.4 / step) + 1)
        assert grid.size == 1864
        assert np.isin(grid, np.concatenate(seen)).all()


def _grid_only(monkeypatch):
    """Scan every window on its whole grid, as if mu* lay above it."""
    monkeypatch.setattr(shakerbeam.roots, "_mu_star", lambda params, mu_max: math.inf)


class TestHalfPeriodBrackets:
    """Above mu* (``roots._mu_star``) every half-period between the edges
    mu_k = (pi/4 + k pi)/l holds exactly one root of phi and of phi0, and the
    scan brackets it by the edges instead of a grid."""

    def test_mu_star(self, params, half_params):
        # the shipped windows lie below mu*, which does not depend on the window
        assert _mu_star(params, 38.5) == _mu_star(half_params, 32.0) == math.inf
        assert _mu_star(params, 1000.0) == _mu_star(params, 1e6) == pytest.approx(107.606, abs=1e-3)
        assert _mu_star(half_params, 1000.0) == pytest.approx(67.937, abs=1e-3)
        for beam in (params, half_params):
            k = _mu_star(beam, 1e6) * beam.length / math.pi - 0.25
            assert k == pytest.approx(round(k), abs=1e-9)
            assert _mu_star(beam, _mu_star(beam, 1e6)) == math.inf

    def test_one_root_per_half_period(self, params):
        # phi and phi0 sampled 80 times per half-period, as the grid does,
        # change sign exactly once in each, from mu* to 1e4 and from 9e4 to 1e5;
        # phi0 does from k = 0 on, and not at all on (0, mu_0]
        beams = seeded_beams(20261026, 3) + [
            dataclasses.replace(params, attachment_point=r * params.length) for r in np.linspace(0.05, 0.95, 10)
        ]
        for beam in beams:
            l, l0 = beam.length, beam.attachment_point
            first = round(_mu_star(beam, 1e5) * l / math.pi - 0.25)
            exact = lambda x: phi(x, beam)
            truncated = lambda x: phi0(x, l, l0)
            for lo, hi, fns in (
                (first, 1e4 * l / math.pi - 1.25, (exact, truncated)),
                (9e4 * l / math.pi, 1e5 * l / math.pi - 1.25, (exact, truncated)),
                (0, first - 1, (truncated,)),
            ):
                x = (np.arange(math.ceil(lo), math.floor(hi) + 1)[:, None] + 0.25 + np.arange(81) / 80.0) * (
                    math.pi / l
                )
                for f in fns:
                    sign = np.sign(f(x))
                    assert np.all(np.count_nonzero(sign[:, 1:] != sign[:, :-1], axis=1) == 1)
            assert np.all(truncated(np.arange(1, 81) / 80.0 * (math.pi / (4.0 * l))) < 0.0)

    def test_equals_grid_scan_to_mu_1e5(self, params, half_params, monkeypatch):
        # Phi: the same roots as the whole grid gives, bit for bit below mu*,
        # within the Brent tolerance above it.  Phi0: as many roots as the grid
        # scan finds on phi0 (the Phi path, on phi0), each within the Brent tolerance
        for beam in (params, half_params):
            mu_star, step = _mu_star(beam, 1e5), default_step(beam)
            roots, suspects = _scan(Target.Phi, beam, 0.1, 1e5, step)
            with monkeypatch.context() as m:
                _grid_only(m)
                want, want_suspects = _scan(Target.Phi, beam, 0.1, 1e5, step)
            assert roots[0].size == want[0].size > 60_000
            assert suspects[0].size == want_suspects[0].size == 0
            below = want[0] < mu_star
            assert 0 < np.count_nonzero(below) < 80
            for column, want_column in zip(roots, want):
                assert np.array_equal(column[below], want_column[below])
            assert np.max(np.abs(roots[0] - want[0])) <= _BRACKET_TOL
            truncated, none = _scan(Target.Phi0, beam, 0.1, 1e5, step)
            with monkeypatch.context() as m:
                m.setattr(shakerbeam.roots, "phi", lambda mu, p: phi0(mu, p.length, p.attachment_point))
                grid = _scan(Target.Phi, beam, 0.1, 1e5, step)[0]
            assert truncated[0].size == grid[0].size > 60_000
            assert np.max(np.abs(truncated[0] - grid[0])) <= _BRACKET_TOL
            assert none[0].size == 0 and not truncated[5].any()

    def test_scan_independent_of_step(self, params):
        # Phi0 reads the step only to check it: any valid step, down to cells
        # narrower than Newton's bracket around a root, gives the same bits
        root = _scan(Target.Phi0, params, 10.0, 12.0, default_step(params))[0][0][0]
        for lo, hi in ((root - 1e-5, root + 2e-5), (0.1, 1000.0)):
            want = _scan_bits(_scan(Target.Phi0, params, lo, hi, default_step(params)))
            for step in (default_step(params) / 7.0, 1e-6, 1e-10, 3e-11):
                if (hi - lo) / step < 2**31:
                    assert _scan_bits(_scan(Target.Phi0, params, lo, hi, step)) == want

    def test_exact_zero_at_window_top(self, half_params):
        # midspan phi0 vanishes at 2 pi m / l: with a window end there, that end
        # is the root of its half-period, a degenerate bracket (end, end), as a
        # grid reports it; windows (0.1, 2 pi m1 / l), and from 2 pi m0 / l
        l, step = half_params.length, default_step(half_params)
        for m0, m1 in ((0, 23), (0, 100), (5, 23), (40, 0)):
            lo = 2.0 * math.pi * m0 / l if m0 else 0.1
            hi = 2.0 * math.pi * m1 / l if m1 else 200.0
            roots, _ = _scan(Target.Phi0, half_params, lo, hi, step)
            want, _ = scan_with_suspects_scalar(Target.Phi0, half_params, lo, hi, step)
            assert roots[0].size == len(want) == (2 * m1 if lo == 0.1 else roots[0].size)
            assert np.max(np.abs(roots[0] - [r.mu for r in want])) <= _BRACKET_TOL
            ends = [i for i, end in ((0, m0), (-1, m1)) if end]
            degenerate = np.zeros(roots[0].size, dtype=bool)
            degenerate[ends] = True
            assert np.array_equal(roots[5], degenerate)
            for i in ends:
                assert want[i].degenerate and roots[0][i] == roots[2][i] == roots[3][i] == want[i].mu == (lo, hi)[i]
                assert abs(roots[1][i]) < 1e-13 and roots[4][i] == 0

    def test_large_mass_ratio_runs_only_the_grid(self, params, monkeypatch):
        # 4 rho/m = 2430 puts mu* near 1.06e4, above this window
        beam = dataclasses.replace(params, shaker_mass=1e-3)
        assert _mu_star(beam, 1e4) == math.inf
        assert 1e4 < _mu_star(beam, 1e6) < 1.1e4

        def no_edges(*args):
            raise AssertionError("edge brackets below mu*")

        monkeypatch.setattr(shakerbeam.roots, "_reduce_edges", no_edges)
        assert _scan(Target.Phi, beam, 0.1, 1e4, default_step(beam))[0][0].size > 6000
        with pytest.raises(AssertionError, match="edge brackets"):
            _scan(Target.Phi, beam, 0.1, 1.2e4, default_step(beam))

    def test_bad_start_takes_brent_fallback(self, params, half_params, monkeypatch):
        # a start in the next half-period leaves its own, and one Newton step
        # does not converge (but at midspan, where the start is the root):
        # exactly those lanes are located by Brent on their whole half-period,
        # and the scan keeps every root, within the Brent tolerance of the
        # good starts' Newton roots
        calls = _spy_refinement(monkeypatch)
        start = shakerbeam.roots._phi0_start
        for beam in (params, half_params):
            l, step = beam.length, default_step(beam)
            want = _scan(Target.Phi0, beam, 0.1, 1000.0, step)[0]
            k = np.arange(math.floor(1000.0 * l / math.pi - 0.25) + 1)  # the half-periods that meet the window
            assert calls == []
            with monkeypatch.context() as m:
                m.setattr(shakerbeam.roots, "_phi0_start", lambda k, l, l0: start(k, l, l0) + (k % 3 == 0) * math.pi / l)
                roots = _scan(Target.Phi0, beam, 0.1, 1000.0, step)[0]
            [(a, b)] = calls
            assert np.array_equal(a, _edge(k[k % 3 == 0], l)) and np.array_equal(b, _edge(k[k % 3 == 0] + 1, l))
            assert roots[0].size == want[0].size and np.max(np.abs(roots[0] - want[0])) <= _BRACKET_TOL
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(shakerbeam.roots, "_NEWTON_STEPS", 1)
                roots = _scan(Target.Phi0, beam, 0.1, 1000.0, step)[0]
            assert _lanes(calls) == ([k.size] if beam is params else [])
            assert roots[0].size == want[0].size and np.max(np.abs(roots[0] - want[0])) <= _BRACKET_TOL
            calls.clear()

    def test_residual_failure_takes_brent_fallback(self, params, monkeypatch):
        # under a zero residual contract every Newton root x with phi0(x) != 0
        # fails it, those of the half-periods that only meet the window too:
        # its half-period takes Brent's root, which is kept although its
        # residual misses the contract as well
        l, l0 = params.length, params.attachment_point
        want = _scan(Target.Phi0, params, 0.1, 1000.0, default_step(params))[0]
        k, x, *_ = shakerbeam.roots._phi0_locate(params, 0.1, 1000.0)
        calls = _spy_refinement(monkeypatch)
        monkeypatch.setattr(shakerbeam.roots, "_RESIDUAL_FACTOR", 0.0)
        roots = _scan(Target.Phi0, params, 0.1, 1000.0, default_step(params))[0]
        [(a, _)] = calls
        assert 0 < a.size < k.size
        assert np.array_equal(a, _edge(k[phi0(x, l, l0) != 0.0], l))
        assert roots[0].size == want[0].size and np.max(np.abs(roots[0] - want[0])) <= _BRACKET_TOL
        assert np.any(roots[1] != 0.0)
        lo, hi = roots[2], roots[3]
        assert np.all((lo < roots[0]) & (roots[0] < hi))
        assert np.array_equal(roots[1], phi0(roots[0], l, l0))


def _scan_bits(scan) -> list:
    """The bytes and dtype of every column of a ``_scan`` result, suspects included."""
    roots, suspects = scan
    return [(column.dtype, column.tobytes()) for column in (*roots, *suspects)]


def _spy_refinement(monkeypatch) -> list:
    """Record the brackets (a, b) of every ``_refine_brackets`` call."""
    calls = []
    refine = shakerbeam.roots._refine_brackets

    def spy(f, a, fa, b, fb):
        calls.append((a, b))
        return refine(f, a, fa, b, fb)

    monkeypatch.setattr(shakerbeam.roots, "_refine_brackets", spy)
    return calls


def _lanes(calls) -> list:
    return [a.size for a, _ in calls]


class TestFusedPair:
    """``verify_localization`` and the CLI's ``roots`` and ``growth`` scan Phi
    and Phi0 one at a time; a scan refines its brackets _BLOCK at a time, and
    verify checks its epsilon precondition before the exact scan."""

    def test_split_batch_equals_one_batch(self, params, monkeypatch):
        # about 12,000 Phi lanes to mu = 2e4: split at _BLOCK lanes, at 100
        # lanes (which also makes 100-point grid blocks), and in one batch
        args = (Target.Phi, params, 15.0, 2e4 + 0.35, default_step(params))
        calls = _spy_refinement(monkeypatch)
        want = _scan_bits(_scan(*args))
        lanes = sum(_lanes(calls))
        assert _lanes(calls) == [shakerbeam.roots._BLOCK, lanes - shakerbeam.roots._BLOCK]
        for block, chunks in ((100, math.ceil(lanes / 100)), (2**15, 1)):
            calls.clear()
            monkeypatch.setattr(shakerbeam.roots, "_BLOCK", block)
            assert _scan_bits(_scan(*args)) == want
            assert len(calls) == chunks and sum(_lanes(calls)) == lanes

    def test_exact_window_error_after_precondition(self, params):
        # mu_max + epsilon past the limit: exit-4 precondition first, then the
        # exact window's error names mu_max + epsilon
        with pytest.raises(LocalizationPreconditionError, match="epsilon"):
            verify_localization(params, 2000.0, 999000.0, 1e6)
        with pytest.raises(ConfigurationError, match=r"mu_max \+ epsilon = 1002000\.0 is above the window limit"):
            verify_localization(params, 2000.0, 999999.5, 1e6)


class TestWindowLimit:
    """Windows start at mu_min >= 1e-6 and end at mu_max <= 1e6; a scan may
    reach 0.1% past the end."""

    @pytest.mark.parametrize("mu_min, mu_max", [(1e-200, 1e-100), (1e-76, 1e-6), (9.9e-7, 1.0)])
    def test_scan_below_floor_fails(self, params, mu_min, mu_max):
        # below mu ~ 1e-77 mu**4 underflows and phi is NaN on the whole grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in Target:
                with pytest.raises(ConfigurationError, match="mu_min"):
                    scan_with_suspects(target, params, mu_min, mu_max, default_step(params))

    def test_scan_from_floor_finds_no_noise_roots(self, params, half_params):
        for beam in (params, half_params):
            for target in Target:
                assert scan_with_suspects(target, beam, 1e-6, 0.5, default_step(beam)) == ([], [])
                assert scan_roots(target, beam, 1e-6, 1e-3, 1e-6) == []

    @pytest.mark.parametrize("beam, count", [("params", 6064), ("half_params", 6366)])
    @pytest.mark.parametrize("target", list(Target))
    def test_top_of_window_keeps_every_bracket(self, request, monkeypatch, beam, count, target):
        # refined |f| grows toward mu = 1e6 (on the default beam up to 0.54 of
        # the residual bound for Phi, 0.60 for Phi0): every sign change on an
        # independent grid must still be a root, on the edge brackets above mu*
        # and on the whole grid
        beam = request.getfixturevalue(beam)
        lo, hi = 9.9e5, 1e6
        x = np.linspace(lo, hi, 200_001)
        values = phi(x, beam) if target is Target.Phi else phi0(x, beam.length, beam.attachment_point)
        changes = int(np.count_nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0))
        roots = scan_roots(target, beam, lo, hi, default_step(beam))
        _grid_only(monkeypatch)
        assert len(roots) == len(scan_roots(target, beam, lo, hi, default_step(beam))) == changes == count

    def test_fine_step_above_mu_star_builds_no_grid(self, params):
        # the window lies above mu* = 107.6: its Phi brackets are the edges, whatever
        # the step, and Phi0 has no grid; both targets check the step
        for target in Target:
            fine = _scan_bits(_scan(target, params, 200.0, 1e4, 2e-6))
            assert fine == _scan_bits(_scan(target, params, 200.0, 1e4, default_step(params)))
            for mu_min, mu_max, step in ((0.1, 1e4, 2e-8), (200.0, 1e4, 5e-324)):
                with pytest.raises(ConfigurationError, match="too fine"):
                    _scan(target, params, mu_min, mu_max, step)

    def test_scan_above_limit_fails_before_allocating(self, params):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="limit"):
                scan_roots(Target.Phi, params, 0.1, 2e6, default_step(params))
            with pytest.raises(ConfigurationError, match="limit"):
                scan_roots(Target.Phi0, params, 0.1, 1.001e6 * (1.0 + 1e-12), default_step(params))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_verify_above_limit_fails(self, params):
        with pytest.raises(ConfigurationError, match="limit"):
            verify_localization(params, 0.35, 15.0, 1e6 * (1.0 + 1e-12))

    def test_verify_at_limit_scans_past_it(self, params):
        # the exact-root scan runs to mu_max + epsilon, past 1e6
        report = verify_localization(params, 0.35, 1e6 - 20.0, 1e6)
        assert report.pairings
        assert all(p.status is PairingStatus.PairedUnique for p in report.pairings)
        roots = scan_roots(Target.Phi, params, 1e6 - 1.0, 1e6 + 3.0, default_step(params))
        assert roots and roots[-1].mu > 1e6

    def test_bounded_rss_to_mu_1e5(self, tmp_path):
        # the whole-grid scan peaked near 586 MB here; blocks keep it flat
        code = (
            "import math, resource\n"
            "from shakerbeam import BeamParameters, Target, scan_roots\n"
            "p = BeamParameters(youngs_modulus=6.9e10, second_moment=1.6875e-10,"
            " linear_density=0.6075, length=1.905, attachment_point=1.4,"
            " shaker_mass=0.1, spring_stiffness=7000.0)\n"
            "roots = scan_roots(Target.Phi, p, 0.1, 1e5, math.pi / (80.0 * p.length))\n"
            "print(len(roots), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        # Linux carries ru_maxrss across exec, so a child started from this
        # (large) test process would report this process's peak: start it
        # from a small launcher process instead
        launcher = (
            "import subprocess, sys\n"
            "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n"
        )
        src = os.path.dirname(os.path.dirname(shakerbeam.roots.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", launcher, code], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        count, maxrss = map(int, run.stdout.split())
        assert count == 60638
        scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB on Linux
        assert maxrss * scale < 100e6


class TestRows:
    """``Root`` and ``RootPairing`` are named tuples: fields by name and
    position, keyword construction, and no assignment."""

    def test_root(self, exact_roots):
        assert Root._fields == ("mu", "residual", "bracket", "iterations", "target", "degenerate")
        assert Root._field_defaults == {"degenerate": False}
        root = Root(mu=2.5, residual=1e-12, bracket=(2.4, 2.6), iterations=7, target=Target.Phi)
        assert root == (2.5, 1e-12, (2.4, 2.6), 7, Target.Phi, False)
        assert (root.mu, root.bracket, root.degenerate) == (2.5, (2.4, 2.6), False)
        with pytest.raises(AttributeError):
            root.mu = 3.0
        first = exact_roots[0]
        assert type(first) is Root and first == Root(*first)
        assert all(type(v) is t for v, t in zip(first, (float, float, tuple, int, Target, bool)))

    def test_root_pairing(self, params):
        assert RootPairing._fields == ("truncated_root", "exact_root", "distance", "epsilon", "status")
        assert RootPairing._field_defaults == {}
        row = RootPairing(
            truncated_root=16.0,
            exact_root=None,
            distance=None,
            epsilon=0.35,
            status=PairingStatus.NoExactRootInNeighborhood,
        )
        assert row == (16.0, None, None, 0.35, PairingStatus.NoExactRootInNeighborhood)
        with pytest.raises(AttributeError):
            row.status = PairingStatus.PairedUnique
        report = verify_localization(params, 0.35, 15.0, 38.5)
        assert report.pairings and all(type(p) is RootPairing for p in report.pairings)
        assert all(p.status is PairingStatus.PairedUnique and p.distance < 0.35 for p in report.pairings)


class TestClosedFormHalf:
    def test_first_four_for_l_two(self):
        vals = closed_form_roots_half(2.0, 4)
        expected = [math.pi / 4, math.pi, 5 * math.pi / 4, 2 * math.pi]
        assert vals == pytest.approx(expected, rel=1e-15)

    def test_are_roots_of_phi0(self):
        l = 2.0
        for mu in closed_form_roots_half(l, 40):
            assert abs(phi0(mu, l, l / 2)) <= 1e-12 * max(1.0, mu)

    def test_gap_pattern_quarters_of_pi(self):
        l = 2.0
        vals = closed_form_roots_half(l, 9)
        gaps = np.diff(vals)
        # gaps alternate 3pi/4l * ... pattern: (pi - pi/4), (5pi/4 - pi), ...
        expected = [3 * math.pi / 4, math.pi / 4] * 4
        assert gaps == pytest.approx(expected[: len(gaps)], rel=1e-12)

    def test_scan_recovers_closed_form(self, half_params):
        l = half_params.length
        closed = closed_form_roots_half(l, 12)
        scanned = scan_roots(
            Target.Phi0, half_params, 0.05, closed[-1] + 0.2, math.pi / (80.0 * l)
        )
        assert len(scanned) == len(closed)
        for root, ref in zip(scanned, closed):
            assert abs(root.mu - ref) <= 1e-9


class TestRationalRatio:
    def test_default_geometry(self, params):
        assert detect_rational_ratio(params.length, params.attachment_point) == (280, 381)

    def test_midspan(self):
        assert detect_rational_ratio(2.0, 1.0) == (1, 2)

    def test_irrational(self):
        assert detect_rational_ratio(1.0, 1.0 / math.sqrt(2.0)) is None


class TestVerifyLocalization:
    def test_default_threshold_fails(self, params):
        # One truncated root near 14.018 has no exact partner within 0.35,
        # so the strict verdict is negative for M = 10.
        report = verify_localization(params, 0.35, 10.0, 38.5)
        assert report.verdict is False
        unmatched = [
            p
            for p in report.pairings
            if p.status is PairingStatus.NoExactRootInNeighborhood
        ]
        assert len(unmatched) == 1
        assert unmatched[0].truncated_root == pytest.approx(14.0177155, abs=1e-4)
        assert report.stray_roots == pytest.approx([14.50062], abs=1e-4)

    def test_higher_threshold_passes(self, params):
        report = verify_localization(params, 0.35, 15.0, 38.5)
        assert report.verdict is True
        assert report.warning is None
        assert all(p.status is PairingStatus.PairedUnique for p in report.pairings)
        assert not report.stray_roots
        assert len(report.pairings) == 14

    def test_tiny_epsilon_fails(self, params):
        report = verify_localization(params, 0.01, 10.0, 38.5)
        assert report.verdict is False

    def test_threshold_zero_sees_low_frequency_anomalies(self, params):
        report = verify_localization(params, 0.35, 0.5, 38.5)
        assert report.verdict is False
        unmatched = [
            p.truncated_root
            for p in report.pairings
            if p.status is PairingStatus.NoExactRootInNeighborhood
        ]
        assert any(abs(t - 0.99485153) < 1e-4 for t in unmatched)
        assert any(abs(s - 5.6182439) < 1e-4 for s in report.stray_roots)

    def test_epsilon_overlap_precondition(self, params, monkeypatch):
        # the precondition is checked on the anchors, the phi0 scan's roots,
        # before the exact scan
        targets = []
        scan = shakerbeam.roots._scan

        def spy(target, *args):
            targets.append(target)
            return scan(target, *args)

        monkeypatch.setattr(shakerbeam.roots, "_scan", spy)
        for epsilon, mu_max in ((0.9, 38.5), (0.5, 1e4)):
            with pytest.raises(LocalizationPreconditionError, match="half the minimum"):
                verify_localization(params, epsilon, 10.0, mu_max)
        assert targets == [Target.Phi0, Target.Phi0]

    def test_nonpositive_epsilon_precondition(self, params):
        with pytest.raises(LocalizationPreconditionError):
            verify_localization(params, 0.0, 10.0, 38.5)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_non_finite_epsilon_precondition(self, params, epsilon):
        with pytest.raises(LocalizationPreconditionError):
            verify_localization(params, epsilon, 10.0, 38.5)

    def test_threshold_past_window_vacuous(self, params):
        report = verify_localization(params, 0.35, 40.0, 38.5)
        assert report.verdict is True
        assert not report.pairings
        assert report.warning is not None

    def test_margins_and_ratio_populated(self, params):
        report = verify_localization(params, 0.35, 15.0, 38.5)
        assert report.rational_ratio == (280, 381)
        assert report.min_abs_phi0_complement > 0.0
        assert report.min_abs_phi0_prime_neighborhoods > 0.0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, params, threshold):
        with pytest.raises(ConfigurationError, match="threshold"):
            verify_localization(params, 0.35, threshold, 38.5)

    @staticmethod
    def _check_against_brute_force(beam, epsilon, threshold, mu_max, monkeypatch, synthetic=None):
        """Every anchor against every exact root, from the report's own scans,
        or from the arrays (truncated, exact) that synthetic gives in their place."""
        found = {}
        scan = shakerbeam.roots._scan

        def recording_scan(target, *args):
            if synthetic is None:
                result = scan(target, *args)
            else:
                result = ((synthetic[target is Target.Phi],) * 6, (np.empty(0),) * 2)
            found[target] = result[0][0]
            return result

        monkeypatch.setattr(shakerbeam.roots, "_scan", recording_scan)
        report = verify_localization(beam, epsilon, threshold, mu_max)
        truncated, exact = (found[target].tolist() for target in (Target.Phi0, Target.Phi))
        anchors = [a for a in truncated if a > threshold]
        exact = [m for m in exact if m > threshold]
        pairings = []
        for a in anchors:
            inside = [m for m in exact if abs(m - a) < epsilon]
            if not inside:
                pairings.append((a, None, None, PairingStatus.NoExactRootInNeighborhood))
                continue
            partner = min(inside, key=lambda m: abs(m - a))
            status = (
                PairingStatus.PairedUnique
                if len(inside) == 1
                else PairingStatus.MultipleExactRoots
            )
            pairings.append((a, partner, abs(partner - a), status))
        strays = tuple(
            m
            for m in exact
            if m <= mu_max and all(abs(m - a) >= epsilon for a in anchors)
        )
        verdict = not strays and all(
            p[3] is PairingStatus.PairedUnique for p in pairings
        )
        got = [
            (p.truncated_root, p.exact_root, p.distance, p.status)
            for p in report.pairings
        ]
        assert got == pairings
        assert report.stray_roots == strays
        assert report.verdict is verdict
        assert all(p.epsilon == epsilon for p in report.pairings)
        sample = np.linspace(max(threshold, 1e-6), mu_max, 4001)
        outside = sample > threshold
        for a in anchors:
            outside &= np.abs(sample - a) >= epsilon
        margin = np.min(np.abs(phi0(sample, beam.length, beam.attachment_point))[outside])
        assert report.min_abs_phi0_complement == margin
        return report

    def test_matches_brute_force_to_mu_1000(self, params, monkeypatch):
        for ratio in np.random.default_rng(5).uniform(0.1, 0.9, 5):
            beam = dataclasses.replace(params, attachment_point=ratio * params.length)
            for epsilon in (0.35, 0.05):
                self._check_against_brute_force(beam, epsilon, 15.0, 1000.0, monkeypatch)

    def test_matches_brute_force_with_multiple_roots(self, monkeypatch):
        # from mu = 0 some neighborhoods hold two exact roots: the partner is
        # the nearest, the lower one on a tie
        statuses = set()
        for beam in seeded_beams(11, 2):
            for epsilon in (0.35, 0.6):
                report = self._check_against_brute_force(beam, epsilon, 0.0, 38.5, monkeypatch)
                statuses |= {p.status for p in report.pairings}
        assert statuses == set(PairingStatus)

    def test_matches_brute_force_on_synthetic_scans(self, params, monkeypatch):
        # anchor 20 has two exact roots exactly 0.25 away, anchor 30 has none,
        # and 35.5 lies in no neighborhood; no real beam gives the tie
        truncated = np.array([4.0, 10.0, 20.0, 30.0])
        exact = np.array([3.5, 10.125, 19.75, 20.25, 35.5, 38.6])

        report = self._check_against_brute_force(params, 0.35, 5.0, 38.5, monkeypatch, (truncated, exact))
        assert [(p.exact_root, p.status) for p in report.pairings] == [
            (10.125, PairingStatus.PairedUnique),
            (19.75, PairingStatus.MultipleExactRoots),
            (None, PairingStatus.NoExactRootInNeighborhood),
        ]
        assert report.stray_roots == (35.5,) and report.verdict is False

    def test_anchors_are_the_scans_roots(self, params, half_params):
        # verify's anchors are a phi0 scan's roots above the threshold, bit for
        # bit.  Where |phi0| < 1e-13 at the top of the window (1 ulp below a
        # root, or a midspan root 2 pi m / l), the top is the root
        below = np.nextafter(_scan(Target.Phi0, params, 10.0, 38.5, default_step(params))[0][0][-1], 0.0)
        tops = [(params, 10.0, below), (half_params, 10.0, 2.0 * math.pi * 23 / half_params.length)]
        cases = [(beam, lo, hi) for beam in [params, *seeded_beams(20261018, 4)] for lo, hi in ((10.0, 38.5), (15.0, 1e4))]
        for beam, lo, hi in cases + [(half_params, 10.0, 1e4)] + tops:
            want = _scan(Target.Phi0, beam, lo, hi, default_step(beam))[0][0]
            report = verify_localization(beam, 0.05, lo, hi)
            assert [p.truncated_root for p in report.pairings] == want.tolist()
            if (beam, lo, hi) in tops:
                assert want[-1] == hi

    def test_same_after_the_callers_scans(self, params, half_params):
        # no scan leaves state behind: verify after a wide op's own scans equals verify run first
        for beam in (params, half_params):
            step = default_step(beam)
            cold = verify_localization(beam, 0.3, 15.0, 1000.0, step)
            for target in Target:
                scan_roots(target, beam, 0.1, 1000.0, step)
            assert verify_localization(beam, 0.3, 15.0, 1000.0, step) == cold

    def test_distances_shrink_with_mu(self, params):
        report = verify_localization(params, 0.45, 12.0, 38.5)
        paired = [
            p for p in report.pairings if p.status is PairingStatus.PairedUnique
        ]
        assert len(paired) >= 8
        half = len(paired) // 2
        top = max(p.distance for p in paired[half:])
        bottom = max(p.distance for p in paired[:half])
        assert top <= bottom


class TestGapPattern:
    def test_exact_gaps_stabilize(self, exact_roots):
        mus = [r.mu for r in exact_roots]
        gaps = np.diff(mus[9:])
        # above mu ~ 16 consecutive gaps differ by < 35%
        ratios = gaps[1:] / gaps[:-1]
        assert np.all(ratios > 0.65) and np.all(ratios < 1.55)

    def test_mean_gap_near_pi_over_l(self, params, exact_roots):
        mus = [r.mu for r in exact_roots]
        mean_gap = (mus[-1] - mus[9]) / (len(mus) - 10)
        assert mean_gap == pytest.approx(math.pi / params.length, rel=0.15)


class TestPairMutualNearest:
    def test_reproduces_published_layout(self, exact_roots, truncated_roots):
        rows = pair_mutual_nearest([r.mu for r in exact_roots], [r.mu for r in truncated_roots])
        exact_rows = [r for r in rows if r[0] is not None]
        assert len(exact_rows) == 23
        # row 3 is exact-only; the sub-fundamental truncated root pairs with nothing
        assert exact_rows[2][1] is None and exact_rows[2][2] == "exact_only"
        trunc_only = [r for r in rows if r[0] is None]
        assert len(trunc_only) == 1
        assert trunc_only[0][1] == pytest.approx(0.99485153, abs=1e-6)
        # the widest pair is the fifth row (7.46 vs 8.20), still mutual-nearest
        assert exact_rows[4][0] == pytest.approx(8.198128, abs=1e-5)
        assert exact_rows[4][1] == pytest.approx(7.4597768, abs=1e-5)
        assert exact_rows[4][2] == "paired"

    def test_empty_inputs(self):
        assert pair_mutual_nearest([], []) == []
        rows = pair_mutual_nearest([1.0], [])
        assert rows == [(1.0, None, "exact_only")]
        rows = pair_mutual_nearest([], [2.0])
        assert rows == [(None, 2.0, "truncated_only")]

    def test_matches_quadratic_reference(self):
        rng = random.Random(20261018)
        draws = [
            lambda: float(rng.randint(0, 20)),  # ties at equal distance, shared values
            lambda: rng.randint(0, 40) / 4.0,
            lambda: rng.uniform(0.0, 10.0),
            # seen from 1e16, neighbouring small values round to the same distance
            lambda: rng.choice([1.0, 2.0, 3.0, 5.0, 7.0, 1e16, 1e16 + 2.0]),
        ]
        for k in range(2000):
            draw = draws[k % len(draws)]
            exact = sorted(draw() for _ in range(rng.randint(0, 12)))
            truncated = sorted(draw() for _ in range(rng.randint(0, 12)))
            assert pair_mutual_nearest(exact, truncated) == pair_mutual_nearest_quadratic(
                exact, truncated
            )

    def test_long_tie_runs_match_quadratic_reference(self):
        # runs of repeated values and of values at one rounded distance make
        # the first-value walk take many steps on some lanes and none on others
        rng = random.Random(20261019)
        for _ in range(200):
            pool = [float(rng.randint(0, 6)) for _ in range(5)] + [1e16, 1e16 + 2.0, 2e16]
            exact = sorted(rng.choice(pool) for _ in range(rng.randint(0, 80)))
            shifts = [0.0, 0.5, 1.0]
            truncated = sorted(rng.choice(pool) + rng.choice(shifts) for _ in range(rng.randint(0, 80)))
            rows = pair_mutual_nearest(exact, truncated)
            assert rows == pair_mutual_nearest_quadratic(exact, truncated)
            assert all(type(v) is float for row in rows for v in row[:2] if v is not None)
