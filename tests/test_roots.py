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
from shakerbeam.roots import _mu_star, _refine_brackets, _scan
from conftest import EXACT_ROOTS_REF, TRUNCATED_ROOTS_REF, clear_half_period_table, default_step, seeded_beams
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

    def test_bracket_contains_root_with_sign_change(self, params, exact_roots):
        for root in exact_roots:
            lo, hi = root.bracket
            assert lo < root.mu < hi
            assert hi - lo <= 1e-9
            assert phi(lo, params) * phi(hi, params) <= 0.0

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
        # 2 pi / l lies on this grid and phi0 there evaluates below the
        # grid-zero threshold: reported as a degenerate (zero-width) bracket
        l = half_params.length
        step = math.pi / (8.0 * l)
        roots = scan_roots(Target.Phi0, half_params, step, 4.0 * math.pi / l, step)
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

        for module in (shakerbeam.roots, reference):
            monkeypatch.setattr(module, "_target_fn", lambda target, p: near_double)
        beam = dataclasses.replace(params, length=0.5, attachment_point=0.2)
        args = (Target.Phi, beam, 0.5, 20.5, 1.0)
        roots, suspects = scan_with_suspects(*args)
        assert (roots, suspects) == reference.scan_with_suspects_scalar(*args)
        assert [r.mu for r in roots] == pytest.approx([a, b], abs=1e-12)
        assert not any(r.degenerate for r in roots)
        assert suspects == []


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
        # the same arithmetic per bracket: equal Root tuples and suspects, not
        # just close ones
        windows = [(0.1, 38.5), (0.1, 1000.0), (15.0, 1000.35), (450.0, 500.0)]
        for beam in seeded_beams(20261018, 20):
            step = default_step(beam)
            for target in Target:
                for lo, hi in windows:
                    assert scan_with_suspects(target, beam, lo, hi, step) == (
                        scan_with_suspects_scalar(target, beam, lo, hi, step)
                    )
        # midspan phi0 with 2 pi / l on the grid: a degenerate hit to dedup
        step = math.pi / (8.0 * half_params.length)
        args = (Target.Phi0, half_params, step, 32.0 * step, step)
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
        return (Target.Phi0, half_params, step, 32.0 * step, step)

    def test_block_sizes_equal_default(self, half_params, monkeypatch):
        beams = seeded_beams(20261018, 2)
        cases = [
            (target, beam, lo, hi, default_step(beam))
            for beam in beams
            for target in Target
            for lo, hi in self.SHORT + self.LONG
        ] + [self._midspan_args(half_params)]
        expected = [scan_with_suspects(*args) for args in cases]
        assert any(r.degenerate for r in expected[-1][0])
        for block in (1, 2, 3, 7, 64):
            monkeypatch.setattr(shakerbeam.roots, "_BLOCK", block)
            for args, want in zip(cases, expected):
                # tiny blocks on the long windows cost seconds and add nothing
                if block < 64 and args[3] - args[2] > 100.0:
                    continue
                assert scan_with_suspects(*args) == want

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 8, 64])
    def test_features_on_block_edges(self, params, monkeypatch, block):
        beam = dataclasses.replace(params, length=0.5, attachment_point=0.2)
        for module in (shakerbeam.roots, reference):
            monkeypatch.setattr(module, "_target_fn", lambda target, p: _edge_features)
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

        monkeypatch.setattr(shakerbeam.roots, "_target_fn", lambda target, p: record)
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

        monkeypatch.setattr(shakerbeam.roots, "_target_fn", lambda target, p: explode)
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

        monkeypatch.setattr(shakerbeam.roots, "_target_fn", lambda target, p: sine)
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
        # change sign exactly once in each, from mu* to 1e4 and from 9e4 to 1e5
        beams = seeded_beams(20261026, 3) + [
            dataclasses.replace(params, attachment_point=r * params.length) for r in np.linspace(0.05, 0.95, 10)
        ]
        for beam in beams:
            l, l0 = beam.length, beam.attachment_point
            first = round(_mu_star(beam, 1e5) * l / math.pi - 0.25)
            for lo, hi in ((first, 1e4 * l / math.pi - 1.25), (9e4 * l / math.pi, 1e5 * l / math.pi - 1.25)):
                x = (np.arange(math.ceil(lo), math.floor(hi) + 1)[:, None] + 0.25 + np.arange(81) / 80.0) * (
                    math.pi / l
                )
                for values in (phi(x, beam), phi0(x, l, l0)):
                    sign = np.sign(values)
                    assert np.all(np.count_nonzero(sign[:, 1:] != sign[:, :-1], axis=1) == 1)

    def test_equals_grid_scan_to_mu_1e5(self, params, half_params, monkeypatch):
        # the same roots as the whole grid gives: bit for bit below mu*, within
        # the Brent tolerance above it
        for beam in (params, half_params):
            mu_star = _mu_star(beam, 1e5)
            args = [(target, beam, 0.1, 1e5, default_step(beam)) for target in Target]
            closed = [_scan(*a) for a in args]
            with monkeypatch.context() as m:
                _grid_only(m)
                grid = [_scan(*a) for a in args]
            for (roots, suspects), (want, want_suspects) in zip(closed, grid):
                assert roots[0].size == want[0].size > 60_000
                assert suspects[0].size == want_suspects[0].size == 0
                below = want[0] < mu_star
                assert 0 < np.count_nonzero(below) < 80
                for column, want_column in zip(roots, want):
                    assert np.array_equal(column[below], want_column[below])
                assert np.max(np.abs(roots[0] - want[0])) <= shakerbeam.roots._BRACKET_TOL

    def test_exact_zero_at_window_top(self, half_params, monkeypatch):
        # midspan phi0 vanishes at 2 pi m / l: with mu_max there, the last
        # partial half-period has no sign change and mu_max is a grid-zero hit,
        # as on the whole grid
        step = default_step(half_params)
        for m in (23, 100):
            top = 2.0 * math.pi * m / half_params.length
            roots, _ = _scan(Target.Phi0, half_params, 0.1, top, step)
            with monkeypatch.context() as mp:
                _grid_only(mp)
                want, _ = _scan(Target.Phi0, half_params, 0.1, top, step)
            assert roots[0].size == want[0].size == 2 * m
            assert roots[0][-1] == want[0][-1] == top and roots[5][-1] and want[5][-1]

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


    def test_mu_star_cached(self, params, monkeypatch):
        calls = []
        certified = shakerbeam.roots._certified

        def counting(k, beam):
            calls.append(k)
            return certified(k, beam)

        monkeypatch.setattr(shakerbeam.roots, "_certified", counting)
        first = _mu_star(params, 1000.0)
        assert calls
        calls.clear()
        assert _mu_star(params, 1000.0) == first
        assert not calls


def _scan_bits(scan) -> list:
    """The bytes and dtype of every column of a ``_scan`` result, suspects included."""
    roots, suspects = scan
    return [(column.dtype, column.tobytes()) for column in (*roots, *suspects)]


def _spy_refinement(monkeypatch) -> list:
    """Record the brackets (a, b) and the lane tags of every ``_refine_brackets`` call."""
    calls = []
    refine = shakerbeam.roots._refine_brackets

    def spy(f, a, fa, b, fb, lanes=None):
        calls.append((a, b, lanes))
        return refine(f, a, fa, b, fb, lanes)

    monkeypatch.setattr(shakerbeam.roots, "_refine_brackets", spy)
    return calls


def _half_periods(a, b, l) -> tuple:
    """(k, full): k = rint(a l/pi - 1/4) of each bracket (a, b), and whether it
    is the full half-period between the edges mu_k and mu_{k+1}."""
    k = np.round(a * l / math.pi - 0.25)
    return k, ((k + 0.25) * (math.pi / l) == a) & ((k + 1.25) * (math.pi / l) == b)


def _lanes(calls) -> list:
    return [a.size for a, _, _ in calls]


def _cold_scan(*args):
    clear_half_period_table()
    return _scan(*args)


class TestHalfPeriodTable:
    """A scan above mu* takes from the table the full half-periods that the
    last scan of the same beam and target refined; the roots stay bit for bit
    those of a cold scan."""

    # a wide op: the caller's two scans, then verify's Phi0 and Phi scans
    WIDE_OP = [
        (Target.Phi, 0.1, 1000.0),
        (Target.Phi0, 0.1, 1000.0),
        (Target.Phi0, 15.0, 1000.0),
        (Target.Phi, 15.0, 1000.35),
    ]

    # later windows above mu*: inside the stored k range, ending beyond it, and past it
    LATER = [
        (Target.Phi, 0.1, 1000.0),
        (Target.Phi, 500.0, 1000.35),
        (Target.Phi, 700.0, 1500.0),
        (Target.Phi0, 0.1, 1000.0),
        (Target.Phi0, 999.0, 1200.0),
        (Target.Phi0, 1300.0, 1400.0),
    ]

    @staticmethod
    def _beams(params):
        ratios = (0.05, 0.3, 0.5, 0.77, 0.95)
        return [dataclasses.replace(params, attachment_point=r * params.length) for r in ratios]

    def test_warm_scans_equal_cold(self, params, monkeypatch):
        calls = _spy_refinement(monkeypatch)
        tables = shakerbeam.roots._HALF_PERIODS
        classes = {Target.Phi: shakerbeam.roots._Phi, Target.Phi0: shakerbeam.roots._Phi0}
        for beam in self._beams(params):
            l, step = beam.length, default_step(beam)
            for windows in (self.WIDE_OP, self.LATER):
                calls.clear()
                cold = [_scan_bits(_cold_scan(target, beam, lo, hi, step)) for target, lo, hi in windows]
                cold_calls, cold_lanes = list(calls), _lanes(calls)
                calls.clear()
                clear_half_period_table()
                warm, taken = [], []
                for (target, lo, hi), (a, b, _) in zip(windows, cold_calls):
                    entry = tables[classes[target]]
                    warm.append(_scan_bits(_scan(target, beam, lo, hi, step)))
                    # exactly the cold lanes outside the stored k range are refined
                    k, full = _half_periods(a, b, l)
                    stored = np.zeros(a.size, dtype=bool)
                    if entry is not None:
                        _, k0, ends, _ = entry
                        stored = full & (k0 <= k) & (k < k0 + ends.size - 1)
                    assert np.array_equal(calls[-1][0], a[~stored])
                    taken.append(np.count_nonzero(stored))
                assert warm == cold
                lanes = _lanes(calls)
                if windows is self.WIDE_OP:
                    # verify's scans took most of their brackets from the table
                    assert lanes[:2] == cold_lanes[:2] and sum(lanes[2:]) < sum(cold_lanes[2:]) / 2
                else:
                    # a window above mu* inside the stored range takes its full half-periods at an offset
                    assert taken[1] > 200 and lanes[1] <= 3 and taken[2] > 100

    def test_verify_refines_no_full_half_period(self, params, monkeypatch):
        calls = _spy_refinement(monkeypatch)
        for beam in self._beams(params):
            l, step = beam.length, default_step(beam)
            for target in Target:
                _scan(target, beam, 0.1, 1000.0, step)
            calls.clear()
            verify_localization(beam, 0.35, 15.0, 1000.0, step)
            # one batch refines both scans: Phi0's lanes (tag 0), then Phi's (tag 1)
            [(a, b, job)] = calls
            assert np.all(np.diff(job) >= 0) and set(job.tolist()) == {0, 1}
            for target in (0, 1):
                a_t, b_t = a[job == target], b[job == target]
                assert not _half_periods(a_t, b_t, l)[1].any()
                # the lanes left are the grid brackets below mu* and the partial half-periods
                assert np.count_nonzero(a_t < _mu_star(beam, 1000.0)) >= a_t.size - 2

    def test_other_beam_or_function_takes_no_lane(self, params, monkeypatch):
        step = default_step(params)
        l0 = math.nextafter(params.attachment_point, math.inf)
        nudged = dataclasses.replace(params, attachment_point=l0)
        calls = _spy_refinement(monkeypatch)
        cold = _scan_bits(_cold_scan(Target.Phi, nudged, 15.0, 1000.0, step))
        cold_lanes = _lanes(calls)
        assert cold_lanes[0] > 500
        _scan(Target.Phi, params, 0.1, 1000.0, step)
        calls.clear()
        assert _scan_bits(_scan(Target.Phi, nudged, 15.0, 1000.0, step)) == cold
        assert _lanes(calls) == cold_lanes
        # a function that is not the package's own phi or phi0, here a
        # wrapper of it, is always refined in full
        target_fn = shakerbeam.roots._target_fn
        def wrapped(target, p):
            f = target_fn(target, p)
            return lambda x: f(x)

        monkeypatch.setattr(shakerbeam.roots, "_target_fn", wrapped)
        for beam in (params, params, nudged):
            calls.clear()
            _scan(Target.Phi, beam, 15.0, 1000.0, step)
            assert _lanes(calls) == cold_lanes

    def test_changed_end_value_takes_no_lane(self, params, monkeypatch):
        # a half-period is taken only when both its end values are the stored bits
        l, step = params.length, default_step(params)
        _scan(Target.Phi0, params, 0.1, 1000.0, step)
        _, k0, ends, _ = shakerbeam.roots._HALF_PERIODS[shakerbeam.roots._Phi0]
        ends[100] = np.nextafter(ends[100], math.inf)
        calls = _spy_refinement(monkeypatch)
        _scan(Target.Phi0, params, 15.0, 1000.0, step)
        [(a, b, _)] = calls
        k, full = _half_periods(a, b, l)
        assert k[full].tolist() == [k0 + 99, k0 + 100]

    def test_table_bounded_by_block(self, params):
        l, step = params.length, default_step(params)
        tables = shakerbeam.roots._HALF_PERIODS
        _scan(Target.Phi0, params, 0.1, 1e4, step)
        _, k0, ends, (mu, _, _, lo, hi) = tables[shakerbeam.roots._Phi0]
        assert 5900 < mu.size <= shakerbeam.roots._BLOCK and ends.size == mu.size + 1
        # the stored roots lie in the consecutive half-periods k0, k0 + 1, ...,
        # and ends holds phi0 at their edges
        k = k0 + np.arange(mu.size)
        for column in (mu, lo, hi):
            assert np.array_equal(np.floor(column * l / math.pi - 0.25), k)
        edges = (k0 + np.arange(ends.size) + 0.25) * (math.pi / l)
        assert np.array_equal(ends, phi0(edges, l, params.attachment_point))
        _scan(Target.Phi0, params, 0.1, 1.5e4, step)  # about 9,000 half-periods
        assert tables[shakerbeam.roots._Phi0] is None
        _scan(Target.Phi0, params, 0.1, 1000.0, step)
        _scan(Target.Phi0, params, 500.0, 501.0, step)  # no full half-period
        assert tables[shakerbeam.roots._Phi0] is None

    def test_concurrent_beams_get_cold_results(self, params):
        beams = self._beams(params)
        step = default_step(params)
        windows = [(0.1, 1000.0), (15.0, 1000.35)]
        jobs = [(target, beam, lo, hi) for beam in beams for target in Target for lo, hi in windows]
        cold = {job: _scan_bits(_cold_scan(*job[:2], *job[2:], step)) for job in jobs}

        def run(job):
            return _scan_bits(_scan(*job[:2], *job[2:], step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                results = list(callers.map(run, jobs * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [cold[job] for job in jobs * 3]


class TestFusedPair:
    """``verify_localization`` and the CLI's ``roots`` and ``growth`` refine
    their Phi and Phi0 scans in one Brent batch; each scan stays bit for bit
    the one it gives alone."""

    @staticmethod
    def _record(monkeypatch) -> list:
        """Record (beam, step, jobs, bits of each job's scan) of every ``_scan_jobs`` call."""
        calls = []
        scan_jobs = shakerbeam.roots._scan_jobs

        def recording(beam, step, jobs):
            found = scan_jobs(beam, step, jobs)
            calls.append((beam, step, jobs, [_scan_bits(scan) for scan in found]))
            return found

        monkeypatch.setattr(shakerbeam.roots, "_scan_jobs", recording)
        monkeypatch.setattr(shakerbeam.cli, "_scan_jobs", recording)
        return calls

    def test_pairs_equal_single_scans(self, params, half_params, monkeypatch):
        # shipped windows below mu*, and windows to mu = 1000 whose verify
        # pair runs cold and warm: after the caller's pair filled the tables
        shipped = {id(params): (38.5, 0.35), id(half_params): (32.0, 0.3)}
        beams = [params, half_params] + TestHalfPeriodTable._beams(params)
        calls = self._record(monkeypatch)
        for beam in beams:
            step = default_step(beam)
            config = dataclasses.replace(shakerbeam.cli.load_config(), params=beam, step=step)
            for mu_max, epsilon in [shipped.get(id(beam), (38.5, 0.35)), (1000.0, 0.35)]:
                clear_half_period_table()
                verify_localization(beam, epsilon, 15.0, mu_max, step)  # cold
                shakerbeam.cli._scan_pair(dataclasses.replace(config, mu_max=mu_max))
                verify_localization(beam, epsilon, 10.0, mu_max, step)  # warm above mu*
        monkeypatch.undo()
        assert [len(jobs) for _, _, jobs, _ in calls] == [2] * 6 * len(beams)
        for beam, step, jobs, bits in calls:
            assert {target for target, _, _ in jobs} == set(Target)
            for (target, lo, hi), want in zip(jobs, bits):
                assert _scan_bits(_cold_scan(target, beam, lo, hi, step)) == want

    def test_split_batch_equals_one_batch(self, params, monkeypatch):
        # about 12,000 lanes to mu = 1e4: split at _BLOCK lanes, at 100 lanes
        # (which also makes 100-point grid blocks), and in one batch
        step = default_step(params)
        jobs = [(Target.Phi0, 15.0, 1e4), (Target.Phi, 15.0, 1e4 + 0.35)]
        calls = _spy_refinement(monkeypatch)
        want = [_scan_bits(scan) for scan in shakerbeam.roots._scan_jobs(params, step, jobs)]
        lanes = sum(_lanes(calls))
        assert _lanes(calls) == [shakerbeam.roots._BLOCK, lanes - shakerbeam.roots._BLOCK]
        for block, chunks in ((100, math.ceil(lanes / 100)), (2**14, 1)):
            clear_half_period_table()
            calls.clear()
            monkeypatch.setattr(shakerbeam.roots, "_BLOCK", block)
            found = shakerbeam.roots._scan_jobs(params, step, jobs)
            assert len(calls) == chunks and sum(_lanes(calls)) == lanes
            assert [_scan_bits(scan) for scan in found] == want

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
        # the window lies above mu* = 107.6: its brackets are the edges, whatever the step
        fine = _scan_bits(_scan(Target.Phi0, params, 200.0, 1e4, 2e-6))
        clear_half_period_table()
        assert fine == _scan_bits(_scan(Target.Phi0, params, 200.0, 1e4, default_step(params)))
        for mu_min, mu_max, step in ((0.1, 1e4, 2e-8), (200.0, 1e4, 5e-324)):
            with pytest.raises(ConfigurationError, match="too fine"):
                _scan(Target.Phi0, params, mu_min, mu_max, step)

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

    def test_epsilon_overlap_precondition(self, params):
        with pytest.raises(LocalizationPreconditionError, match="half the minimum"):
            verify_localization(params, 0.9, 10.0, 38.5)

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
    def _check_against_brute_force(beam, epsilon, threshold, mu_max, monkeypatch, scan_jobs=None):
        """Every anchor against every exact root, from the report's own scans,
        which scan_jobs gives in place of ``_scan_jobs`` when it is set."""
        scans = []
        scan_jobs = scan_jobs or shakerbeam.roots._scan_jobs

        def recording_scan(*args):
            scans.extend(scan_jobs(*args))
            return scans[-2:]

        monkeypatch.setattr(shakerbeam.roots, "_scan_jobs", recording_scan)
        report = verify_localization(beam, epsilon, threshold, mu_max)
        truncated, exact = (found[0][0].tolist() for found in scans)
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

        def synthetic(beam, step, jobs):
            assert [target for target, _, _ in jobs] == [Target.Phi0, Target.Phi]
            empty = np.empty(0)
            return [((mu, mu, mu, mu, mu, mu), (empty, empty)) for mu in (truncated, exact)]

        report = self._check_against_brute_force(params, 0.35, 5.0, 38.5, monkeypatch, synthetic)
        assert [(p.exact_root, p.status) for p in report.pairings] == [
            (10.125, PairingStatus.PairedUnique),
            (19.75, PairingStatus.MultipleExactRoots),
            (None, PairingStatus.NoExactRootInNeighborhood),
        ]
        assert report.stray_roots == (35.5,) and report.verdict is False

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
