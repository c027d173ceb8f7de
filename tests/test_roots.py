"""Root scanning, bracket refinement, closed-form midspan roots, and the
asymptotic localization check."""

import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
import concurrent.futures
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from shakerbeam import (
    BeamParameters,
    ConfigurationError,
    LocalizationPreconditionError,
    PairingStatus,
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
import shakerbeam.roots
import reference
from shakerbeam.roots import _refine_brackets
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
    """The scan walks its grid in blocks with a one-point halo; every block
    size and the serial and threaded paths must give the whole-grid result."""

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

    def test_serial_equals_threaded(self, half_params, monkeypatch):
        cases = [
            (target, beam, lo, hi, default_step(beam))
            for beam in seeded_beams(20261020, 3)
            for target in Target
            for lo, hi in self.SHORT + self.LONG
        ] + [self._midspan_args(half_params)]
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 512)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = [scan_with_suspects(*args) for args in cases]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert [scan_with_suspects(*args) for args in cases] == serial

    def test_block_points_equal_linspace(self, params, monkeypatch):
        # every grid point, the last one included, is the np.linspace point
        calls = []

        def record(x):
            calls.append(np.array(x))
            return np.ones_like(x)

        monkeypatch.setattr(shakerbeam.roots, "_target_fn", lambda target, p: record)
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 1000)
        step = default_step(params)
        for lo, hi in [(0.1, 38.5), (0.1, 1000.0), (15.0, 1000.35), (3.3, 7777.7)]:
            calls.clear()
            assert scan_with_suspects(Target.Phi, params, lo, hi, step) == ([], [])
            points = np.unique(np.concatenate(calls))
            assert np.array_equal(points, np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1))

    def test_worker_exception_reaches_caller(self, params, monkeypatch):
        class Boom(Exception):
            pass

        def explode(x):
            if np.any(x > 30.0):
                raise Boom("block above 30")
            return np.ones_like(x)

        monkeypatch.setattr(shakerbeam.roots, "_target_fn", lambda target, p: explode)
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(Boom, match="block above 30"):
            scan_with_suspects(Target.Phi, params, 0.1, 38.5, default_step(params))

    def test_concurrent_callers_share_one_pool(self, params, monkeypatch):
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = (Target.Phi, params, 0.1, 38.5, default_step(params))
        expected = scan_with_suspects(*args)
        created = []

        def counting_executor(*a, **kw):
            created.append(ThreadPoolExecutor(*a, **kw))
            return created[-1]

        monkeypatch.setattr(shakerbeam.roots, "_pool", None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting_executor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                scans = callers.map(lambda _: scan_with_suspects(*args), range(16), timeout=120)
                results = list(scans)
        finally:
            sys.setswitchinterval(interval)
            for pool in created:
                pool.shutdown()
        assert results == [expected] * 16
        assert len(created) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self, params, monkeypatch):
        monkeypatch.setattr(shakerbeam.roots, "_BLOCK", 256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = (Target.Phi, params, 0.1, 38.5, default_step(params))
        expected = scan_with_suspects(*args)
        assert shakerbeam.roots._pool is not None
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            ok = shakerbeam.roots._pool is None and scan_with_suspects(*args) == expected
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestWindowLimit:
    """Windows end at mu_max <= 1e6; a scan may reach 0.1% past it."""

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

    def test_matches_brute_force_to_mu_1000(self, params, monkeypatch):
        # every anchor against every exact root, from the report's own scans
        import shakerbeam.roots

        scans = []

        def recording_scan_roots(*args):
            scans.append(scan_roots(*args))
            return scans[-1]

        monkeypatch.setattr(shakerbeam.roots, "scan_roots", recording_scan_roots)
        threshold, mu_max = 15.0, 1000.0
        for ratio in np.random.default_rng(5).uniform(0.1, 0.9, 5):
            beam = dataclasses.replace(params, attachment_point=ratio * params.length)
            for epsilon in (0.35, 0.05):
                scans.clear()
                report = verify_localization(beam, epsilon, threshold, mu_max)
                truncated, exact = ([r.mu for r in roots] for roots in scans)
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
                sample = np.linspace(threshold, mu_max, 4001)
                outside = sample > threshold
                for a in anchors:
                    outside &= np.abs(sample - a) >= epsilon
                margin = np.min(np.abs(phi0(sample, beam.length, beam.attachment_point))[outside])
                assert report.min_abs_phi0_complement == margin

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
