"""Acceptance checks for the solver as a whole.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all) and
then asserts.  Two of them check the paper's analytic claims:

* test 4: the closed-form determinant agrees to 1e-8 of its scale with an
  independent LU determinant of a column-equivalent, exponentially scaled
  interface matrix on random beams (an LU of the raw matrix cannot: its
  shared hyperbolic column parts cancel and leave ~1e-5 of the scale at
  mu ~ 20);
* test 6: above a threshold taken from the frozen reference roots, every
  truncated root has exactly one exact root within epsilon = 0.35 and no
  exact root strays.  The threshold lies past the pair (14.018, 14.501),
  which is 0.483 apart, so at threshold 10 the strict verdict is negative.
  The distance trend is checked on the threshold-10 pairs; it is a
  comparison of thirds of (10, 38.5], not the paper's O(1/mu) rate, which is
  not yet reached by mu = 38.5.
"""

import math
import time

import numpy as np
import pytest

from shakerbeam import (
    BeamParameters,
    PairingStatus,
    Target,
    closed_form_roots_half,
    evaluate_mode,
    pair_mutual_nearest,
    phi,
    phi0,
    phi1,
    scan_roots,
    solve_mode,
    to_spectral_point,
    verify_localization,
)
from conftest import EXACT_ROOTS_REF, TRUNCATED_ROOTS_REF
from reference import det_M_closed, det_M_oracle, det_M_scale

# Reference frequency table for the measured beam: column order is
# (mu_bar, mu, nu_bar_hz, nu_hz); None marks the cell left empty because the
# truncated equation has no partner root there.
REFERENCE_TABLE = [
    (2.616, 2.552, 4.767, 4.537),
    (4.714, 4.573, 15.485, 14.570),
    (None, 5.618, None, 21.994),
    (6.553, 6.608, 29.921, 30.427),
    (7.460, 8.198, 38.774, 46.830),
    (9.309, 9.721, 60.378, 65.850),
    (11.407, 11.494, 90.661, 92.061),
    (13.013, 13.142, 117.997, 120.342),
    (14.018, 14.501, 136.914, 146.510),
    (16.009, 16.226, 178.565, 183.445),
    (18.085, 18.113, 227.881, 228.610),
    (20.648, 20.988, 297.075, 306.918),
    (22.711, 22.846, 359.376, 363.683),
    (24.732, 24.734, 426.184, 426.273),
    (25.803, 26.084, 463.925, 474.083),
    (27.318, 27.554, 519.992, 528.997),
    (29.411, 29.497, 602.735, 606.252),
    (31.318, 31.325, 683.413, 683.723),
    (32.238, 32.533, 724.138, 737.484),
    (34.007, 34.172, 805.799, 813.665),
    (36.107, 36.158, 908.419, 910.975),
    (37.814, 37.863, 996.296, 998.922),
]

MU_TOL = 0.005
NU_TOL = 0.05


def check(ok: bool, label: str) -> None:
    print(f"acceptance {'PASS' if ok else 'FAIL'}: {label}", flush=True)
    assert ok, label


def step_for(params: BeamParameters) -> float:
    return math.pi / (80.0 * params.length)


def match(value: float, pool: list, tol: float) -> bool:
    return any(abs(value - x) <= tol for x in pool)


def test_1_reference_frequency_table_reproduced(params):
    t0 = time.monotonic()
    exact = [r.mu for r in scan_roots(Target.Phi, params, 0.1, 38.5, step_for(params))]
    trunc = [r.mu for r in scan_roots(Target.Phi0, params, 0.1, 38.5, step_for(params))]
    elapsed = time.monotonic() - t0
    nus_exact = [to_spectral_point(m, params).nu for m in exact]
    nus_trunc = [to_spectral_point(m, params).nu for m in trunc]
    missing = []
    for mu_bar, mu, nu_bar, nu in REFERENCE_TABLE:
        if not match(mu, exact, MU_TOL) or not match(nu, nus_exact, NU_TOL):
            missing.append(("exact", mu))
        if mu_bar is not None and (
            not match(mu_bar, trunc, MU_TOL) or not match(nu_bar, nus_trunc, NU_TOL)
        ):
            missing.append(("truncated", mu_bar))
    ok = not missing and elapsed < 5.0
    check(
        ok,
        f"all 22 exact and 21 truncated reference roots reproduced to +-{MU_TOL} "
        f"(frequencies to +-{NU_TOL} Hz) in {elapsed:.2f}s"
        + (f"; unmatched: {missing}" if missing else ""),
    )


def test_2_low_frequency_anomalies(params):
    exact = [r.mu for r in scan_roots(Target.Phi, params, 0.1, 38.5, step_for(params))]
    trunc = [r.mu for r in scan_roots(Target.Phi0, params, 0.1, 38.5, step_for(params))]
    rows = pair_mutual_nearest(exact, trunc)
    sub_fundamental = [
        r for r in rows if r[0] is None and abs(r[1] - 0.9949) <= 0.001
    ]
    orphan_exact = [
        r
        for r in rows
        if r[1] is None and r[0] is not None and abs(r[0] - 5.618) <= 0.005
    ]
    ok = len(sub_fundamental) == 1 and len(orphan_exact) == 1
    check(
        ok,
        "truncated equation has an unpartnered root at 0.9949 +- 0.001 and the "
        "exact equation an unpartnered root at 5.618 +- 0.005",
    )


def test_3_midspan_closed_form_roots():
    params = BeamParameters(6.9e10, 1.6875e-10, 0.6075, 2.0, 1.0, 0.1, 7000.0)
    closed = closed_form_roots_half(params.length, 40)
    scanned = scan_roots(
        Target.Phi0, params, 0.05, closed[-1] + 0.3, step_for(params)
    )
    mus = [r.mu for r in scanned]
    ok = len(mus) >= 40 and all(
        abs(mus[i] - closed[i]) <= 1e-9 for i in range(40)
    )
    worst = max(abs(mus[i] - closed[i]) for i in range(min(40, len(mus))))
    check(ok, f"first 40 midspan truncated roots match closed form, worst gap {worst:.2e}")


def test_4_determinant_forms_agree_across_random_parameters():
    rng = np.random.default_rng(20260814)
    grid = np.linspace(0.1, 20.0, 200)
    worst = 0.0
    worst_at = None
    for _ in range(20):
        l = rng.uniform(0.5, 2.5)
        l0 = l * rng.uniform(0.4, 0.6)
        ei = 10.0 ** rng.uniform(0.0, 2.0)
        p = BeamParameters(
            youngs_modulus=ei,
            second_moment=1.0,
            linear_density=10.0 ** rng.uniform(-1.0, 1.0),
            length=l,
            attachment_point=l0,
            shaker_mass=10.0 ** rng.uniform(-2.0, 0.0),
            spring_stiffness=10.0 ** rng.uniform(2.0, 5.0),
        )
        for mu in grid:
            rel = abs(det_M_closed(mu, p) - det_M_oracle(mu, p)) / det_M_scale(mu, p)
            if rel > worst:
                worst, worst_at = rel, (mu, l)
    check(
        worst <= 1e-8,
        f"closed-form and 4x4-determinant evaluations agree to 1e-8 relative "
        f"on 200-point grids for 20 random parameter sets (worst {worst:.2e} at "
        f"mu={worst_at[0]:.3g}, l={worst_at[1]:.3g})",
    )


def test_5_exponential_prefactor_identity(params):
    l, l0 = params.length, params.attachment_point
    worst = 0.0
    for mu in np.linspace(0.11, 360.0, 2000):
        lhs = det_M_closed(mu, params)
        growth = params.shaker_mass * math.exp(mu * l) / (8.0 * params.linear_density * mu)
        rhs = growth * phi(mu, params)
        envelope = growth * (abs(phi0(mu, l, l0)) + abs(phi1(mu, params)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), envelope))
    check(
        worst <= 1e-8,
        f"determinant equals its exponential-prefactor factorization to 1e-8 "
        f"relative over the representable range (worst {worst:.2e})",
    )


def test_6_root_localization_above_threshold(params):
    # The threshold lies midway between the larger root of the last reference
    # pair above 10 that is at least epsilon apart and the next truncated root.
    eps = 0.35
    pairs = [
        (t, min(EXACT_ROOTS_REF, key=lambda e: abs(e - t)))
        for t in TRUNCATED_ROOTS_REF
        if t > 10.0
    ]
    last_far = max(max(pair) for pair in pairs if abs(pair[0] - pair[1]) >= eps)
    next_truncated = min(t for t in TRUNCATED_ROOTS_REF if t > last_far)
    threshold = 0.5 * (last_far + next_truncated)
    report = verify_localization(params, eps, threshold, 38.5)
    trend_report = verify_localization(params, eps, 10.0, 38.5)
    paired = [
        p for p in trend_report.pairings if p.status is PairingStatus.PairedUnique
    ]
    lo, hi = 10.0, 38.5
    third = (hi - lo) / 3.0
    middle = [p.distance for p in paired if lo + third < p.truncated_root <= lo + 2 * third]
    top = [p.distance for p in paired if p.truncated_root > lo + 2 * third]
    shrinking = bool(middle and top and max(top) <= max(middle))
    ok = report.verdict is True and shrinking
    unmatched = [
        p.truncated_root
        for p in report.pairings
        if p.status is not PairingStatus.PairedUnique
    ]
    check(
        ok,
        f"every truncated root above {threshold:.4g} (past the reference pair "
        f"{last_far:.4g} that is {eps} or more apart) pairs uniquely within {eps} "
        f"with no strays (verdict {report.verdict}, unpartnered at {unmatched}, "
        f"strays {list(report.stray_roots)}) and pairing distances above 10 "
        f"shrink with mu (top third {max(top):.3f} <= middle third "
        f"{max(middle):.3f}: {shrinking})",
    )


def test_7_mode_interface_physics(params):
    roots = scan_roots(Target.Phi, params, 0.1, 38.5, step_for(params))
    l0 = params.attachment_point
    rng = np.random.default_rng(11)
    ok = True
    worst_note = ""
    for root in roots:
        mode = solve_mode(root, params)
        omega = to_spectral_point(mode.mu, params).omega
        scale = max(abs(evaluate_mode(mode, x)) for x in (0.3, l0, 1.7))
        for der in (0, 1, 2):
            left = evaluate_mode(mode, l0 - 1e-9, der)
            right = evaluate_mode(mode, l0 + 1e-9, der)
            rel = abs(left - right) / max(abs(left), abs(right), scale * mode.mu**der)
            if rel >= 1e-6:
                ok, worst_note = False, f"continuity u^({der}) rel {rel:.2e} at mu={mode.mu:.3f}"
        jump = evaluate_mode(mode, l0 - 1e-12, 3) - evaluate_mode(mode, l0 + 1e-12, 3)
        lhs = params.flexural_rigidity * jump
        rhs = (params.spring_stiffness - params.shaker_mass * omega**2) * mode.attachment[0]
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        if rel >= 1e-6:
            ok, worst_note = False, f"force balance rel {rel:.2e} at mu={mode.mu:.3f}"
        h = 0.01 / mode.mu
        for x in rng.uniform(4 * h, params.length - 4 * h, 3):
            if abs(x - l0) < 4 * h:
                continue
            u = [evaluate_mode(mode, x + k * h) for k in (-2, -1, 0, 1, 2)]
            u4 = (u[0] - 4 * u[1] + 6 * u[2] - 4 * u[3] + u[4]) / h**4
            target = mode.mu**4 * u[2]
            rel = abs(u4 - target) / max(abs(target), mode.mu**4 * scale * 1e-3)
            if rel >= 1e-3:
                ok, worst_note = False, f"ODE residual rel {rel:.2e} at mu={mode.mu:.3f}"
    check(
        ok,
        "all computed modes satisfy interface continuity (1e-6), the "
        "attachment force balance (1e-6), and the beam equation "
        "(finite-difference, 1e-3)" + (f"; first failure: {worst_note}" if worst_note else ""),
    )


def test_8_overflow_robust_scanning(params):
    finite = all(math.isfinite(phi(mu, params)) for mu in (100.0, 500.0, 1e4, 1e6))
    roots = scan_roots(Target.Phi, params, 450.0, 500.0, step_for(params))
    mus = [r.mu for r in roots]
    gaps = np.diff(mus)
    mean_gap = float(np.mean(gaps))
    pattern = bool(
        len(mus) >= 20
        and np.all(gaps > 0.3 * mean_gap)
        and np.all(gaps < 3.0 * mean_gap)
        and abs(mean_gap - math.pi / params.length) < 0.3 * math.pi / params.length
    )
    ok = finite and pattern
    check(
        ok,
        f"scaled characteristic function stays finite to mu=1e6 and scanning "
        f"(450, 500) finds {len(mus)} roots with near-uniform gaps "
        f"(mean {mean_gap:.3f} vs pi/l {math.pi / params.length:.3f})",
    )
