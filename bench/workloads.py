"""The two benchmark workloads.

Each workload prepares its inputs from a seed, runs one op (one user request)
through the package's public entry points, and checks the op's outputs after
the op's timer has stopped.  ``check`` returns a list of problems; an empty
list means the op's outputs are correct.

The attachment points that vary across ``wide`` ops follow a golden-ratio
sequence with a seeded offset: every run covers the whole input range evenly,
so runs with different seeds measure the same mix of work.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import tempfile

import numpy as np

import shakerbeam
import shakerbeam.cli

import reference

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_EPS = float(np.finfo(float).eps)
# per-layer figures of the CLI for workloads that do not run it
_NO_CLI = {"cli.bytes_written": 0.0, "cli.artifacts_mismatched": 0}


def _sequence(u0: float, k: int) -> float:
    """k-th point of the rotated golden-ratio sequence in [0, 1)."""
    return (u0 + k * _GOLDEN) % 1.0


def load_shipped_config(root: str, name: str):
    """The RunConfig of configs/<name>.cfg, parsed by the package itself."""
    return shakerbeam.cli.load_config(os.path.join(root, "configs", f"{name}.cfg"))


def pairing_problems(pairings, strays, verdict, epsilon, threshold) -> list:
    """Internal consistency of a localization report.

    pairings are (truncated, exact or None, distance or None, status) tuples.
    Distances may be rounded to 9 significant digits.
    """
    problems = []
    anchors = [p[0] for p in pairings]
    if anchors != sorted(anchors) or any(a <= threshold for a in anchors):
        problems.append("anchors not sorted above the threshold")
    for trunc, exact, dist, status in pairings:
        if status == "paired_unique" or status == "multiple_exact_roots":
            if exact is None or dist is None:
                problems.append(f"{status} anchor {trunc} without partner")
            elif abs(dist - abs(exact - trunc)) > 1e-8 * max(1.0, trunc) or not dist < epsilon:
                problems.append(f"anchor {trunc}: distance {dist} inconsistent")
        elif status == "no_exact_root_in_neighborhood":
            if exact is not None or dist is not None:
                problems.append(f"unpaired anchor {trunc} has a partner")
        else:
            problems.append(f"unknown status {status!r}")
    for s in strays:
        if s <= threshold or any(abs(s - a) < epsilon for a in anchors):
            problems.append(f"stray {s} lies in a neighborhood or below the threshold")
    expected = all(p[3] == "paired_unique" for p in pairings) and not strays
    if bool(verdict) != expected:
        problems.append(f"verdict {verdict} disagrees with the pairings")
    return problems


class Paper:
    """The paper user's journey through the CLI on both shipped configs."""

    name = "paper"
    CONFIGS = ("default", "half_attachment")
    COMMANDS = (
        ("roots", ("roots",)),
        ("verify_M10", ("verify", "--threshold", "10")),
        ("verify_M15", ("verify", "--threshold", "15")),
        ("modes", ("modes",) + tuple(str(j) for j in range(1, 21))),
        ("growth", ("growth",)),
    )
    OPS = tuple((cfg, tag, args) for cfg, (tag, args) in itertools.product(CONFIGS, COMMANDS))
    # artifacts whose sha256 golden.json records, per command
    ARTIFACTS = {
        "roots": ("roots.csv",),
        "verify_M10": ("localization.json",),
        "verify_M15": ("localization.json",),
        "modes": tuple(f"mode_{j}.csv" for j in range(1, 21)),
    }

    def __init__(self, root: str, seed: int, golden: dict | None = None):
        self.root = root
        self.seed = seed
        self.configs = {c: os.path.join(root, "configs", f"{c}.cfg") for c in self.CONFIGS}
        for path in self.configs.values():
            if not os.path.isfile(path):
                raise FileNotFoundError(path)
        if golden is None:
            with open(os.path.join(os.path.dirname(__file__), "golden.json"), encoding="utf-8") as fh:
                golden = json.load(fh)
        self.golden = golden
        half = load_shipped_config(root, "half_attachment")
        self.half_closed_form = reference.midspan_truncated_roots(half.params.length, half.mu_max)
        os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="paper-", dir=os.path.join(root, ".bench_work"))
        self._orders: dict = {}
        self._dirs = 0
        self.bytes_written = 0
        self.ops_checked = 0
        self.mismatched: set = set()

    def warmup_input(self):
        return self.OPS[0]

    def input(self, k: int):
        n = len(self.OPS)
        order = self._orders.get(k // n)
        if order is None:
            order = list(range(n))
            random.Random(self.seed * 1_000_003 + k // n).shuffle(order)
            self._orders = {k // n: order}
        return self.OPS[order[k % n]]

    def run(self, op):
        cfg, tag, args = op
        self._dirs += 1
        out = os.path.join(self.work, f"op{self._dirs}")
        argv = ["--config", self.configs[cfg], "--out", out, "--quiet", *args]
        return out, shakerbeam.cli.main(argv)

    def check(self, op, result) -> list:
        cfg, tag, _ = op
        out, code = result
        try:
            return self._check(cfg, tag, out, code)
        finally:
            if os.path.isdir(out):
                self.bytes_written += sum(
                    os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
                )
                shutil.rmtree(out)
            self.ops_checked += 1

    def _check(self, cfg, tag, out, code) -> list:
        key = f"{cfg}/{tag}"
        problems = []
        expected = self.golden["exit_codes"][key]
        if code != expected:
            return [f"{key}: exit code {code}, expected {expected}"]
        for name, digest in self.golden["sha256"].get(key, {}).items():
            path = os.path.join(out, name)
            if not os.path.isfile(path):
                problems.append(f"{key}: {name} missing")
                self.mismatched.add(f"{key}/{name}")
            elif _sha256(path) != digest:
                self.mismatched.add(f"{key}/{name}")
        if problems:
            return problems
        if tag == "roots" or tag == "growth":
            rows = _read_csv(os.path.join(out, f"{tag}.csv"))
            exact = sorted(float(r["mu"]) for r in rows if r["mu"])
            trunc = sorted(float(r["mu_bar"]) for r in rows if r["mu_bar"])
            if cfg == "default":
                problems += _match(key + " exact", exact, reference.EXACT_ROOTS_REF)
                problems += _match(key + " truncated", trunc, reference.TRUNCATED_ROOTS_REF)
            else:
                problems += _match(key + " truncated", trunc, self.half_closed_form)
            if tag == "growth" and not os.path.isfile(os.path.join(out, "growth.svg")):
                problems.append(f"{key}: growth.svg missing")
        elif tag.startswith("verify"):
            with open(os.path.join(out, "localization.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            pairings = [
                (p["truncated_root"], p["exact_root"], p["distance"], p["status"])
                for p in report["pairings"]
            ]
            problems += [
                f"{key}: {p}"
                for p in pairing_problems(
                    pairings,
                    report["stray_exact_roots"],
                    report["verdict"],
                    report["epsilon"],
                    report["threshold_M"],
                )
            ]
            if report["verdict"] != (code == 0):
                problems.append(f"{key}: verdict {report['verdict']} but exit code {code}")
        elif tag == "modes":
            problems += self._check_mode_csvs(key, out)
        return problems

    @staticmethod
    def _check_mode_csvs(key, out) -> list:
        problems = []
        if not os.path.isfile(os.path.join(out, "modes.svg")):
            problems.append(f"{key}: modes.svg missing")
        for j in range(1, 21):
            rows = _read_csv(os.path.join(out, f"mode_{j}.csv"))
            x = np.array([float(r["x"]) for r in rows])
            u = np.array([float(r["u"]) for r in rows])
            if len(x) != 401 or not (np.all(np.isfinite(u)) and np.all(np.diff(x) > 0)):
                problems.append(f"{key}: mode_{j}.csv malformed")
                continue
            norm_sq = float(np.sum(0.5 * (u[1:] ** 2 + u[:-1] ** 2) * np.diff(x)))
            if abs(u[0]) > 1e-9 or abs(u[-1]) > 1e-9 or abs(norm_sq - 1.0) > 2e-2:
                problems.append(f"{key}: mode_{j} ends {u[0]}, {u[-1]}, norm^2 {norm_sq}")
        return problems

    def layer_metrics(self) -> dict:
        n = max(self.ops_checked, 1)
        return {
            "cli.bytes_written": self.bytes_written / n,
            "cli.artifacts_mismatched": len(self.mismatched),
        }

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Wide:
    """The full spectrum to mu = 1000 for one attachment point per op."""

    name = "wide"
    MU_MAX = 1000.0
    THRESHOLD = 15.0

    def __init__(self, root: str, seed: int):
        self.config = load_shipped_config(root, "default")
        self.beam = self.config.params
        self.step = self.config.scan_step
        self.epsilon = self.config.epsilon
        self.u0 = random.Random(seed).random()

    def warmup_input(self):
        # the same op on the default config's own window: it runs every code
        # path of an op, while set-up time stays mostly import time
        return self.beam, self.config.mu_max

    def input(self, k: int):
        ratio = 0.1 + 0.8 * _sequence(self.u0, k)
        params = dataclasses.replace(self.beam, attachment_point=ratio * self.beam.length)
        return params, self.MU_MAX

    def run(self, op):
        params, mu_max = op
        sb = shakerbeam
        exact = sb.scan_roots(sb.Target.Phi, params, self.config.mu_min, mu_max, self.step)
        trunc = sb.scan_roots(sb.Target.Phi0, params, self.config.mu_min, mu_max, self.step)
        rows = sb.pair_mutual_nearest([r.mu for r in exact], [r.mu for r in trunc])
        try:
            report = sb.verify_localization(params, self.epsilon, self.THRESHOLD, mu_max, self.step)
        except sb.LocalizationPreconditionError as exc:
            report = exc
        return exact, trunc, rows, report

    def check(self, op, result) -> list:
        params, mu_max = op
        exact, trunc, rows, report = result
        l, l0 = params.length, params.attachment_point
        problems = []
        problems += _bracket_problems("exact", exact, lambda m: shakerbeam.phi(m, params), l)
        problems += _bracket_problems("truncated", trunc, lambda m: shakerbeam.phi0(m, l, l0), l)
        if len(exact) != len(trunc):
            problems.append(f"{len(exact)} exact but {len(trunc)} truncated roots")
        ex = [r.mu for r in exact]
        tr = [r.mu for r in trunc]
        problems += _pair_problems(rows, ex, tr)
        anchors = [m for m in tr if m > self.THRESHOLD]
        if isinstance(report, Exception):
            gaps = np.diff(anchors)
            if not (gaps.size and self.epsilon >= 0.5 * gaps.min() * (1.0 - 1e-9)):
                problems.append(f"spurious precondition error: {report}")
            return problems
        pairings = [
            (p.truncated_root, p.exact_root, p.distance, p.status.value) for p in report.pairings
        ]
        problems += pairing_problems(
            pairings, report.stray_roots, report.verdict, self.epsilon, self.THRESHOLD
        )
        # the report must describe the roots this op found itself
        if not _same_roots([p[0] for p in pairings], anchors):
            problems.append("verify anchors differ from the truncated scan")
        partners = [p[1] for p in pairings if p[1] is not None] + list(report.stray_roots)
        # verify scans exact roots up to mu_max + epsilon, the op only to mu_max
        partners = [m for m in partners if m <= mu_max]
        if not all(_near(m, ex) for m in partners):
            problems.append("verify reports an exact root the exact scan lacks")
        # ... and every exact root outside all neighborhoods must be a stray
        strays = sorted(report.stray_roots)
        for m in ex:
            if m > self.THRESHOLD and not _near(m, strays) and (
                not anchors or abs(m - _nearest(m, anchors)) > self.epsilon + 1e-8
            ):
                problems.append(f"exact root {m} lies in no neighborhood but is not a stray")
                break
        return problems

    def layer_metrics(self) -> dict:
        return dict(_NO_CLI)

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Paper, Wide)}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        header, *lines = fh.read().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def _match(label, values, ref) -> list:
    if len(values) != len(ref):
        return [f"{label}: {len(values)} roots, expected {len(ref)}"]
    bad = [(v, r) for v, r in zip(values, ref) if abs(v - r) > reference.ROOT_REL_TOL * abs(r)]
    return [f"{label}: {v} differs from reference {r}" for v, r in bad[:3]]


def _near(value, sorted_pool, tol=1e-8) -> bool:
    i = bisect.bisect_left(sorted_pool, value)
    return any(abs(sorted_pool[j] - value) <= tol * max(1.0, value) for j in (i - 1, i) if 0 <= j < len(sorted_pool))


def _same_roots(a, b, tol=1e-8) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol * max(1.0, y) for x, y in zip(a, b))


def _bracket_problems(label, roots, f, length) -> list:
    """Every refined root's bracket holds it and straddles a sign change of f.

    An endpoint value within the rounding noise of f (64 eps (1 + mu l); the
    argument mu*l alone carries eps*mu*l) counts as a zero: brackets are as
    narrow as one ulp, so the sign there is not determined.
    """
    refined = [r for r in roots if not r.degenerate]
    problems = [
        f"{label} root {r.mu}: degenerate with |f| = {abs(r.residual)}"
        for r in roots
        if r.degenerate and not abs(f(r.mu)) < 1e-12
    ]
    if not refined:
        return problems
    mu = np.array([r.mu for r in refined])
    lo = np.array([r.bracket[0] for r in refined])
    hi = np.array([r.bracket[1] for r in refined])
    f_lo, f_hi = np.asarray(f(lo)), np.asarray(f(hi))
    noise = 64.0 * _EPS * (1.0 + mu * length)
    same_sign = (np.sign(f_lo) * np.sign(f_hi) > 0) & (np.abs(f_lo) > noise) & (np.abs(f_hi) > noise)
    outside = ~((lo <= mu) & (mu <= hi))
    for i in np.flatnonzero(same_sign | outside)[:3]:
        problems.append(
            f"{label} root {mu[i]}: bracket ({lo[i]}, {hi[i]}) with f = ({f_lo[i]}, {f_hi[i]})"
        )
    return problems


def _pair_problems(rows, exact, trunc) -> list:
    """pair_mutual_nearest rows use every root once and pair only mutual nearest roots."""
    problems = []
    if sorted(r[0] for r in rows if r[0] is not None) != exact:
        problems.append("pairing rows do not list every exact root once")
    if sorted(r[1] for r in rows if r[1] is not None) != trunc:
        problems.append("pairing rows do not list every truncated root once")
    for m, t, status in rows:
        if status == "paired" and (_nearest(m, trunc) != t or _nearest(t, exact) != m):
            problems.append(f"pair ({m}, {t}) is not mutually nearest")
            break
    return problems


def _nearest(x, sorted_pool):
    i = bisect.bisect_left(sorted_pool, x)
    candidates = [sorted_pool[j] for j in (i - 1, i) if 0 <= j < len(sorted_pool)]
    return min(candidates, key=lambda y: abs(y - x))

