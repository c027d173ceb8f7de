"""Command-line tool: compute root tables, localization reports, mode shapes,
and growth plots as CSV/SVG artifacts.

Commands: roots, verify, modes, growth.  Configuration comes from built-in
defaults (the experimentally measured aluminium-beam set), overridden by an
optional flat key=value config file with unit suffixes, overridden by CLI
flags.  Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 no roots
in the window, 4 localization precondition violated, 5 degenerate mode,
6 localization verdict false.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BeamParameters, ValidationError, validate_parameters
from .modes import DegenerateModeError, evaluate_mode, normalize_L2, solve_mode
from .roots import (
    ConfigurationError,
    LocalizationPreconditionError,
    Target,
    _scan_jobs,
    closed_form_roots_half,
    pair_mutual_nearest,
    scan_roots,
    verify_localization,
)

__all__ = ["RunConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NO_ROOTS = 3
EXIT_LOCALIZATION_PRECONDITION = 4
EXIT_DEGENERATE_MODE = 5
EXIT_VERDICT_FALSE = 6

_DEFAULT_RAW_PARAMS = {
    "l": "1.905 m",
    "l0": "1.4 m",
    "rho0": "2700 kg/m^3",
    "section_area": "2.25e-4 m^2",
    "E": "6.9e10 Pa",
    "I": "1.6875e-10 m^4",
    "m": "0.1 kg",
    "kappa": "7 N/mm",
}

_PARAM_KEYS = set(_DEFAULT_RAW_PARAMS) | {"rho"}
_MAX_MODE_SAMPLES = 10**6  # points per mode CSV; more would only exhaust memory
_BLOCK = 4096  # CSV rows formatted and written at a time

# key -> (type, subcommand flag or None, help).  A config file may set every
# key; l0 is a beam parameter, so a file gives it with a unit, as above.  The
# global --out flag, not a subcommand flag, sets out.
_SETTINGS = {
    "l0": (float, "--l0", "attachment point override [m]"),
    "n_roots": (int, "--n-roots", "target exact-root count"),
    "mu_min": (float, "--mu-min", "window lower edge [1/m]"),
    "mu_max": (float, "--mu-max", "window upper edge [1/m]"),
    "step": (float, "--step", "scan step override [1/m]"),
    "epsilon": (float, "--epsilon", "localization neighborhood radius [1/m]"),
    "threshold_M": (float, "--threshold", "localization threshold M [1/m]"),
    "mode_samples": (int, None, "points per sampled mode"),
    "out": (str, None, "output directory (default: out)"),
}


@dataclass
class RunConfig:
    params: BeamParameters
    mu_min: float = 0.1
    mu_max: float = 38.5
    step: Optional[float] = None
    epsilon: float = 0.35
    threshold_M: float = 10.0
    n_roots: Optional[int] = None
    mode_samples: int = 401
    out: str = "out"
    quiet: bool = False

    @property
    def scan_step(self) -> float:
        return self.step if self.step is not None else math.pi / (80.0 * self.params.length)


def _parse_config_file(path: str) -> dict:
    entries: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key in entries:
                raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value
    return entries


def load_config(
    config_path: Optional[str] = None, overrides: Optional[dict] = None, quiet: bool = False
) -> RunConfig:
    """Resolve built-in defaults, an optional config file, and flag overrides."""
    raw_params = dict(_DEFAULT_RAW_PARAMS)
    scalars: dict = {}
    file_entries = _parse_config_file(config_path) if config_path is not None else {}
    for key, value in file_entries.items():
        if key in _PARAM_KEYS:
            raw_params[key] = value
        elif key in _SETTINGS:
            try:
                scalars[key] = _SETTINGS[key][0](value)
            except ValueError:
                raise ConfigurationError(f"config key {key!r}: bad value {value!r}") from None
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    for key, value in (overrides or {}).items():
        if value is not None:
            (raw_params if key in _PARAM_KEYS else scalars)[key] = value
    return RunConfig(params=validate_parameters(raw_params), quiet=quiet, **scalars)


def fmt9(value) -> str:
    """9-significant-digit decimal formatting used by every artifact."""
    return f"{float(value):.9g}"


def _round9(value: Optional[float]):
    return None if value is None else float(fmt9(value))


def _svg(title: str, xlabel: str, ylabel: str, series) -> str:
    """Deterministic SVG plot: axes, then one polyline or marker set per
    (kind, xs, ys, label, color) series with kind "line" or "points", then a legend."""
    m, w, h = 60, 720, 480
    series = [
        (kind, np.asarray(xs, float), np.asarray(ys, float), label, color)
        for kind, xs, ys, label, color in series
    ]
    all_x = np.concatenate([s[1] for s in series if s[1].size])
    all_y = np.concatenate([s[2] for s in series if s[2].size])
    x0, x1 = float(all_x.min()), float(all_x.max())
    y0, y1 = float(all_y.min()), float(all_y.max())
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad_x, pad_y = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y

    def px(x):
        return m + (x - x0) / (x1 - x0) * (w - 2 * m)

    def py(y):
        return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{w / 2:.1f}" y="{h - 12}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="16" y="{h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {h / 2:.1f})">{ylabel}</text>',
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        tx = x0 + (x1 - x0) * i / 4
        ty = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{h - m}" x2="{px(tx):.2f}" y2="{h - m + 5}" stroke="black"/>'
            f'<text x="{px(tx):.2f}" y="{h - m + 18}" text-anchor="middle" font-size="11">{tx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{m - 5}" y1="{py(ty):.2f}" x2="{m}" y2="{py(ty):.2f}" stroke="black"/>'
            f'<text x="{m - 8}" y="{py(ty):.2f}" text-anchor="end" dominant-baseline="middle" '
            f'font-size="11">{ty:.4g}</text>'
        )
    for kind, xs, ys, label, color in series:
        xy = px(xs).tolist(), py(ys).tolist()
        if kind == "line":
            pts = " ".join(map("{:.2f},{:.2f}".format, *xy))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            parts.extend(map(f'<circle cx="{{:.2f}}" cy="{{:.2f}}" r="3" fill="{color}"/>'.format, *xy))
    for i, (_, _, _, label, color) in enumerate(series):
        ly = m + 16 + 16 * i
        parts.append(
            f'<rect x="{w - m - 130}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
            f'<text x="{w - m - 112}" y="{ly}" font-size="12" dominant-baseline="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(out_dir, name: str, chunks) -> None:
    """Write an iterable of text chunks to out_dir/name; the caller makes out_dir."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _csv(header, *columns):
    """CSV text in chunks of _BLOCK rows, each formatted by one %-format.  A
    float cell is written as %.9g, the same text as fmt9; None is an empty cell
    and a str is written as it is.  Numpy array columns hold numbers only."""
    yield ",".join(header) + "\n"
    for i in range(0, len(columns[0]), _BLOCK):
        part = [column[i : i + _BLOCK] for column in columns]
        if all(isinstance(column, np.ndarray) for column in part):
            line = ",".join(["%.9g"] * len(part)) + "\n"
            yield (line * len(part[0])) % tuple(np.column_stack(part).ravel().tolist())
        else:
            cells = [v for row in zip(*part) for v in row]
            specs = ["" if v is None else "%s" if isinstance(v, str) else "%.9g" for v in cells]
            text = ("%s" + ",%s" * (len(part) - 1) + "\n") * (len(cells) // len(part)) % tuple(specs)
            yield text % tuple([v for v in cells if v is not None])


def _resolve_window(config: RunConfig):
    """Return (mu_min, mu_max, exact_roots) honoring an n_roots request.
    The scan itself rejects a bad window."""
    if config.n_roots is None:
        exact = scan_roots(Target.Phi, config.params, config.mu_min, config.mu_max, config.scan_step)
        return config.mu_min, config.mu_max, exact
    if config.n_roots < 1:
        raise ConfigurationError(f"n_roots must be >= 1, got {config.n_roots}")
    gap = math.pi / config.params.length
    hi = config.mu_min + 1.1 * gap * (config.n_roots + 1)
    for _ in range(12):
        exact = scan_roots(Target.Phi, config.params, config.mu_min, hi, config.scan_step)
        if len(exact) >= config.n_roots:
            kept = exact[: config.n_roots]
            if len(exact) > config.n_roots:
                hi = 0.5 * (kept[-1].mu + exact[config.n_roots].mu)
            else:
                hi = kept[-1].mu + 0.5 * gap
            return config.mu_min, hi, kept
        hi *= 1.5
    raise ConfigurationError(
        f"could not find {config.n_roots} roots above mu_min = {config.mu_min}"
    )


def _scan_pair(config: RunConfig):
    """The mu lists (exact, truncated) over the resolved window, both refined in one batch without n_roots."""
    if config.n_roots is None:
        jobs = [(target, config.mu_min, config.mu_max) for target in (Target.Phi, Target.Phi0)]
        return [roots[0].tolist() for roots, _ in _scan_jobs(config.params, config.scan_step, jobs)]
    lo, hi, exact = _resolve_window(config)
    truncated = scan_roots(Target.Phi0, config.params, lo, hi, config.scan_step)
    return [r.mu for r in exact], [r.mu for r in truncated]


def cmd_roots(config: RunConfig) -> int:
    exact, truncated = _scan_pair(config)
    if not exact and not truncated:
        print("no roots found in the requested window", file=sys.stderr)
        return EXIT_NO_ROOTS
    rows = pair_mutual_nearest(exact, truncated)
    mu_e, mu_t, status = zip(*rows)  # exact-bearing rows first
    j = [str(k) for k in range(1, len(exact) + 1)] + [""] * (len(rows) - len(exact))
    # to_spectral_point's nu = omega / (2 pi), omega = omega_factor * mu**2, on Python floats
    f = config.params.omega_factor
    nu_e, nu_t = ([None if mu is None else f * mu**2 / (2.0 * math.pi) for mu in c] for c in (mu_e, mu_t))
    gap = [None if e is None or t is None else abs(e - t) for e, t in zip(mu_e, mu_t)]
    header = ("j", "mu_bar", "mu", "nu_bar_hz", "nu_hz", "pairing_status", "abs_gap")
    os.makedirs(config.out, exist_ok=True)
    _write_text(config.out, "roots.csv", _csv(header, j, mu_t, mu_e, nu_t, nu_e, status, gap))
    if not config.quiet:
        print(f"wrote {config.out}/roots.csv: {len(exact)} exact, {len(truncated)} truncated roots")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    report = verify_localization(
        config.params, config.epsilon, config.threshold_M, config.mu_max, config.scan_step
    )
    payload = {
        "verdict": report.verdict,
        "epsilon": _round9(report.epsilon),
        "threshold_M": _round9(report.threshold_M),
        "mu_max": _round9(config.mu_max),
        "warning": report.warning,
        "rational_attachment_ratio": (
            None
            if report.rational_ratio is None
            else {"p": report.rational_ratio[0], "q": report.rational_ratio[1]}
        ),
        "margins": {
            "min_abs_phi0_complement": _round9(report.min_abs_phi0_complement),
            "min_abs_phi0_prime_at_anchors": _round9(report.min_abs_phi0_prime_neighborhoods),
        },
        "pairings": [
            {
                "truncated_root": _round9(p.truncated_root),
                "exact_root": _round9(p.exact_root),
                "distance": _round9(p.distance),
                "status": p.status.value,
            }
            for p in report.pairings
        ],
        "stray_exact_roots": [_round9(s) for s in report.stray_roots],
    }
    del report  # its rows are in the payload: free them before the JSON text is built
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)  # never NaN/Infinity
    os.makedirs(config.out, exist_ok=True)
    _write_text(config.out, "localization.json", [text + "\n"])
    if payload["warning"] and not config.quiet:
        print(f"warning: {payload['warning']}", file=sys.stderr)
    if not config.quiet:
        print(f"wrote {config.out}/localization.json: verdict {payload['verdict']}")
    return EXIT_OK if payload["verdict"] else EXIT_VERDICT_FALSE


def cmd_modes(config: RunConfig, *indices: int) -> int:
    if not 2 <= config.mode_samples <= _MAX_MODE_SAMPLES:
        raise ConfigurationError(f"mode_samples must be >= 2 and <= {_MAX_MODE_SAMPLES}, got {config.mode_samples}")
    lo, hi, exact = _resolve_window(config)
    if not exact:
        print("no roots found in the requested window", file=sys.stderr)
        return EXIT_NO_ROOTS
    bad = [j for j in indices if not (1 <= j <= len(exact))]
    if bad:
        raise ConfigurationError(
            f"mode index(es) {bad} outside the computed root list (1..{len(exact)})"
        )
    series = []
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    xs = np.linspace(0.0, config.params.length, config.mode_samples)
    os.makedirs(config.out, exist_ok=True)
    for k, j in enumerate(indices):
        mode = normalize_L2(solve_mode(exact[j - 1], config.params))
        u = evaluate_mode(mode, xs)
        _write_text(config.out, f"mode_{j}.csv", _csv(("x", "u"), xs, u))
        series.append(("line", xs, u, f"mode {j} (mu={mode.mu:.4f})", colors[k % len(colors)]))
    _write_text(config.out, "modes.svg", [_svg("Normalized eigenmodes", "x [m]", "u(x)", series)])
    if not config.quiet:
        print(f"wrote {config.out}/modes.svg and {len(indices)} mode CSVs")
    return EXIT_OK


def cmd_growth(config: RunConfig) -> int:
    mu_e, mu_t = _scan_pair(config)
    if not mu_e and not mu_t:
        print("no roots found in the requested window", file=sys.stderr)
        return EXIT_NO_ROOTS
    n = max(len(mu_e), len(mu_t))
    j = [str(i) for i in range(1, n + 1)]
    os.makedirs(config.out, exist_ok=True)
    columns = j, mu_e + [None] * (n - len(mu_e)), mu_t + [None] * (n - len(mu_t))
    _write_text(config.out, "growth.csv", _csv(("j", "mu", "mu_bar"), *columns))
    series = []
    if mu_e:
        series.append(("points", range(1, len(mu_e) + 1), mu_e, "exact", "#1f77b4"))
    if mu_t:
        series.append(("points", range(1, len(mu_t) + 1), mu_t, "truncated", "#d62728"))
    l, l0 = config.params.length, config.params.attachment_point
    if mu_t and abs(l - 2.0 * l0) <= 1e-12 * l:
        closed = closed_form_roots_half(l, len(mu_t))
        series.append(("line", range(1, len(closed) + 1), closed, "closed form (midspan)", "#2ca02c"))
    _write_text(config.out, "growth.svg", [_svg("Spectral parameter growth", "j", "mu [1/m]", series)])
    if not config.quiet:
        print(f"wrote {config.out}/growth.csv and growth.svg ({n} indices)")
    return EXIT_OK


_COMMANDS = {
    "roots": (cmd_roots, "scan both characteristic equations and write the paired root table"),
    "verify": (cmd_verify, "check the asymptotic root-localization structure"),
    "modes": (cmd_modes, "reconstruct, normalize, sample, and plot eigenmodes"),
    "growth": (cmd_growth, "plot spectral parameter growth vs index"),
}


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    # the global flags, accepted before and after the command name; SUPPRESS
    # keeps a pre-command value from being clobbered by the subparser default
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="flat key=value config file with unit suffixes")
    common.add_argument("--out", help=_SETTINGS["out"][2])
    common.add_argument("--quiet", action="store_true", help="suppress progress messages")
    parser = argparse.ArgumentParser(
        prog="shakerbeam",
        description="Eigenfrequencies and eigenmodes of a hinged beam with a mass-spring attachment",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, parents=[common])
        for key, (kind, flag, help_text) in _SETTINGS.items():
            if flag is not None:
                p.add_argument(flag, type=kind, dest=key, help=help_text)
        if name == "modes":
            p.add_argument(
                "indices",
                type=int,
                nargs="*",
                default=[1, 2, 3, 4],
                help="1-based mode indices (default: 1 2 3 4)",
            )
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        overrides = {key: args.get(key) for key in _SETTINGS}
        config = load_config(args.get("config"), overrides, quiet=args.get("quiet", False))
        run = _COMMANDS[args["command"]][0]
        return run(config, *args.get("indices", ()))
    except (ValidationError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LocalizationPreconditionError as exc:
        print(f"localization precondition: {exc}", file=sys.stderr)
        return EXIT_LOCALIZATION_PRECONDITION
    except DegenerateModeError as exc:
        print(f"degenerate mode: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_MODE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
