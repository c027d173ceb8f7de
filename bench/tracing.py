"""Outside-in layer trace for the benchmark.

The tracer wraps, from outside the package, the module-level names through
which the layers call each other (``shakerbeam.roots.phi``,
``shakerbeam.roots.scan_roots``, ``shakerbeam.modes.evaluate_mode``, the
names imported into ``shakerbeam.cli``, ...).  ``install`` swaps the wrappers
in and ``uninstall`` puts the originals back, so untraced ops run the package
exactly as shipped.

Layer calls become spans (name, start, end, parent, op id, attributes) kept
in memory.  Characteristic-function evaluations are too many to keep one
span each (about 35k per ``wide`` op), so they are leaf counters: each adds
its count and time to the enclosing span and to run totals.  A span's self
time is its duration minus the time its child spans and leaf calls cover.
"""

from __future__ import annotations

import json
import time
import warnings

import numpy as np

import shakerbeam
import shakerbeam.cli
import shakerbeam.modes
import shakerbeam.roots

# modules whose attributes are patched: the package namespace the benchmark
# calls through, and each module's imported names that one layer uses to
# call another.  shakerbeam.freqeq itself is never patched, so phi's own call
# of phi0 is not counted twice.
_MODULES = (shakerbeam, shakerbeam.roots, shakerbeam.modes, shakerbeam.cli)

# attribute name -> span name; "freqeq" marks leaf counters
_SPANS = {
    "phi": "freqeq",
    "phi0": "freqeq",
    "phi0_prime": "freqeq",
    "scan_roots": "roots.scan",
    "scan_with_suspects": "roots.scan",
    "verify_localization": "roots.verify",
    "pair_mutual_nearest": "roots.pair",
    "solve_mode": "modes.solve",
    "normalize_L2": "modes.normalize",
    "evaluate_mode": "modes.evaluate",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans and leaf counters for ops run between begin_op/end_op."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._saved: list = []
        self.unpatched: list = []
        self.scalar_evals = 0
        self.scalar_s = 0.0
        self.array_points = 0
        self.array_s = 0.0

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        wrappers: dict = {}
        found = set()
        for module in _MODULES:
            for attr, span_name in _SPANS.items():
                original = module.__dict__.get(attr)
                if original is None:
                    continue
                found.add(attr)
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, span_name)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrappers[key])
        original_main = shakerbeam.cli.main
        self._saved.append((shakerbeam.cli, "main", original_main))
        shakerbeam.cli.main = self._wrap(original_main, "cli")
        self.unpatched = sorted(set(_SPANS) - found)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span_name):
        if span_name == "freqeq":
            return self._wrap_leaf(fn)
        post = _POST.get(span_name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # scan_roots calls scan_with_suspects: one scan, one span
            if span_name == "roots.scan" and stack and stack[-1].name == span_name:
                return fn(*args, **kwargs)
            span = Span(span_name, stack[-1] if stack else None, tracer._op)
            stack.append(span)
            caught = None
            try:
                if span_name == "modes.solve":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        span.start = time.perf_counter()
                        result = fn(*args, **kwargs)
                else:
                    span.start = time.perf_counter()
                    result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.attrs["error"] = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if post is not None:
                    post(span.attrs, args, kwargs, result)
                return result
            finally:
                if caught is not None:
                    span.attrs["warnings"] = sum(
                        issubclass(w.category, RuntimeWarning) for w in caught
                    )
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                tracer.spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, fn):
        tracer = self

        def wrapper(mu, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(mu, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                scalar = np.ndim(mu) == 0
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent.child_s += dt
                    if scalar:
                        parent.attrs["scalar_evals"] = parent.attrs.get("scalar_evals", 0) + 1
                if scalar:
                    tracer.scalar_evals += 1
                    tracer.scalar_s += dt
                else:
                    tracer.array_points += int(np.size(mu))
                    tracer.array_s += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops ----------------------------------------------------------------
    def begin_op(self, op_id) -> None:
        self._op = op_id
        span = Span("op", None, op_id)
        self._stack.append(span)
        span.start = time.perf_counter()

    def end_op(self) -> float:
        span = self._stack.pop()
        span.end = time.perf_counter()
        self.spans.append(span)
        self._op = None
        return span.duration

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)) if s.parent is not None else None,
                    "op": s.op,
                    "self_s": s.self_s,
                    **s.attrs,
                }
                fh.write(json.dumps(record) + "\n")


def _post_scan(attrs, args, kwargs, result):
    roots = result[0] if isinstance(result, tuple) else result
    attrs["roots"] = len(roots)
    attrs["refined"] = sum(not r.degenerate for r in roots)
    attrs["iterations"] = sum(r.iterations for r in roots)


def _post_pair(attrs, args, kwargs, result):
    attrs["rows"] = len(result)


def _post_evaluate(attrs, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    attrs["points"] = int(np.size(x))


_POST = {"roots.scan": _post_scan, "roots.pair": _post_pair, "modes.evaluate": _post_evaluate}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-op means of the layer figures (diagnostic counters are run totals)."""
    spans = tracer.spans
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def seconds(name, self_time=False):
        return sum(s.self_s if self_time else s.duration for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def errors(name, kind):
        return sum(s.attrs.get("error") == kind for s in by_name.get(name, ()))

    scans = by_name.get("roots.scan", [])
    refined = sum(s.attrs.get("refined", 0) for s in scans)
    scan_evals = sum(s.attrs.get("scalar_evals", 0) for s in scans)
    rescan_s = sum(
        s.duration for s in scans if s.parent is not None and s.parent.name == "roots.verify"
    )
    evaluates = by_name.get("modes.evaluate", [])
    normalize_points = sum(
        s.attrs.get("points", 0)
        for s in evaluates
        if s.parent is not None and s.parent.name == "modes.normalize"
    )
    return {
        "freqeq.scalar_evals": per_op(tracer.scalar_evals),
        "freqeq.scalar_s": per_op(tracer.scalar_s),
        "freqeq.array_points": per_op(tracer.array_points),
        "freqeq.array_s": per_op(tracer.array_s),
        "roots.refine.iterations": per_op(total("roots.scan", "iterations")),
        "roots.refine.evals_per_root": scan_evals / refined if refined else 0.0,
        "roots.scan.calls": per_op(len(scans)),
        "roots.scan.s": per_op(seconds("roots.scan")),
        "roots.scan.self_s": per_op(seconds("roots.scan", self_time=True)),
        "roots.scan.roots": per_op(total("roots.scan", "roots")),
        "roots.verify.calls": per_op(count("roots.verify")),
        "roots.verify.s": per_op(seconds("roots.verify")),
        "roots.verify.self_s": per_op(seconds("roots.verify", self_time=True)),
        "roots.verify.rescan_s": per_op(rescan_s),
        "roots.verify.precondition_errors": errors(
            "roots.verify", "LocalizationPreconditionError"
        ),
        "roots.pair.s": per_op(seconds("roots.pair")),
        "roots.pair.rows": per_op(total("roots.pair", "rows")),
        "modes.solve.calls": per_op(count("modes.solve")),
        "modes.solve.s": per_op(seconds("modes.solve")),
        "modes.solve.warnings": total("modes.solve", "warnings"),
        "modes.solve.degenerate": errors("modes.solve", "DegenerateModeError"),
        "modes.normalize.calls": per_op(count("modes.normalize")),
        "modes.normalize.s": per_op(seconds("modes.normalize")),
        "modes.normalize.self_s": per_op(seconds("modes.normalize", self_time=True)),
        "modes.normalize.points": per_op(normalize_points),
        "modes.evaluate.points": per_op(total("modes.evaluate", "points")),
        "modes.evaluate.s": per_op(seconds("modes.evaluate")),
        "cli.calls": per_op(count("cli")),
        "cli.s": per_op(seconds("cli")),
        "cli.self_s": per_op(seconds("cli", self_time=True)),
        "trace.op_s": per_op(seconds("op")),
        "trace.roots_share": _share(by_name, ("roots.scan", "roots.verify", "roots.pair")),
        "trace.normalize_share": _share(by_name, ("modes.normalize",)),
    }


def _share(by_name, names) -> float:
    """Share of traced op time spent in top-level spans of the given layers."""
    op_s = sum(s.duration for s in by_name.get("op", ()))
    covered = sum(
        s.duration
        for name in names
        for s in by_name.get(name, ())
        if s.parent is not None and s.parent.name in ("op", "cli")
    )
    return covered / op_s if op_s else 0.0
