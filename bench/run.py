"""shakerbeam benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {paper,wide} --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src.  Each
workload is a closed loop with one client in one process: the next op starts
when the previous one has returned.  The measuring worker runs ops until S
seconds of op time have been measured, checking every op's outputs outside
the op's timer.  setup_s is the median start-to-ready time (import, input
preparation, one warm-up op) of SETUP_SAMPLES fresh worker processes: the
measuring worker and probes started while it is paused, spread evenly over
the measured time, so that set-up and ops see the same mix of machine states.

Standard output: a {"meta": ...} line (versions, commit, sample counts), with
--trace 1 the regenerated ROADMAP baseline rows, and as the last line
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 runs every input untraced and traced and
reports the per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

SETUP_SAMPLES = 15
# every run, set-up included, must end well inside three minutes
DEADLINE_S = 170.0
WORKLOADS = ("paper", "wide")
# op_tail_ms percentile per workload: the highest that keeps at least ten
# samples beyond it in a 45 s run (see bench/README.md for the op counts).
# op_tail_ms goes into the meta line, not into the gated metrics: it spreads
# past any allowed bound between runs of the same code on a shared host.
TAIL_PERCENTILE = {"paper": 98, "wide": 85}
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER_UNITS = {
    "freqeq.scalar_evals": "count/op",
    "freqeq.scalar_s": "s/op",
    "freqeq.array_points": "count/op",
    "freqeq.array_s": "s/op",
    "roots.refine.iterations": "count/op",
    "roots.refine.evals_per_root": "evals/root",
    "roots.scan.calls": "count/op",
    "roots.scan.s": "s/op",
    "roots.scan.self_s": "s/op",
    "roots.scan.roots": "count/op",
    "roots.verify.calls": "count/op",
    "roots.verify.s": "s/op",
    "roots.verify.self_s": "s/op",
    "roots.verify.rescan_s": "s/op",
    "roots.verify.precondition_errors": "count",
    "roots.pair.s": "s/op",
    "roots.pair.rows": "count/op",
    "modes.solve.calls": "count/op",
    "modes.solve.s": "s/op",
    "modes.solve.warnings": "count",
    "modes.solve.degenerate": "count",
    "modes.normalize.calls": "count/op",
    "modes.normalize.s": "s/op",
    "modes.normalize.self_s": "s/op",
    "modes.normalize.points": "count/op",
    "modes.evaluate.points": "count/op",
    "modes.evaluate.s": "s/op",
    "cli.calls": "count/op",
    "cli.s": "s/op",
    "cli.self_s": "s/op",
    "cli.bytes_written": "bytes/op",
    "cli.artifacts_mismatched": "count",
    "setup.import_s": "s",
    "setup.prep_s": "s",
    "setup.warmup_s": "s",
    "trace.op_s": "s/op",
    "trace.roots_share": "fraction",
    "trace.normalize_share": "fraction",
    "trace.overhead_frac": "fraction",
}


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process whose JSON lines are read with a deadline."""

    def __init__(self, argv, env, deadline):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"), *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)

    def read(self, key: str) -> dict:
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not self._selector.select(remaining):
                raise WorkerError(f"worker gave no {key!r} line before the deadline")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise WorkerError(f"worker exited with code {self.proc.wait()} before {key!r}")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        message = json.loads(line)
        if key not in message:
            raise WorkerError(f"expected {key!r}, got {line[:200]!r}")
        return message[key]

    def send(self, command: str) -> None:
        try:
            self.proc.stdin.write(command.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise WorkerError(f"worker does not take commands: {exc}") from None

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            code = None
        self.close()
        if code != 0:
            raise WorkerError(f"worker ended with code {code}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._selector.close()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _setup_probe(argv, env, deadline):
    """Start a fresh worker with --setup-only; return (start-to-ready s, ready info)."""
    probe = Worker(argv + ["--setup-only"], env, deadline)
    try:
        ready = probe.read("ready")
        elapsed = time.perf_counter() - probe.started
        probe.finish()
    finally:
        probe.close()
    return elapsed, ready


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "shakerbeam")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _on_sigterm(signum, frame):
    # unwind through the finally blocks, which stop the running worker
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    for needed in ("src/shakerbeam/__init__.py", "configs/default.cfg"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    env = dict(os.environ)
    # one client, no extra threads: pin BLAS/OpenMP pools to one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]

    setups = []
    ready_info = []
    try:
        worker = Worker(base, env, deadline)
        try:
            ready_info.append(worker.read("ready"))
            setups.append(time.perf_counter() - worker.started)
            # SETUP_SAMPLES stretches of op time with a set-up probe between each two
            for i in range(1, SETUP_SAMPLES + 1):
                if i > 1:
                    elapsed, ready = _setup_probe(base, env, deadline)
                    setups.append(elapsed)
                    ready_info.append(ready)
                worker.send(repr(args.seconds * i / SETUP_SAMPLES))
                worker.read("paused")
            worker.send("stop")
            done = worker.read("done")
            worker.finish()
        finally:
            worker.close()
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    warmup_failures = [f for r in ready_info for f in r["failures"]]
    attempted = done["attempted"] + len(ready_info)
    failed = done["failed"] + sum(not r["warmup_ok"] for r in ready_info)
    lat = done["latencies"]
    tail_q = TAIL_PERCENTILE[args.workload]
    tail = beyond_tail = None

    if args.trace:
        values = dict(done["layers"])
        values["setup.import_s"] = statistics.median(r["import_s"] for r in ready_info)
        values["setup.prep_s"] = statistics.median(r["prep_s"] for r in ready_info)
        values["setup.warmup_s"] = statistics.median(r["warmup_s"] for r in ready_info)
        units = PER_LAYER_UNITS
    else:
        tail_s = float(np.percentile(lat, tail_q))
        beyond_tail = int(np.count_nonzero(np.asarray(lat) > tail_s))
        tail = tail_s * 1e3
        if beyond_tail < MIN_BEYOND_TAIL:
            print(
                f"bench: warning: op_tail_ms (p{tail_q}) has only {beyond_tail} of"
                f" {len(lat)} ops beyond it, fewer than {MIN_BEYOND_TAIL}",
                file=sys.stderr,
            )
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": done["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    missing = set(units) - set(values)
    if missing:
        print(f"bench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": done["numpy"],
        "package": done["package"],
        "blas": done["blas"],
        "blas_threads": done["blas_threads"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "samples": {
            "ops": len(lat) if not args.trace else done["attempted"],
            "setup": len(setups),
            "setup_s": setups,
            "tail_percentile": tail_q,
            "beyond_tail": beyond_tail,
        },
        "op_tail_ms": tail,
        "failed_frac": failed / attempted,
        "failures": (warmup_failures + done["failures"])[:10],
    }
    if args.trace:
        meta["trace_file"] = done["trace_file"]
        meta["unpatched"] = done["unpatched"]
    print(json.dumps({"meta": meta}))
    if args.trace:
        print("| layer / workload | time | notes |")
        print("|---|---|---|")
        for row in done["baseline"]:
            print("| " + " | ".join(row) + " |")
    for name in units:
        print(f"{name:36s} {values[name]:.6g} {units[name]}", file=sys.stderr)
    if tail is not None:
        print(f"{'op_tail_ms (meta, p' + str(tail_q) + ')':36s} {tail:.6g} ms", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
