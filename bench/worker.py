"""One workload process: import, prepare, warm up, then run the closed loop.

Started by run.py from the repository root; not meant to be run by hand.
Protocol on standard output, one JSON object a line: first {"ready": ...}
once the warm-up op is done.  Unless --setup-only, the worker then reads
commands from standard input, one a line: a number T runs ops until T seconds
of op time have been measured in all and answers {"paused": ...}; "stop"
ends the loop and answers {"done": ...} with every op latency and the check
results.  Anything the package prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()


def _emit(channel, key: str, payload: dict) -> None:
    channel.write(json.dumps({key: payload}) + "\n")
    channel.flush()


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import shakerbeam

    origin = os.path.realpath(shakerbeam.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"shakerbeam imported from {origin}, not from {src}")
    return shakerbeam


def _run_op(workload, inp):
    """Time one op; return (seconds, result or the exception it raised)."""
    t0 = time.perf_counter()
    try:
        result = workload.run(inp)
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, result


def _check(workload, inp, result, failures: list) -> bool:
    if isinstance(result, Exception):
        problems = [f"raised {type(result).__name__}: {result}"]
    else:
        problems = workload.check(inp, result)
    failures.extend(problems[:2])
    return not problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    proto, sys.stdout = sys.stdout, sys.stderr

    t0 = time.perf_counter()
    sb = _import_package()
    import numpy

    import workloads

    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    t2 = time.perf_counter()
    failures: list = []
    warm = workload.warmup_input()
    _, result = _run_op(workload, warm)
    warm_ok = _check(workload, warm, result, failures)
    t3 = time.perf_counter()
    _emit(
        proto,
        "ready",
        {
            "import_s": t1 - t0,
            "prep_s": t2 - t1,
            "warmup_s": t3 - t2,
            "warmup_ok": warm_ok,
            "failures": failures,
        },
    )
    if args.setup_only:
        workload.close()
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    latencies: list = []
    untraced: list = []
    traced: list = []
    attempted = failed = 0
    busy = 0.0
    k = 0
    try:
        for command in iter(sys.stdin.readline, "stop\n"):
            target = float(command)
            while busy < target:
                inp = workload.input(k)
                if tracer is None:
                    dt, result = _run_op(workload, inp)
                    latencies.append(dt)
                    busy += dt
                    attempted += 1
                    failed += not _check(workload, inp, result, failures)
                else:
                    # the same input untraced and traced, alternating which goes first
                    for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
                        if traced_run:
                            tracer.install()
                            tracer.begin_op(k)
                            try:
                                dt, result = _run_op(workload, inp)
                            finally:
                                dt = tracer.end_op()
                                tracer.uninstall()
                            traced.append(dt)
                        else:
                            dt, result = _run_op(workload, inp)
                            untraced.append(dt)
                        busy += dt
                        attempted += 1
                        failed += not _check(workload, inp, result, failures)
                k += 1
            _emit(proto, "paused", {"busy_s": busy})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = {
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:10],
            "latencies": latencies,
            "peak_rss_mb": peak_rss_mb,
            "numpy": numpy.__version__,
            "package": getattr(sb, "__version__", None),
        }
        if tracer is not None:
            layers = tracing.layer_metrics(tracer, len(traced))
            layers.update(workload.layer_metrics())
            layers["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
            done["layers"] = layers
            done["unpatched"] = tracer.unpatched
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            done["trace_file"] = os.path.join(
                ".bench_trace", f"{args.workload}-seed{args.seed}.jsonl"
            )
            tracer.dump(os.path.join(ROOT, done["trace_file"]))
            import baseline

            done["baseline"] = baseline.rows(workloads.load_shipped_config(ROOT, "default"))
        done.update(_runtime_info(numpy))
    finally:
        workload.close()
    _emit(proto, "done", done)
    return 0


def _runtime_info(numpy) -> dict:
    """BLAS library and its thread count as this process sees them."""
    info = {"blas": None, "blas_threads": None}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    return info
    except OSError:
        pass
    return info


if __name__ == "__main__":
    sys.exit(main())
