"""Run one lmkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,rescore,rerank} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
`src/` next to this directory, and BENCHMARK.json at the root names the
metrics and their units.  With --trace 0 the run measures the end-to-end
metrics with nothing wrapped.  With --trace 1 it wraps lmkit's public
functions and reports the per-layer metrics instead, plus the tracing
overhead: it runs one pass of the workload untraced and the same pass
traced, and reports the difference.

Human-readable lines come first; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, traffic properties, every metric with its sample count, the
checks) goes to .perfbench_out/ in the checkout, and the traced run's spans
beside it as CSV.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
# set-up runs at least SETUP_MIN times and until it has taken SETUP_SPAN_S
# (at most SETUP_MAX times); setup_s is the median
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_SPAN_S = 2.0
# BLAS threads for this process; the workloads are single-row or small
# batched products, and one caller runs at a time
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description="lmkit benchmark")
    p.add_argument("--workload", required=True, choices=("train", "rescore", "rerank"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def pin_threads():
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def blas_threads():
    """The thread count the loaded OpenBLAS reports, read through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_metrics(samples, probe, kind):
    """Latency percentiles and throughput of (start, seconds, words, group)
    samples on host-speed-adjusted times, and, as detail, the plain
    wall-clock ones and the same numbers per traffic group."""
    ms = [1000.0 * probe.adjust(kind, t0, dt) for t0, dt, _, _ in samples]
    raw = [1000.0 * s[1] for s in samples]
    words = [s[2] for s in samples]
    n = len(samples)
    metrics = {
        "op_ms.p50": (statistics.median(ms), n),
        "op_ms.p95": (percentile(ms, 95), n),
        "words_per_s": (1000.0 * sum(words) / sum(ms), n),
    }
    detail = {
        "op_ms.p50.wall": statistics.median(raw),
        "op_ms.p95.wall": percentile(raw, 95),
        "words_per_s.wall": 1000.0 * sum(words) / sum(raw),
        "host_speed.median": statistics.median(
            probe.factor(kind, t0, t0 + dt) for t0, dt, _, _ in samples),
    }
    groups = {}
    for (_, _, w, g), m in zip(samples, ms):
        if g is not None:
            groups.setdefault(g, []).append((m, w))
    for g, rows in sorted(groups.items()):
        detail["op_ms.p50." + g] = statistics.median(m for m, _ in rows)
        detail["words_per_s.%s.median" % g] = statistics.median(1000.0 * w / m for m, w in rows)
        detail["ops." + g] = len(rows)
    return metrics, detail


def untraced_run(cls, args, workdir):
    from hostspeed import HostProbe
    from workloads import Failures, run_pass
    probe = HostProbe()
    setup_s, setup_wall = [], []
    while len(setup_s) < SETUP_MIN or (sum(setup_wall) < SETUP_SPAN_S
                                       and len(setup_s) < SETUP_MAX):
        wl = cls(args.seed, workdir, probe.checkpoint)
        probe.checkpoint()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        probe.checkpoint()
        setup_s.append(probe.adjust("python", t0, dt))
        setup_wall.append(dt)
    fails = Failures()
    first = []
    samples, busy = run_pass(wl, 0, args.seconds, 0.0, fails, first, probe)
    index = 1
    while busy < args.seconds:
        more, busy = run_pass(wl, index, args.seconds, busy, fails, None, probe)
        samples += more
        index += 1
    quality, detail = wl.checked_finish(first, fails)
    metrics = {"setup_s": (statistics.median(setup_s), len(setup_s))}
    timing, plain = op_metrics(samples, probe, wl.probe_kind)
    metrics.update(timing)
    metrics.update(quality)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    detail.update(plain)
    for name, alias in wl.aliases.items():
        detail[alias] = metrics[name][0] if name in metrics else detail[name]
    detail["setup_s.all"] = setup_s
    detail["setup_s.wall"] = setup_wall
    detail["passes"] = index
    return wl, fails, metrics, detail


def traced_run(cls, args, workdir, spans_path):
    from hostspeed import HostProbe
    from tracing import Tracer, layer_metrics
    from workloads import Failures, run_pass
    probe = HostProbe()
    tracer = Tracer()
    wl = cls(args.seed, workdir)
    tracer.install()
    with tracer.span("setup"):
        wl.setup()
    tracer.uninstall()
    fails = Failures()
    first = []
    plain, _ = run_pass(wl, 0, 0.0, 0.0, fails, first, probe)
    wl.fresh()
    tracer.install()
    try:
        traced, _ = run_pass(wl, 0, 0.0, 0.0, fails, None, probe, tracer)
    finally:
        tracer.uninstall()
    _, detail = wl.checked_finish(first, fails)
    metrics = {k: (v, 1) for k, v in layer_metrics(tracer, getattr(wl, "caches", {})).items()}
    base, base_wall = op_metrics(plain, probe, wl.probe_kind)
    with_trace, traced_wall = op_metrics(traced, probe, wl.probe_kind)
    for key in ("op_ms.p50", "words_per_s"):
        name = key.replace(".", "_")
        metrics["trace.untraced." + name] = base[key]
        metrics["trace.overhead." + name] = (with_trace[key][0] - base[key][0], with_trace[key][1])
        detail["trace.overhead.%s.wall" % name] = traced_wall[key + ".wall"] - base_wall[key + ".wall"]
    tracer.write(spans_path)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    return wl, fails, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lmkit", "__init__.py")):
        print("perfbench: no lmkit sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    pin_threads()
    sys.path.insert(0, SRC)
    import lmkit
    if not os.path.abspath(lmkit.__file__).startswith(SRC + os.sep):
        print("perfbench: lmkit imported from %s, not from %s" % (lmkit.__file__, SRC),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(WORK_DIR, "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            spans_path = os.path.join(OUT_DIR, tag + "-spans.csv")
            wl, fails, metrics, detail = traced_run(cls, args, workdir, spans_path)
        else:
            wl, fails, metrics, detail = untraced_run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise SystemExit("perfbench: metrics do not match BENCHMARK.json "
                         "(missing %s, undeclared %s)" % (missing, extra))
    for name, (value, n) in list(metrics.items()):
        if not math.isfinite(value):
            fails.check("finite_metric", False, "%s is %r" % (name, value))
            metrics[name] = (0.0, n)
    env = environment()
    traffic = wl.traffic()
    print("workload %s seed %d seconds %g trace %d (closed loop, 1 caller, op = %s)"
          % (args.workload, args.seed, args.seconds, args.trace, cls.op_unit))
    print("env " + json.dumps(env, sort_keys=True))
    print("traffic " + json.dumps(traffic, sort_keys=True))
    for name in sorted(metrics):
        value, n = metrics[name]
        print("metric %-44s %14.6f %-8s n=%d" % (name, value, units[name], n))
    for name in sorted(detail):
        print("detail %s %s" % (name, json.dumps(detail[name])))
    for c in fails.checks:
        print("check %-16s %s %s" % (c["name"], "PASS" if c["ok"] else "FAIL", c["detail"]))
    result = {
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, traffic=traffic, detail=detail,
                  checks=fails.checks,
                  samples={name: n for name, (_, n) in metrics.items()})
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
