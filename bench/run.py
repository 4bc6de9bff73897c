#!/usr/bin/env python3
"""qcsync benchmark: one workload per process, end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload acquire_wide --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory; nothing needs
to be installed. ``--trace 0`` times every op twice with nothing traced,
scales each time to a reference host speed (see ``Probe``) and prints the
end-to-end metrics. ``--trace 1`` runs each op of the fixed digest set twice,
untraced and with spans around the public qcsync functions (see spans.py),
alternating the order, and prints the per-layer metrics. Every op is checked
against ground truth; the last line of standard output is the result
object, the line before it a report with the environment, the op counts,
the per-op input sizes and the sha256 digest of the digest set's results.
See NOTES.md for the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 5
DEADLINE_S = 150.0  # stop timing ops after this long, whatever --seconds says

# One single-threaded process: keep numerical libraries from starting pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _environment(args) -> dict:
    import importlib.metadata

    import numpy

    import qcsync

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "qcsync": qcsync.__version__,
        "git_commit": _git_commit(),
        "threads": {"python": threading.active_count(), "os": _os_threads()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _set_up(wl, warmup_index) -> float:
    """Load and validate templates, build shared objects, run one warm-up op."""
    start = time.perf_counter()
    wl.setup()
    op = wl.make_op(warmup_index)
    wl.check(op, wl.run_op(op))
    return time.perf_counter() - start


def _set_up_scaled(wl, probe, import_s: float, warmup_index: int) -> tuple[float, list]:
    """Import time plus the median of SETUP_REPS set-ups, each scaled by its probes."""
    reps, before = [], probe()
    for k in range(SETUP_REPS):
        elapsed = _set_up(wl, warmup_index + k)
        after = probe()
        reps.append(probe.scaled(elapsed, before, after))
        before = after
    return probe.scaled(import_s, probe.times[0], probe.times[0]) + statistics.median(reps), reps


def _timed(wl, i: int):
    op = wl.make_op(i)
    t0 = time.perf_counter()
    raw = wl.run_op(op)
    elapsed = time.perf_counter() - t0
    return elapsed, wl.check(op, raw)


class Probe:
    """A fixed mix of interpreter and numpy work that tracks the host's speed.

    Host load on the development VM comes in slow phases, from a second to
    minutes long, that stretch op times by 1.25x to 1.8x. Scaling each timed
    interval by PROBE_REF_S / (probe time around it) reports it at the speed
    the probe shows in a fast phase there (about 4 ms), so that runs made in
    different phases compare.
    """

    REF_S = 4e-3

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).integers(0, 2**40, 20000)
        self.times = []

    def __call__(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        acc = 0
        for k in range(20000):
            acc += k * k
        ordered = np.sort(self._data)
        np.unique(ordered // 1000, return_counts=True)
        np.searchsorted(ordered, self._data)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def scaled(self, elapsed: float, before: float, after: float) -> float:
        return elapsed * self.REF_S / (0.5 * (before + after))


def _run_ops(wl, n_min: int, seconds: float, deadline: float, probe: Probe):
    """Run every op twice, in two passes over the op list; keep the faster time.

    Each run is scaled by the probes just before and after it. The two runs
    of an op are half a run apart, so a burst of host load that the probes
    miss rarely hits both. The first pass runs ops 0, 1, ... until at least
    n_min ran and half of `seconds` passed; the second pass repeats them.
    Results must agree between passes. Returns scaled times, raw times and
    results, one per op.
    """
    start = time.perf_counter()
    runs = []  # (op index, seconds, result) in execution order
    probes = [probe()]

    def run(i):
        elapsed, result = _timed(wl, i)
        probes.append(probe())
        runs.append((i, elapsed, result))

    n = 0
    while (n < n_min or time.perf_counter() - start < seconds / 2) and time.perf_counter() < deadline:
        run(n)
        n += 1
    for i in range(n):
        if time.perf_counter() >= deadline:
            break
        run(i)
    scaled, raw, results = [math.inf] * n, [math.inf] * n, [None] * n
    for k, (i, elapsed, result) in enumerate(runs):
        scaled[i] = min(scaled[i], probe.scaled(elapsed, probes[k], probes[k + 1]))
        raw[i] = min(raw[i], elapsed)
        if results[i] is None:
            results[i] = result
        elif result.digest != results[i].digest:
            results[i].failures.append("result differs between passes")
            results[i].failed += 1
    return scaled, raw, results


def _run_paired(wl, tracer, n: int, deadline: float, extra_modules):
    """Each op untraced and traced, alternating which goes first to cancel drift."""
    runs = {False: ([], []), True: ([], [])}
    for i in range(n):
        if time.perf_counter() >= deadline:
            break
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.op = i
                tracer.install(extra_modules)
            elapsed, result = _timed(wl, i)
            if traced:
                tracer.uninstall()
            runs[traced][0].append(elapsed)
            runs[traced][1].append(result)
    return runs[False], runs[True]


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(hashlib.sha256(r.digest).digest())
    return h.hexdigest()


def _tail(times_s):
    """Highest percentile with at least 10 ops beyond it; the maximum below 20 ops."""
    ordered = sorted(times_s)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else float("nan")


def _summary(times, results, n_digest) -> dict:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors_fs]
    pulls = [p for r in results for p in r.pulls]
    freq_errors = [abs(f) for r in results for f in r.freq_errors]
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    reasons: dict = {}
    for r in results:
        for f in r.failures:
            key = f.split(":")[0]
            reasons[key] = reasons.get(key, 0) + 1
    tail, tail_pct = _tail(times)
    n = len(results)
    return {
        "ops": n,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else None,
        "failure_reasons": reasons,
        "digest": _digest(results[:n_digest]),
        "digest_ops": min(n, n_digest),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_quartiles_ms": [1e3 * q for q in quartiles],
        "op_min_max_ms": [1e3 * min(times), 1e3 * max(times)],
        "op_tail_ms": 1e3 * tail,
        "op_tail_label": {"percentile": round(tail_pct, 2), "n": n},
        "tags_per_s": statistics.median(r.tags / t for r, t in zip(results, times)),
        "syncs_per_s": statistics.median(r.syncs / t for r, t in zip(results, times)),
        "theta_rmse_fs": _rms(errors),
        "theta_errors": len(errors),
        "pull_rms": _rms(pulls) if pulls else None,
        "pull_miscal": abs(math.log2(_rms(pulls))) if pulls else None,
        "freq_error_max": max(freq_errors) if freq_errors else None,
        "per_op": {
            "tags_mean": sum(r.tags for r in results) / n,
            "tags_min": min(r.tags for r in results),
            "tags_max": max(r.tags for r in results),
            "syncs_mean": sum(r.syncs for r in results) / n,
        },
    }


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else None


def _layer_metrics(tracer, times_u, times_t) -> tuple[dict, dict]:
    raw = tracer.layer_metrics()
    c = lambda k: raw.get(k, 0)  # noqa: E731
    derived = {
        "estimator.ns_per_pair": _ratio(c("estimator.coarse_histogram.self_s"), c("estimator.coarse_pairs"), 1e9),
        "estimator.useful_pair_ratio": _ratio(c("estimator.peak_members"), c("estimator.coarse_pairs")),
        "timebase.local_times.ns_per_tag": _ratio(
            c("timebase.local_times.self_s"), c("timebase.local_times.tags"), 1e9
        ),
        "photonics.detect.ns_per_event": _ratio(
            c("photonics.detect.self_s"), c("photonics.detect.events_in"), 1e9
        ),
        "linkmodel.propagate.ns_per_photon": _ratio(
            c("linkmodel.propagate.self_s"), c("linkmodel.propagate.photons"), 1e9
        ),
        "seeding.us_per_rng": _ratio(c("seeding.spawn_rng.self_s"), c("seeding.spawn_rng.calls"), 1e6),
        "netsync.applied_ratio": _ratio(c("netsync.sync_applied"), c("netsync.sync_attempts")),
        "tagfiles.write_ns_per_tag": _ratio(c("tagfiles.write.self_s"), c("tagfiles.tags_written"), 1e9),
        "tagfiles.read_ns_per_tag": _ratio(c("tagfiles.read.self_s"), c("tagfiles.tags_read"), 1e9),
    }
    covered = tracer.root_time_by_op()
    paired = min(len(times_u), len(times_t))
    overhead = [times_t[i] - times_u[i] for i in range(paired)]
    uncovered = [times_t[i] - covered.get(i, 0.0) for i in range(len(times_t))]
    derived["bench.trace_overhead_ms"] = 1e3 * statistics.median(overhead) if overhead else None
    derived["bench.uncovered_ms"] = 1e3 * statistics.median(uncovered) if uncovered else None
    values = {**raw, **derived}
    # A traced function this workload never calls has no self time to report.
    for name in tracer.names:
        if not raw[f"{name}.calls"]:
            values[f"{name}.self_s"] = values[f"{name}.calls"] = None
    extra = {
        "trace_overhead_share": _ratio(sum(overhead), sum(times_u[:paired])),
        "uncovered_share": _ratio(sum(uncovered), sum(times_t)),
        "spans": len(tracer.spans),
        "coarse_pairs_per_op": _ratio(c("estimator.coarse_pairs"), len(times_t)),
        "estimator.peak_members": c("estimator.peak_members"),
    }
    return values, extra


def _spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0")

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qcsync
    except ImportError as exc:
        return _fail(f"cannot import qcsync from {ROOT / 'src'}: {exc}")
    import_s = time.perf_counter() - t_import
    if Path(qcsync.__file__).resolve().parent != ROOT / "src" / "qcsync":
        return _fail(f"imported qcsync from {qcsync.__file__}, not from this checkout")
    if not (ROOT / "scenarios").is_dir():
        return _fail(f"no scenario templates under {ROOT / 'scenarios'}")

    import spans
    import workloads

    spec = _spec()
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    deadline = time.perf_counter() + DEADLINE_S
    workdir = BENCH / "out" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    report = {"env": _environment(args)}
    try:
        if not args.trace:
            probe = Probe()
            setup_s, reps = _set_up_scaled(wl, probe, import_s, workloads.WARMUP_OP)
            times, raw_times, results = _run_ops(wl, wl.min_ops, args.seconds, deadline, probe)
            summary = _summary(times, results, wl.min_ops)
            report.update(
                summary,
                import_s=import_s,
                setup_reps_s=reps,
                raw_op_p50_ms=1e3 * statistics.median(raw_times),
                probe_ms=[1e3 * q for q in statistics.quantiles(probe.times, n=4)],
            )
            values = {
                "setup_s": setup_s,
                "op_p50_ms": summary["op_p50_ms"],
                "op_tail_ms": summary["op_tail_ms"],
                "tags_per_s": summary["tags_per_s"],
                "syncs_per_s": summary["syncs_per_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
            correct = summary["failed"] == 0
        else:
            tracer = spans.Tracer()
            tracer.install([workloads])
            report["setup_traced_s"] = _set_up(wl, workloads.WARMUP_OP)
            tracer.uninstall()
            (times_u, results_u), (times_t, results_t) = _run_paired(
                wl, tracer, wl.min_ops, deadline, [workloads]
            )
            summary_u = _summary(times_u, results_u, wl.min_ops)
            summary_t = _summary(times_t, results_t, wl.min_ops)
            values, extra = _layer_metrics(tracer, times_u, times_t)
            trace_path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.npz"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(trace_path)
            report.update(summary_t, untraced=summary_u, trace=extra, trace_file=str(trace_path.relative_to(ROOT)))
            report["digests_match"] = summary_u["digest"] == summary_t["digest"]
            wanted = spec["per_layer"]
            summary = summary_t
            correct = summary_t["failed"] == 0 and summary_u["failed"] == 0 and report["digests_match"]
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, absent = {}, {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            absent[m["name"]] = "this workload never calls the layer"
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    report["absent"] = absent
    print(json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": bool(correct),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
