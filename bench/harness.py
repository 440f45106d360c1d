"""Set-up, timed loop, traced loop and result reporting of one benchmark run.

Untraced run (``--trace 0``): set up several times and keep the median,
then send passes of requests until ``--seconds`` have elapsed, then
re-derive a seeded subset of the replies with the oracle.  Traced run (``--trace 1``):
repeat pass 0 alternately without and with spans until ``--seconds`` have
elapsed, and report per-layer metrics per pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

MODULES = ("linalg", "states", "measures", "bounds", "verify", "cli")
SETUP_REPEATS = 9
# Replies kept for the full oracle: the first ORACLE_FIRST of pass 0, then
# each later reply with probability ORACLE_SHARE, up to ORACLE_MAX in all.
ORACLE_FIRST = 12
ORACLE_SHARE = 0.01
ORACLE_MAX = 32
# Requests, set-ups and probes are timed in CPU time of the process, so that
# time the host gives to other processes is not counted; the library
# computes in this one thread and does no I/O while timed.  The timings are
# then rescaled to a host on which one probe() takes PROBE_NOMINAL_S
# (host_corrected).
cpu_time = time.process_time
PROBE_NOMINAL_S = 1e-3
WINDOW = 2
SETUP_PROBES = 5
_PROBE_RNG = np.random.default_rng(20230217)
_PROBE_A = _PROBE_RNG.normal(size=(8, 8)) + 1j * _PROBE_RNG.normal(size=(8, 8))
_PROBE_H = _PROBE_A @ _PROBE_A.conj().T
_PROBE_X = [float(x) for x in _PROBE_RNG.normal(size=16)]
_PROBE_PARSER = argparse.ArgumentParser(prog="probe")
_PROBE_PARSER.add_argument("command")
_PROBE_PARSER.add_argument("--state")
_PROBE_PARSER.add_argument("--exp", type=float)
_PROBE_ARGV = ["bound", "--state", "w:1/2,1/2,sqrt(2)/2", "--exp", "1.25"]

END_TO_END_UNITS = {
    "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def import_monogamy(src: Path) -> SimpleNamespace:
    """Import monogamy afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "monogamy" or m.startswith("monogamy.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"monogamy.{m}") for m in MODULES})
    if Path(mods.cli.__file__).resolve().parent != (src / "monogamy").resolve():
        raise ImportError(f"monogamy was imported from {mods.cli.__file__}, not {src}")
    return mods


def probe() -> float:
    """CPU seconds taken by a fixed computation that uses numpy, LAPACK and
    argparse but not monogamy: the mix of small Hermitian eigendecompositions,
    command-line parsing and number formatting the workloads run.  Its time
    follows the host's speed, and no change to the library moves it."""
    start = cpu_time()
    for _ in range(9):
        vals = np.linalg.eigh(_PROBE_H)[0]
        np.sqrt(np.abs(vals)).sum()
        args = _PROBE_PARSER.parse_args(_PROBE_ARGV)
        acc = 0.0
        for x in _PROBE_X:
            acc += float(repr(x * args.exp))
        ",".join(f"{v:.6g}" for v in vals)
    return cpu_time() - start


def setup(src: Path, workload: str, seed: int):
    """Import, input generation and warm-up, repeated; returns the median
    host-corrected time, the modules of the last repetition and the inputs
    of pass 0.  Warm-up replies are not checked: the same requests open
    pass 0."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = cpu_time()
        mods = import_monogamy(src)
        first = workloads.requests(workload, seed, 0)
        for req in workloads.warmup(first):
            workloads.execute(mods, req)
        elapsed = cpu_time() - start
        host = statistics.median(probe() for _ in range(SETUP_PROBES))
        times.append(elapsed * PROBE_NOMINAL_S / host)
    return statistics.median(times), mods, first


def run_pass(mods, reqs, tally: workloads.Tally, kept: list | None = None, keep=None,
             probe_host: bool = False) -> float:
    """Send the requests in order; returns the CPU seconds spent inside them.
    With ``probe_host``, a probe() runs after each request, outside its time."""
    busy = 0.0
    for req in reqs:
        start = cpu_time()
        try:
            out = workloads.execute(mods, req)
        except Exception as exc:  # a failed request is counted, the loop goes on
            out = exc
        elapsed = cpu_time() - start
        busy += elapsed
        tally.latencies.append(elapsed)
        if probe_host:
            tally.probes.append(probe())
        if isinstance(out, Exception):
            tally.attempted += req.ops
            tally.fail(req.ops, f"{req}: raised {out!r}")
        else:
            workloads.check(req, out, tally)
            if kept is not None and keep():
                kept.append((req, out))
    return busy


def recheck(mods, kept, tally: workloads.Tally):
    for req, out in kept:
        for problem in workloads.recheck(mods, req, out):
            tally.fail(1, f"oracle: {problem}")


def host_corrected(latencies, probes) -> list[float]:
    """Latencies rescaled to a host on which one probe takes PROBE_NOMINAL_S.

    The same inputs run up to 1.8 times slower for tens of seconds at a time
    on a shared host, and CPU time slows with wall time, so the cause is the
    host's CPU speed, not scheduling.  The probe slows with it.  Request i
    is rescaled by the median of the probes run after requests i - WINDOW to
    i + WINDOW, so a stall of the request itself stays in its latency.  The
    probe does not run the library, so every change to the library, one
    that builds up during a run included, shows in full.
    """
    return [x * PROBE_NOMINAL_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i, x in enumerate(latencies)]


def measure_end_to_end(src, workload, seed, seconds):
    setup_s, mods, _ = setup(src, workload, seed)
    tally = workloads.Tally()
    pick = np.random.default_rng([seed, 2**32])
    kept, passes = [], 0
    start, start_cpu = time.perf_counter(), cpu_time()
    while time.perf_counter() - start < seconds:
        keep = (lambda: len(kept) < ORACLE_FIRST) if passes == 0 else (
            lambda: len(kept) < ORACLE_MAX and pick.random() < ORACLE_SHARE)
        run_pass(mods, workloads.requests(workload, seed, passes), tally, kept, keep,
                 probe_host=True)
        passes += 1
    cpu_share = (cpu_time() - start_cpu) / (time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recheck(mods, kept, tally)
    raw = tally.latencies
    per_pass = len(raw) // passes
    lat = host_corrected(raw, tally.probes)

    def timings(xs):
        return {
            "wall_s": statistics.median(sum(xs[i:i + per_pass])
                                        for i in range(0, len(xs), per_pass)),
            "ops_per_s": tally.ops / sum(xs),
            "op_p50_ms": statistics.median(xs) * 1e3,
            "op_p99_ms": statistics.quantiles(xs, n=100)[98] * 1e3,
        }

    metrics = {**timings(lat), "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
    # p99 follows how often the host stalls the CPU, so it is reported, not gated
    op_p99_ms = metrics.pop("op_p99_ms")
    notes = {
        "passes": passes,
        "requests": len(lat),
        "op_p99_ms": op_p99_ms,
        "latency_samples_beyond_p99": sum(x * 1e3 > op_p99_ms for x in lat),
        "oracle_replies": len(kept),
        "uncorrected": timings(raw),
        "cpu_share_of_wall_clock": cpu_share,
        "probe_ms": {"median": statistics.median(tally.probes) * 1e3,
                     "min": min(tally.probes) * 1e3, "max": max(tally.probes) * 1e3},
    }
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def measure_layers(src, workload, seed, seconds, spans_path: Path):
    _, mods, first = setup(src, workload, seed)
    tally, traced = workloads.Tally(), workloads.Tally()
    tracer = tracing.Tracer()
    plain_times, traced_times, kept = [], [], []
    first_pass_spans = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain_times.append(run_pass(mods, first, tally))
        tracer.install(mods)
        try:
            traced_times.append(run_pass(mods, first, traced, kept, lambda: len(kept) < len(first)))
        finally:
            tracer.uninstall()
        first_pass_spans = first_pass_spans or len(tracer.spans)
    recheck(mods, kept, tally)
    passes = len(traced_times)
    metrics = tracing.layer_metrics(tracer, passes)
    metrics["verify.checks"] = traced.checks / passes
    metrics["verify.checked_frac"] = (
        1 - traced.skipped / traced.samples if traced.samples else 0.0)
    metrics["cli.csv_rows"] = traced.csv_rows / passes
    metrics["cli.csv_bytes"] = traced.csv_bytes / passes
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0)
    # every traced pass repeats the same work, so the first one is written
    tracer.write(spans_path, first_pass_spans)
    for name in ("attempted", "ops", "failed"):
        setattr(tally, name, getattr(tally, name) + getattr(traced, name))
    tally.problems += traced.problems
    notes = {"passes": passes, "spans": len(tracer.spans), "spans_file": spans_path.name,
             "not_reached": [f"{b}: no such attribute in this version" for b in tracer.missing]}
    return tally, {k: (v, layer_unit(k)) for k, v in metrics.items()}, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_state"):
        return "count/state"
    return "count"


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run_all(args, run_py: Path) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(run_py), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv, root: Path, src: Path) -> int:
    parser = argparse.ArgumentParser(description="monogamy benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, Path(__file__).with_name("run.py"))

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        tally, metrics, notes = measure_layers(src, args.workload, args.seed, args.seconds,
                                               out_dir / f"spans_{label}.csv")
    else:
        tally, metrics, notes = measure_end_to_end(src, args.workload, args.seed, args.seconds)

    failed_frac = tally.failed / max(tally.attempted, 1)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    if "op_p99_ms" in notes:
        print(f"  {'op_p99_ms':<40} {notes['op_p99_ms']:>16.6g} ms (not gated; "
              f"{notes['latency_samples_beyond_p99']} of {notes['requests']} requests beyond)")
    print(f"  {'failed_frac':<40} {failed_frac:>16.6g} ({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print("notes " + json.dumps(notes))
    print("env " + json.dumps(env))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"BENCH_{label}.json", "w", encoding="ascii") as fh:
        json.dump({**result, "failed_frac": failed_frac, "notes": notes, "env": env,
                   "problems": tally.problems}, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
