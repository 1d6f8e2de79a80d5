#!/usr/bin/env python3
"""Benchmark of the helns package: one workload per process, closed loop.

    python3 bench/run.py --workload free32 --seed 0 --seconds 25 --trace 0

Run from the repository root (or any copy of it holding ``src/helns``).  The
workload's inputs come from ``--seed``.  After one untimed warm-up unit,
units of work run back to back, each starting when the previous one has
finished, until they have run ``--seconds``.  Between units (outside their
timing) the program is set up five times; ``setup_s`` is the median.
Every unit's outputs are checked against the package's own tolerances.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` ignores
``--seconds``: it runs a fixed number of units of every workload, each
untraced and then with timing spans wrapped around the package's public
functions, and prints the per-layer metrics (totals, with a breakdown by
workload in the report).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Workloads, metrics and bounds are listed in
``BENCHMARK.json`` and described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WARM_UP_INDEX = 10**6  # unit index (input seed) of the untimed warm-up unit

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import helns\n"
    "print(time.perf_counter() - t)\n"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_helns():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "helns" / "__init__.py").is_file():
        fail(f"no helns package under {SRC}")
    sys.path.insert(0, str(SRC))
    import helns

    if Path(helns.__file__).resolve().parent != (SRC / "helns").resolve():
        fail(f"imported helns from {helns.__file__}, not from {SRC}")
    return helns


def import_seconds() -> float:
    """Wall time of ``import helns`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


# --- provenance ------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_caches() -> dict:
    """Cache sizes in bytes by level, from sysfs (read-only)."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(Path(base).glob("index*")) if os.path.isdir(base) else []:
        level = _read(f"{index}/level").strip()
        kind = _read(f"{index}/type").strip()
        size = _read(f"{index}/size").strip()
        if not (level and size) or kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        caches[f"L{level}"] = int(size.rstrip("KM")) * scale
    return caches


def provenance(helns) -> dict:
    import scipy
    from helns.grid import GridSpec
    from helns.spectral import SpectralOps

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git not available)"
    return {
        "git_sha": sha,
        "helns": helns.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "HELNS_THREADS": os.environ.get("HELNS_THREADS", "unset"),
        # the worker count SpectralOps resolves from the environment
        "fft_workers": getattr(SpectralOps(GridSpec.cube(8, 1.0, 1.0)), "_workers", "unknown"),
        "cpu_model": model or platform.processor() or "unknown",
        "caches": cpu_caches(),
    }


def cache_fit(nbytes: int, caches: dict) -> str:
    for level in ("L2", "L3"):
        if level in caches and nbytes <= caches[level]:
            return f"fits in {level} ({caches[level] / 2**20:.0f} MiB)"
    known = ", ".join(f"{k} {v / 2**20:.0f} MiB" for k, v in caches.items() if k != "L1")
    return f"exceeds {known}" if known else "cache sizes unknown"


# --- the timed phases ------------------------------------------------------------


def run_unit(workload, index, checks, wrap=None):
    """Run one unit; returns (work, seconds, payload), payload None if it raised."""
    t0 = time.perf_counter()
    try:
        work, payload = (wrap or workload.unit)(index)
    except Exception:  # a unit that raises is a failed check; the loop goes on
        traceback.print_exc()
        checks.expect(f"unit {index} completed", False)
        work, payload = 0, None
    return work, time.perf_counter() - t0, payload


def check_unit(workload, payload, checks) -> None:
    if payload is None:
        return
    try:
        workload.check(payload, checks)
    except Exception:
        traceback.print_exc()
        checks.expect("outputs readable", False)


def warm_up(workload, checks) -> None:
    """One untimed unit, so first-call costs (allocation, FFT plans) are paid."""
    check_unit(workload, run_unit(workload, WARM_UP_INDEX, checks)[2], checks)


def closed_loop(workload, seconds, checks, sample):
    """Units back to back until they have run ``seconds``; [(work, seconds)].

    ``sample()`` runs SETUP_SAMPLES times between units, outside their timing:
    before the first, then evenly through the loop, and after the last.  The
    host's speed drifts over seconds, so spread samples are steadier than
    back-to-back ones.
    """
    sample()
    warm_up(workload, checks)
    done = []
    measured, index, taken = 0.0, 0, 1
    every = seconds / (SETUP_SAMPLES - 1)
    while measured < seconds:
        work, dt, payload = run_unit(workload, index, checks)
        check_unit(workload, payload, checks)
        done.append((work, dt))
        measured += dt
        index += 1
        if taken < SETUP_SAMPLES - 1 and measured >= taken * every:
            sample()
            taken += 1
    for _ in range(taken, SETUP_SAMPLES):
        sample()
    return done


def traced_phase(workload, checks):
    """Each of a fixed number of units untraced, then again traced.

    Returns (tracer, untraced seconds, traced seconds); checks of the traced
    payloads run after the tracer is removed, so they add no spans.
    """
    warm_up(workload, checks)
    tracer = Tracer()
    untraced = traced = 0.0
    payloads = []
    for index in range(workload.trace_units):
        _, dt, payload = run_unit(workload, index, checks)
        untraced += dt
        check_unit(workload, payload, checks)
        tracer.install()
        try:
            _, dt, payload = run_unit(
                workload, index, checks,
                wrap=lambda i: tracer.run_span("bench.unit", workload.unit, i))
        finally:
            tracer.close()
        traced += dt
        payloads.append(payload)
    for payload in payloads:
        check_unit(workload, payload, checks)
    return tracer, untraced, traced


# --- metrics -----------------------------------------------------------------------


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def _pct(values, q, scale) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def layer_metrics(tracer, untraced_s, traced_s) -> dict:
    g = tracer.stats
    steps = g("solver.step").outer
    records = g("diagnostics.record").outer
    decomposes = g("decomposition.decompose").outer
    s, c = "s", "count"
    rows = {
        "spectral.transforms": (tracer.transforms, c),
        "spectral.fft_s": (g("spectral.fft").self_s, s),
        "spectral.fft_bytes_computed": (g("spectral.fft").bytes, "bytes"),
        "spectral.multiplier_s": (g("spectral.multiplier").self_s, s),
        "spectral.norm_s": (g("spectral.norm").self_s, s),
        "spectral.helical_defect_s": (g("spectral.helical_defect").incl_s, s),
        "spectral.max_divergence_s": (g("spectral.max_divergence").incl_s, s),
        "solver.steps": (steps, c),
        "solver.step_s": (g("solver.step").incl_s, s),
        "solver.step_self_s": (g("solver.step").self_s, s),
        "solver.step_ms_p50": (_pct(g("solver.step").durations, 50, 1e3), "ms"),
        "solver.step_ms_p90": (_pct(g("solver.step").durations, 90, 1e3), "ms"),
        "solver.transforms_per_step": (
            _ratio(g("solver.step").transforms + g("solver.cfl").transforms, steps), c),
        "solver.transforms_per_rhs": (_ratio(g("solver.step").transforms, 4 * steps), c),
        "solver.cfl_s": (g("solver.cfl").incl_s, s),
        "solver.rhs_perturbation_s": (g("solver.rhs_perturbation").incl_s, s),
        "diagnostics.records": (records, c),
        "diagnostics.record_s": (g("diagnostics.record").incl_s, s),
        "diagnostics.record_ms_p50": (_pct(g("diagnostics.record").durations, 50, 1e3), "ms"),
        # snapshot vorticity is computed inside a record but belongs to the snapshot
        "diagnostics.transforms_per_record": (
            _ratio(g("diagnostics.record").transforms - g("snapshot.write").transforms, records), c),
        "diagnostics.source_norm_s": (g("diagnostics.source_norm").incl_s, s),
        "diagnostics.csv_write_s": (g("diagnostics.csv_write").incl_s, s),
        "diagnostics.rate_study_s": (g("diagnostics.rate_study").incl_s, s),
        "fields.oseen_calls": (g("fields.oseen").outer, c),
        "fields.oseen_s": (g("fields.oseen").incl_s, s),
        "decomposition.calls": (decomposes, c),
        "decomposition.decompose_s": (g("decomposition.decompose").incl_s, s),
        "decomposition.decompose_ms_p50": (
            _pct(g("decomposition.decompose").durations, 50, 1e3), "ms"),
        "decomposition.ring_average_s": (g("decomposition.ring_average").incl_s, s),
        "decomposition.transforms_per_call": (
            _ratio(g("decomposition.decompose").transforms, decomposes), c),
        "decomposition.export_s": (g("decomposition.export").incl_s, s),
        "snapshot.read_s": (g("snapshot.read").incl_s, s),
        "snapshot.bytes_read": (g("snapshot.read").bytes, "bytes"),
        "snapshot.write_s": (g("snapshot.write").incl_s, s),
        "snapshot.bytes_written": (g("snapshot.write").bytes, "bytes"),
        "radial.cn_steps": (g("radial.cn_step").outer, c),
        "radial.cn_step_s": (g("radial.cn_step").incl_s, s),
        "radial.cn_step_us_p50": (_pct(g("radial.cn_step").durations, 50, 1e6), "us"),
        "radial.biot_savart_calls": (g("radial.biot_savart").outer, c),
        "radial.biot_savart_s": (g("radial.biot_savart").incl_s, s),
        "experiment.initial_s": (g("experiment.initial").incl_s, s),
        "experiment.run_s": (g("experiment.run").incl_s, s),
        "experiment.unattributed_s": (g("bench.unit").self_s + g("experiment.run").self_s, s),
        "trace.overhead_s": (traced_s - untraced_s, s),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}


# Scalar-FFT counts of the package when this benchmark was written.
BASELINE_COUNTS = {
    "solver.transforms_per_rhs": 15,
    "solver.transforms_per_step": 63,     # 4 RHS + 3 for the CFL estimate
    "diagnostics.transforms_per_record": {"trend64": 35, "free32": 46},
}


def self_check(workload, tracer, metrics) -> list[str]:
    """Report the traced counts against the baseline counts."""
    lines = []
    for name, expected in BASELINE_COUNTS.items():
        if isinstance(expected, dict):
            expected = expected.get(workload.name)
        value = metrics[name]["value"]
        if expected is None or value == 0:
            continue
        mark = "equals" if value == expected else "differs from"
        lines.append(f"{name} = {value:g} ({mark} the baseline {expected})")
    rhs = tracer.stats("solver.rhs_perturbation")
    if rhs.outer:
        lines.append(f"transforms per rhs_perturbation call = {rhs.transforms / rhs.outer:g}")
    return lines


# --- main ----------------------------------------------------------------------------


def run_untraced(workload, seconds, checks) -> dict:
    imports, setups = [], []

    def sample_setup():
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        imports.append(import_seconds())

    units = closed_loop(workload, seconds, checks, sample_setup)
    # setup_s: median fresh-interpreter import plus median program set-up
    setup_s = statistics.median(imports) + statistics.median(setups)
    total_work = sum(w for w, _ in units)
    total_s = sum(dt for _, dt in units)
    rate = _ratio(total_work, total_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# import helns in fresh interpreters: "
          + ", ".join(f"{x:.3f}" for x in imports) + " s")
    print("# program set-up: " + ", ".join(f"{x:.4f}" for x in setups) + " s")
    for line in workload.details():
        print(f"# {line}")
    print(f"# {len(units)} units, {total_work} {workload.work_name} in {total_s:.3f} s; "
          "per-unit rates " + ", ".join(f"{w / dt:.4f}" for w, dt in units))
    print(f"{workload.rate_name:16s} {rate:.6g} 1/s  "
          f"({workload.work_name} per wall second of the timed units)")
    print(f"{'setup_s':16s} {setup_s:.6g} s")
    print(f"{'peak_rss_mb':16s} {peak_rss_mb:.6g} MB")
    return {
        "work_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run_traced(basket, checks) -> dict:
    """Trace a fixed set of units of every workload; the metrics are totals.

    Every layer is exercised in every traced run, whichever workload was
    named, and the report breaks the totals down by workload.
    """
    total, untraced, traced = Tracer(), 0.0, 0.0
    by_workload = {}
    for workload in basket:
        workload.generate()
        workload.setup()
        tracer, u, t = traced_phase(workload, checks)
        by_workload[workload.name] = layer_metrics(tracer, u, t)
        total.merge(tracer)
        untraced, traced = untraced + u, traced + t
        print(f"# {workload.name}: {workload.trace_units} traced units; "
              f"untraced {u:.3f} s, traced {t:.3f} s")
        for line in self_check(workload, tracer, by_workload[workload.name]):
            print(f"# self-check {workload.name}: {line}")
    metrics = layer_metrics(total, untraced, traced)
    names = list(by_workload)
    print(f"{'metric':36s} {'total':>12s} " + " ".join(f"{n:>12s}" for n in names))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:12.6g} "
              + " ".join(f"{by_workload[n][name]['value']:12.6g}" for n in names)
              + f"  {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    helns = import_helns()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    # ``started`` lets compare mode check that two result sets were interleaved
    print(f"# helns benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} started={time.time():.3f}")
    prov = provenance(helns)
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    # in the checkout, as the benchmark reads and writes nothing outside it
    work_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    checks = workloads.Checks()
    try:
        if args.trace:
            basket = [cls(args.seed, work_dir) for cls in workloads.WORKLOADS.values()]
            metrics = run_traced(basket, checks)
        else:
            basket = [workloads.WORKLOADS[args.workload](args.seed, work_dir)]
            basket[0].generate()
            metrics = run_untraced(basket[0], args.seconds, checks)
        for workload in basket:
            ws_bytes, ws_what = workload.working_set()
            print(f"# {workload.name} working set: {ws_bytes / 1e6:.2f} MB, {ws_what}; "
                  f"{cache_fit(ws_bytes, prov['caches'])}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(checks.failures)
    print(f"{'error_rate':16s} {_ratio(failed, checks.attempted):.6g}  "
          f"({failed} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": failed if checks.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
