#!/usr/bin/env python3
"""Summarize or compare result sets of the benchmark.

A result set is a directory of run logs, the standard output of
``bench/run.py`` saved one file per run (``bench/sweep.py`` writes them).

    python3 bench/compare.py spread RESULTS
        For each workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against the metric's bound
        in BENCHMARK.json ("steady" when below a third of the bound).

    python3 bench/compare.py compare BASE CHANGED
        For each workload and metric: both sides' median and quartiles, the
        fraction of pairs CHANGED wins (runs paired by seed; ties count for
        neither side), a REGRESSION flag when an end-to-end median is worse
        by more than the bound, and "unresolved" when either side's spread
        exceeds the bound.  The machine's speed drifts, so the two sets must
        have been run interleaved in time (``bench/sweep.py`` with two
        checkouts does so): a workload whose runs on one side all started
        before the first run of the other side is refused.

Exit code 1 when a spread check fails or a regression is flagged, 2 when
the result sets cannot be compared.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(
    r"# helns benchmark: workload=(\S+) seed=(-?\d+) .*trace=(\d) started=([\d.]+)")


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: result}} from the logs in ``directory``.

    Each result also gets the run's start time (seconds since the epoch) under
    the key ``started``.
    """
    runs: dict = defaultdict(dict)
    for log in sorted(directory.glob("*.log")):
        lines = log.read_text(encoding="utf-8").strip().splitlines()
        match = HEADER.match(lines[0]) if lines else None
        if not match:
            print(f"skipping {log}: no benchmark header", file=sys.stderr)
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {log}: last line is not a result", file=sys.stderr)
            continue
        workload, seed, trace = match.group(1), int(match.group(2)), int(match.group(3))
        result["started"] = float(match.group(4))
        runs[(workload, trace)][seed] = result
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {m["name"]: dict(m, trace=0) for m in spec["end_to_end"]}
    out.update({m["name"]: dict(m, trace=1) for m in spec["per_layer"]})
    return out


def values_of(results: dict, name: str) -> dict:
    return {seed: r["metrics"][name]["value"] for seed, r in results.items()
            if name in r["metrics"]}


def cmd_spread(directory: Path) -> int:
    runs = load(directory)
    ok = True
    for (workload, trace), results in sorted(runs.items()):
        failed = sum(1 for r in results.values() if not r["correct"])
        print(f"{workload} (trace {trace}): {len(results)} runs, {failed} not correct")
        ok &= failed == 0
        if trace:
            continue
        for name, m in metric_specs().items():
            vals = list(values_of(results, name).values())
            if m["trace"] or not vals:
                continue
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            if sp < m["bound"] / 3:
                verdict = "steady"
            elif sp <= m["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "EXCEEDS BOUND"
                ok = False
            print(f"  {name:14s} median {med:.6g} {m['unit']}  quartiles {q1:.6g} .. {q3:.6g}  "
                  f"spread {sp:.4f} (bound {m['bound']}): {verdict}")
    return 0 if ok else 1


def _better(m: dict, new: float, old: float) -> bool:
    return new > old if m["better"] == "higher" else new < old


def interleaved(a: dict, b: dict) -> bool:
    """Whether each side has a run that started after the other side's first."""
    sa = [r["started"] for r in a.values()]
    sb = [r["started"] for r in b.values()]
    return max(sa) > min(sb) and max(sb) > min(sa)


def cmd_compare(base_dir: Path, new_dir: Path) -> int:
    base, new = load(base_dir), load(new_dir)
    apart = [key for key in sorted(set(base) & set(new)) if not interleaved(base[key], new[key])]
    if apart:
        for workload, trace in apart:
            print(f"{workload} (trace {trace}): the runs of one side all started before "
                  "those of the other; run both sides interleaved with "
                  "bench/sweep.py --out RESULTS BASE CHANGED", file=sys.stderr)
        return 2
    regression = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, {len(new[key])} changed runs")
        for name, m in metric_specs().items():
            if m["trace"] != trace:
                continue
            a, b = values_of(base[key], name), values_of(new[key], name)
            if not a or not b:
                continue
            seeds = sorted(set(a) & set(b))
            pairs = ([(a[s], b[s]) for s in seeds] if seeds
                     else list(zip(a.values(), b.values())))
            won = sum(1 for x, y in pairs if _better(m, y, x))
            aq, bq = quartiles(list(a.values())), quartiles(list(b.values()))
            change = (bq[1] - aq[1]) / abs(aq[1]) if aq[1] else 0.0
            note = ""
            if "bound" in m:
                worse = -change if m["better"] == "higher" else change
                all_better = all(_better(m, y, x) for x in a.values() for y in b.values())
                if max(spread(list(a.values())), spread(list(b.values()))) > m["bound"] \
                        and not all_better:
                    note = "unresolved (spread exceeds bound)"
                elif worse > m["bound"]:
                    note = f"REGRESSION (worse by {worse:.1%}, bound {m['bound']:.0%})"
                    regression = True
            print(f"  {name:36s} base {aq[1]:.6g} [{aq[0]:.6g}, {aq[2]:.6g}]  "
                  f"changed {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] {m['unit']}  "
                  f"{change:+.1%}  won {won}/{len(pairs)}  {note}")
    return 1 if regression else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "spread":
        return cmd_spread(Path(argv[1]))
    if len(argv) == 3 and argv[0] == "compare":
        return cmd_compare(Path(argv[1]), Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
