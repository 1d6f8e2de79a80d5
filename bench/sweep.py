#!/usr/bin/env python3
"""Run the benchmark over N seeds and keep every run's output as a result set.

    python3 bench/sweep.py --out RESULTS [--runs 10] [--seed0 0] [--trace 0]
                           [--workload NAME ...] CHECKOUT [CHANGED]

Each run is one process, started in a checkout with BENCHMARK.json's
``command`` and ``run_seconds`` (both read from this script's own checkout),
and seeds seed0, seed0+1, ...

With one checkout the standard output of each run goes to
``RESULTS/<workload>_t<trace>_s<seed>.log`` (standard error, when not empty,
to ``.err`` beside it); ``python3 bench/compare.py spread RESULTS`` summarizes
it.  With two, the runs go to ``RESULTS/base`` and ``RESULTS/changed``, and
the two checkouts alternate seed by seed in ABBA order (base first on even
seeds, changed first on odd ones), so that a drift of the machine's speed
falls on both sides alike; ``python3 bench/compare.py compare RESULTS/base
RESULTS/changed`` compares them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(checkout: Path, out: Path, spec: dict, name: str, seed: int, trace: int) -> None:
    log = out / f"{name}_t{trace}_s{seed}.log"
    start = time.perf_counter()
    done = subprocess.run(
        spec["command"] + ["--workload", name, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    log.write_text(done.stdout, encoding="utf-8")
    if done.stderr:
        log.with_suffix(".err").write_text(done.stderr, encoding="utf-8")
    last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{out.name} {name} seed {seed}: exit {done.returncode} in "
          f"{time.perf_counter() - start:.1f} s: {last[0][:160]}", flush=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="default: the workloads of BENCHMARK.json")
    parser.add_argument("checkouts", nargs="+", type=Path, metavar="CHECKOUT",
                        help="one checkout, or the base and the changed one")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one checkout, or two (base and changed)")

    if len(args.checkouts) == 1:
        sides = [(args.checkouts[0].resolve(), args.out)]
    else:
        sides = [(c.resolve(), args.out / side)
                 for c, side in zip(args.checkouts, ("base", "changed"))]
    for _, out in sides:
        out.mkdir(parents=True, exist_ok=True)
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in range(args.seed0, args.seed0 + args.runs):
            for checkout, out in (sides if seed % 2 == 0 else sides[::-1]):
                run_one(checkout, out, spec, name, seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
