"""Command-line interface.

Subcommands
-----------
simulate          run an experiment described by an INI config file
decompose         split an HLXF vorticity snapshot into circulation + remainder
verify            run acceptance presets and write a machine-readable summary
rate-study        fit radial decay exponents for weighted vorticity classes
sweep-inequality  seeded Poincare / Ladyzhenskaya inequality sweeps

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error (an ``--out`` that names a file included), 3 aborted unstable run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from . import diagnostics as diag
from .config import ConfigError, parse_config_file
from .decomposition import decompose, export_profile_csv
from .experiment import InstabilityError, run_experiment
from .presets import PRESETS, run_all, write_summary
from .snapshot import read_snapshot

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helns",
        description="Helically symmetric Navier-Stokes simulator and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"helns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from an INI config")
    sim.add_argument("--config", required=True, metavar="PATH", help="INI config file")
    sim.add_argument("--seed", type=int, default=None, help="override [initial] seed")
    sim.add_argument("--out", default=".", metavar="DIR", help="output directory")
    sim.add_argument("--quiet", action="store_true", help="suppress progress output")

    dec = sub.add_parser("decompose", help="decompose an HLXF vorticity snapshot")
    dec.add_argument("snapshot", metavar="SNAPSHOT", help="HLXF snapshot path")
    dec.add_argument("--m", type=float, default=1.5, help="weight exponent (> 1)")
    dec.add_argument("--out", default=".", metavar="DIR", help="output directory")
    dec.add_argument("--quiet", action="store_true", help="suppress the text report")

    ver = sub.add_parser("verify", help="run acceptance presets")
    ver.add_argument(
        "--preset",
        default="all",
        metavar="NAME",
        help="preset name or 'all' (default); known: " + ", ".join(PRESETS),
    )
    ver.add_argument("--out", default=".", metavar="DIR", help="output directory")
    ver.add_argument("--quiet", action="store_true", help="summary lines only")

    rate = sub.add_parser("rate-study", help="radial decay-rate study")
    rate.add_argument(
        "--m",
        default="1.5,1.2",
        metavar="LIST",
        help="comma-separated weight exponents, each in (1, 2)",
    )
    rate.add_argument(
        "--gaussian",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also run the Gaussian super-rate control (default on)",
    )
    rate.add_argument("--out", default=".", metavar="DIR", help="output directory")
    rate.add_argument("--quiet", action="store_true", help="suppress progress output")

    swp = sub.add_parser("sweep-inequality", help="seeded inequality sweeps")
    swp.add_argument("--seeds", type=int, default=100, help="number of seeds")
    swp.add_argument("--seed", type=int, default=0, help="first seed")
    swp.add_argument("--out", default=".", metavar="DIR", help="output directory")
    swp.add_argument("--quiet", action="store_true", help="suppress progress output")

    return parser


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _cmd_simulate(args) -> int:
    try:
        cfg = parse_config_file(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        result = run_experiment(cfg, args.out, quiet=args.quiet)
    except InstabilityError as exc:
        print(f"unstable run aborted: {exc}", file=sys.stderr)
        return 3
    _say(args.quiet, f"wrote {len(result.records)} records to {result.csv_path}")
    for path in result.snapshot_paths:
        _say(args.quiet, f"wrote snapshot {path}")
    _say(args.quiet, result.invariants.summary())
    return 0


def _cmd_decompose(args) -> int:
    try:
        snap = read_snapshot(args.snapshot)
    except FileNotFoundError:
        print(f"snapshot not found: {args.snapshot}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"cannot read snapshot: {exc}", file=sys.stderr)
        return 2
    try:
        result = decompose(
            snap.fields, snap.grid, args.m, background_spread=1.0 + snap.time
        )
    except ValueError as exc:
        print(f"decomposition rejected: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "decomposition_report.txt"
    report_path.write_text(result.report_text(), encoding="utf-8")
    written = [report_path]
    for name, profile in sorted(result.profiles.items()):
        path = out / f"profile_{name}.csv"
        export_profile_csv(profile, path)
        written.append(path)
    if not args.quiet:
        print(result.report_text(), end="")
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    out = Path(args.out)
    try:  # run_preset rejects an unknown name before it makes the directory
        reports = run_all(out, None if args.preset == "all" else [args.preset])
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    write_summary(reports, out / "summary.json")
    for report in reports:
        print(report.summary_line())
        if not args.quiet:
            for check in report.checks:
                print(check.line())
            print(f"    ({report.elapsed_seconds:.1f}s)")
    failing = [r.name for r in reports if not r.passed]
    if failing:
        print(f"failing criteria: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_rate_study(args) -> int:
    try:
        m_values = [float(part) for part in args.m.split(",") if part.strip()]
    except ValueError:
        print(f"--m must be a comma-separated list of numbers, got {args.m!r}",
              file=sys.stderr)
        return 2
    try:
        diag._check_tail_exponents(m_values)  # before any study runs
    except ValueError as exc:
        print(f"rate study rejected: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    studies = [diag.rate_study(m) for m in m_values]
    if args.gaussian:
        studies.append(diag.rate_study(initial="gaussian"))

    table_path = out / "rate_study.csv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("initial,m,exponent,expected,residual,confidence,super_rate\n")
        for s in studies:
            fh.write(
                ",".join(
                    [
                        s.initial,
                        "" if s.m is None else diag.format_float(s.m),
                        diag.format_float(s.fit.exponent),
                        "" if s.expected is None else diag.format_float(s.expected),
                        diag.format_float(s.fit.residual),
                        diag.format_float(s.fit.confidence),
                        str(int(s.super_rate)),
                    ]
                )
                + "\n"
            )
    for s in studies:
        label = f"m={s.m:g}" if s.m is not None else s.initial
        series_path = out / f"rate_series_{label.replace('=', '')}.csv"
        with open(series_path, "w", encoding="utf-8") as fh:
            fh.write("t,l2_v\n")
            for t, v in zip(s.times, s.values):
                fh.write(f"{diag.format_float(t)},{diag.format_float(v)}\n")
        expect = "" if s.expected is None else f" (expected {s.expected:g})"
        flag = " [super-rate]" if s.super_rate else ""
        _say(
            args.quiet,
            f"{label}: exponent {s.fit.exponent:.4f}{expect}, "
            f"residual {s.fit.residual:.3e}, {s.elapsed_seconds:.2f}s{flag}",
        )
    _say(args.quiet, f"wrote {table_path}")
    return 0


def _cmd_sweep_inequality(args) -> int:
    try:
        diag._check_sweep_seeds(args.seeds, args.seed)  # before any sweep runs
    except ValueError as exc:
        print(f"sweep rejected: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    poincare = diag.sweep_poincare(n_seeds=args.seeds, seed0=args.seed)
    lady1 = diag.sweep_ladyzhenskaya(n_seeds=args.seeds, pitch=1.0, seed0=args.seed)
    lady2 = diag.sweep_ladyzhenskaya(n_seeds=args.seeds, pitch=2.0, seed0=args.seed)
    payload = {
        "poincare": {
            "pitch": diag.format_float(poincare.pitch),
            "max_ratio": diag.format_float(poincare.max_ratio),
            "equality_gap": diag.format_float(poincare.equality_gap),
            "passed": poincare.passed(),
            "ratios": [diag.format_float(v) for v in poincare.ratios],
        },
        "ladyzhenskaya": {
            "c0_pitch1": diag.format_float(lady1.c0),
            "c0_pitch2": diag.format_float(lady2.c0),
            "relative_change": diag.format_float(abs(lady2.c0 - lady1.c0) / lady1.c0),
            "default_c0": diag.format_float(diag.DEFAULT_C0),
            "ratios_pitch1": [diag.format_float(v) for v in lady1.ratios],
            "ratios_pitch2": [diag.format_float(v) for v in lady2.ratios],
        },
    }
    sweep_path = out / "sweep_summary.json"
    with open(sweep_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _say(
        args.quiet,
        f"poincare: max ratio {poincare.max_ratio:.6f} (pitch {poincare.pitch:g}), "
        f"equality gap {poincare.equality_gap:.2e}",
    )
    _say(
        args.quiet,
        f"ladyzhenskaya: C0 {lady1.c0:.6g} (pitch 1) vs {lady2.c0:.6g} (pitch 2), "
        f"change {abs(lady2.c0 - lady1.c0) / lady1.c0:.2%}",
    )
    _say(args.quiet, f"wrote {sweep_path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "rate-study": _cmd_rate_study,
    "sweep-inequality": _cmd_sweep_inequality,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:  # from the INI file, or after a --seed override
        print(str(exc), file=sys.stderr)
        return 2
    except (FileExistsError, NotADirectoryError) as exc:  # --out is, or lies under, a file
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
