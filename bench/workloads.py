"""The four benchmark workloads.

Every workload

* ``generate``s its inputs from the seed (not timed),
* performs the program's ``setup`` (timed as ``setup_s``),
* runs closed-loop ``unit``s of work, each returning ``(work, payload)``,
* ``check``s each payload against the package's own tolerances.

Package functions are called through their modules (``experiment.run_experiment``,
not a name imported here) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import helns
from helns import decomposition, diagnostics, experiment, radial, snapshot, solver
from helns.config import ExperimentConfig
from helns.fields import PerturbationSpec, oseen_vorticity, random_helical_perturbation
from helns.grid import GridSpec
from helns.presets import DEFECT_GROWTH_TOL, DIV_TOL, ENERGY_TOL, PYTHAGORAS_TOL, TREND_CONFIG
from helns.spectral import SpectralOps

from tracer import CallCounter

BENCH = Path(__file__).resolve().parent
SRC = Path(helns.__file__).resolve().parent.parent
# writes Analysis64's inputs: python -c GENERATE SRC BENCH SEED DIR
GENERATE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.Analysis64.write_inputs(int(sys.argv[3]), Path(sys.argv[4]))\n"
)
COMPLEX_BYTES = 16
REAL_BYTES = 8


def unit_seed(seed: int, index: int) -> int:
    """Input seed of unit ``index`` in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Checks:
    """Correctness gates: count attempted checks and keep the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def at_most(self, name: str, value: float, limit: float) -> None:
        self.expect(name, bool(value <= limit), f"{value!r} exceeds {limit!r}")


class Workload:
    name = ""
    work_name = ""   # what one count of work is
    rate_name = ""   # name of the throughput in the report
    trace_units = 1  # fixed number of units in a traced run

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def generate(self) -> None:
        """Build the inputs from the seed (excluded from every timing)."""

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, index: int):
        raise NotImplementedError

    def check(self, payload, checks: Checks) -> None:
        raise NotImplementedError

    def working_set(self) -> tuple[int, str]:
        raise NotImplementedError

    def details(self) -> list[str]:
        return []

    def new_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work_dir))


# --- 3D engine runs -----------------------------------------------------------


def _step_time_and_dt(args):
    """(t, dt) of a ``step_spectral3d(state, dt, ...)`` call, for the report."""
    return (args[0].t, args[1]) if len(args) >= 2 else (float("nan"), float("nan"))


class _ExperimentWorkload(Workload):
    work_name = "RK4 steps"
    rate_name = "steps_per_s"
    config: ExperimentConfig

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        # Counts steps and keeps (t, dt) of each; the only hook in an untraced run.
        self.steps = CallCounter(solver.step_spectral3d, record=_step_time_and_dt)

    def setup(self) -> None:
        cfg = dataclasses.replace(self.config, seed=self.seed)
        self.grid = experiment.build_grid(cfg)
        self.ops = SpectralOps(self.grid)
        experiment.build_initial(cfg, self.grid, self.ops)

    def unit(self, index: int):
        cfg = dataclasses.replace(self.config, seed=unit_seed(self.seed, index))
        out = self.new_dir()
        before = self.steps.calls
        result = experiment.run_experiment(cfg, out, ops=self.ops, quiet=True)
        return self.steps.calls - before, (result, out)

    def check(self, payload, checks: Checks) -> None:
        result, out = payload
        cfg = result.config
        inv = result.invariants
        checks.at_most("max |div v|", inv.max_div, DIV_TOL)
        checks.at_most("orthogonal energy split", inv.pythagoras, PYTHAGORAS_TOL)
        checks.at_most("helical defect growth", inv.defect_growth_rate, DEFECT_GROWTH_TOL)
        if cfg.a == 0.0:
            checks.expect("energy identity evaluated", inv.energy_residual_max is not None)
            if inv.energy_residual_max is not None:
                checks.at_most("energy identity residual", inv.energy_residual_max, ENERGY_TOL)
        n_out = round(cfg.t_end / cfg.output_dt) + 1
        checks.expect("record count", len(result.records) == n_out,
                      f"{len(result.records)} records, expected {n_out}")
        with open(result.csv_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh)
        checks.expect("diagnostics CSV rows", rows == n_out + 1, f"{rows} lines")
        if cfg.snapshot_dt > 0:
            size = 53 + 3 * REAL_BYTES * self.grid.npoints
            paths = result.snapshot_paths
            checks.expect("snapshot count", len(paths) == n_out, f"{len(paths)} snapshots")
            checks.expect("snapshot sizes", all(p.stat().st_size == size for p in paths))
        shutil.rmtree(out)

    def working_set(self):
        n = 3 * self.grid.nx * self.grid.ny * (self.grid.nz // 2 + 1) * COMPLEX_BYTES
        return n, "one complex spectral 3-vector"

    def details(self) -> list[str]:
        steps = self.steps.values
        if not steps:
            return []
        dts = np.array([dt for _, dt in steps])
        out_dt = self.config.output_dt
        ends = np.array([t + dt for t, dt in steps]) / out_dt
        at_output = np.abs(ends - np.round(ends)) < 1e-9
        return [
            f"dt range {dts.min():.4g} .. {dts.max():.4g} (median {np.median(dts):.4g}) "
            f"over {dts.size} steps; {int(np.count_nonzero(~at_output))} steps set by "
            f"the CFL bound or fixed dt, {int(np.count_nonzero(at_output))} end on an output time"
        ]


class Trend64(_ExperimentWorkload):
    """The theorem-trend configuration cut to t_end = 0.6: 12 steps, 7 records.

    Shorter cuts fail the helical-defect growth gate: the defect of the seeded
    data jumps to about 3e-6 by t = 0.1 and then decays, so the endpoint rate
    (d(t_end) - d(0)) / t_end is above 1e-6 until t_end is about 0.5.
    """

    name = "trend64"
    config = dataclasses.replace(TREND_CONFIG, t_end=0.6)
    trace_units = 1


class Free32(_ExperimentWorkload):
    """Background-free 32^3 run, CFL-limited, energy check and snapshots on."""

    name = "free32"
    config = ExperimentConfig(
        nx=32, ny=32, nz=32, Lx=20.0, pitch=1.0, a=0.0,
        kind="perturbed-oseen", amplitude=80.0, modes=(0, 1, 2), sigma=1.2,
        t_end=0.5, cfl=0.4, dt=None, output_dt=0.1, snapshot_dt=0.1,
    )
    trace_units = 4


# --- decomposition of snapshots -------------------------------------------------


class Analysis64(Workload):
    """``helns decompose`` on seeded 64^3 snapshots of a*w_LO(t) + curl v."""

    name = "analysis64"
    work_name = "decomposed snapshots"
    rate_name = "snapshots_per_s"
    trace_units = 3
    A_VALUES = (-2.0, 0.5, 1.0)  # as in the decomposition preset
    M = 1.5

    @classmethod
    def write_inputs(cls, seed: int, in_dir: Path) -> None:
        """Write the seeded snapshots, the true v_hat of each and ``inputs.json``."""
        rng = np.random.default_rng([seed, 64])
        grid = GridSpec.cube(64, 40.0, 1.0)
        ops = SpectralOps(grid)
        inputs = []
        for k, a in enumerate(rng.permutation(cls.A_VALUES)):
            spec = PerturbationSpec(
                seed=unit_seed(seed, k), amplitude=0.1, modes=(0, 1, 2), sigma=2.0
            )
            v_hat = random_helical_perturbation(spec, grid, ops)
            t = float(rng.uniform(0.25, 2.0))
            omega = ops.inv(ops.curl(v_hat)) + a * oseen_vorticity(grid, t)
            path = in_dir / f"snapshot_{k:04d}.hlxf"
            snapshot.write_snapshot(path, grid, t, omega)
            np.save(in_dir / f"truth_{k:04d}.npy", v_hat)
            inputs.append({"snapshot": path.name, "truth": f"truth_{k:04d}.npy", "a": float(a)})
        (in_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")

    def generate(self) -> None:
        # In a child process, so that peak_rss_mb measures the program, not the
        # making of its inputs; the truth is loaded only when a unit is checked.
        in_dir = self.new_dir()
        subprocess.run(
            [sys.executable, "-c", GENERATE, str(SRC), str(BENCH), str(self.seed), str(in_dir)],
            check=True, timeout=170,
        )
        inputs = json.loads((in_dir / "inputs.json").read_text(encoding="utf-8"))
        self.inputs = [(in_dir / i["snapshot"], i["a"], in_dir / i["truth"]) for i in inputs]

    def setup(self) -> None:
        snap = snapshot.read_snapshot(self.inputs[0][0])
        self.ops = SpectralOps(snap.grid)

    def unit(self, index: int):
        path, a_true, truth = self.inputs[index % len(self.inputs)]
        snap = snapshot.read_snapshot(path)
        result = decomposition.decompose(
            snap.fields, snap.grid, self.M, ops=self.ops,
            background_spread=1.0 + snap.time,
        )
        out = self.new_dir()
        (out / "decomposition_report.txt").write_text(result.report_text(), encoding="utf-8")
        for name, profile in sorted(result.profiles.items()):
            decomposition.export_profile_csv(profile, out / f"profile_{name}.csv")
        return 1, (result, a_true, truth, out)

    def check(self, payload, checks: Checks) -> None:
        result, a_true, truth, out = payload
        ops = self.ops
        v_true = np.load(truth)
        checks.at_most(f"a recovery error (a = {a_true:g})", abs(result.a - a_true), 1e-10)
        diff = result.v_hat - v_true
        h1 = np.sqrt(ops.l2_norm_sq(v_true) + ops.grad_norm_sq(v_true))
        err = np.sqrt(ops.l2_norm_sq(diff) + ops.grad_norm_sq(diff)) / h1
        checks.at_most(f"v relative H1 error (a = {a_true:g})", err, 1e-8)
        checks.at_most("angular-mean radial velocity", result.mean_radial_max, 1e-10)
        written = sorted(p.name for p in out.iterdir())
        checks.expect("report and profiles written", len(written) == 1 + len(result.profiles),
                      ", ".join(written))
        shutil.rmtree(out)

    def working_set(self):
        return 3 * REAL_BYTES * self.ops.grid.npoints, "one physical 3-component snapshot"


# --- radial engine ---------------------------------------------------------------


class Radial(Workload):
    """The rate-study and radial-convergence presets' radial-engine runs.

    The inputs are the presets' pinned closed-form profiles; the seed is not used.
    """

    name = "radial"
    work_name = "Crank-Nicolson steps"
    rate_name = "cn_steps_per_s"
    trace_units = 1
    # radial-convergence preset: Gaussian of spread s0 on [0, R], nst CN steps to t_end
    CONV_R, CONV_S0, CONV_T, CONV_STEPS = 40.0, 10.0, 1.0, 1024
    CONV_NODES = (512, 1024, 2048)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.steps = CallCounter(radial.step_radial)

    def setup(self) -> None:
        self.initial = {}
        for n in self.CONV_NODES:
            r = radial.uniform_radii(self.CONV_R, n)
            h0 = np.exp(-(r**2) / (4.0 * self.CONV_S0)) / (4.0 * np.pi * self.CONV_S0)
            self.initial[n] = radial.RadialProfile(r, h0)

    def _convergence_error(self, n: int) -> float:
        final = radial.run_radial(
            self.initial[n], self.CONV_T, self.CONV_T / self.CONV_STEPS, parity="even"
        )
        r = final.r
        s = self.CONV_S0 + self.CONV_T
        exact = np.exp(-(r**2) / (4.0 * s)) / (4.0 * np.pi * s)
        return float(np.max(np.abs(final.values - exact)))

    def unit(self, index: int):
        before = self.steps.calls
        studies = (
            diagnostics.rate_study(1.5),
            diagnostics.rate_study(1.2, R=2000.0, n=32768),
            diagnostics.rate_study(initial="gaussian"),
        )
        errors = {n: self._convergence_error(n) for n in self.CONV_NODES}
        return self.steps.calls - before, (studies, errors)

    def check(self, payload, checks: Checks) -> None:
        (s15, s12, gauss), errors = payload
        # exponent windows of the rate-study preset
        checks.at_most("m = 1.5 exponent window", abs(s15.fit.exponent + 0.25), 0.10)
        checks.at_most("m = 1.2 exponent window", abs(s12.fit.exponent + 0.10), 0.08)
        checks.expect("Gaussian flagged super-rate", bool(gauss.super_rate),
                      f"exponent {gauss.fit.exponent:.4f}")
        n1, n2, n3 = self.CONV_NODES
        for a, b in ((n1, n2), (n2, n3)):
            order = np.log2(errors[a] / errors[b])
            checks.at_most(f"CN order {a} -> {b}", abs(order - 2.0), 0.35)
        checks.at_most(f"CN error at {n3} nodes", errors[n3], 1e-8)

    def working_set(self):
        return 32768 * REAL_BYTES, "the largest radial profile (32768 nodes)"


WORKLOADS = {w.name: w for w in (Trend64, Free32, Analysis64, Radial)}
