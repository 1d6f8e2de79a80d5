"""I/O contracts: HLXF snapshots, INI configuration and the command line."""

import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helns import cli, diagnostics, presets, solver
from helns.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from helns.diagnostics import DiagnosticsRecord, write_records_csv
from helns.experiment import run_experiment
from helns.fields import PerturbationSpec, oseen_vorticity, random_helical_perturbation
from helns.grid import GridSpec
from helns.snapshot import MAGIC, read_snapshot, write_snapshot
from helns.spectral import SpectralOps


@pytest.fixture(scope="module")
def grid():
    return GridSpec(nx=8, ny=8, nz=12, Lx=5.0, pitch=0.75)


@pytest.fixture(scope="module")
def fields(grid):
    rng = np.random.default_rng(11)
    return rng.standard_normal((3,) + grid.shape)


class TestSnapshotFormat:
    def test_round_trip_is_exact(self, tmp_path, grid, fields):
        path = tmp_path / "snap.hlxf"
        write_snapshot(path, grid, 1.25, fields)
        snap = read_snapshot(path)
        assert snap.grid == grid
        assert snap.time == 1.25
        assert np.array_equal(snap.fields, fields)

    def test_write_is_deterministic(self, tmp_path, grid, fields):
        p1, p2 = tmp_path / "a.hlxf", tmp_path / "b.hlxf"
        write_snapshot(p1, grid, 0.5, fields)
        write_snapshot(p2, grid, 0.5, fields)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path, grid, fields):
        path = tmp_path / "snap.hlxf"
        write_snapshot(path, grid, 2.0, fields[:1])
        raw = path.read_bytes()
        assert raw[:4] == MAGIC == b"HLXF"
        assert np.frombuffer(raw, "<u4", 4, 4).tolist() == [1, 8, 8, 12]
        assert np.frombuffer(raw, "<f8", 4, 20).tolist() == [5.0, 5.0, 0.75, 2.0]
        assert raw[52] == 1
        assert len(raw) == 53 + 8 * grid.npoints

    def test_body_is_x_fastest(self, tmp_path, grid):
        ramp = np.broadcast_to(
            np.arange(grid.nx, dtype=float)[:, None, None], grid.shape
        )[None]
        path = tmp_path / "ramp.hlxf"
        write_snapshot(path, grid, 0.0, ramp)
        body = np.frombuffer(path.read_bytes()[53:], "<f8")
        assert np.array_equal(body[: grid.nx], np.arange(grid.nx, dtype=float))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hlxf"
        path.write_bytes(b"XXXX" + bytes(60))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_unsupported_version_rejected(self, tmp_path, grid, fields):
        path = tmp_path / "v2.hlxf"
        write_snapshot(path, grid, 0.0, fields)
        raw = bytearray(path.read_bytes())
        raw[4:8] = np.array([2], "<u4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.hlxf"
        path.write_bytes(b"HLXF\x01\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    def test_wrong_body_size_rejected(self, tmp_path, grid, fields):
        path = tmp_path / "cut.hlxf"
        write_snapshot(path, grid, 0.0, fields)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="body"):
            read_snapshot(path)

    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_read_equals_the_frombuffer_reference(self, tmp_path, grid, fields, ncomp):
        path = tmp_path / "snap.hlxf"
        write_snapshot(path, grid, 0.5, fields[:ncomp])
        body = np.frombuffer(path.read_bytes(), dtype="<f8", offset=53)
        ref = np.stack([c.reshape(grid.nz, grid.ny, grid.nx).transpose(2, 1, 0)
                        for c in body.reshape(ncomp, -1)])
        snap = read_snapshot(path)
        assert snap.fields.shape == (ncomp,) + grid.shape
        assert snap.fields.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("ncomp", [1, 3])
    def test_write_equals_the_transposed_copy_reference(self, tmp_path, grid, fields, ncomp):
        path = tmp_path / "snap.hlxf"
        write_snapshot(path, grid, 0.5, fields[:ncomp])
        body = b"".join(np.ascontiguousarray(c.transpose(2, 1, 0)).astype("<f8").tobytes()
                        for c in fields[:ncomp])
        assert path.read_bytes()[53:] == body

    @pytest.mark.parametrize("extra", [1, 7, 8 + 3])
    def test_partial_sample_body_names_the_body(self, tmp_path, grid, fields, extra):
        path = tmp_path / "tail.hlxf"
        write_snapshot(path, grid, 0.0, fields)
        path.write_bytes(path.read_bytes() + bytes(extra))
        with pytest.raises(ValueError, match="HLXF body holds"):
            read_snapshot(path)

    def test_huge_header_fails_before_allocating(self, tmp_path):
        # 2^31 samples a side: the body's length is checked against the
        # file's size before any sample array exists
        header = (MAGIC + np.array([1, 2**31, 2**31, 2**31], "<u4").tobytes()
                  + np.array([4.0, 4.0, 1.0, 0.0], "<f8").tobytes() + bytes([3]))
        path = tmp_path / "huge.hlxf"
        path.write_bytes(header + bytes(19))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="HLXF body holds 19 bytes"):
                read_snapshot(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_write_rejects_wrong_shape(self, tmp_path, grid):
        with pytest.raises(ValueError, match="shape"):
            write_snapshot(tmp_path / "x.hlxf", grid, 0.0, np.zeros((3, 4, 4, 4)))

    def test_write_rejects_nonfinite(self, tmp_path, grid, fields):
        bad = fields.copy()
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            write_snapshot(tmp_path / "x.hlxf", grid, 0.0, bad)

    @pytest.mark.parametrize("time", [np.inf, np.nan])
    def test_write_rejects_nonfinite_time(self, tmp_path, grid, fields, time):
        with pytest.raises(ValueError, match="finite"):
            write_snapshot(tmp_path / "x.hlxf", grid, time, fields)


class TestConfig:
    def test_defaults_are_valid(self):
        assert ExperimentConfig().validate() == []

    def test_serialize_parse_is_identity(self):
        for cfg in (
            ExperimentConfig(),
            ExperimentConfig(nx=48, ny=48, nz=16, Lx=40.0, pitch=2.0, a=-0.5,
                             seed=7, amplitude=0.2, modes=(1, 3), sigma=2.5,
                             dt=0.01, t_end=4.0, snapshot_dt=0.5),
            ExperimentConfig(kind="shear", a=0.0, s0=0.3),
        ):
            text = serialize_config(cfg)
            assert parse_config(text) == cfg
            assert serialize_config(parse_config(text)) == text

    def test_dt_line_only_when_fixed(self):
        assert "dt" not in {
            line.split("=")[0].strip()
            for line in serialize_config(ExperimentConfig()).splitlines()
            if "=" in line
        }
        assert "dt = 0.01" in serialize_config(ExperimentConfig(dt=0.01))

    def test_all_violations_reported_at_once(self):
        text = serialize_config(ExperimentConfig())
        text = (
            text.replace("nx = 32", "nx = 7")
            .replace("Lx = 20.0", "Lx = -1.0")
            .replace("kind = perturbed-oseen", "kind = banana")
            .replace("cfl = 0.4", "cfl = 1.5")
            .replace("sigma = 1.2", "sigma = -2.0")
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        joined = "\n".join(excinfo.value.violations)
        assert len(excinfo.value.violations) >= 5
        for token in ("nx", "Lx", "kind", "cfl", "sigma"):
            assert token in joined

    def test_unknown_section_and_key_reported(self):
        text = serialize_config(ExperimentConfig()) + "\n[turbo]\nboost = 9\n"
        text = text.replace("seed = 0", "seed = 0\nwarp = 1")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        joined = "\n".join(excinfo.value.violations)
        assert "unknown section" in joined and "turbo" in joined
        assert "unknown key" in joined and "warp" in joined

    def test_malformed_number_reported(self):
        text = serialize_config(ExperimentConfig()).replace("nx = 32", "nx = abc")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert any("nx" in v for v in excinfo.value.violations)

    def test_shear_requires_zero_circulation(self):
        cfg = ExperimentConfig(kind="shear", a=1.0)
        assert any("shear" in v for v in cfg.validate())

    def test_lamb2d_run_rejects_nonpositive_spread(self, tmp_path):
        # run_experiment validates a config built in code as parse_config does
        cfg = ExperimentConfig(nx=16, ny=16, nz=16, a=0.0, kind="lamb2d", s0=0.0)
        with pytest.raises(ValueError, match="s0 must be positive"):
            run_experiment(cfg, tmp_path, quiet=True)

    @pytest.mark.parametrize("key,value", [("t_end", 0.45), ("snapshot_dt", 0.15)])
    def test_run_rejects_time_off_the_output_grid(self, tmp_path, key, value):
        # the state at such a time would never reach a record
        cfg = ExperimentConfig(nx=16, ny=16, nz=16, output_dt=0.1, **{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be a whole multiple"):
            run_experiment(cfg, tmp_path, quiet=True)
        assert not (tmp_path / cfg.csv).exists()

    @pytest.mark.parametrize("name,value,extra", [
        ("a", np.inf, {}), ("a", np.nan, {}), ("dt", np.inf, {}),
        ("output_dt", np.inf, {}), ("Lx", np.inf, {"sigma": 1.0}),
        ("t_end", -np.inf, {}), ("amplitude", np.nan, {}), ("snapshot_dt", np.inf, {}),
        ("s0", np.inf, {}), ("pitch", np.inf, {}), ("cfl", np.nan, {}), ("sigma", np.nan, {}),
    ])
    def test_nonfinite_float_rejected_as_parse_config_does(self, tmp_path, name, value, extra):
        # a config built in code meets the "must be finite" rule that parsed text meets
        cfg = ExperimentConfig(nx=16, ny=16, nz=16, **{name: value}, **extra)
        assert f"] {name} must be finite, got {value!r}" in cfg.validate()[0]
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            run_experiment(cfg, tmp_path, quiet=True)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key,text,message", [
        ("a", "inf", "[physics] a must be finite, got inf"),
        ("amplitude", "nan", "[initial] amplitude must be finite, got nan"),
        ("sigma", "inf", "[initial] sigma must be finite, got inf"),
        ("modes", "", "[initial] modes must be a nonempty list of nonnegative integers, got ()"),
        ("output_dt", "inf", "[time] output_dt must be finite, got inf"),
    ])
    def test_ini_value_rejected_by_its_owner(self, key, text, message):
        # the INI path reports the message of the type that owns the rule
        lines = serialize_config(ExperimentConfig()).splitlines()
        text = "\n".join(f"{key} = {text}" if line.startswith(f"{key} =") else line
                         for line in lines)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert excinfo.value.violations == [message]

    def test_readme_default_config_is_the_default(self):
        # README's complete INI example, comments stripped, lists every key
        # the parser accepts with its default value
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("config with the default values:", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]
        text = "\n".join(line.split(";", 1)[0].rstrip() for line in block.splitlines())
        assert parse_config(text) == ExperimentConfig()

    def test_modes_parsing(self):
        text = serialize_config(ExperimentConfig()).replace(
            "modes = 0,1,2", "modes = 2, 4"
        )
        assert parse_config(text).modes == (2, 4)


def _write_config(tmp_path, **overrides):
    kwargs = dict(
        nx=16, ny=16, nz=16, Lx=20.0, a=1.0, seed=0, amplitude=0.05,
        sigma=1.2, t_end=0.2, dt=0.05, output_dt=0.1,
    )
    kwargs.update(overrides)
    cfg = ExperimentConfig(**kwargs)
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return path


class TestCli:
    def test_simulate_zero_t_end_writes_single_record(self, tmp_path):
        ini = _write_config(tmp_path, t_end=0.0)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_simulate_is_bitwise_deterministic(self, tmp_path):
        ini = _write_config(tmp_path, snapshot_dt=0.2)
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                             "--quiet"]) == 0
            outs.append(out)
        csv1 = (outs[0] / "diagnostics.csv").read_bytes()
        csv2 = (outs[1] / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        snaps1 = sorted((outs[0] / "snapshots").glob("*.hlxf"))
        snaps2 = sorted((outs[1] / "snapshots").glob("*.hlxf"))
        assert len(snaps1) == len(snaps2) >= 1
        for a, b in zip(snaps1, snaps2):
            assert a.read_bytes() == b.read_bytes()

    def test_simulate_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_simulate_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        ini = tmp_path / "run.ini"
        if kind == "directory":
            ini.mkdir()
        else:
            ini.write_bytes(b"[grid]\nnx = 16\n\xff\xfe\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert "cannot read config: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_invalid_config_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(
            serialize_config(ExperimentConfig()).replace("cfl = 0.4", "cfl = 1.5")
        )
        assert cli.main(["simulate", "--config", str(ini)]) == 2
        assert "cfl" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("t_end", 0.45), ("snapshot_dt", 0.15)])
    def test_simulate_time_off_the_output_grid_exits_2(self, tmp_path, capsys, key, value):
        ini = _write_config(tmp_path, output_dt=0.1, **{key: value})
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == 2
        assert f"{key} must be a whole multiple of output_dt" in capsys.readouterr().err

    def test_simulate_too_wide_envelope_exits_2(self, tmp_path, capsys):
        ini = _write_config(tmp_path, Lx=16.0, sigma=1.2)  # Lx/16 = 1 < sigma
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == 2
        assert "sigma must not exceed Lx/16" in capsys.readouterr().err

    def test_simulate_nonfinite_run_exits_3_with_partial_csv(self, tmp_path, capsys,
                                                            monkeypatch):
        # the third step returns a non-finite state; the next stage-1 tendency
        # raises FloatingPointError, which must end as exit 3, not a traceback
        real_step = solver.step_spectral3d
        calls = []

        def poisoned_step(state, dt, *args, **kwargs):
            calls.append(dt)
            new = real_step(state, dt, *args, **kwargs)
            if len(calls) == 3:
                new.block[...] = np.nan
            return new

        monkeypatch.setattr(solver, "step_spectral3d", poisoned_step)
        ini = _write_config(tmp_path, t_end=0.3)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header, t = 0 and t = 0.1
        assert len(calls) == 3

    def test_simulate_nonfinite_output_state_exits_3_before_its_record(
            self, tmp_path, capsys, monkeypatch):
        # the second step lands on t = 0.1 with a non-finite state: the stage
        # evaluated for that record raises, so no row is written for it
        real_step = solver.step_spectral3d
        calls = []

        def poisoned_step(state, dt, *args, **kwargs):
            calls.append(dt)
            new = real_step(state, dt, *args, **kwargs)
            if len(calls) == 2:
                new.block[...] = np.nan
            return new

        monkeypatch.setattr(solver, "step_spectral3d", poisoned_step)
        ini = _write_config(tmp_path, t_end=0.3)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        lines = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header and t = 0
        assert len(calls) == 2

    def test_decompose_round_trip(self, tmp_path):
        grid = GridSpec.cube(32, 20.0, 1.0)
        ops = SpectralOps(grid)
        spec = PerturbationSpec(seed=2, amplitude=0.1, sigma=1.2)
        v_hat = random_helical_perturbation(spec, grid, ops)
        omega = ops.inv(ops.curl(v_hat)) + 0.8 * oseen_vorticity(grid, 0.0)
        snap_path = tmp_path / "state.hlxf"
        write_snapshot(snap_path, grid, 0.0, omega)
        out = tmp_path / "dec"
        assert cli.main(["decompose", str(snap_path), "--out", str(out),
                         "--quiet"]) == 0
        report = (out / "decomposition_report.txt").read_text()
        assert "a = " in report and "helical_defect" in report
        assert "envelope_c3 = " in report and "envelope_c4 = " in report
        profiles = sorted(p.name for p in out.glob("profile_*.csv"))
        assert profiles  # one CSV per radial profile
        a_line = next(line for line in report.splitlines() if line.startswith("a = "))
        assert float(a_line.split("=")[1]) == pytest.approx(0.8, abs=1e-8)

    def test_decompose_is_bitwise_deterministic(self, tmp_path):
        grid = GridSpec.cube(32, 20.0, 1.0)
        ops = SpectralOps(grid)
        spec = PerturbationSpec(seed=4, amplitude=0.1, sigma=1.2)
        v_hat = random_helical_perturbation(spec, grid, ops)
        omega = ops.inv(ops.curl(v_hat)) + 0.8 * oseen_vorticity(grid, 0.0)
        snap_path = tmp_path / "state.hlxf"
        write_snapshot(snap_path, grid, 0.0, omega)
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli.main(["decompose", str(snap_path), "--out", str(out),
                             "--quiet"]) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert "decomposition_report.txt" in files
        assert any(name.startswith("profile_") for name in files)
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_decompose_readme_example_snapshots(self, tmp_path, capsys):
        # README's default config plus snapshot_dt = 0.1: at 32^3 the seeded
        # perturbation fails the helical gate at t = 0 and passes by t = 0.3
        ini = tmp_path / "run.ini"
        cfg = ExperimentConfig(t_end=0.3, snapshot_dt=0.1)
        ini.write_text(serialize_config(cfg), encoding="utf-8")
        results = tmp_path / "results"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(results),
                         "--quiet"]) == 0
        snaps = results / "snapshots"
        assert cli.main(["decompose", str(snaps / "snapshot_0003.hlxf"),
                         "--out", str(tmp_path / "dec"), "--quiet"]) == 0
        capsys.readouterr()
        assert cli.main(["decompose", str(snaps / "snapshot_0000.hlxf"),
                         "--out", str(tmp_path / "dec0"), "--quiet"]) == 2
        assert "not helical" in capsys.readouterr().err

    def test_decompose_requires_three_components(self, tmp_path, capsys):
        # decompose's own shape rule, in its words
        grid = GridSpec.cube(16, 20.0, 1.0)
        path = tmp_path / "one.hlxf"
        write_snapshot(path, grid, 0.0, np.zeros((1,) + grid.shape))
        assert cli.main(["decompose", str(path), "--out", str(tmp_path / "dec")]) == 2
        assert capsys.readouterr().err == (
            "decomposition rejected: expected samples of shape (3, 16, 16, 16) "
            "(3 components on the grid), got (1, 16, 16, 16)\n"
        )
        assert not (tmp_path / "dec").exists()

    def test_decompose_unreadable_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.hlxf"
        path.write_bytes(b"XXXX" + bytes(60))
        assert cli.main(["decompose", str(path)]) == 2
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_decompose_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "snap.hlxf"
        path.mkdir()
        assert cli.main(["decompose", str(path), "--out", str(tmp_path / "dec")]) == 2
        assert "cannot read snapshot: " in capsys.readouterr().err
        assert not (tmp_path / "dec").exists()

    # header offsets of Lx, Ly, pitch and time
    @pytest.mark.parametrize("offsets,value", [((20, 28), np.inf), ((36,), np.inf),
                                               ((44,), np.inf), ((44,), np.nan)],
                             ids=["Lx", "pitch", "time", "time-nan"])
    def test_decompose_nonfinite_header_exits_2(self, tmp_path, capsys, offsets, value):
        grid = GridSpec.cube(16, 20.0, 1.0)
        path = tmp_path / "snap.hlxf"
        write_snapshot(path, grid, 0.5, oseen_vorticity(grid, 0.5))
        raw = bytearray(path.read_bytes())
        for offset in offsets:
            raw[offset:offset + 8] = np.array([value], "<f8").tobytes()
        path.write_bytes(bytes(raw))
        assert cli.main(["decompose", str(path), "--out", str(tmp_path / "dec")]) == 2
        assert "cannot read snapshot: " in capsys.readouterr().err
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("Ly", [40.0, np.inf, np.nan])
    def test_decompose_rectangular_header_exits_2(self, tmp_path, capsys, Ly):
        # the header keeps its Ly field; a grid takes only Ly = Lx
        grid = GridSpec.cube(16, 20.0, 1.0)
        path = tmp_path / "snap.hlxf"
        write_snapshot(path, grid, 0.5, oseen_vorticity(grid, 0.5))
        raw = bytearray(path.read_bytes())
        raw[28:36] = np.array([Ly], "<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"square cross-section required \(Lx = Ly\)"):
            read_snapshot(path)
        assert cli.main(["decompose", str(path), "--out", str(tmp_path / "dec")]) == 2
        assert "cannot read snapshot: square cross-section" in capsys.readouterr().err
        assert not (tmp_path / "dec").exists()

    def test_verify_unknown_preset_exits_2(self, tmp_path, capsys):
        code = cli.main(["verify", "--preset", "bogus", "--out", str(tmp_path / "v")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @staticmethod
    def _poison_sweeps(monkeypatch):
        for name in ("sweep_poincare", "sweep_ladyzhenskaya"):
            monkeypatch.setattr(diagnostics, name,
                                lambda *args, **kwargs: pytest.fail("a sweep ran"))

    def test_sweep_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        self._poison_sweeps(monkeypatch)  # the rules are checked before any sweep runs
        code = cli.main(["sweep-inequality", "--seeds", "1", "--seed", "-1",
                         "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert capsys.readouterr().err == (
            "sweep rejected: seed0 must be an integer >= 0, got -1\n"
        )
        assert not (tmp_path / "sweep").exists()

    def test_sweep_zero_seeds_exits_2(self, tmp_path, capsys, monkeypatch):
        self._poison_sweeps(monkeypatch)
        code = cli.main(["sweep-inequality", "--seeds", "0", "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert capsys.readouterr().err == "sweep rejected: n_seeds must be an integer >= 1, got 0\n"
        assert not (tmp_path / "sweep").exists()

    def test_simulate_negative_seed_exits_2(self, tmp_path, capsys):
        # the --seed override meets the config's own seed rule
        ini = _write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(ini), "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "invalid configuration:\n  - [initial] seed must be an integer >= 0, got -1\n"
        )
        assert not (tmp_path / "out").exists()

    def test_rate_study_rejects_out_of_range_m(self, tmp_path, capsys, monkeypatch):
        # every m is checked before the first study runs
        monkeypatch.setattr(diagnostics, "rate_study",
                            lambda *args, **kwargs: pytest.fail("a study ran"))
        code = cli.main(["rate-study", "--m", "1.5,0.9", "--out", str(tmp_path / "rates")])
        assert code == 2
        assert capsys.readouterr().err == (
            "rate study rejected: m must lie in (1, 2) for the weighted-tail study, got 0.9\n"
        )
        assert not (tmp_path / "rates").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    @pytest.mark.parametrize("command", ["simulate", "decompose", "verify", "rate-study",
                                         "sweep-inequality"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch, command, out):
        # FileExistsError (--out is a file) or NotADirectoryError (a parent is),
        # raised before any study or sweep runs
        (tmp_path / "afile").write_text("keep")
        monkeypatch.setattr(diagnostics, "rate_study",
                            lambda *args, **kwargs: pytest.fail("a study ran"))
        self._poison_sweeps(monkeypatch)
        if command == "simulate":
            args = ["--config", str(_write_config(tmp_path))]
        elif command == "decompose":
            grid = GridSpec.cube(16, 20.0, 1.0)
            args = [str(tmp_path / "snap.hlxf")]
            write_snapshot(args[0], grid, 0.5, oseen_vorticity(grid, 0.5))
        else:
            args = {"verify": ["--preset", "poincare"], "rate-study": ["--m", "1.5"],
                    "sweep-inequality": ["--seeds", "1"]}[command]
        assert cli.main([command, *args, "--out", str(tmp_path / out), "--quiet"]) == 2
        assert "cannot write output: " in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == "keep"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "helns" in capsys.readouterr().out


def _trend_like_records(perp_rate):
    """Records of an 81-sample run whose perp energy decays like e^{rate t}."""
    out = []
    for k in range(81):
        t = 0.1 * k
        y = float(np.exp(perp_rate * t))
        out.append(DiagnosticsRecord(
            t, y, y, np.sqrt(t) * y, y, y, y, y, 0.0, 0.0, 1.0, t, 0.0, 0.0, 0.0
        ))
    return out


def test_verify_ignores_stale_trend_csv(tmp_path, monkeypatch):
    # a CSV left behind by an aborted or older run must never feed the presets
    write_records_csv(_trend_like_records(+1.0), tmp_path / presets.TREND_CONFIG.csv)
    calls = []

    def fake_run(cfg, out_dir, **kwargs):
        calls.append(cfg)
        return SimpleNamespace(records=_trend_like_records(-1.5))

    monkeypatch.setattr(presets, "run_experiment", fake_run)
    perp = presets.run_preset("perp-decay", tmp_path)
    presets.run_preset("theorem-trend", tmp_path)
    assert calls == [presets.TREND_CONFIG]  # one run, shared by both presets
    assert perp.checks[0].value == pytest.approx(-1.5)


def test_rate_study_summary_is_byte_reproducible(tmp_path):
    # the runtime check records whether the studies met 60 s, not a wall time
    paths = []
    for name in ("first.json", "second.json"):
        paths.append(tmp_path / name)
        presets.write_summary([presets.run_preset("rate-study", tmp_path)], paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
