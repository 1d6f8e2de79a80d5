"""Experiment configuration: INI parsing, validation and canonical echo.

A configuration file has five sections::

    [grid]      nx, ny, nz, Lx, pitch
    [physics]   a
    [initial]   kind, seed, amplitude, modes, sigma, s0
    [time]      t_end, cfl, dt, output_dt
    [output]    csv, snapshot_dt, snapshot_dir

The keys are the fields of :class:`ExperimentConfig`, and each is parsed by
the type its field declares.  ``t_end`` and a nonzero ``snapshot_dt`` are
whole multiples of ``output_dt``, so every output falls on that grid.
Validation reports *all* violations at once (:class:`ConfigError` carries the
list), and :func:`serialize_config` followed by :func:`parse_config` is a
fixed point: the echoed text parses to an identical configuration.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields as dc_fields

from .fields import _perturbation_violations
from .grid import _grid_violations, _rule
from .solver import _output_count, _solver_violations

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "INITIAL_KINDS",
    "parse_config",
    "parse_config_file",
    "serialize_config",
]

INITIAL_KINDS = ("oseen-only", "shear", "lamb2d", "perturbed-oseen")

# section -> its keys, each the name of an ExperimentConfig field, in echo order
_SCHEMA: dict[str, tuple[str, ...]] = {
    "grid": ("nx", "ny", "nz", "Lx", "pitch"),
    "physics": ("a",),
    "initial": ("kind", "seed", "amplitude", "modes", "sigma", "s0"),
    "time": ("t_end", "cfl", "dt", "output_dt"),
    "output": ("csv", "snapshot_dt", "snapshot_dir"),
}
_SECTION = {name: section for section, names in _SCHEMA.items() for name in names}


class ConfigError(ValueError):
    """Raised with the full list of configuration violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    # [grid]
    nx: int = 32
    ny: int = 32
    nz: int = 32
    Lx: float = 20.0
    pitch: float = 1.0
    # [physics]
    a: float = 1.0
    # [initial]
    kind: str = "perturbed-oseen"
    seed: int = 0
    amplitude: float = 0.1
    modes: tuple[int, ...] = (0, 1, 2)
    sigma: float = 1.2
    s0: float = 0.5
    # [time]
    t_end: float = 1.0
    cfl: float = 0.4
    dt: float | None = None
    output_dt: float = 0.1
    # [output]
    csv: str = "diagnostics.csv"
    snapshot_dt: float = 0.0
    snapshot_dir: str = "snapshots"

    def validate(self) -> list[str]:
        """Return every violated constraint (empty when valid), under its section.

        The grid, time and perturbation rules are those of GridSpec, SolverConfig
        and PerturbationSpec (sigma <= Lx/16 for kind 'perturbed-oseen' only);
        kind, s0 and the [output] keys are this type's own.
        """
        bad = _grid_violations(self)
        if self.kind not in INITIAL_KINDS:
            bad.append(
                ("kind", f"kind must be one of {', '.join(INITIAL_KINDS)}; got {self.kind!r}")
            )
        if self.kind == "shear" and self.a != 0.0:
            bad.append(
                ("kind", "kind 'shear' carries zero circulation; requires [physics] a = 0")
            )
        bad += _perturbation_violations(self, self.Lx if self.kind == "perturbed-oseen"
                                        else None)
        bad += _rule("s0", self.s0, self.s0 > 0, "be positive")
        bad += _solver_violations(self)
        if not self.csv:
            bad.append(("csv", "csv must be a nonempty path"))
        snap = _rule("snapshot_dt", self.snapshot_dt, self.snapshot_dt >= 0,
                     "be nonnegative (0 disables snapshots)")
        bad += snap
        if self.snapshot_dt > 0 and not snap:
            if not self.snapshot_dir:
                bad.append(
                    ("snapshot_dir", "snapshot_dir must be nonempty when snapshots are on")
                )
            if all(name != "output_dt" for name, _ in bad):
                try:
                    _output_count(self.snapshot_dt, self.output_dt, "snapshot_dt")
                except ValueError as exc:
                    bad.append(("snapshot_dt", str(exc)))
        return [f"[{_SECTION[name]}] {message}" for name, message in bad]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(k) for k in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a configuration as canonical INI text (``dt`` only when fixed)."""
    lines = []
    for section, names in _SCHEMA.items():
        lines.append(f"[{section}]")
        for name in names:
            value = getattr(cfg, name)
            if value is not None:
                lines.append(f"{name} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def _modes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# declared field type (a string under postponed annotations) -> value converter
# and what a value that it cannot convert must be
_CONVERTERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "float | None": (float, "a number"),
    "str": (str.strip, "text"),
    "tuple[int, ...]": (_modes, "comma-separated integers"),
}
_FIELD_TYPES = {f.name: f.type for f in dc_fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text into a validated :class:`ExperimentConfig`.

    Every violation — unknown sections, unknown keys, malformed values and
    out-of-range values — is collected and reported together.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # preserve key case (Lx vs lx are distinct)
    bad: list[str] = []
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax error: {exc}"]) from exc

    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            bad.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                bad.append(f"unknown key {key!r} in section [{section}]")
                continue
            convert, noun = _CONVERTERS[_FIELD_TYPES[key]]
            try:
                setattr(cfg, key, convert(raw))
            except ValueError:
                bad.append(f"[{section}] {key} must be {noun}, got {raw!r}")

    bad.extend(cfg.validate())
    if bad:
        raise ConfigError(bad)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
