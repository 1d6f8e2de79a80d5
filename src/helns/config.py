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
import math
from dataclasses import dataclass, fields as dc_fields

from .solver import _output_count

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
        """Return every violated constraint (empty when valid)."""
        bad: list[str] = []
        for section, names in _SCHEMA.items():
            for name in names:
                value = getattr(self, name)
                if _PARSERS[_FIELD_TYPES[name]] is _parse_float and value is not None \
                        and not math.isfinite(value):
                    bad.append(f"[{section}] {name} must be finite, got {value!r}")
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if n < 8 or n % 2 != 0:
                bad.append(f"[grid] {name} must be an even integer >= 8, got {n}")
        if not self.Lx > 0:
            bad.append(f"[grid] Lx must be positive, got {self.Lx}")
        if not self.pitch > 0:
            bad.append(f"[grid] pitch must be positive, got {self.pitch}")
        if self.kind not in INITIAL_KINDS:
            bad.append(
                f"[initial] kind must be one of {', '.join(INITIAL_KINDS)}; got {self.kind!r}"
            )
        if self.kind == "shear" and self.a != 0.0:
            bad.append(
                "[initial] kind 'shear' carries zero circulation; requires [physics] a = 0"
            )
        if self.seed < 0:
            bad.append(f"[initial] seed must be a nonnegative integer, got {self.seed}")
        if self.amplitude < 0:
            bad.append(f"[initial] amplitude must be nonnegative, got {self.amplitude}")
        if len(self.modes) == 0 or any(k < 0 for k in self.modes):
            bad.append(
                f"[initial] modes must be a nonempty list of nonnegative integers, got {self.modes}"
            )
        if not self.sigma > 0:
            bad.append(f"[initial] sigma must be positive, got {self.sigma}")
        elif self.kind == "perturbed-oseen" and self.sigma > self.Lx / 16.0:
            bad.append(f"[initial] sigma must not exceed Lx/16 = {self.Lx / 16.0:g} "
                       f"for kind 'perturbed-oseen', got {self.sigma}")
        if not self.s0 > 0:
            bad.append(f"[initial] s0 must be positive, got {self.s0}")
        if not self.t_end >= 0:
            bad.append(f"[time] t_end must be nonnegative, got {self.t_end}")
        if not 0 < self.cfl < 1:
            bad.append(f"[time] cfl must lie in (0, 1), got {self.cfl}")
        if self.dt is not None and not self.dt > 0:
            bad.append(f"[time] dt must be positive when given, got {self.dt}")
        if not self.output_dt > 0:
            bad.append(f"[time] output_dt must be positive, got {self.output_dt}")
        if not self.csv:
            bad.append("[output] csv must be a nonempty path")
        if not self.snapshot_dt >= 0:
            bad.append(
                f"[output] snapshot_dt must be nonnegative (0 disables snapshots), "
                f"got {self.snapshot_dt}"
            )
        if self.snapshot_dt > 0 and not self.snapshot_dir:
            bad.append("[output] snapshot_dir must be nonempty when snapshots are on")
        for section, name in (("time", "t_end"), ("output", "snapshot_dt")):
            span = getattr(self, name)
            if span > 0 and self.output_dt > 0:
                try:
                    _output_count(span, self.output_dt, name)
                except ValueError as exc:
                    bad.append(f"[{section}] {exc}")
        return bad


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


def _parse_int(text: str, where: str, bad: list[str]) -> int | None:
    try:
        return int(text)
    except ValueError:
        bad.append(f"{where} must be an integer, got {text!r}")
        return None


def _parse_float(text: str, where: str, bad: list[str]) -> float | None:
    try:
        value = float(text)
    except ValueError:
        bad.append(f"{where} must be a number, got {text!r}")
        return None
    if not math.isfinite(value):
        bad.append(f"{where} must be finite, got {text!r}")
        return None
    return value


def _parse_modes(text: str, where: str, bad: list[str]) -> tuple[int, ...] | None:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    values: list[int] = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError:
            bad.append(f"{where} must be comma-separated integers, got {text!r}")
            return None
    return tuple(values)


def _parse_str(text: str, where: str, bad: list[str]) -> str:
    return text.strip()


# declared field type (a string under postponed annotations) -> value parser
_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_float,
    "str": _parse_str,
    "tuple[int, ...]": _parse_modes,
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
            value = _PARSERS[_FIELD_TYPES[key]](raw, f"[{section}] {key}", bad)
            if value is not None:
                setattr(cfg, key, value)

    bad.extend(cfg.validate())
    if bad:
        raise ConfigError(bad)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
