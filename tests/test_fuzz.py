"""Property tests: malformed INI and HLXF input fails with a clear error.

Arbitrary text for any INI key, and arbitrary bytes after the HLXF magic,
either parse or raise ``ConfigError`` / ``ValueError`` -- never a traceback
of another type.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helns.config import (  # noqa: E402
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from helns.snapshot import MAGIC, read_snapshot  # noqa: E402

KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]


def _with_value(section: str, key: str, value: str) -> str:
    """The default config's INI text with ``key`` of ``section`` set to ``value``."""
    lines = serialize_config(ExperimentConfig()).split("\n")
    start = lines.index(f"[{section}]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    entry = f"{key} = {value}"
    for i in range(start, end):
        if lines[i].split("=")[0].strip() == key:
            lines[i] = entry
            break
    else:
        lines.insert(start, entry)
    return "\n".join(lines)


def _header(dims, floats, ncomp) -> bytes:
    """A version-1 HLXF header after the magic."""
    return (np.array([1] + dims, "<u4").tobytes() + np.array(floats, "<f8").tobytes()
            + bytes([ncomp]))


@st.composite
def hlxf_tails(draw):
    """Bytes after the magic: random, or a version-1 header over a body of
    random length (sometimes exactly the promised one), which sometimes ends
    in a partial sample of 1 to 7 bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=256))
    dims = [draw(st.sampled_from([0, 6, 8, 9, 10, 2**31])) for _ in range(3)]
    floats = [draw(st.floats(allow_nan=True, allow_infinity=True)) for _ in range(4)]
    ncomp = draw(st.integers(0, 3))
    promised = ncomp * int(np.prod(dims, dtype=object))
    size = promised if draw(st.booleans()) and promised <= 3 * 10**3 else draw(
        st.integers(0, 64))
    body = draw(st.lists(st.floats(), min_size=size, max_size=size))
    partial = draw(st.one_of(st.just(b""), st.binary(min_size=1, max_size=7)))
    return _header(dims, floats, ncomp) + np.array(body, "<f8").tobytes() + partial


@st.composite
def partial_sample_tails(draw):
    """A valid version-1 header over a body that ends in a partial sample."""
    dims = [draw(st.sampled_from([8, 10, 2**31])) for _ in range(3)]
    Lx = draw(st.floats(min_value=1e-3, max_value=1e3))
    pitch = draw(st.floats(min_value=1e-3, max_value=1e3))
    time = draw(st.floats(allow_nan=False, allow_infinity=False))
    ncomp = draw(st.integers(0, 3))
    size = 8 * draw(st.integers(0, 64)) + draw(st.integers(1, 7))
    return _header(dims, [Lx, Lx, pitch, time], ncomp) + draw(
        st.binary(min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KEYS), st.text())
def test_any_ini_value_parses_or_raises_config_error(section_key, value):
    section, key = section_key
    try:
        cfg = parse_config(_with_value(section, key, value))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_ini_fuzz_helper_sets_the_key():
    assert parse_config(_with_value("time", "t_end", "0.3")).t_end == 0.3
    assert parse_config(_with_value("time", "dt", "0.01")).dt == 0.01


@settings(max_examples=300, deadline=None)
@given(hlxf_tails())
def test_any_hlxf_body_reads_or_raises_value_error(tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.hlxf"
        path.write_bytes(MAGIC + tail)
        try:
            read_snapshot(path)
        except ValueError:
            pass


@settings(max_examples=200, deadline=None)
@given(partial_sample_tails())
def test_partial_sample_body_raises_a_body_error(tail):
    # never NumPy's buffer-size message or a MemoryError from the header's dims
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.hlxf"
        path.write_bytes(MAGIC + tail)
        with pytest.raises(ValueError, match="HLXF body holds"):
            read_snapshot(path)
