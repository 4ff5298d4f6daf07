"""Parser fuzzing: any bytes given as a code file, a pipeline config, a PGM/PPM
image, a bank or a float image either parse or raise ConfigError/DataError,
so the CLI exits 2 or 3, never 4. Any code saved and loaded back is the
same code, bit for bit, and saves to the same bytes.

Hypothesis runs derandomized with no example database and a fixed example
count, so the suite stays deterministic. Its storage directory, where it
caches the constants it reads from local sources even without a database,
points into the system temp directory, so no .hypothesis directory appears
in the tree. That has to happen at import: the cache fills during collection.
"""

import math
import struct
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "convmp-hypothesis")

from convmp.cli import _parse_config_file, _pipeline_config  # noqa: E402
from convmp.core import ConfigError, DataError, SparseCode  # noqa: E402
from convmp.model_io import (  # noqa: E402
    INTP_MAX, load_bank, load_code, load_float_image, load_image, save_code,
)
from convmp.pipeline import PipelineConfig  # noqa: E402

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def prefixed(prefixes):
    """Arbitrary bytes, half the time behind a well-formed start, so examples
    also reach the checks past the first line or key."""
    return st.one_of(
        st.binary(max_size=96),
        st.builds(bytes.__add__, st.sampled_from(prefixes), st.binary(max_size=64)),
    )


CODE_PREFIXES = [b"CMPC1 1 4 4 1\n", b"CMPC1 1 4 4 0\n", b"CMPC1 2 9 9 2\n0 1 1 0.5\n"]
CONFIG_PREFIXES = [b"layer1.k=", b"layer1.filter=", b"layer1.tolerance=", b"layer2.q=",
                   b"pool=", b"image_size=", b"seed=", b"# comment\n"]


@FUZZ
@given(data=prefixed(CODE_PREFIXES))
def test_load_code_parses_or_raises_data_error(tmp_path, data):
    path = tmp_path / "fuzz.code"
    path.write_bytes(data)
    try:
        assert isinstance(load_code(path), SparseCode)
    except DataError:
        pass


@FUZZ
@given(data=prefixed(CONFIG_PREFIXES))
def test_pipeline_config_parses_or_raises_typed_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        assert isinstance(_pipeline_config(_parse_config_file(path)), PipelineConfig)
    except (ConfigError, DataError):
        pass


# Header fields are small signed integers, zero and negatives included.
# Binary headers store them as u32, so a negative one reads back as a huge
# size. Half the time the payload has exactly the size the header implies
# (taking absolute values), so examples also get past the length check.
SMALL = st.integers(-3, 5)


@st.composite
def pnm_files(draw):
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(SMALL), draw(SMALL)
    maxval = draw(st.one_of(st.just(255), st.integers(-1, 256)))
    implied = abs(width * height) * (1 if magic == b"P5" else 3)
    size = draw(st.one_of(st.just(implied), st.integers(0, 64)))
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    return header + draw(st.binary(min_size=size, max_size=size))


@st.composite
def f8_files(draw, magic, rank):
    fields = [draw(st.one_of(st.just(1), SMALL))] + [draw(SMALL) for _ in range(rank)]
    implied = math.prod(abs(f) for f in fields[1:]) * 8
    size = draw(st.one_of(st.just(implied), st.integers(0, 96)))
    header = magic + struct.pack(f"<{1 + rank}i", *fields)
    return header + draw(st.binary(min_size=size, max_size=size))


@FUZZ
@given(data=pnm_files())
def test_load_image_parses_or_raises_data_error(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    try:
        assert isinstance(load_image(path), np.ndarray)
    except DataError:
        pass


@FUZZ
@given(data=f8_files(b"CMPD1", 4))
def test_load_bank_parses_or_raises_data_error(tmp_path, data):
    path = tmp_path / "fuzz.bank"
    path.write_bytes(data)
    try:
        assert isinstance(load_bank(path), np.ndarray)
    except DataError:
        pass


@FUZZ
@given(data=f8_files(b"CMPF1", 3))
def test_load_float_image_parses_or_raises_data_error(tmp_path, data):
    path = tmp_path / "fuzz.f64"
    path.write_bytes(data)
    try:
        assert isinstance(load_float_image(path), np.ndarray)
    except DataError:
        pass


# Any index intp holds, and finite coefficients with the edge cases forced in.
INDICES = st.integers(-INTP_MAX, INTP_MAX)
COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def codes(draw):
    """Up to 50 records over at most 8 distinct positions, so repeats are common."""
    positions = draw(st.lists(st.tuples(INDICES, INDICES, INDICES), min_size=1, max_size=8))
    acts = draw(st.lists(st.tuples(st.sampled_from(positions), COEFFICIENTS), max_size=50))
    dims = draw(st.tuples(*[st.integers(1, 1000)] * 3))
    return SparseCode(*dims, [(*position, a) for position, a in acts])


@FUZZ
@given(code=codes())
def test_code_files_round_trip_bit_for_bit(tmp_path, code):
    first, second = tmp_path / "first.code", tmp_path / "second.code"
    save_code(code, first)
    loaded = load_code(first)
    save_code(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    dims = (loaded.channels, loaded.image_height, loaded.image_width)
    assert dims == (code.channels, code.image_height, code.image_width)
    assert loaded.activations.dtype == code.activations.dtype
    assert loaded.activations.tobytes() == code.activations.tobytes()
