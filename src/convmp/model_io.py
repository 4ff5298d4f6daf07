"""Deterministic serialization: filter banks, float images, sparse codes,
8-bit PGM/PPM images, and filter-grid rendering.

Binary container (little-endian throughout):

* bank file: magic b"CMPD1", then five u32 fields (version=1, k, c, h_f,
  w_f), then k*c*h_f*w_f float64 samples in filter-major, channel-major,
  row-major order. Round-trips are bit exact.
* float image file: magic b"CMPF1", then four u32 fields (version=1, c, h,
  w), then c*h*w float64 samples in the canonical image layout. Used as
  the signed sidecar for preprocessed corpora.

Sparse codes are line-based text: a header "CMPC1 c h w n", then one
"filter row col coefficient" record per activation in selection order,
coefficients printed with 17 significant digits (lossless for float64).

Every file is written through write_atomic, so an interrupted write leaves
the previous file in place rather than a truncated one.
"""

from __future__ import annotations

import math
import os
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from .core import ConfigError, DataError, SparseCode, as_bank, as_image, check_count

BANK_MAGIC = b"CMPD1"
FLOAT_IMAGE_MAGIC = b"CMPF1"
CODE_MAGIC = "CMPC1"
FORMAT_VERSION = 1
INTP_MAX = np.iinfo(np.intp).max


# ---------------------------------------------------------------------------
# crash-safe writes

def write_atomic(path, chunks, text: bool = False) -> None:
    """Write the chunks (str if text, else bytes) to path all or nothing.

    They go to a fresh temp file in path's directory, which then replaces
    path with os.replace; if anything raises first, the temp file is removed
    and path keeps its previous contents. Text is encoded as Path.write_text
    encodes it. There is no fsync: this protects against a crash of the
    process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w" if text else "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path) -> str:
    """A text input's contents, decoded as write_atomic encodes text; a file
    that does not decode is a DataError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file ({exc})") from None


def write_lines(path, lines) -> None:
    """Write text lines, each ending in a newline, through write_atomic; no
    lines give an empty file."""
    write_atomic(path, ["".join(line + "\n" for line in lines)], text=True)


# ---------------------------------------------------------------------------
# filter banks and float images

def _write_f8(path, magic: bytes, array: np.ndarray) -> None:
    """magic, u32 version and dims, then the <f8 samples in C order."""
    header = magic + struct.pack(f"<{1 + array.ndim}I", FORMAT_VERSION, *array.shape)
    write_atomic(path, (header, np.ascontiguousarray(array, dtype="<f8").tobytes()))


def _read_f8(path, magic: bytes, rank: int, kind: str) -> np.ndarray:
    """Parse a _write_f8 container of the given rank; the array is not validated."""
    data = Path(path).read_bytes()
    head = len(magic) + 4 * (1 + rank)
    if len(data) < head or data[: len(magic)] != magic:
        raise DataError(f"{path}: not a {kind} file (bad magic)")
    version, *dims = struct.unpack(f"<{1 + rank}I", data[len(magic) : head])
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if min(dims) < 1:  # numpy cannot shape an empty array with a huge other dimension
        raise DataError(f"{path}: {kind} has an empty dimension: {tuple(dims)}")
    expected = math.prod(dims) * 8
    if len(data) - head != expected:
        raise DataError(f"{path}: payload is {len(data) - head} bytes, expected {expected}")
    return np.frombuffer(data, "<f8", offset=head).reshape(dims).astype(np.float64)


def save_bank(bank, path) -> None:
    _write_f8(path, BANK_MAGIC, as_bank(bank))


def load_bank(path) -> np.ndarray:
    bank = _read_f8(path, BANK_MAGIC, 4, "bank")
    return as_bank(bank, name=f"{path}: corrupt model, bank")


def save_float_image(image, path) -> None:
    _write_f8(path, FLOAT_IMAGE_MAGIC, as_image(image))


def load_float_image(path) -> np.ndarray:
    return as_image(_read_f8(path, FLOAT_IMAGE_MAGIC, 3, "float image"), name=str(path))


# ---------------------------------------------------------------------------
# 8-bit PGM (P5) / PPM (P6)

def _scan_pnm_header(data: bytes, path) -> tuple[list[int], int]:
    """Return the three numeric header fields and the raster offset."""
    if len(data) < 2 or data[0:1] != b"P" or data[1:2] not in b"56":
        raise DataError(f"{path}: unsupported magic {data[:2]!r}")
    fields: list[int] = []
    i = 2
    while len(fields) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise DataError(f"{path}: truncated header")
        try:
            fields.append(int(data[start:i]))
        except ValueError:
            raise DataError(f"{path}: bad header token {data[start:i]!r}") from None
    if min(fields[:2]) < 1:
        raise DataError(f"{path}: image size must be positive, got {fields[0]}x{fields[1]}")
    return fields, i + 1  # single whitespace byte separates header and raster


def load_image(path) -> np.ndarray:
    """Load a binary 8-bit PGM/PPM file, scaling samples to [0, 1]."""
    data = Path(path).read_bytes()
    (width, height, maxval), offset = _scan_pnm_header(data, path)
    channels = 1 if data[1:2] == b"5" else 3
    if not 0 < maxval < 256:
        raise DataError(f"{path}: unsupported depth (maxval {maxval})")
    expected = width * height * channels
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise DataError(f"{path}: raster is {len(raster)} bytes, expected {expected}")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    if channels == 1:
        out = arr.reshape(1, height, width)
    else:
        out = arr.reshape(height, width, 3).transpose(2, 0, 1)
    return as_image(out / maxval, name=str(path))


def save_image(image, path, signed: bool = False) -> None:
    """Write a tensor as binary 8-bit PGM/PPM.

    With signed=False samples are clamped to [0, 1] and quantized. With
    signed=True (normalized images, reconstructions) the tensor is affinely
    mapped to full range via (x - min) / (max - min) first; a constant
    image falls back to mid-gray.
    """
    img = as_image(image)
    c, h, w = img.shape
    if c not in (1, 3):
        raise ConfigError(f"can only write 1- or 3-channel images, got {c}")
    x = _affine_to_unit(img) if signed else np.clip(img, 0.0, 1.0)
    raster = np.rint(x * 255.0).astype(np.uint8)
    magic = b"P5" if c == 1 else b"P6"
    body = raster[0] if c == 1 else raster.transpose(1, 2, 0)
    header = magic + b"\n%d %d\n255\n" % (w, h)
    write_atomic(path, (header, np.ascontiguousarray(body).tobytes()))


# ---------------------------------------------------------------------------
# sparse codes

def save_code(code: SparseCode, path) -> None:
    acts = code.activations
    header = f"{CODE_MAGIC} {code.channels} {code.image_height} {code.image_width} {len(acts)}\n"
    # one "%d %d %d %.17g" slot per activation, filled from its fields in order
    records = ("%d %d %d %.17g\n" * len(acts)) % tuple(chain.from_iterable(acts.tolist()))
    write_atomic(path, [header + records], text=True)


def load_code(path) -> SparseCode:
    """Parse a code file; every index it holds fits intp, or it is a DataError."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty code file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != CODE_MAGIC:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    try:
        channels, height, width, count = (int(t) for t in head[1:])
    except ValueError:
        raise DataError(f"{path}: line 1: non-integer header field") from None
    if min(channels, height, width) < 1 or count < 0:
        raise DataError(
            f"{path}: line 1: header needs positive channels, height and width "
            f"and a non-negative count, got {lines[0]!r}"
        )
    if channels * height * width > INTP_MAX:
        raise DataError(f"{path}: line 1: {channels}x{height}x{width} samples overflow intp")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            record = (int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed record {line!r}") from None
        if max(map(abs, record[:3])) > INTP_MAX:
            raise DataError(f"{path}: line {lineno}: index overflows intp in {line!r}")
        if not math.isfinite(record[3]):
            raise DataError(f"{path}: line {lineno}: coefficient {parts[3]} is not finite")
        records.append(record)
    if len(records) != count:
        raise DataError(f"{path}: header promises {count} records, found {len(records)}")
    return SparseCode(channels, height, width, records)


# ---------------------------------------------------------------------------
# filter-grid rendering

def _affine_to_unit(filt: np.ndarray) -> np.ndarray:
    lo, hi = float(filt.min()), float(filt.max())
    if hi > lo:
        return (filt - lo) / (hi - lo)
    return np.full_like(filt, 0.5)


def render_filter_grid(bank, path=None, cell_scale: int = 1) -> np.ndarray:
    """Tile the filters into a near-square grid image and optionally save it.

    Each filter is independently mapped to full range; multi-channel
    filters show their channels side by side inside the cell. Cells are
    separated by 1-pixel black rules; unused cells are mid-gray. Returns
    the composed [0, 1] grid (before scaling it is
    rows*(h_f+1)+1 by cols*(cell_w+1)+1 pixels, cell_w = c*w_f + c - 1).
    """
    bank = as_bank(bank, unit_norm=False)
    k, c, fh, fw = bank.shape
    check_count("cell_scale", cell_scale)
    cols = math.ceil(math.sqrt(k))
    rows = math.ceil(k / cols)
    cell_w = c * fw + (c - 1)
    grid = np.zeros((rows * (fh + 1) + 1, cols * (cell_w + 1) + 1))
    for cell in range(rows * cols):
        r, col = divmod(cell, cols)
        top, left = 1 + r * (fh + 1), 1 + col * (cell_w + 1)
        if cell >= k:
            grid[top : top + fh, left : left + cell_w] = 0.5
            continue
        mapped = _affine_to_unit(bank[cell])
        for ch in range(c):
            x = left + ch * (fw + 1)
            grid[top : top + fh, x : x + fw] = mapped[ch]
    if cell_scale > 1:
        grid = np.repeat(np.repeat(grid, cell_scale, axis=0), cell_scale, axis=1)
    if path is not None:
        save_image(grid[None], path)
    return grid


# ---------------------------------------------------------------------------
# corpus listing

def list_images(directory) -> list[Path]:
    """Sorted PGM/PPM paths in a directory."""
    d = Path(directory)
    return sorted(p for p in d.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))


def list_float_images(directory) -> list[Path]:
    """Sorted float-sidecar paths in a directory."""
    return sorted(Path(directory).glob("*.f64"))
