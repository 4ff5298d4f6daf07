"""Shared numeric types, reconstruction, and energy accounting.

Array conventions used throughout the package:

* image: float64 array of shape (channels, height, width). Serialization
  order is row-major within a channel, channels outermost (C order).
* filter bank: float64 array of shape (count, channels, filter_height,
  filter_width); every filter is kept at unit l2 norm.
* positions are "valid" coordinates: a filter placed at (row, col) lies
  fully inside the image, so 0 <= row <= height - filter_height and
  0 <= col <= width - filter_width.
* a sparse code's activations: one 1-D ACTIVATION structured array in
  selection order, from the encoder to disk; consumers read whole fields.

All arithmetic is 64-bit floating point. Arrays handed to these functions
are never mutated; operations are pure. Configs check themselves when built.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _native

UNIT_NORM_ATOL = 1e-10  # the one filter-norm tolerance: loaders, encoder and saver agree


class ConfigError(ValueError):
    """A bad argument value, or two individually valid inputs that disagree."""


class DataError(ValueError):
    """Unreadable, malformed or non-finite input, or a corpus that cannot be used."""


# One activation of a code: filter and valid position, then its signed coefficient.
ACTIVATION = np.dtype(
    [("filter_index", np.intp), ("row", np.intp), ("col", np.intp), ("coefficient", np.float64)]
)


@dataclass
class SparseCode:
    """Activations produced by greedy encoding of one image: a 1-D ACTIVATION
    array in selection order (any sequence of 4-tuples is converted).

    Repeated (filter, position) pairs are allowed; their coefficients sum.
    """

    channels: int
    image_height: int
    image_width: int
    activations: np.ndarray = field(default_factory=list)

    def __post_init__(self) -> None:
        self.activations = np.asarray(self.activations, dtype=ACTIVATION)

    def __len__(self) -> int:
        return len(self.activations)


def check_count(name: str, value, least: int = 1) -> None:
    """The one count check: value must be an integer >= least, and not a
    bool, else a ConfigError names it. Counts, sizes, scales and seeds all come here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_tolerance(value) -> None:
    """The one residual_tolerance check: a non-bool real number >= 0; inf passes, NaN does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0:
        raise ConfigError(f"residual_tolerance must be a number >= 0, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for dictionary learning; immutable, and checked when built."""

    num_filters: int
    filter_height: int
    filter_width: int
    sparsity: int  # greedy pursuit steps per image
    epochs: int
    seed: int = 0
    residual_tolerance: float = 0.0  # stop a pursuit when peak |corr| <= this
    min_activations: int = 1  # below this per epoch a filter is reinitialized

    def __post_init__(self) -> None:
        # every run has a seed; a pipeline seed reaches both layers through pipeline.seeded
        for name, least in {"num_filters": 1, "filter_height": 1, "filter_width": 1,
                            "sparsity": 1, "epochs": 0, "seed": 0, "min_activations": 1}.items():
            check_count(name, getattr(self, name), least)
        check_tolerance(self.residual_tolerance)


def as_image(arr, name: str = "image") -> np.ndarray:
    """Validate an array as a (channels, height, width) image of finite floats."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 3:
        raise DataError(f"{name} must have shape (channels, height, width), got {a.shape}")
    if min(a.shape) < 1:
        raise DataError(f"{name} has an empty dimension: {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} samples must be finite (found NaN or Inf)")
    return a


@dataclass(frozen=True, eq=False)
class PreparedBank:
    """A filter bank that passed as_bank's checks, unit norm included, as a
    read-only copy (conv_mp.prepare_bank makes one), so as_bank returns its
    array unchecked. Its shift table is built from the array on first read
    and kept read-only, so a bank's table cannot belong to another bank."""

    array: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape  # perfbench's correlate hook reads a bank's shape

    @functools.cached_property
    def table(self) -> np.ndarray:
        from .conv_mp import build_shift_gram  # here, as conv_mp imports this module
        table = build_shift_gram(self)
        table.flags.writeable = False
        return table


def as_bank(arr, name: str = "bank", unit_norm: bool = True) -> np.ndarray:
    """Validate an array as a (count, channels, h_f, w_f) filter bank; a
    PreparedBank's array passed these checks when it was made."""
    if isinstance(arr, PreparedBank):
        return arr.array
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 4:
        raise DataError(f"{name} must have shape (count, channels, h_f, w_f), got {a.shape}")
    if min(a.shape) < 1:
        raise DataError(f"{name} has an empty dimension: {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} entries must be finite (found NaN or Inf)")
    if unit_norm:
        with np.errstate(over="ignore"):  # a huge entry gives an inf norm, rejected below
            norms = filter_norms(a)
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_ATOL)
        if bad.size:
            raise DataError(
                f"{name} filter {bad[0]} has norm {norms[bad[0]]:.12g}, expected 1"
            )
    return a


def filter_norms(bank: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.square(bank), axis=(1, 2, 3)))


def check_compatible(code: SparseCode, bank: np.ndarray) -> None:
    """Reject (code, bank) pairs whose dims disagree, naming the offending field."""
    k, c, fh, fw = bank.shape
    if code.channels != c:
        raise ConfigError(f"channels mismatch: code has {code.channels}, bank has {c}")
    if fh > code.image_height:
        raise ConfigError(
            f"filter_height {fh} exceeds image_height {code.image_height}"
        )
    if fw > code.image_width:
        raise ConfigError(f"filter_width {fw} exceeds image_width {code.image_width}")
    acts = code.activations
    limits = {"filter_index": k - 1, "row": code.image_height - fh, "col": code.image_width - fw}
    bad = np.array([(acts[name] < 0) | (acts[name] > top) for name, top in limits.items()])
    if bad.any():
        i = int(bad.any(axis=0).argmax())  # the first bad activation, then its first bad field
        name, top = list(limits.items())[int(bad[:, i].argmax())]
        where = f"bank of {k}" if name == "filter_index" else f"valid grid [0, {top}]"
        raise ConfigError(f"activation {i}: {name} {acts[name][i]} outside {where}")


def reconstruct(code: SparseCode, bank: np.ndarray) -> np.ndarray:
    """Sum of coefficient-scaled filters pasted at their activation positions.

    One pass in C (_native.c's reconstruct) over the activations in order,
    reading the bank where it lies: each sample sums its terms in
    activation order from +0.0, as pasting one by one would."""
    bank = np.require(as_bank(bank, unit_norm=False), requirements="A")
    check_compatible(code, bank)
    _, c, fh, fw = bank.shape
    h, w = code.image_height, code.image_width
    acts = np.require(code.activations, requirements=("C", "A"))
    strides = np.array(bank.strides, dtype=np.intp) // bank.itemsize
    out = np.zeros((c, h, w))
    _native.library().reconstruct(acts.ctypes.data, len(acts), bank.ctypes.data,
                                  strides.ctypes.data, c, fh, fw, h, w, out.ctypes.data)
    return out


def residual_energy(image, code: SparseCode, bank: np.ndarray) -> float:
    """Squared l2 norm of image minus its reconstruction from the code."""
    img = as_image(image)
    if (code.channels, code.image_height, code.image_width) != img.shape:
        raise ConfigError(
            f"code dims {(code.channels, code.image_height, code.image_width)} "
            f"do not match image shape {img.shape}"
        )
    diff = img - reconstruct(code, bank)
    return float(np.sum(np.square(diff)))


def normalize_filters(bank) -> np.ndarray:
    """Rescale every filter to unit l2 norm, preserving direction."""
    a = as_bank(bank, unit_norm=False)
    norms = filter_norms(a)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"filter {zero[0]} is identically zero and cannot be normalized")
    return a / norms[:, None, None, None]
