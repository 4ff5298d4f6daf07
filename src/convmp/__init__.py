"""Convolutional matching pursuit and translation-invariant dictionary learning.

Sparse-codes images against a bank of small shared filters with a greedy
pursuit whose correlation bookkeeping runs off a precomputed table of
filter/filter inner products at all relative shifts, and learns the bank by
alternating encoding with per-filter PCA updates over activated patches.
"""

__version__ = "0.1.0"

from .core import (
    ACTIVATION,
    ConfigError,
    DataError,
    SparseCode,
    TrainConfig,
    normalize_filters,
    reconstruct,
    residual_energy,
)
from .conv_mp import build_shift_gram, conv_mp_encode, correlate
from .dict_learn import TrainStats, init_filters, train

__all__ = [
    "ACTIVATION",
    "ConfigError",
    "DataError",
    "SparseCode",
    "TrainConfig",
    "TrainStats",
    "normalize_filters",
    "reconstruct",
    "residual_energy",
    "correlate",
    "build_shift_gram",
    "conv_mp_encode",
    "init_filters",
    "train",
]
