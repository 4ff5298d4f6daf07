"""Matching pursuit over an explicit dictionary matrix: the tests' oracles.

The dictionary is a (dim, count) float64 array whose columns are unit-norm
atoms. Besides the plain greedy loop, a bookkeeping variant is provided
that correlates the dictionary with the signal only once and afterwards
updates the correlation vector through Gram-matrix rows. The plain variant
doubles as the oracle backend for the convolutional encoder's equivalence
tests (see toeplitz_expand). No user path runs this module, so it lives
with the tests, not in the convmp package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from convmp.conv_mp import greedy_steps
from convmp.core import UNIT_NORM_ATOL, ConfigError, DataError, as_bank

TOEPLITZ_COLUMN_LIMIT = 100_000


@dataclass
class PatchCode:
    """Greedy pursuit result over an explicit dictionary.

    ``coefficients[i]`` is the sum of all step increments for atom i;
    ``steps`` records the selection order as (atom index, increment) pairs.
    ``residual`` is the final residual when the encoder formed one (the
    Gram-bookkeeping encoder never touches the signal after its initial
    correlation, so it leaves this as None).
    """

    coefficients: np.ndarray
    steps: list[tuple[int, float]] = field(default_factory=list)
    residual: np.ndarray | None = None


def as_dictionary(arr, name: str = "dictionary") -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 2:
        raise DataError(f"{name} must have shape (dim, count), got {a.shape}")
    norms = np.sqrt(np.sum(a * a, axis=0))
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_ATOL)
    if bad.size:
        raise DataError(f"{name} atom {bad[0]} has norm {norms[bad[0]]:.12g}, expected 1")
    return a


def _signal_correlations(atoms: np.ndarray, signal: np.ndarray) -> np.ndarray:
    # Full dictionary-signal multiplication; the Gram variant calls this once.
    return atoms.T @ signal


def mp_encode(dictionary, signal, q: int) -> PatchCode:
    """Run exactly q greedy pursuit steps against the signal.

    Each step selects the atom with the largest absolute correlation with
    the current residual (ties to the lowest index), subtracts its signed
    projection from the residual, and accumulates the coefficient.
    """
    atoms = as_dictionary(dictionary)
    x = np.asarray(signal, dtype=np.float64)
    if x.shape != (atoms.shape[0],):
        raise ConfigError(
            f"signal shape {x.shape} does not match dictionary dim {atoms.shape[0]}"
        )
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")

    residual = x.copy()
    coeffs = np.zeros(atoms.shape[1])
    steps: list[tuple[int, float]] = []
    for _ in range(q):
        corr = _signal_correlations(atoms, residual)
        j = int(np.argmax(np.abs(corr)))
        a = float(corr[j])
        residual -= a * atoms[:, j]
        coeffs[j] += a
        steps.append((j, a))
    return PatchCode(coeffs, steps, residual)


def gram_matrix(dictionary) -> np.ndarray:
    """Pairwise atom inner products, entries[i][j] = <atom_i, atom_j>."""
    atoms = as_dictionary(dictionary)
    return atoms.T @ atoms


def mp_encode_gram(dictionary, gram, signal, q: int) -> PatchCode:
    """Pursuit with Gram bookkeeping: one dictionary-signal product total.

    Produces the same step sequence as mp_encode but maintains the
    correlation vector through columns of the Gram matrix instead of
    re-correlating the dictionary against the residual each step. It is
    the convolutional loop conv_mp.greedy_steps on (count, 1, 1) maps, so
    unlike mp_encode it stops early once the largest correlation is
    exactly zero (a zero signal gives no steps).
    """
    atoms = as_dictionary(dictionary)
    g = np.asarray(gram, dtype=np.float64)
    count = atoms.shape[1]
    if g.shape != (count, count):
        raise ConfigError(f"gram shape {g.shape} does not match atom count {count}")
    x = np.asarray(signal, dtype=np.float64)
    if x.shape != (atoms.shape[0],):
        raise ConfigError(
            f"signal shape {x.shape} does not match dictionary dim {atoms.shape[0]}"
        )
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")

    # table[j, i] = gram[i, j], so step j subtracts a * gram[:, j] as a column
    maps = _signal_correlations(atoms, x).reshape(count, 1, 1)
    acts = greedy_steps(maps, g.T[:, :, None, None], q)
    coeffs = np.zeros(count)
    np.add.at(coeffs, acts["filter_index"], acts["coefficient"])  # adds in step order
    return PatchCode(coeffs, acts[["filter_index", "coefficient"]].tolist())


def toeplitz_expand(bank, image_dims) -> np.ndarray:
    """Explicit dictionary of all zero-padded filter placements.

    Column (j, r, c) holds filter j pasted at valid position (r, c) of an
    image of the given (height, width), flattened in canonical layout;
    columns are ordered filter-major, then row-major by position. Intended
    for small oracle instances only, so the column count is capped.
    """
    bank = as_bank(bank, unit_norm=False)
    k, c, fh, fw = bank.shape
    h, w = image_dims
    if fh > h or fw > w:
        raise ConfigError(f"filter {fh}x{fw} does not fit inside image {h}x{w}")
    hv, wv = h - fh + 1, w - fw + 1
    ncols = k * hv * wv
    if ncols > TOEPLITZ_COLUMN_LIMIT:
        raise ConfigError(
            f"Toeplitz expansion needs {ncols} columns, over the {TOEPLITZ_COLUMN_LIMIT} guard"
        )
    out = np.zeros((c * h * w, ncols))
    canvas = np.zeros((c, h, w))
    col = 0
    for j in range(k):
        for r in range(hv):
            for cc in range(wv):
                canvas[:] = 0.0
                canvas[:, r : r + fh, cc : cc + fw] = bank[j]
                out[:, col] = canvas.ravel()
                col += 1
    return out
