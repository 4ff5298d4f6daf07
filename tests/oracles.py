"""Matching pursuit over an explicit dictionary matrix: the tests' oracles.

The dictionary is a (dim, count) float64 array whose columns are unit-norm
atoms. Besides the plain greedy loop, a bookkeeping variant is provided
that correlates the dictionary with the signal only once and afterwards
updates the correlation vector through Gram-matrix rows. The plain variant
doubles as the oracle backend for the convolutional encoder's equivalence
tests (see toeplitz_expand). oracle_greedy_steps is the convolutional
pursuit loop in numpy, greedy_steps' bit oracle. The filter refit's power
iteration has two oracles: power_iteration, to a tolerance, and
power_bits, bit for bit. The compiled reconstruct, collect and repair have
theirs in the numpy they replaced: reconstruct_bits (one np.bincount),
collect_bits (a gather through window_index) and repair_bits (np.add.at,
then np.subtract.at). oracle_update_filter is the sweep step as a loop over
positions. No user path runs this module, so it lives with the tests, not
in the convmp package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from codes import Activation
from convmp._native import POWER_CAPPED, POWER_CONVERGED, POWER_NON_FINITE, POWER_ZERO
from convmp.conv_mp import greedy_steps
from convmp.core import UNIT_NORM_ATOL, ConfigError, DataError, as_bank, check_compatible
from convmp.dict_learn import _draw_unit_patch, pca_top_component

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


def oracle_greedy_steps(maps, table, max_steps, tolerance=0.0):
    """The pursuit loop in numpy, a full-map rescan every step: the reference
    that greedy_steps, the C loop, must match bit for bit."""
    k, hv, wv = maps.shape
    fh = (table.shape[2] + 1) // 2
    fw = (table.shape[3] + 1) // 2
    activations = []
    for _ in range(max_steps):
        flat = int(np.abs(maps).argmax())
        j, pr, pc = np.unravel_index(flat, maps.shape)
        a = float(maps[j, pr, pc])
        if abs(a) <= tolerance:
            break
        activations.append(Activation(int(j), int(pr), int(pc), a))
        r0, r1 = max(0, pr - fh + 1), min(hv, pr + fh)
        c0, c1 = max(0, pc - fw + 1), min(wv, pc + fw)
        maps[:, r0:r1, c0:c1] -= a * table[
            j,
            :,
            r0 - pr + fh - 1 : r1 - pr + fh - 1,
            c0 - pc + fw - 1 : c1 - pc + fw - 1,
        ]
    return activations


def power_iteration(rows, prev=None, tol: float = 1e-10, max_iter: int = 10_000, seed: int = 0):
    """The top right singular vector of the (n, dim) rows by numpy power
    iteration, the loop pca_top_component ran before it moved into C.

    It starts from the same seeded draw (after a start whose step gives
    y = 0 it takes the stream's next draw, where pca_top_component restarts
    from a row), stops on the same relative residual and applies the same
    sign rule: a nonnegative inner product with prev, or, on a tie
    within 1e-12 or without prev, a positive first nonzero entry. Its sums
    run in BLAS's order, not in the compiled loop's lanes, so it is a
    tolerance oracle, not a bit oracle. Returns (vector, converged).
    """
    rows = np.asarray(rows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    norm, converged = 0.0, False
    for _ in range(max_iter):
        if norm == 0.0:
            v = rng.normal(size=rows.shape[1])
            v /= np.sqrt(v @ v)
        y = (rows @ v) @ rows
        lam, norm = float(v @ y), float(np.sqrt(y @ y))
        if norm == 0.0:
            continue
        d = y - lam * v
        v = y / norm
        if np.sqrt(d @ d) <= tol * max(lam, np.finfo(np.float64).tiny):
            converged = True
            break
    d = 0.0 if prev is None else float(v @ np.ravel(prev))
    if abs(d) <= 1e-12:
        nonzero = v[v != 0]
        d = nonzero[0] if nonzero.size else 0.0
    return (-v if d < 0 else v), converged


def _dot8(x, y) -> np.ndarray:
    """x . y over the last axis as _native.c's power sums it: x[i] * y[i]
    into 8 lanes, lane i mod 8, each summed in index order from 0.0, then
    folded ((0+1)+(2+3))+((4+5)+(6+7)). The products are laid out after
    one block of zeros (so each lane starts at +0.0, not at its first
    product) and padded with zeros, which leave a lane's sum unchanged;
    cumsum adds the blocks in order."""
    products = x * y
    lead, dim = products.shape[:-1], products.shape[-1]
    blocks = np.zeros((*lead, (dim + 15) // 8 * 8))
    blocks[..., 8 : 8 + dim] = products
    lane = np.cumsum(blocks.reshape(*lead, -1, 8), axis=-2)[..., -1, :]
    return (((lane[..., 0] + lane[..., 1]) + (lane[..., 2] + lane[..., 3]))
            + ((lane[..., 4] + lane[..., 5]) + (lane[..., 6] + lane[..., 7])))


def power_bits(rows, v, max_iter: int, tolerance: float):
    """_native.c's power in numpy, bit for bit: at most max_iter steps of
    power iteration on the (n, dim) rows from the unit vector v. A step is
    t = rows . v in _dot8's lanes, y = 0 + t_0 row_0 + t_1 row_1 + ... added
    row by row, lam = v . y, norm = |y|, then the residual |y - lam v| and
    v = y / norm; it stops once the residual is at most tolerance times
    max(lam, the smallest normal double). Returns (status, v, iterations)
    with power's status codes; a step whose |y|^2 is non-finite or below the
    smallest normal double leaves v as it was.
    """
    rows = np.asarray(rows, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    head = np.zeros((1, rows.shape[1]))  # y starts at +0.0, as power's does
    for step in range(1, max_iter + 1):
        t = _dot8(rows, v)
        y = np.cumsum(np.concatenate([head, t[:, None] * rows]), axis=0)[-1]
        lam, yy = _dot8(v, y), _dot8(y, y)
        norm = np.sqrt(yy)
        if not norm <= np.finfo(np.float64).max:
            return POWER_NON_FINITE, v, step
        if yy < np.finfo(np.float64).tiny:
            return POWER_ZERO, v, step
        d = y - lam * v
        residual = np.sqrt(_dot8(d, d))
        v = y / norm
        if residual <= tolerance * max(lam, np.finfo(np.float64).tiny):
            return POWER_CONVERGED, v, step
    return POWER_CAPPED, v, max_iter


def window_index(windows, c: int, fh: int, fw: int) -> np.ndarray:
    """The (n, c*fh*fw) flat sample index under each of filter_windows's
    windows, in the window's C order: start + channel * plane + row * width
    + column."""
    start, width, plane = (np.asarray(windows)[:, i, None, None, None] for i in range(3))
    index = start + np.arange(c)[:, None, None] * plane + np.arange(fh)[:, None] * width
    return (index + np.arange(fw)).reshape(len(windows), c * fh * fw)


def reconstruct_bits(code, bank) -> np.ndarray:
    """core.reconstruct as one np.bincount over every (activation, tap):
    bincount adds its weights in index order from +0.0, so each sample sums
    its terms in activation order."""
    bank = as_bank(bank, unit_norm=False)
    check_compatible(code, bank)
    k, c, fh, fw = bank.shape
    h, w = code.image_height, code.image_width
    acts = code.activations
    starts = np.stack([acts["row"] * w + acts["col"], np.full(len(acts), w),
                       np.full(len(acts), h * w)], axis=1)
    index = window_index(starts, c, fh, fw)
    values = acts["coefficient"][:, None] * bank.reshape(k, -1)[acts["filter_index"]]
    return np.bincount(index.ravel(), values.ravel(), minlength=c * h * w).reshape(c, h, w)


def collect_bits(residual, windows, coefs, filt) -> np.ndarray:
    """dict_learn.collect_activated_patches as a numpy gather: each window
    of the flat residual, plus coefs times the filter."""
    filt = np.asarray(filt, dtype=np.float64)
    patches = residual[window_index(windows, *filt.shape)]
    patches += coefs[:, None] * filt.ravel()
    return patches


def repair_bits(residual, windows, coefs, old, proj, new) -> None:
    """The repair of dict_learn.update_filter as two ordered scatters, in
    place: np.add.at of coefs times the old filter over every window, then
    np.subtract.at of proj times the new one."""
    index = window_index(windows, *old.shape).ravel()
    np.add.at(residual, index, (coefs[:, None] * old.ravel()).ravel())
    np.subtract.at(residual, index, (proj[:, None] * np.ravel(new)).ravel())


def oracle_update_filter(bank, j, positions, residuals, images, rng, min_activations=1):
    """The sweep step as a sequential loop over per-image residuals and
    positions: collect each patch, refit with the library's PCA (or redraw a
    dead filter), then per image add back every old contribution and
    subtract every projected new one, position by position. The flat
    update_filter must reproduce it bit for bit."""
    _, _, fh, fw = bank.shape
    old_w = bank[j].copy()
    patches = [
        [residual[:, r : r + fh, c : c + fw] + a * old_w for (r, c), a in p.items()]
        for residual, p in zip(residuals, positions)
    ]
    flat = [patch for image_patches in patches for patch in image_patches]
    dead = len(flat) < min_activations or not any(np.any(patch) for patch in flat)
    if dead:
        new_w = _draw_unit_patch(images, fh, fw, rng)
    else:
        new_w = pca_top_component(flat, prev=old_w)
    new_flat = new_w.ravel()
    for residual, image_positions, image_patches in zip(residuals, positions, patches):
        for (r, c), a in image_positions.items():
            residual[:, r : r + fh, c : c + fw] += a * old_w
        for (r, c), patch in zip(image_positions, image_patches):
            residual[:, r : r + fh, c : c + fw] -= float(new_flat @ patch.ravel()) * new_w
    bank[j] = new_w
    return dead
