"""Convolutional matching pursuit over a bank of shared filters.

An image is encoded against every valid placement of every filter. The
explicit dictionary of all placements would be enormous, but its Gram
matrix only depends on relative shifts, so the greedy loop runs off a
(k, k, 2*h_f-1, 2*w_f-1) table of filter/filter inner products: after a
peak is subtracted, only correlation values inside the overlap window
around it change, and each change is a table lookup. Encoding therefore
costs one application of the filter bank plus, per pursuit step, one
window update and one argmax. The bank is applied one band of image rows
at a time, unfolded along x only, as one GEMM per map row written straight
into the maps, so the maps have the same bits at 1 and 2 BLAS threads.
On large maps the argmax runs off a cache of per-block maxima (blocks of
h_f rows), so a step rescans only the band of rows its window touched,
not the whole map; on small maps a direct scan is cheaper. The steps come
out as one core.ACTIVATION array, the form a SparseCode holds.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    ACTIVATION, UNIT_NORM_ATOL, ConfigError, SparseCode, as_bank, as_image, check_count,
    check_tolerance,
)

# greedy_steps uses its block-max cache when a step skips more than this many
# map entries: k * w_v * (h_v - 3 * h_f), the rows outside the at most three
# blocks a window refresh rescans. Below it the cached path's extra numpy calls
# per step cost more than the rescan they save; CHANGES.md has the measured
# crossover.
CACHE_MIN_SKIPPED = 32_768

# Most multiply-adds per correlate GEMM, unless one window alone holds more.
# With the bundled OpenBLAS, GEMMs this small give the same bits at 1 and 2
# threads, which a test checks on 305 shapes (larger whole-row chunks did not).
CORRELATE_CHUNK_MACS = 2**18

# Most samples per correlate band, unless the h_f unfolded rows under one map
# row alone hold more. One-row bands made 256x256 images twice as slow.
CORRELATE_BAND_SAMPLES = 2**15


def correlate(bank, image) -> np.ndarray:
    """Valid cross-correlation of each filter with the image, channel-summed.

    Returns maps of shape (k, h - h_f + 1, w - w_f + 1) where
    maps[j, r, c] = <filter j placed at (r, c), image>.

    The image is unfolded along x only, as (h, c, w_f, w_v) with no copy,
    and copied one band of rows at a time, so each sample is duplicated
    w_f times, not h_f * w_f. In a band the h_f unfolded rows under each
    map row are one (h_f*c*w_f, w_v) matrix, and one batched matmul per
    band multiplies the bank by each of them straight into the maps: one
    GEMM per map row, or per column segment when a row holds more than
    CORRELATE_CHUNK_MACS multiply-adds.
    """
    bank = as_bank(bank, unit_norm=False)
    img = as_image(image)
    k, c, fh, fw = bank.shape
    ci, h, w = img.shape
    if ci != c:
        raise ConfigError(f"channels mismatch: bank has {c}, image has {ci}")
    if fh > h or fw > w:
        raise ConfigError(f"filter {fh}x{fw} does not fit inside image {h}x{w}")
    hv, wv = h - fh + 1, w - fw + 1
    sc, sh, sw = img.strides
    unfold = as_strided(img, (h, c, fw, wv), (sh, sc, sw, sw), writeable=False)
    weights = bank.transpose(0, 2, 1, 3).reshape(k, -1)
    rows = min(hv, max(1, CORRELATE_BAND_SAMPLES // (c * fw * wv) - fh + 1))
    cols = min(wv, max(1, CORRELATE_CHUNK_MACS // weights.size))
    band = np.empty((rows + fh - 1, c, fw, wv))
    # stack[r]: map row r's windows, the h_f unfolded rows from band row r;
    # its taps, in (dy, channel, dx) order, are one dx step apart
    s_row, _, s_dx, s_x = band.strides
    stack = np.ndarray((rows, fh * c * fw, wv), buffer=band, strides=(s_row, s_dx, s_x))
    out = np.empty((k, hv, wv))
    by_row = out.transpose(1, 0, 2)
    for r0 in range(0, hv, rows):
        n = min(rows, hv - r0)
        band[: n + fh - 1] = unfold[r0 : r0 + n + fh - 1]
        for c0 in range(0, wv, cols):
            span = slice(c0, c0 + cols)
            np.matmul(weights, stack[:n, :, span], out=by_row[r0 : r0 + n, :, span])
    return out


def build_shift_gram(bank) -> np.ndarray:
    """Inner products of every filter pair at every relative shift.

    table[i, j, dr, dc] is the inner product of filter i with filter j
    shifted by (dr - (h_f - 1), dc - (w_f - 1)), channel-summed over the
    overlap (zero outside it). The table is reflection-symmetric by
    construction: table[i, j, dr, dc] == table[j, i, -dr, -dc] exactly,
    with offsets counted from the center.
    """
    bank = as_bank(bank, unit_norm=False)
    k, c, fh, fw = bank.shape
    th, tw = 2 * fh - 1, 2 * fw - 1
    table = np.empty((k, k, th, tw))
    canvas = np.zeros((c, 3 * fh - 2, 3 * fw - 2))
    for j in range(k):
        canvas[:, fh - 1 : 2 * fh - 1, fw - 1 : 2 * fw - 1] = bank[j]
        # Correlating filter i over the centered canvas scans shifts in
        # reverse order, hence the double flip.
        table[:, j] = correlate(bank, canvas)[:, ::-1, ::-1]
    # Mirror one triangle onto the other so the symmetry holds bit-exactly:
    # the lower pairs from the upper, each diagonal block's second half from its first.
    lower, upper = np.tril_indices(k, -1)
    table[lower, upper] = table[upper, lower, ::-1, ::-1]
    diagonal = table.reshape(k * k, th * tw)[:: k + 1]
    n = th * tw
    diagonal[:, n // 2 + 1 :] = diagonal[:, : n // 2][:, ::-1]
    return table


def _check_table(bank: np.ndarray, table: np.ndarray) -> None:
    """Reject a table of another shape or bank: its zero shifts hold the bank's Gram matrix."""
    k, _, fh, fw = bank.shape
    expect = (k, k, 2 * fh - 1, 2 * fw - 1)
    if table.shape != expect:
        raise ConfigError(f"shift table shape {table.shape} is not the bank's {expect}")
    weights = bank.reshape(k, -1)
    drift = np.abs(table[:, :, fh - 1, fw - 1] - weights @ weights.T)
    if not np.all(drift <= UNIT_NORM_ATOL):  # also rejects NaN
        raise ConfigError("shift table does not match the bank; stale or corrupt table")


def greedy_steps(maps, table, max_steps: int, tolerance: float = 0.0) -> np.ndarray:
    """Run the post-correlation pursuit loop, updating maps in place.

    Each step picks the entry of largest magnitude (ties to the lowest
    filter index, then row-major position), records it, and subtracts its
    contribution from every map inside the overlap window via table
    lookups. Stops after max_steps or when the peak magnitude drops to
    tolerance or below. Returns the steps as a core.ACTIVATION array in
    selection order. The caller owns maps; on return they equal the
    correlations of the bank with the implied residual.

    When the cache spares each step more than CACHE_MIN_SKIPPED entries
    of the full rescan, the peak is found through a (k, blocks) cache of
    max magnitudes over blocks of h_f rows: the argmax of the cache names
    a block, the argmax inside that block names the entry, and after the
    window update only the blocks overlapping the window's rows are
    refreshed, for every filter. Blocks are contiguous and ordered like
    the flat maps, so the first block holding the peak holds the
    flat-first peak and the tie-break is the direct scan's. Both paths
    pick bit-identical steps. maps is only read and written through
    slices, so any memory layout is updated in place.
    """
    k, hv, wv = maps.shape
    fh = (table.shape[2] + 1) // 2
    fw = (table.shape[3] + 1) // 2
    cached = k * wv * (hv - 3 * fh) > CACHE_MIN_SKIPPED
    if cached:
        starts = np.arange(0, hv * wv, fh * wv)  # flat offset of each block in one map
        cache = _block_max(maps, starts)
        nb = starts.size
    steps = []
    for _ in range(max_steps):
        if cached:
            j, b = divmod(int(cache.argmax()), nb)
            pr, pc = divmod(int(np.abs(maps[j, b * fh : (b + 1) * fh]).argmax()), wv)
            pr += b * fh
        else:
            j, rest = divmod(int(np.abs(maps).argmax()), hv * wv)
            pr, pc = divmod(rest, wv)
        a = float(maps[j, pr, pc])
        if abs(a) <= tolerance:
            break
        steps.append((j, pr, pc, a))
        r0, r1 = max(0, pr - fh + 1), min(hv, pr + fh)
        c0, c1 = max(0, pc - fw + 1), min(wv, pc + fw)
        maps[:, r0:r1, c0:c1] -= a * table[
            j,
            :,
            r0 - pr + fh - 1 : r1 - pr + fh - 1,
            c0 - pc + fw - 1 : c1 - pc + fw - 1,
        ]
        if cached:
            b0, b1 = r0 // fh, (r1 - 1) // fh + 1
            cache[:, b0:b1] = _block_max(maps[:, b0 * fh : b1 * fh], starts[: b1 - b0])
    return np.array(steps, dtype=ACTIVATION)


def _block_max(maps: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Max magnitude of each block of each map; block i of a map starts at
    flat offset starts[i] and runs to the next start (the last one may be
    short). Taken as max(max, -min) per block, which is exact, so no |maps|
    copy is made. maps is only read: a band of rows of a C-contiguous map
    reshapes to a view, any other layout to a copy."""
    flat = maps.reshape(maps.shape[0], -1)
    top = np.maximum.reduceat(flat, starts, axis=1)
    low = np.minimum.reduceat(flat, starts, axis=1)
    return np.maximum(top, np.negative(low, out=low), out=top)


def conv_mp_encode(bank, table, image, q: int, residual_tolerance: float = 0.0) -> SparseCode:
    """Greedily encode an image with at most q activations.

    table must be build_shift_gram(bank); another bank's raises ConfigError.
    The image is correlated with the bank once (correlate validates it);
    afterwards the correlation maps are maintained through table lookups.
    """
    bank = as_bank(bank)
    check_count("q", q)
    check_tolerance(residual_tolerance)
    table = np.asarray(table)
    _check_table(bank, table)
    maps = correlate(bank, image)
    activations = greedy_steps(maps, table, q, residual_tolerance)
    c, h, w = np.shape(image)
    return SparseCode(c, h, w, activations)
