"""Convolutional matching pursuit over a bank of shared filters.

An image is encoded against every valid placement of every filter. The
explicit dictionary of all placements would be enormous, but its Gram
matrix only depends on relative shifts, so the greedy loop runs off a
(k, k, 2*h_f-1, 2*w_f-1) table of filter/filter inner products: after a
peak is subtracted, only correlation values inside the overlap window
around it change, and each change is a table lookup. Encoding therefore
costs one application of the filter bank plus, per pursuit step, one
window update and one argmax. The bank is applied one band of image rows
at a time, unfolded along x only, as one GEMM per map row, so the maps
have the same bits at 1 and 2 BLAS threads.

The maps are (k, h_v, w_v) arrays stored filter-innermost, as (h_v, w_v, k),
and the shift table is stored (k, 2*h_f-1, 2*w_f-1, k), so one window row
of a step is one contiguous run of the maps and of the table. The pursuit
loop runs in C (_native.c, built on first use) off a cache of the peak
magnitude of each tile of 4x8 positions, all filters, and of the best tile
of each tile row, so a step's argmax reads h_v/4 entries. A window update
takes the maximum of each tile part it updates in the same pass; a tile
whose peak it lowered is marked stale and rescanned only if its old peak
comes up as the largest again (every tile starts stale, so the first scan
finds magnitudes, not positions, and rejects a NaN or an infinity). The C
loop keeps numpy's bits: the update is m - (a * t), with no fused
multiply-add, and ties go to the lowest filter, then row-major position,
as np.abs(maps).argmax() picks them. The steps come out as one
core.ACTIVATION array, the form a SparseCode holds.

An encoding sweep checks its bank once: prepare_bank returns a
core.PreparedBank, a read-only copy of the bank stored in correlate's
(k, h_f, c, w_f) order, as the maps and the table are, which correlate,
build_shift_gram, conv_mp_encode and core.reconstruct take unchecked. It
builds its shift table on first read and keeps it: a table is its bank's.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._native import library
from .core import (
    ACTIVATION, ConfigError, DataError, PreparedBank, SparseCode,
    as_bank, as_image, check_count, check_tolerance,
)

# Most steps per call of the C loop, which holds them in one buffer; a longer
# pursuit makes more calls, each starting with one scan of the maps.
STEP_BLOCK = 2**16

# Most multiply-adds per correlate GEMM, unless one window alone holds more.
# With the bundled OpenBLAS, GEMMs this small give the same bits at 1 and 2
# threads, which a test checks on 305 shapes (larger whole-row chunks did not).
CORRELATE_CHUNK_MACS = 2**18

# Most samples per correlate band, its unfolded rows and its GEMM results
# together, unless one map row's alone hold more. One-row bands made 256x256
# images twice as slow.
CORRELATE_BAND_SAMPLES = 2**15


def correlate(bank, image) -> np.ndarray:
    """Valid cross-correlation of each filter with the image, channel-summed.

    Returns maps of shape (k, h - h_f + 1, w - w_f + 1) where
    maps[j, r, c] = <filter j placed at (r, c), image>, a view of
    filter-innermost (h_v, w_v, k) storage, which greedy_steps updates in
    place.

    The image is unfolded along x only, as (h, c, w_f, w_v) with no copy,
    and copied one band of rows at a time, so each sample is duplicated
    w_f times, not h_f * w_f. In a band the h_f unfolded rows under each
    map row are one (h_f*c*w_f, w_v) matrix, and one batched matmul per
    band multiplies the bank by each of them into a (rows, k, w_v) buffer:
    one GEMM per map row, or per column segment when a row holds more than
    CORRELATE_CHUNK_MACS multiply-adds. The band's results are then copied,
    transposed, into the storage; a prepared bank's taps are a view, not a
    copy. Maps that overflow hold infinities, which greedy_steps rejects.
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
    # a band of n map rows copies n + h_f - 1 unfolded rows of c * w_f * w_v
    # samples, and its GEMMs write n * k * w_v
    unfolded = c * fw * wv
    rows = min(hv, max(1, (CORRELATE_BAND_SAMPLES - (fh - 1) * unfolded) // (unfolded + k * wv)))
    cols = min(wv, max(1, CORRELATE_CHUNK_MACS // weights.size))
    band = np.empty((rows + fh - 1, c, fw, wv))
    gemms = np.empty((rows, k, wv))
    # stack[r]: map row r's windows, the h_f unfolded rows from band row r;
    # its taps, in (dy, channel, dx) order, are one dx step apart
    s_row, _, s_dx, s_x = band.strides
    stack = np.ndarray((rows, fh * c * fw, wv), buffer=band, strides=(s_row, s_dx, s_x))
    storage = np.empty((hv, wv, k))
    # an overflow is reported by the pursuit's first scan, under any warning filter
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, hv, rows):
            n = min(rows, hv - r0)
            band[: n + fh - 1] = unfold[r0 : r0 + n + fh - 1]
            for c0 in range(0, wv, cols):
                span = slice(c0, c0 + cols)
                np.matmul(weights, stack[:n, :, span], out=gemms[:n, :, span])
            storage[r0 : r0 + n] = gemms[:n].transpose(0, 2, 1)
    return storage.transpose(2, 0, 1)


def prepare_bank(bank) -> PreparedBank:
    """Check a bank once, unit norm included, for the calls of one encoding
    sweep. The PreparedBank holds a read-only copy, stored in correlate's
    (k, h_f, c, w_f) tap order, so changing bank later reaches neither it
    nor the shift table built from it. A PreparedBank is returned as it is."""
    if isinstance(bank, PreparedBank):
        return bank
    array = as_bank(bank).transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3)
    array.flags.writeable = False
    return PreparedBank(array)


def build_shift_gram(bank) -> np.ndarray:
    """Inner products of every filter pair at every relative shift.

    table[i, j, dr, dc] is the inner product of filter i with filter j
    shifted by (dr - (h_f - 1), dc - (w_f - 1)), channel-summed over the
    overlap (zero outside it). The table is reflection-symmetric by
    construction: table[i, j, dr, dc] == table[j, i, -dr, -dc] exactly,
    with offsets counted from the center. The table is a view of
    (k, 2*h_f-1, 2*w_f-1, k) storage, the order greedy_steps reads.
    """
    filters = as_bank(bank, unit_norm=False)
    k, c, fh, fw = filters.shape
    th, tw = 2 * fh - 1, 2 * fw - 1
    storage = np.empty((k, th, tw, k))
    canvas = np.zeros((c, 3 * fh - 2, 3 * fw - 2))
    for j in range(k):
        canvas[:, fh - 1 : 2 * fh - 1, fw - 1 : 2 * fw - 1] = filters[j]
        # filter i correlated over filter j centred on the canvas is
        # table[j, i] at every shift, and correlate stores it i-innermost too
        storage[j] = correlate(bank, canvas).transpose(1, 2, 0)
    table = storage.transpose(0, 3, 1, 2)
    # Mirror one triangle onto the other so the symmetry holds bit-exactly:
    # the upper pairs from the lower, each diagonal block's first half from its second.
    upper, lower = np.triu_indices(k, 1)
    table[upper, lower] = table[lower, upper, ::-1, ::-1]
    s_i, _, s_dc, s_j = storage.strides
    diagonal = as_strided(storage, (k, th * tw), (s_i + s_j, s_dc))
    n = th * tw
    diagonal[:, : n // 2] = diagonal[:, n // 2 + 1 :][:, ::-1]
    return table


def greedy_steps(maps, table, max_steps: int, tolerance: float = 0.0) -> np.ndarray:
    """Run the post-correlation pursuit loop, updating maps in place.

    Each step picks the entry of largest magnitude (ties to the lowest
    filter index, then row-major position), records it, and subtracts its
    contribution from every map inside the overlap window via table
    lookups. Stops after max_steps or when the peak magnitude drops to
    tolerance or below. Returns the steps as a core.ACTIVATION array in
    selection order. The caller owns maps; on return they equal the
    correlations of the bank with the implied residual. Maps that hold a
    NaN or an infinity, or overflow to one, raise DataError.

    The loop runs in C (_native.c, built on first use) off a cache of
    per-tile max magnitudes, with numpy's bits: see the module docstring.
    Writable float64 maps stored as correlate stores them, (h_v, w_v, k)
    in C order, are updated where they lie; any other layout is copied in
    and back.
    """
    k, hv, wv = maps.shape
    fh, fw = (table.shape[2] + 1) // 2, (table.shape[3] + 1) // 2
    if table.shape != (k, k, 2 * fh - 1, 2 * fw - 1):
        raise ConfigError(f"shift table shape {table.shape} does not fit {k} maps")
    # the loop reads both filter-innermost: maps (h_v, w_v, k), table (k, th, tw, k)
    storage = maps.transpose(1, 2, 0)
    inplace = maps.dtype == np.float64 and storage.flags.c_contiguous and maps.flags.writeable
    work = storage if inplace else np.ascontiguousarray(storage, dtype=np.float64)
    table = np.ascontiguousarray(table.transpose(0, 2, 3, 1), dtype=np.float64)
    blocks = []
    while True:
        out = np.empty(max(0, min(max_steps, STEP_BLOCK)), ACTIVATION)
        n = library().pursue(
            work.ctypes.data, k, hv, wv, table.ctypes.data, fh, fw, out.size, float(tolerance),
            out.ctypes.data,
        )
        if n == -1:
            raise MemoryError("no memory for the pursuit's tile cache")
        if n < 0:
            raise DataError("the correlation maps hold a NaN or an infinity (an image "
                            "this large in magnitude overflows float64)")
        # a pursuit that stopped early lets go of the rest of its block
        blocks.append(out if n == out.size else out[:n].copy())
        max_steps -= n
        if n < STEP_BLOCK:
            break
    if not inplace:
        maps[...] = work.transpose(2, 0, 1)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def conv_mp_encode(bank, image, q: int, residual_tolerance: float = 0.0) -> SparseCode:
    """Greedily encode an image with at most q activations.

    The bank is checked by prepare_bank; a PreparedBank is used as it is,
    and builds its shift table on its first encode, so a sweep over many
    images pays for both once. The image is correlated with the bank once
    (correlate validates it); afterwards the correlation maps are
    maintained through the table's lookups.
    """
    bank = prepare_bank(bank)
    check_count("q", q)
    check_tolerance(residual_tolerance)
    maps = correlate(bank, image)
    activations = greedy_steps(maps, bank.table, q, residual_tolerance)
    c, h, w = np.shape(image)
    return SparseCode(c, h, w, activations)
