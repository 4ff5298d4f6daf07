"""Alternating dictionary learning: encode with convolutional pursuit, then
update each filter as the top principal direction of its activated patches.

init_filters checks the corpus once, where it enters. One epoch checks
the current bank once (conv_mp.prepare_bank; the first encode builds its
shift table), encodes and reconstructs every image with it, then sweeps the
filters in ascending index order (Gauss-Seidel: each update sees
residuals reflecting the ones before it). For a filter j, every image
location where j is active contributes the patch the filter is trying to
explain: the residual patch plus j's own contribution there, i.e. the
data minus all other activations. The filter becomes the dominant
singular direction of those patches, its coefficients are re-projected
onto it, and the residuals are repaired in place so they stay equal to
image minus reconstruction. Codes are not rewritten: the next epoch
encodes afresh.

The residuals of all images live in one flat float64 buffer, images back
to back. filter_windows groups the epoch's activations in one pass and
gives each filter's distinct windows by their flat starts. The residual,
the gather of a filter's patches and their repair run in C (_native.c's
reconstruct, collect and repair) with numpy's bits and no index matrix:
the repair adds back every old contribution, then subtracts every new one,
each pass in window order, as a loop over the positions would. The
principal direction comes from power iteration on the (n, dim) patch rows
themselves, with no Gram matrix, also in C (power); np.vecdot's
re-projection is the sweep's one BLAS call.

The alternation is not guaranteed to decrease the energy (the encoding
subproblem is not convex); TrainStats records per-epoch energy so the
typical decrease is observable.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .conv_mp import conv_mp_encode, prepare_bank
from .core import ConfigError, DataError, TrainConfig, as_image, reconstruct

logger = logging.getLogger(__name__)

_REDRAW_LIMIT = 100
_SIGN_TIE_ATOL = 1e-12
# power iteration of pca_top_component: relative residual tolerance, iteration
# cap, and the seed of its start vectors
_PCA_TOL = 1e-10
_PCA_MAX_ITER = 10_000
_PCA_SEED = 0

@dataclass
class TrainStats:
    """Per-epoch energy, per-filter activation counts, and reinit events."""

    epoch_energy: list[float] = field(default_factory=list)
    activation_counts: list[list[int]] = field(default_factory=list)
    reinit_events: list[tuple[int, int]] = field(default_factory=list)  # (epoch, filter)

    def line(self, epoch: int, prefix: str = "") -> str:
        """One epoch's stats line: energy, activation-count range, reinits."""
        counts = self.activation_counts[epoch]
        reinits = sum(1 for e, _ in self.reinit_events if e == epoch)
        return (
            f"{prefix}epoch={epoch} energy={self.epoch_energy[epoch]:.17g} "
            f"act_min={min(counts)} act_max={max(counts)} reinits={reinits}"
        )

    def lines(self, prefix: str = "") -> list[str]:
        """The stats file: one line per epoch."""
        return [self.line(epoch, prefix) for epoch in range(len(self.epoch_energy))]


def _draw_unit_patch(images, fh: int, fw: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(_REDRAW_LIMIT):
        img = images[int(rng.integers(len(images)))]
        r = int(rng.integers(img.shape[1] - fh + 1))
        c = int(rng.integers(img.shape[2] - fw + 1))
        patch = img[:, r : r + fh, c : c + fw]
        with np.errstate(over="ignore"):  # an overflow is reported below
            energy = float(np.sum(patch * patch))
        if not math.isfinite(energy):
            raise DataError(f"the norm of a {fh}x{fw} corpus patch overflows float64; "
                            "scale the corpus down")
        if energy >= np.finfo(float).tiny:  # below it, as in power, the norm is inexact
            return patch / math.sqrt(energy)
        if patch.any():
            raise DataError(f"the norm of a nonzero {fh}x{fw} corpus patch underflows "
                            "float64; scale the corpus up")
    raise DataError(
        f"could not draw a nonzero {fh}x{fw} patch in {_REDRAW_LIMIT} tries; "
        "is the corpus all zero?"
    )


def init_filters(images, cfg: TrainConfig) -> np.ndarray:
    """Seed the bank with unit-normalized random patches from the corpus,
    which must be nonempty, of one channel count and no image smaller than
    the filters."""
    imgs = [as_image(im) for im in images]
    if not imgs:
        raise DataError("corpus is empty")
    fh, fw = cfg.filter_height, cfg.filter_width
    channels = imgs[0].shape[0]
    for i, im in enumerate(imgs):
        if im.shape[0] != channels:
            raise DataError(
                f"image {i} has {im.shape[0]} channels, expected {channels} like image 0"
            )
        if im.shape[1] < fh or im.shape[2] < fw:
            raise DataError(
                f"image {i} is {im.shape[1]}x{im.shape[2]}, smaller than the {fh}x{fw} filters"
            )
    rng = np.random.default_rng(cfg.seed)
    return np.stack([_draw_unit_patch(imgs, fh, fw, rng) for _ in range(cfg.num_filters)])


def filter_windows(codes, num_filters: int, fh: int, fw: int):
    """Each filter's distinct windows, for the codes' residuals laid back to
    back in one flat buffer, in code order.

    Yields, for filters 0..num_filters-1 in turn, the (n, 3) windows (flat
    start, image width, image plane size: _native.c's Window) and the (n,)
    coefficients summed there in activation order, in code order, then first use.
    """
    shapes = [(code.channels, code.image_height, code.image_width) for code in codes]
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    # every code's activations back to back, each keyed by (filter, window start)
    acts = np.concatenate([code.activations for code in codes])
    image = np.repeat(np.arange(len(codes)), [len(code) for code in codes])
    bases = np.cumsum([0] + sizes[:-1])
    dims = np.array([(w, h * w) for _, h, w in shapes], dtype=np.intp)  # width, plane
    keys = acts["filter_index"] * total + bases[image] + acts["row"] * dims[image, 0] + acts["col"]
    # unique finds each window's first use, and bincount sums its
    # coefficients in activation order, as a dict would
    keys, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inv, acts["coefficient"]).astype(np.float64, copy=False)  # empty: int64
    order = np.lexsort((first, keys // total))  # by filter, then first use
    keys, sums = keys[order], sums[order]
    windows = np.column_stack((keys % total, dims[image[first[order]]]))
    bounds = np.searchsorted(keys // total, np.arange(num_filters + 1))
    for lo, hi in zip(bounds, bounds[1:]):
        yield windows[lo:hi], sums[lo:hi]


def collect_activated_patches(residual, windows, coefs, filt) -> np.ndarray:
    """The (n, c*fh*fw) patches a filter should explain at its windows (as
    filter_windows yields them) in the flat buffer residual, which the caller
    maintains as image - reconstruction: each residual window plus the
    filter's own contribution, in C (_native.c's collect)."""
    windows, coefs = _check_windows(residual, windows, coefs)
    filt = np.ascontiguousarray(filt, dtype=np.float64)
    patches = np.empty((len(windows), filt.size))
    if _native.library().collect(residual.ctypes.data, residual.size, windows.ctypes.data,
                                 len(windows), coefs.ctypes.data, filt.ctypes.data, *filt.shape,
                                 patches.ctypes.data):
        raise ConfigError(f"a window lies outside the {residual.size}-sample residual")
    return patches


def _check_windows(residual, windows, coefs):
    """windows and coefs as C-contiguous intp and float64 arrays, for a
    residual that is a writeable C-contiguous float64 buffer: the forms the
    sweep's kernels read, which also check that each window fits."""
    if not (residual.dtype == np.float64 and residual.flags.c_contiguous
            and residual.flags.writeable):
        raise ConfigError("the residual must be a writeable C-contiguous float64 buffer")
    windows = np.ascontiguousarray(windows, dtype=np.intp)
    coefs = np.ascontiguousarray(coefs, dtype=np.float64)
    if windows.shape != (len(coefs), 3):
        raise ConfigError(f"windows of shape {windows.shape} do not fit {len(coefs)} coefficients")
    return windows, coefs


def _fix_sign(v: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
    d = 0.0 if prev is None else float(np.dot(v, prev))
    if abs(d) <= _SIGN_TIE_ATOL:  # no prev, or a near-zero tie: the first nonzero entry decides
        nz = np.flatnonzero(v)
        d = v[nz[0]] if nz.size else 0.0
    return -v if d < 0 else v


@functools.lru_cache(maxsize=16)
def _pca_start(dim: int) -> np.ndarray:
    """The start vector of pca_top_component, a seeded unit normal drawn once
    per dim (read-only). A start in the rows' nullspace gives way, once, to
    the row holding the largest |entry|, scaled by that entry and normalized.
    Both norms are exactly rounded sums (math.fsum), not BLAS ddot, whose
    bits depend on the kernel OpenBLAS picks for the CPU."""
    v = np.random.default_rng(_PCA_SEED).normal(size=dim)
    v /= math.sqrt(math.fsum(v * v))
    v.flags.writeable = False
    return v


def pca_top_component(patches, prev=None) -> np.ndarray:
    """Top left singular direction of the stacked (uncentered) patches.

    patches is an (n, dim) array or a sequence of n equal-shape finite
    patches; the result has one patch's shape. Power iteration runs on
    rows^T rows without forming it, in C (_native.c's power): each step is
    y = sum of (row . v) row, with dot products summed in 8 fixed lanes, so
    no BLAS routine runs and the bits do not depend on the BLAS build or
    thread count. It starts from _pca_start(dim) and stops when the
    relative residual |y - lam v| / lam falls to _PCA_TOL; reaching the
    iteration cap first is logged as a warning. A step giving y = 0 from
    nonzero rows means the start lies in their nullspace: power restarts
    once, with the budget left, from the row holding the largest |entry|,
    which only an underflow sends to y = 0. Any other step with |y|^2 zero
    or subnormal is a DataError: all-zero rows are a dead filter, nonzero
    ones have products that underflow float64 (rows near 1e-78 or less).
    The patches are read again only after power fails.
    The sign is chosen to keep a nonnegative inner product with prev when
    one is given; on a near-zero tie (or without prev) the first nonzero
    component is made positive.
    """
    mats = np.asarray(patches, dtype=np.float64)
    if len(mats) == 0:
        raise DataError("cannot take the principal direction of an empty patch set")
    rows = np.ascontiguousarray(mats.reshape(len(mats), -1))  # (n, dim)
    n, dim = rows.shape
    v, y, steps = _pca_start(dim).copy(), np.empty(dim), ctypes.c_ssize_t()
    power = functools.partial(_native.library().power, rows.ctypes.data, n, dim,
                              v.ctypes.data, y.ctypes.data)
    status = power(_PCA_MAX_ITER, _PCA_TOL, ctypes.byref(steps))
    if status == _native.POWER_ZERO and not y.any() and rows.any():
        row, col = divmod(int(np.argmax(np.abs(rows))), dim)
        v[:] = rows[row] / rows[row, col]
        v /= math.sqrt(math.fsum(v * v))
        status = power(_PCA_MAX_ITER - steps.value, _PCA_TOL, ctypes.byref(steps))
    if status == _native.POWER_ZERO:
        raise DataError("the patches' products underflow float64; scale the corpus up"
                        if rows.any() else "all patches are zero; dead filter")
    if status == _native.POWER_NON_FINITE:
        raise DataError("the patches' products overflow float64; scale the corpus down"
                        if np.isfinite(rows).all() else "patches must be finite (found NaN or Inf)")
    if status == _native.POWER_CAPPED:
        logger.warning("power iteration hit its cap of %d iterations unconverged", _PCA_MAX_ITER)
    prev_flat = None if prev is None else np.asarray(prev, dtype=np.float64).ravel()
    v = _fix_sign(v, prev_flat)
    return v.reshape(mats.shape[1:])


def update_filter(
    bank,
    j: int,
    windows: np.ndarray,
    coefs: np.ndarray,
    residual: np.ndarray,
    images,
    rng: np.random.Generator,
    min_activations: int = 1,
) -> bool:
    """Replace filter j and repair the flat residual buffer in place.

    windows and coefs are filter j's as filter_windows yields them
    (possibly none). With enough activated positions the new filter is the
    top principal direction of their patches; otherwise the filter is dead
    and is reinitialized from a random data patch. Either way each
    coefficient of j is re-projected onto the new filter, and the residual
    gets back all old contributions of j, then loses all new ones, so it
    stays image - reconstruction; each pass runs in window order (_native.c's
    repair), as a loop over the positions would. Returns True when the
    dead-filter path was taken. bank and residual are updated in place.
    """
    _, c, fh, fw = bank.shape
    old_w = np.array(bank[j], dtype=np.float64)
    windows, coefs = _check_windows(residual, windows, coefs)
    patches = collect_activated_patches(residual, windows, coefs, old_w)
    dead = len(patches) < min_activations or not np.any(patches)
    if dead:
        new_w = _draw_unit_patch(images, fh, fw, rng)
    else:
        new_w = pca_top_component(patches, prev=old_w).reshape(old_w.shape)

    new_flat = np.asarray(new_w, dtype=np.float64).ravel()
    proj = np.vecdot(patches, new_flat)  # one dot per row: the bits of new_flat @ row
    _native.library().repair(residual.ctypes.data, residual.size, windows.ctypes.data,
                             len(windows), c, fh, fw, coefs.ctypes.data, old_w.ctypes.data,
                             proj.ctypes.data, new_flat.ctypes.data)  # collect checked the fit
    bank[j] = new_w
    return dead


def encode_all(bank, images, q: int, tolerance: float = 0.0):
    """Encode every image in order, on the calling thread, off one check of
    the bank and one shift table: the bank is prepared once here
    (conv_mp.prepare_bank; a PreparedBank is used as it is), not per image."""
    bank = prepare_bank(bank)
    return [conv_mp_encode(bank, im, q, tolerance) for im in images]


def train(images, cfg: TrainConfig, threads: int = 1) -> tuple[np.ndarray, TrainStats]:
    """Run cfg.epochs alternations of encoding and per-filter updates.

    Returns the final bank and per-epoch statistics. With epochs == 0 the
    initial bank is returned untouched. threads is ignored (encoding is
    sequential); it stays because perfbench's tests still pass it.
    """
    imgs = [np.asarray(im, dtype=np.float64) for im in images]
    bank = init_filters(imgs, cfg)
    stats = TrainStats()
    rng = np.random.default_rng([cfg.seed, 1])  # reinit draws, distinct stream
    for epoch in range(cfg.epochs):
        _epoch(bank, imgs, cfg, rng, stats, epoch)
    return bank, stats


def _epoch(bank, imgs, cfg: TrainConfig, rng, stats: TrainStats, epoch: int) -> None:
    """train's epoch: encode, record stats, sweep the filters (bank in place,
    reinits drawn from rng). bank and rng are all it hands the next epoch."""
    # checked once for the sweep's encodes and reconstructions; the
    # filter updates below change bank, so the next epoch prepares it again
    prepared = prepare_bank(bank)
    codes = encode_all(prepared, imgs, cfg.sparsity, cfg.residual_tolerance)
    residual = np.empty(sum(im.size for im in imgs))  # every image's residual, back to back
    bounds = np.cumsum([0] + [im.size for im in imgs])
    views = [residual[a:b].reshape(im.shape) for a, b, im in zip(bounds, bounds[1:], imgs)]
    for im, code, view in zip(imgs, codes, views):
        np.subtract(im, reconstruct(code, prepared), out=view)
    energy = float(sum(np.sum(np.square(r)) for r in views))
    filters = np.concatenate([code.activations["filter_index"] for code in codes])
    counts = np.bincount(filters, minlength=cfg.num_filters).tolist()
    stats.epoch_energy.append(energy)
    stats.activation_counts.append(counts)
    if max(counts) == 0:
        raise DataError(
            "every filter is dead: no activations were produced this epoch "
            "(all-zero corpus or residual_tolerance too high)"
        )
    stats.reinit_events += [(epoch, j) for j in _sweep(bank, codes, residual, imgs, rng, cfg)]
    logger.info("%s", stats.line(epoch))


def _sweep(bank, codes, residual, imgs, rng, cfg: TrainConfig) -> list[int]:
    """Update every filter in index order; the filters reinitialized."""
    per_filter = filter_windows(codes, cfg.num_filters, cfg.filter_height, cfg.filter_width)
    return [j for j, (windows, coefs) in enumerate(per_filter)
            if update_filter(bank, j, windows, coefs, residual, imgs, rng, cfg.min_activations)]
