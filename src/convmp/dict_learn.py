"""Alternating dictionary learning: encode with convolutional pursuit, then
update each filter as the top principal direction of its activated patches.

init_filters checks the corpus once, where it enters. One epoch encodes
every image with the current bank (encode_all builds its shift table),
then sweeps the filters in ascending index order (Gauss-Seidel: each
update sees residuals reflecting the ones before it). For a filter j,
every image location where j is active contributes the patch the filter is
trying to explain: the residual patch plus j's own contribution there,
i.e. the data minus all other activations. The filter becomes the dominant
singular direction of those patches, its coefficients are re-projected
onto it, and the residuals are repaired in place so they stay equal to
image minus reconstruction. Codes are not rewritten: the next epoch
encodes afresh.

The residuals of all images live in one flat float64 buffer, images back
to back. filter_windows reads the fields of the codes' ACTIVATION arrays,
groups the epoch's activations in one pass and gives each filter's
distinct windows as one (n, c*h_f*w_f) index of flat samples, so
collecting its patches is one gather and the repair is two ordered
scatters, np.add.at then np.subtract.at. Each sample takes its updates in
the order a loop over the positions would apply them, so the repair gives
that loop's bits. The principal direction comes from power iteration on
the (n, dim) patch rows themselves, two matrix-vector products per step,
so no Gram matrix is formed.

The alternation is not guaranteed to decrease the energy (the encoding
subproblem is not convex); TrainStats records per-epoch energy so the
typical decrease is observable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .conv_mp import build_shift_gram, conv_mp_encode
from .core import DataError, TrainConfig, as_image, reconstruct, window_offsets

logger = logging.getLogger(__name__)

_REDRAW_LIMIT = 100
_SIGN_TIE_ATOL = 1e-12
# power iteration of pca_top_component: relative residual tolerance,
# iteration cap, and the seed of its start vector
_PCA_TOL = 1e-10
_PCA_MAX_ITER = 10_000
_PCA_SEED = 0
_TINY = np.finfo(np.float64).tiny

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
        norm = float(np.sqrt(np.sum(patch * patch)))
        if norm > 0.0:
            return patch / norm
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

    Yields, for filters 0..num_filters-1 in turn, the (n, c*fh*fw) index of
    the flat samples under each window and the (n,) coefficients summed
    there in activation order. Rows follow code order, then first use.
    """
    shapes = [(code.channels, code.image_height, code.image_width) for code in codes]
    sizes = [math.prod(shape) for shape in shapes]
    total = sum(sizes)
    kinds: dict[tuple[int, int, int], int] = {}  # image shape -> its row of the table
    image_kind = np.array([kinds.setdefault(shape, len(kinds)) for shape in shapes])
    table = np.stack([window_offsets(shape, fh, fw) for shape in kinds])
    # every code's activations back to back, each keyed by (filter, window start)
    acts = np.concatenate([code.activations for code in codes])
    image = np.repeat(np.arange(len(codes)), [len(code) for code in codes])
    bases, widths = np.cumsum([0] + sizes[:-1]), np.array(shapes)[:, 2]
    keys = acts["filter_index"] * total + bases[image] + acts["row"] * widths[image] + acts["col"]
    # unique finds each window's first use, and bincount sums its
    # coefficients in activation order, as a dict would
    keys, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inv, acts["coefficient"]).astype(np.float64, copy=False)  # empty: int64
    order = np.lexsort((first, keys // total))  # by filter, then first use
    keys, sums, kind = keys[order], sums[order], image_kind[image[first[order]]]
    bounds = np.searchsorted(keys // total, np.arange(num_filters + 1))
    for lo, hi in zip(bounds, bounds[1:]):
        index = table[kind[lo:hi]]
        index += keys[lo:hi, None] % total
        yield index, sums[lo:hi]


def collect_activated_patches(residual, index, coefs, filt) -> np.ndarray:
    """The (n, c*fh*fw) patches a filter should explain at its positions, in
    index order: each residual window plus the filter's own contribution.

    residual is the flat buffer index points into; the caller maintains it
    as image - reconstruction.
    """
    patches = residual[index]
    patches += coefs[:, None] * filt.ravel()
    return patches


def _fix_sign(v: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
    if prev is not None:
        d = float(np.dot(v, prev))
        if d > _SIGN_TIE_ATOL:
            return v
        if d < -_SIGN_TIE_ATOL:
            return -v
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def pca_top_component(patches, prev=None) -> np.ndarray:
    """Top left singular direction of the stacked (uncentered) patches.

    patches is an (n, dim) array or a sequence of n equal-shape patches; the
    result has one patch's shape. Power iteration from a seeded start runs
    on rows^T rows without forming it: each step is (rows @ v) @ rows, two
    matrix-vector products. numpy's bundled OpenBLAS runs one of at most
    460800 entries on a single thread, so such patch sets give the same
    bits at any BLAS thread count. It stops when the relative residual
    |y - lam v| / lam falls to _PCA_TOL; reaching the iteration cap first
    is logged as a warning. The sign is chosen to keep a nonnegative inner
    product with prev when one is given; on a near-zero tie (or without
    prev) the first nonzero component is made positive.
    """
    mats = np.asarray(patches, dtype=np.float64)
    if len(mats) == 0:
        raise DataError("cannot take the principal direction of an empty patch set")
    rows = mats.reshape(len(mats), -1)  # (n, dim)
    if not np.any(rows):
        raise DataError("all patches are zero; dead filter")
    dim = rows.shape[1]

    rng = np.random.default_rng(_PCA_SEED)
    v = rng.normal(size=dim)
    v /= math.sqrt(v @ v)
    for _ in range(_PCA_MAX_ITER):
        y = (rows @ v) @ rows
        lam = float(v @ y)
        norm = math.sqrt(y @ y)
        if norm == 0.0:
            # started in the nullspace; restart
            v = rng.normal(size=dim)
            v /= math.sqrt(v @ v)
            continue
        d = y - lam * v
        res = math.sqrt(d @ d)
        v = y / norm
        if res <= _PCA_TOL * max(lam, _TINY):
            break
    else:
        logger.warning("power iteration hit its cap of %d iterations unconverged", _PCA_MAX_ITER)
    prev_flat = None if prev is None else np.asarray(prev, dtype=np.float64).ravel()
    v = _fix_sign(v, prev_flat)
    return v.reshape(mats.shape[1:])


def update_filter(
    bank,
    j: int,
    index: np.ndarray,
    coefs: np.ndarray,
    residual: np.ndarray,
    images,
    rng: np.random.Generator,
    min_activations: int = 1,
) -> bool:
    """Replace filter j and repair the flat residual buffer in place.

    index and coefs are filter j's windows as filter_windows yields them
    (possibly none). With enough activated positions the new filter is the
    top principal direction of their patches; otherwise the filter is dead
    and is reinitialized from a random data patch. Either way each
    coefficient of j is re-projected onto the new filter, and the residual
    gets back all old contributions of j, then loses all new ones, so it
    stays image - reconstruction. np.add.at applies repeated indices in
    order, so each sample takes its updates in the order a loop over the
    positions would. Returns True when the dead-filter path was taken. bank
    and residual are updated in place.
    """
    _, _, fh, fw = bank.shape
    old_w = bank[j].copy()
    patches = collect_activated_patches(residual, index, coefs, old_w)
    dead = len(patches) < min_activations or not np.any(patches)
    if dead:
        new_w = _draw_unit_patch(images, fh, fw, rng)
    else:
        new_w = pca_top_component(patches, prev=old_w).reshape(old_w.shape)

    new_flat = new_w.ravel()
    proj = np.vecdot(patches, new_flat)  # one dot per row: the bits of new_flat @ row
    # the patches are no longer read; their buffer takes the scatter values.
    # Raveled, ufunc.at takes numpy's 1-D fast path, in the same order.
    flat_index, scatter = index.ravel(), patches.ravel()
    np.multiply(coefs[:, None], old_w.ravel(), out=patches)
    np.add.at(residual, flat_index, scatter)
    np.multiply(proj[:, None], new_flat, out=patches)
    np.subtract.at(residual, flat_index, scatter)
    bank[j] = new_w
    return dead


def encode_all(bank, images, q: int, tolerance: float = 0.0):
    """Encode every image in order, on the calling thread, off one shift table of the bank."""
    table = build_shift_gram(bank)
    return [conv_mp_encode(bank, table, im, q, tolerance) for im in images]


def train(images, cfg: TrainConfig, threads: int = 1) -> tuple[np.ndarray, TrainStats]:
    """Run cfg.epochs alternations of encoding and per-filter updates.

    Returns the final bank and per-epoch statistics. With epochs == 0 the
    initial bank is returned untouched. threads is ignored (encoding is
    sequential); it stays because perfbench's tests still pass it.
    """
    imgs = [np.asarray(im, dtype=np.float64) for im in images]
    bank = init_filters(imgs, cfg)
    fh, fw = cfg.filter_height, cfg.filter_width
    residual = np.empty(sum(im.size for im in imgs))  # every image's residual, back to back
    bounds = np.cumsum([0] + [im.size for im in imgs])
    views = [residual[a:b].reshape(im.shape) for a, b, im in zip(bounds, bounds[1:], imgs)]
    stats = TrainStats()
    rng = np.random.default_rng([cfg.seed, 1])  # reinit draws, distinct stream

    for epoch in range(cfg.epochs):
        codes = encode_all(bank, imgs, cfg.sparsity, cfg.residual_tolerance)
        for im, code, view in zip(imgs, codes, views):
            np.subtract(im, reconstruct(code, bank), out=view)

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

        windows = filter_windows(codes, cfg.num_filters, fh, fw)
        for j, (index, coefs) in enumerate(windows):
            if update_filter(bank, j, index, coefs, residual, imgs, rng, cfg.min_activations):
                stats.reinit_events.append((epoch, j))
        logger.info("%s", stats.line(epoch))

    return bank, stats
