"""Alternating dictionary learning: encode with convolutional pursuit, then
update each filter as the top principal direction of its activated patches.

One epoch encodes every image with the current bank, groups each code's
positions per filter, then sweeps the filters in ascending index order
(Gauss-Seidel: each update sees residuals reflecting the ones before it).
For a filter j, every image location where j is active contributes the
patch the filter is trying to explain: the residual patch plus j's own
contribution there, i.e. the data minus all other activations. The filter
becomes the dominant singular direction of those patches, its coefficients
are re-projected onto it, and the residuals are repaired in place so they
stay equal to image minus reconstruction. Codes are not rewritten: the
next epoch encodes afresh.

The alternation is not guaranteed to decrease the energy (the encoding
subproblem is not convex); TrainStats records per-epoch energy so the
typical decrease is observable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .conv_mp import build_shift_gram, conv_mp_encode
from .core import DataError, SparseCode, TrainConfig, as_image, reconstruct

logger = logging.getLogger(__name__)

_REDRAW_LIMIT = 100
_SIGN_TIE_ATOL = 1e-12
# power iteration of pca_top_component: relative residual tolerance,
# iteration cap, and the seed of its start vector
_PCA_TOL = 1e-10
_PCA_MAX_ITER = 10_000
_PCA_SEED = 0

Positions = dict[tuple[int, int], float]  # (row, col) -> summed coefficient


@dataclass
class TrainStats:
    """Per-epoch energy, per-filter activation counts, and reinit events."""

    epoch_energy: list[float] = field(default_factory=list)
    activation_counts: list[list[int]] = field(default_factory=list)
    reinit_events: list[tuple[int, int]] = field(default_factory=list)  # (epoch, filter)

    def lines(self, prefix: str = "") -> list[str]:
        """One stats-file line per epoch: energy, activation-count range, reinits."""
        out = []
        for epoch, energy in enumerate(self.epoch_energy):
            counts = self.activation_counts[epoch]
            reinits = sum(1 for e, _ in self.reinit_events if e == epoch)
            out.append(
                f"{prefix}epoch={epoch} energy={energy:.17g} act_min={min(counts)} "
                f"act_max={max(counts)} reinits={reinits}"
            )
        return out


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
    """Seed the bank with unit-normalized random patches from the corpus."""
    cfg.validate()
    imgs = [as_image(im) for im in images]
    fh, fw = cfg.filter_height, cfg.filter_width
    usable = [im for im in imgs if im.shape[1] >= fh and im.shape[2] >= fw]
    if not usable:
        raise DataError(f"no corpus image is at least {fh}x{fw}")
    rng = np.random.default_rng(cfg.seed)
    return np.stack([_draw_unit_patch(usable, fh, fw, rng) for _ in range(cfg.num_filters)])


def group_by_filter(code: SparseCode, num_filters: int) -> list[Positions]:
    """Per filter, its distinct positions in first-use order, each mapped to
    the sum of its coefficients in activation order."""
    groups: list[Positions] = [{} for _ in range(num_filters)]
    for act in code.activations:
        positions = groups[act.filter_index]
        key = (act.row, act.col)
        positions[key] = positions.get(key, 0.0) + act.coefficient
    return groups


def collect_activated_patches(residual, positions: Positions, filt) -> list[np.ndarray]:
    """The patch a filter should explain at each of its positions, in order:
    the residual window plus the filter's own contribution there.

    The caller maintains residual = image - reconstruction.
    """
    fh, fw = filt.shape[1], filt.shape[2]
    return [residual[:, r : r + fh, c : c + fw] + a * filt for (r, c), a in positions.items()]


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

    Computed as the dominant eigenvector of the small scatter matrix via
    power iteration with a seeded start; reaching the iteration cap before
    converging is logged as a warning. The sign is chosen to keep a
    nonnegative inner product with prev when one is given; on a near-zero
    tie (or without prev) the first nonzero component is made positive.
    """
    mats = [np.asarray(p, dtype=np.float64) for p in patches]
    if not mats:
        raise DataError("cannot take the principal direction of an empty patch set")
    shape = mats[0].shape
    rows = np.stack([m.ravel() for m in mats])  # (n, dim)
    if not np.any(rows):
        raise DataError("all patches are zero; dead filter")
    scatter = rows.T @ rows
    dim = scatter.shape[0]

    rng = np.random.default_rng(_PCA_SEED)
    v = rng.normal(size=dim)
    v /= np.sqrt(v @ v)
    for _ in range(_PCA_MAX_ITER):
        y = scatter @ v
        lam = float(v @ y)
        norm = float(np.sqrt(y @ y))
        if norm == 0.0:
            # started in the nullspace; restart
            v = rng.normal(size=dim)
            v /= np.sqrt(v @ v)
            continue
        res = float(np.sqrt(np.sum(np.square(y - lam * v))))
        v = y / norm
        if res <= _PCA_TOL * max(lam, np.finfo(float).tiny):
            break
    else:
        logger.warning("power iteration hit its cap of %d iterations unconverged", _PCA_MAX_ITER)
    prev_flat = None if prev is None else np.asarray(prev, dtype=np.float64).ravel()
    v = _fix_sign(v, prev_flat)
    return v.reshape(shape)


def update_filter(
    bank,
    j: int,
    positions: list[Positions],
    residuals: list[np.ndarray],
    images,
    rng: np.random.Generator,
    min_activations: int = 1,
) -> bool:
    """Replace filter j and repair the residuals in place.

    positions holds filter j's positions per image (possibly empty), as
    grouped by group_by_filter. With enough activated positions the new
    filter is the top principal direction of their patches; otherwise the
    filter is dead and is reinitialized from a random data patch. Either
    way each coefficient of j is re-projected onto the new filter, and each
    residual gets back all old contributions of j, then loses all new ones,
    so it stays image - reconstruction. Returns True when the dead-filter
    path was taken. bank and residuals are updated in place.
    """
    _, _, fh, fw = bank.shape
    old_w = bank[j].copy()
    patches = [collect_activated_patches(r, p, old_w) for r, p in zip(residuals, positions)]
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


def encode_all(bank, table, images, q: int, tolerance: float = 0.0):
    """Encode every image against a fixed bank, in order, on the calling thread."""
    return [conv_mp_encode(bank, table, im, q, tolerance) for im in images]


def train(images, cfg: TrainConfig, threads: int = 1) -> tuple[np.ndarray, TrainStats]:
    """Run cfg.epochs alternations of encoding and per-filter updates.

    Returns the final bank and per-epoch statistics. With epochs == 0 the
    initial bank is returned untouched. threads is ignored (encoding is
    sequential); it stays because perfbench's tests still pass it.
    """
    cfg.validate()
    imgs = [as_image(im) for im in images]
    if not imgs:
        raise DataError("corpus is empty")
    channels = imgs[0].shape[0]
    for i, im in enumerate(imgs):
        if im.shape[0] != channels:
            raise DataError(
                f"image {i} has {im.shape[0]} channels, expected {channels} like image 0"
            )
        if im.shape[1] < cfg.filter_height or im.shape[2] < cfg.filter_width:
            raise DataError(
                f"image {i} is {im.shape[1]}x{im.shape[2]}, smaller than the "
                f"{cfg.filter_height}x{cfg.filter_width} filters"
            )

    bank = init_filters(imgs, cfg)
    stats = TrainStats()
    rng = np.random.default_rng([cfg.seed, 1])  # reinit draws, distinct stream

    for epoch in range(cfg.epochs):
        table = build_shift_gram(bank)
        codes = encode_all(bank, table, imgs, cfg.sparsity, cfg.residual_tolerance)
        residuals = [im - reconstruct(code, bank) for im, code in zip(imgs, codes)]

        energy = float(sum(np.sum(np.square(r)) for r in residuals))
        counts = [0] * cfg.num_filters
        for code in codes:
            for act in code.activations:
                counts[act.filter_index] += 1
        stats.epoch_energy.append(energy)
        stats.activation_counts.append(counts)
        if max(counts) == 0:
            raise DataError(
                "every filter is dead: no activations were produced this epoch "
                "(all-zero corpus or residual_tolerance too high)"
            )

        groups = [group_by_filter(code, cfg.num_filters) for code in codes]
        reinits = 0
        for j in range(cfg.num_filters):
            positions = [g[j] for g in groups]
            if update_filter(bank, j, positions, residuals, imgs, rng, cfg.min_activations):
                stats.reinit_events.append((epoch, j))
                reinits += 1

        logger.info(
            "epoch=%d energy=%.10g act_min=%d act_max=%d reinits=%d",
            epoch,
            energy,
            min(counts),
            max(counts),
            reinits,
        )

    return bank, stats
