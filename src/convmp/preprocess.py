"""Corpus ingestion transforms: grayscale, resize, additive contrast
normalization, block-mean pooling and random subsample-and-crop; prepare
chains them the one way both the preprocess command and the pipeline use.

All transforms are pure per-image functions over (c, h, w) float arrays
with samples nominally in [0, 1] on input (signed after normalization).
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError, DataError, as_image, check_count

GRAY_WEIGHTS = (0.299, 0.587, 0.114)
CONTRAST_SIDE = 5  # box side of contrast_normalize's local mean


def to_grayscale(image) -> np.ndarray:
    """Luminance combination of an RGB image; single-channel passes through."""
    img = as_image(image)
    c = img.shape[0]
    if c == 1:
        return img.copy()
    if c != 3:
        raise DataError(f"expected 1 or 3 channels, got {c}")
    r, g, b = GRAY_WEIGHTS
    return (r * img[0] + g * img[1] + b * img[2])[None]


def resize(image, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers and edge clamping.

    A destination pixel i samples the source at (i + 0.5) * in/out - 0.5,
    clamped into the source grid; unchanged dims return an exact copy.
    """
    img = as_image(image)
    check_count("out_h", out_h)
    check_count("out_w", out_w)
    c, h, w = img.shape
    if (out_h, out_w) == (h, w):
        return img.copy()

    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]

    v00 = img[:, y0[:, None], x0[None, :]]
    v01 = img[:, y0[:, None], x1[None, :]]
    v10 = img[:, y1[:, None], x0[None, :]]
    v11 = img[:, y1[:, None], x1[None, :]]
    return (
        v00 * (1 - fy) * (1 - fx)
        + v01 * (1 - fy) * fx
        + v10 * fy * (1 - fx)
        + v11 * fy * fx
    )


def contrast_normalize(image) -> np.ndarray:
    """Subtract the local box-filtered mean from a single-channel image.

    The mean at each pixel averages over the intersection of the
    CONTRAST_SIDE x CONTRAST_SIDE window with the image (valid-count
    normalization at borders), so a constant image maps to exactly zero
    everywhere. Computed as the mean of center-minus-neighbor differences,
    which is the same quantity but keeps the constant-input case exact in
    floating point.
    """
    img = as_image(image)
    if img.shape[0] != 1:
        raise DataError(f"contrast normalization expects 1 channel, got {img.shape[0]}")
    x = img[0]
    h, w = x.shape
    half = CONTRAST_SIDE // 2
    diff = np.zeros((h, w))
    count = np.zeros((h, w))
    for dr in range(-half, half + 1):
        for dc in range(-half, half + 1):
            r0, r1 = max(0, -dr), min(h, h - dr)
            c0, c1 = max(0, -dc), min(w, w - dc)
            if r0 >= r1 or c0 >= c1:
                continue
            diff[r0:r1, c0:c1] += x[r0:r1, c0:c1] - x[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
            count[r0:r1, c0:c1] += 1.0
    return (diff / count)[None]


def avg_pool(maps, pool: int) -> np.ndarray:
    """Non-overlapping pool x pool block means per channel; ragged blocks on
    the right/bottom edges average over their actual extent."""
    img = as_image(maps)
    check_count("pool", pool)
    if pool == 1:
        return img.copy()
    c, h, w = img.shape
    row_starts = np.arange(0, h, pool)
    col_starts = np.arange(0, w, pool)
    sums = np.add.reduceat(np.add.reduceat(img, row_starts, axis=1), col_starts, axis=2)
    extent_r = np.minimum(row_starts + pool, h) - row_starts
    extent_c = np.minimum(col_starts + pool, w) - col_starts
    return sums / (extent_r[None, :, None] * extent_c[None, None, :])


def random_subsample_crop(
    image, rng: np.random.Generator, out_h: int = 64, out_w: int = 64
) -> np.ndarray:
    """Downsample by a random integer factor, then crop a random patch.

    The factor is drawn uniformly from the subset of {1, 2, 3, 4} that still
    leaves room for an out_h x out_w crop after factor x factor block
    averaging of the image trimmed to whole blocks. Draw order is factor,
    then crop row, then crop column, so a fixed generator state reproduces
    the output bit for bit.
    """
    img = as_image(image)
    h, w = img.shape[1], img.shape[2]
    if h < out_h or w < out_w:
        raise ConfigError(f"image {h}x{w} is smaller than the {out_h}x{out_w} crop")
    feasible = [f for f in (1, 2, 3, 4) if h // f >= out_h and w // f >= out_w]
    factor = feasible[int(rng.integers(len(feasible)))]
    x = avg_pool(img[:, : (h // factor) * factor, : (w // factor) * factor], factor)
    r0 = int(rng.integers(x.shape[1] - out_h + 1))
    c0 = int(rng.integers(x.shape[2] - out_w + 1))
    return x[:, r0 : r0 + out_h, c0 : c0 + out_w].copy()


def prepare(image, size: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """The ingestion chain: grayscale, a size x size random subsample-and-crop
    drawn from rng if given (else a resize), then contrast normalization."""
    img = to_grayscale(image)
    img = resize(img, size, size) if rng is None else random_subsample_crop(img, rng, size, size)
    return contrast_normalize(img)
