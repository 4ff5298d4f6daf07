"""Two-layer feature learning: train a first dictionary on preprocessed
images, densify and rectify its codes, average-pool, and train a second
multi-channel dictionary on the pooled maps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    ConfigError, SparseCode, TrainConfig, as_bank, as_image, check_compatible, check_count,
)
from .dict_learn import TrainStats, encode_all, train
from .model_io import write_lines
from .preprocess import avg_pool, prepare


@dataclass(frozen=True)
class PipelineConfig:
    """Both layers' training parameters plus the inter-layer pooling size.

    The second layer trains on k1-channel pooled feature maps, so its bank
    automatically carries layer1.num_filters channels. image_size is the
    square side raw corpus images are resized to before normalization.
    Immutable, and checked when built (the layers check themselves; the config, their geometry).
    """

    layer1: TrainConfig
    layer2: TrainConfig
    pool_size: int = 8
    image_size: int = 64

    def __post_init__(self) -> None:
        for name in ("layer1", "layer2"):
            if not isinstance(getattr(self, name), TrainConfig):
                raise ConfigError(f"{name} must be a TrainConfig, got {getattr(self, name)!r}")
        check_count("pool_size", self.pool_size)
        check_count("image_size", self.image_size)
        size, h1, w1 = self.image_size, self.layer1.filter_height, self.layer1.filter_width
        h2, w2 = self.layer2.filter_height, self.layer2.filter_width
        # per side: layer 1's maps, then avg_pool's blocks over them (a ragged edge block counts)
        ph, pw = (-(-max(0, size - f + 1) // self.pool_size) for f in (h1, w1))
        if ph < h2 or pw < w2:
            raise ConfigError(f"image_size {size}, layer-1 {h1}x{w1} filters and pool_size "
                              f"{self.pool_size} give {ph}x{pw} pooled maps, smaller than the "
                              f"layer-2 {h2}x{w2} filters")


@dataclass
class PipelineStats:
    layer1: TrainStats
    layer2: TrainStats


def code_to_feature_maps(code: SparseCode, bank) -> np.ndarray:
    """Densify a code onto the valid grid: one channel per filter,
    accumulated coefficients at activation positions, zero elsewhere."""
    bank = as_bank(bank, unit_norm=False)
    check_compatible(code, bank)
    k, _, fh, fw = bank.shape
    maps = np.zeros((k, code.image_height - fh + 1, code.image_width - fw + 1))
    acts = code.activations  # np.add.at adds repeats in activation order
    np.add.at(maps, (acts["filter_index"], acts["row"], acts["col"]), acts["coefficient"])
    return maps


def abs_rectify(maps) -> np.ndarray:
    return np.abs(as_image(maps))


def write_stats(stats: PipelineStats, path) -> None:
    lines = stats.layer1.lines("layer=1 ") + stats.layer2.lines("layer=2 ")
    write_lines(path, lines)


def seeded(cfg: PipelineConfig, seed: int) -> PipelineConfig:
    """cfg with both layers' seeds derived from one pipeline seed, layer 1's
    first; the only place a pipeline seed is checked or used."""
    check_count("seed", seed, 0)
    s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    return dataclasses.replace(
        cfg,
        layer1=dataclasses.replace(cfg.layer1, seed=s1),
        layer2=dataclasses.replace(cfg.layer2, seed=s2),
    )


def run_two_layer(images, cfg: PipelineConfig):
    """Full experiment driver; returns (layer1 bank, layer2 bank, stats) and
    writes nothing.

    Prepares each raw image with prepare as it takes it from the iterable,
    so one raw image is held at a time. Trains layer 1, encodes every image,
    densifies, rectifies and pools the codes, and trains layer 2 on the
    pooled multi-channel maps, each layer under its own config's seed.
    """
    # map releases each raw image before it takes the next; a comprehension
    # would keep the previous one bound while the next one loads
    preprocessed = list(map(partial(prepare, size=cfg.image_size), images))

    bank1, stats1 = train(preprocessed, cfg.layer1)
    codes = encode_all(bank1, preprocessed, cfg.layer1.sparsity, cfg.layer1.residual_tolerance)
    pooled = [
        avg_pool(abs_rectify(code_to_feature_maps(code, bank1)), cfg.pool_size)
        for code in codes
    ]
    bank2, stats2 = train(pooled, cfg.layer2)
    return bank1, bank2, PipelineStats(stats1, stats2)
