"""Two-layer feature learning: train a first dictionary on preprocessed
images, densify and rectify its codes, average-pool, and train a second
multi-channel dictionary on the pooled maps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import (
    DataError, SparseCode, TrainConfig, as_bank, as_image, check_compatible, check_count,
)
from .dict_learn import TrainStats, encode_all, train
from .model_io import list_images, load_image, write_lines
from .preprocess import avg_pool, prepare


@dataclass(frozen=True)
class PipelineConfig:
    """Both layers' training parameters plus the inter-layer pooling size.

    The second layer trains on k1-channel pooled feature maps, so its bank
    automatically carries layer1.num_filters channels. image_size is the
    square side raw corpus images are resized to before normalization.
    Immutable, and checked when built (the layers check themselves).
    """

    layer1: TrainConfig
    layer2: TrainConfig
    pool_size: int = 8
    image_size: int = 64

    def __post_init__(self) -> None:
        check_count("pool_size", self.pool_size)
        check_count("image_size", self.image_size)


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


def run_two_layer(corpus_dir, cfg: PipelineConfig, seed: int | None = None):
    """Full experiment driver; returns (layer1 bank, layer2 bank, stats) and
    writes nothing.

    Preprocesses the corpus with prepare (grayscale, resize, contrast
    normalization), trains layer 1, encodes every image, densifies,
    rectifies and pools the codes, and trains layer 2 on the pooled
    multi-channel maps. A seed, if given, deterministically overrides both
    layers' seeds; None means unseeded.
    """
    layer1_cfg, layer2_cfg = cfg.layer1, cfg.layer2
    if seed is not None:
        check_count("seed", seed, 0)
        s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        layer1_cfg = dataclasses.replace(layer1_cfg, seed=s1)
        layer2_cfg = dataclasses.replace(layer2_cfg, seed=s2)

    paths = list_images(corpus_dir)
    if not paths:
        raise DataError(f"no PGM/PPM images found in {corpus_dir}")
    preprocessed = [prepare(load_image(p), cfg.image_size) for p in paths]

    bank1, stats1 = train(preprocessed, layer1_cfg)
    codes = encode_all(bank1, preprocessed, layer1_cfg.sparsity, layer1_cfg.residual_tolerance)
    pooled = [
        avg_pool(abs_rectify(code_to_feature_maps(code, bank1)), cfg.pool_size)
        for code in codes
    ]

    ph, pw = pooled[0].shape[1], pooled[0].shape[2]
    if ph < layer2_cfg.filter_height or pw < layer2_cfg.filter_width:
        raise DataError(
            f"pooled maps are {ph}x{pw}, smaller than the layer-2 "
            f"{layer2_cfg.filter_height}x{layer2_cfg.filter_width} filters"
        )
    bank2, stats2 = train(pooled, layer2_cfg)
    return bank1, bank2, PipelineStats(stats1, stats2)
