import dataclasses
import threading

import numpy as np
import pytest

from convmp import dict_learn
from codes import Activation
from convmp.core import ConfigError, SparseCode, TrainConfig, normalize_filters
from convmp.dict_learn import TrainStats, train
from convmp.model_io import save_image
from convmp.pipeline import (
    PipelineConfig,
    PipelineStats,
    abs_rectify,
    avg_pool,
    code_to_feature_maps,
    run_two_layer,
    write_stats,
)


def random_bank(rng, k, c, fh, fw):
    return normalize_filters(rng.normal(size=(k, c, fh, fw)))


def small_cfg(**overrides):
    layer1 = TrainConfig(2, 6, 6, sparsity=5, epochs=1, seed=5)
    layer2 = TrainConfig(3, 2, 2, sparsity=3, epochs=1, seed=6)
    base = dict(layer1=layer1, layer2=layer2, pool_size=8, image_size=24)
    base.update(overrides)
    return PipelineConfig(**base)


def write_corpus(directory, n, size, seed):
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        save_image(rng.random(size=(1, size, size)), directory / f"img{i:03d}.pgm")


class TestCodeToFeatureMaps:
    def test_empty_code_gives_zero_tensor(self):
        rng = np.random.default_rng(100)
        bank = random_bank(rng, 3, 1, 4, 4)
        maps = code_to_feature_maps(SparseCode(1, 10, 12), bank)
        assert maps.shape == (3, 7, 9)
        assert np.all(maps == 0.0)

    def test_single_activation_lands_at_its_cell(self):
        rng = np.random.default_rng(101)
        bank = random_bank(rng, 2, 1, 3, 3)
        code = SparseCode(1, 8, 8, [Activation(1, 2, 4, -0.6)])
        maps = code_to_feature_maps(code, bank)
        assert maps[1, 2, 4] == -0.6
        assert np.count_nonzero(maps) == 1

    def test_repeated_pairs_accumulate(self):
        rng = np.random.default_rng(102)
        bank = random_bank(rng, 1, 1, 3, 3)
        code = SparseCode(
            1, 8, 8, [Activation(0, 1, 1, 0.75), Activation(0, 1, 1, 0.5)]
        )
        maps = code_to_feature_maps(code, bank)
        assert maps[0, 1, 1] == 1.25

    def test_left_inverse_of_flattening(self):
        rng = np.random.default_rng(103)
        bank = random_bank(rng, 3, 1, 3, 3)
        acts = [
            Activation(int(rng.integers(3)), int(rng.integers(6)), int(rng.integers(6)),
                       float(rng.normal()))
            for _ in range(20)
        ]
        maps = code_to_feature_maps(SparseCode(1, 8, 8, acts), bank)
        accum = {}
        for a in acts:
            key = (a.filter_index, a.row, a.col)
            accum[key] = accum.get(key, 0.0) + a.coefficient
        for (j, r, c), v in accum.items():
            assert maps[j, r, c] == pytest.approx(v, abs=1e-12)
        assert np.count_nonzero(maps) <= len(accum)

    def test_bit_identical_to_the_in_order_loop(self):
        rng = np.random.default_rng(106)
        bank = random_bank(rng, 3, 2, 3, 3)
        acts = [
            Activation(int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(3)),
                       float(rng.choice([rng.normal(), -0.0])))
            for _ in range(40)
        ]
        maps = code_to_feature_maps(SparseCode(2, 5, 5, acts), bank)
        loop = np.zeros((3, 3, 3))
        for a in acts:
            loop[a.filter_index, a.row, a.col] += a.coefficient
        assert maps.tobytes() == loop.tobytes()


class TestAbsRectify:
    def test_nonnegative_input_unchanged(self):
        img = np.random.default_rng(104).random(size=(2, 4, 4))
        np.testing.assert_array_equal(abs_rectify(img), img)

    def test_negative_cell_flips(self):
        img = np.zeros((1, 2, 2))
        img[0, 0, 1] = -3.0
        assert abs_rectify(img)[0, 0, 1] == 3.0

    def test_idempotent(self):
        img = np.random.default_rng(105).normal(size=(2, 5, 5))
        once = abs_rectify(img)
        np.testing.assert_array_equal(abs_rectify(once), once)


class TestAvgPool:
    def test_constant_input_constant_output(self):
        out = avg_pool(np.full((2, 10, 13), 0.4), 4)
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out, 0.4, rtol=0, atol=1e-15)

    def test_pool_one_is_identity(self):
        img = np.random.default_rng(106).random(size=(1, 5, 5))
        np.testing.assert_array_equal(avg_pool(img, 1), img)

    def test_matches_direct_block_means(self):
        rng = np.random.default_rng(107)
        img = rng.random(size=(1, 16, 16))
        out = avg_pool(img, 8)
        assert out.shape == (1, 2, 2)
        for br in range(2):
            for bc in range(2):
                direct = img[0, br * 8 : br * 8 + 8, bc * 8 : bc * 8 + 8].mean()
                assert abs(out[0, br, bc] - direct) <= 1e-12
        assert abs(out.mean() - img.mean()) <= 1e-12

    def test_preserves_global_mean_when_dims_divide(self):
        rng = np.random.default_rng(66)
        img = rng.random(size=(2, 12, 8))
        down = avg_pool(img, 4)
        for ch in range(2):
            assert abs(down[ch].mean() - img[ch].mean()) <= 1e-12

    def test_ragged_blocks_average_actual_extent(self):
        img = np.arange(15.0).reshape(1, 3, 5)
        out = avg_pool(img, 2)
        assert out.shape == (1, 2, 3)
        assert out[0, 1, 2] == img[0, 2, 4]  # 1x1 corner block
        assert out[0, 0, 2] == img[0, 0:2, 4].mean()  # 2x1 edge block


class TestRunTwoLayer:
    def test_shapes_and_outputs(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 6, 24, seed=0)
        bank1, bank2, stats = run_two_layer(corpus, small_cfg(), seed=1)
        assert bank1.shape == (2, 1, 6, 6)
        # 24x24 -> valid 19x19 -> pool 8 -> 3x3 maps with 2 channels
        assert bank2.shape == (3, 2, 2, 2)
        assert len(stats.layer1.epoch_energy) == 1
        assert len(stats.layer2.epoch_energy) == 1
        assert list(tmp_path.iterdir()) == [corpus]  # the caller writes the outputs

    def test_bit_reproducible_under_fixed_seed(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 5, 24, seed=1)
        a1, a2, _ = run_two_layer(corpus, small_cfg(), seed=7)
        b1, b2, _ = run_two_layer(corpus, small_cfg(), seed=7)
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_identical_images_single_filter(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(108)
        img = rng.random(size=(1, 24, 24))
        for i in range(4):
            save_image(img, corpus / f"same{i}.pgm")
        cfg = small_cfg(
            layer1=TrainConfig(1, 6, 6, sparsity=4, epochs=1, seed=2),
            layer2=TrainConfig(2, 2, 2, sparsity=2, epochs=1, seed=3),
        )
        bank1a, _, _ = run_two_layer(corpus, cfg)
        bank1b, _, _ = run_two_layer(corpus, cfg)
        np.testing.assert_array_equal(bank1a, bank1b)
        assert abs(np.sqrt(np.sum(bank1a**2)) - 1.0) <= 1e-10

    def test_every_encode_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        """Encoding is one sequential loop, whatever train's ignored threads says."""
        idents = []
        encode = dict_learn.conv_mp_encode

        def recording(*args, **kwargs):
            idents.append(threading.get_ident())
            return encode(*args, **kwargs)

        monkeypatch.setattr(dict_learn, "conv_mp_encode", recording)
        rng = np.random.default_rng(109)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(4)]
        train(images, TrainConfig(2, 3, 3, sparsity=4, epochs=2, seed=7), threads=4)
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 4, 24, seed=3)
        run_two_layer(corpus, small_cfg())
        # 4 images: 2 epochs of train, then layer 1's epoch, its encode_all, layer 2's epoch
        assert len(idents) == 4 * 2 + 4 * 3
        assert set(idents) == {threading.get_ident()}

    def test_rejects_empty_corpus(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(ValueError, match="no PGM"):
            run_two_layer(empty, small_cfg())

    def test_rejects_negative_seed(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 2, 24, seed=4)
        with pytest.raises(ConfigError, match="seed"):
            run_two_layer(corpus, small_cfg(), seed=-1)

    def test_config_is_immutable_and_checked_when_built(self):
        cfg = small_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pool_size = 0
        for field in ("pool_size", "image_size"):
            with pytest.raises(ConfigError, match=field):
                dataclasses.replace(cfg, **{field: 0})

    def test_rejects_undersized_pooled_maps(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, 3, 24, seed=2)
        cfg = small_cfg(layer2=TrainConfig(2, 5, 5, sparsity=2, epochs=1, seed=3))
        with pytest.raises(ValueError, match="pooled"):
            run_two_layer(corpus, cfg)


def test_write_stats_prefixes_each_layers_epoch_lines(tmp_path):
    layer1 = TrainStats([2.5, 0.1], [[3, 1], [0, 4]], [(1, 0)])
    write_stats(PipelineStats(layer1, TrainStats([7.0], [[2]])), tmp_path / "stats.txt")
    assert (tmp_path / "stats.txt").read_text() == (
        "layer=1 epoch=0 energy=2.5 act_min=1 act_max=3 reinits=0\n"
        "layer=1 epoch=1 energy=0.10000000000000001 act_min=0 act_max=4 reinits=1\n"
        "layer=2 epoch=0 energy=7 act_min=2 act_max=2 reinits=0\n"
    )
