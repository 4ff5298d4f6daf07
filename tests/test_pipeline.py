import dataclasses
import itertools
import threading
import weakref

import numpy as np
import pytest

from convmp import dict_learn
from codes import Activation
from convmp.core import ConfigError, DataError, SparseCode, TrainConfig, normalize_filters
from convmp.dict_learn import TrainStats, train
from convmp.pipeline import (
    PipelineConfig,
    PipelineStats,
    abs_rectify,
    avg_pool,
    code_to_feature_maps,
    run_two_layer,
    seeded,
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


def raw_images(n, size, seed):
    """n raw images, one at a time, as a loader would give them."""
    rng = np.random.default_rng(seed)
    return (rng.random(size=(1, size, size)) for _ in range(n))


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
    def test_shapes_and_outputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bank1, bank2, stats = run_two_layer(raw_images(6, 24, seed=0), seeded(small_cfg(), 1))
        assert bank1.shape == (2, 1, 6, 6)
        # 24x24 -> valid 19x19 -> pool 8 -> 3x3 maps with 2 channels
        assert bank2.shape == (3, 2, 2, 2)
        assert len(stats.layer1.epoch_energy) == 1
        assert len(stats.layer2.epoch_energy) == 1
        assert list(tmp_path.iterdir()) == []  # the caller writes the outputs

    def test_bit_reproducible_under_fixed_seed(self):
        a1, a2, _ = run_two_layer(raw_images(5, 24, seed=1), seeded(small_cfg(), 7))
        b1, b2, _ = run_two_layer(raw_images(5, 24, seed=1), seeded(small_cfg(), 7))
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_holds_one_raw_image_at_a_time(self):
        """Each raw image is prepared as it is taken and released before the
        next one is taken, so no earlier raw image is alive when it loads."""
        refs = []

        def track(image):
            refs.append(weakref.ref(image))
            return image

        def loader():
            for image in raw_images(5, 40, seed=2):
                assert all(ref() is None for ref in refs)
                yield track(image)

        run_two_layer(loader(), small_cfg())
        assert len(refs) == 5

    def test_identical_images_single_filter(self):
        img = np.random.default_rng(108).random(size=(1, 24, 24))
        cfg = small_cfg(
            layer1=TrainConfig(1, 6, 6, sparsity=4, epochs=1, seed=2),
            layer2=TrainConfig(2, 2, 2, sparsity=2, epochs=1, seed=3),
        )
        bank1a, _, _ = run_two_layer([img] * 4, cfg)
        bank1b, _, _ = run_two_layer([img] * 4, cfg)
        np.testing.assert_array_equal(bank1a, bank1b)
        assert abs(np.sqrt(np.sum(bank1a**2)) - 1.0) <= 1e-10

    def test_every_encode_runs_on_the_calling_thread(self, monkeypatch):
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
        run_two_layer(raw_images(4, 24, seed=3), small_cfg())
        # 4 images: 2 epochs of train, then layer 1's epoch, its encode_all, layer 2's epoch
        assert len(idents) == 4 * 2 + 4 * 3
        assert set(idents) == {threading.get_ident()}

    def test_rejects_empty_corpus(self):
        with pytest.raises(DataError, match="empty"):
            run_two_layer(iter([]), small_cfg())

    def test_seeded_derives_both_layer_seeds_from_one_seed(self):
        """The derivation older manifests' seed= lines ran: the two words of
        SeedSequence(seed), layer 1's first; every other setting is kept."""
        cfg = small_cfg()
        words = [int(w) for w in np.random.SeedSequence(7).generate_state(2)]
        assert seeded(cfg, 7) == dataclasses.replace(
            cfg,
            layer1=dataclasses.replace(cfg.layer1, seed=words[0]),
            layer2=dataclasses.replace(cfg.layer2, seed=words[1]),
        )
        assert seeded(cfg, 7) == seeded(cfg, np.int64(7)) != seeded(cfg, 8)

    def test_seeded_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            seeded(small_cfg(), -1)

    def test_config_is_immutable_and_checked_when_built(self):
        cfg = small_cfg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pool_size = 0
        for field in ("pool_size", "image_size"):
            with pytest.raises(ConfigError, match=field):
                dataclasses.replace(cfg, **{field: 0})

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            # 24x24 -> valid 19x19 -> pool 8 -> 3x3 maps, under the 5x5 layer-2 filters
            ({"layer2": TrainConfig(2, 5, 5, sparsity=2, epochs=1, seed=3)},
             "image_size 24, layer-1 6x6 filters and pool_size 8 give 3x3 pooled maps, "
             "smaller than the layer-2 5x5 filters"),
            # layer 1 has no valid position in a 5x5 image, so there is nothing to pool
            ({"image_size": 5},
             "image_size 5, layer-1 6x6 filters and pool_size 8 give 0x0 pooled maps, "
             "smaller than the layer-2 2x2 filters"),
        ],
        ids=["undersized-pooled-maps", "images-smaller-than-layer-1"],
    )
    def test_rejects_a_geometry_that_cannot_train(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            small_cfg(**overrides)

    @pytest.mark.parametrize("field", ["layer1", "layer2"])
    @pytest.mark.parametrize("value", [None, {"num_filters": 2}, "TrainConfig"],
                             ids=["none", "dict", "str"])
    def test_a_layer_that_is_not_a_train_config_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a TrainConfig, got "):
            small_cfg(**{field: value})

    def test_replace_rechecks_the_geometry(self):
        cfg = small_cfg()
        with pytest.raises(ConfigError, match="give 1x1 pooled maps"):
            dataclasses.replace(cfg, pool_size=19)
        with pytest.raises(ConfigError, match="give 0x3 pooled maps"):
            dataclasses.replace(cfg, layer1=TrainConfig(2, 25, 6, 5, 1))

    def test_the_geometry_check_counts_avg_pools_blocks(self):
        """A config is accepted exactly when layer 1 fits the images and
        avg_pool's output of layer 1's maps (ragged edge blocks included)
        fits layer 2, on every small geometry."""
        sides = itertools.product(range(1, 11), range(1, 6), range(1, 6), range(1, 5), range(1, 4))
        for size, fh, fw, pool, f2 in sides:
            layers = dict(layer1=TrainConfig(1, fh, fw, 1, 1), layer2=TrainConfig(1, f2, f2, 1, 1))
            valid = (size - fh + 1, size - fw + 1)
            fits = min(valid) >= 1 and min(avg_pool(np.zeros((1, *valid)), pool).shape[1:]) >= f2
            try:
                PipelineConfig(**layers, pool_size=pool, image_size=size)
            except ConfigError:
                assert not fits, (size, fh, fw, pool, f2)
            else:
                assert fits, (size, fh, fw, pool, f2)


def test_write_stats_prefixes_each_layers_epoch_lines(tmp_path):
    layer1 = TrainStats([2.5, 0.1], [[3, 1], [0, 4]], [(1, 0)])
    write_stats(PipelineStats(layer1, TrainStats([7.0], [[2]])), tmp_path / "stats.txt")
    assert (tmp_path / "stats.txt").read_text() == (
        "layer=1 epoch=0 energy=2.5 act_min=1 act_max=3 reinits=0\n"
        "layer=1 epoch=1 energy=0.10000000000000001 act_min=0 act_max=4 reinits=1\n"
        "layer=2 epoch=0 energy=7 act_min=2 act_max=2 reinits=0\n"
    )
