import numpy as np
import pytest

from convmp.preprocess import (
    contrast_normalize,
    prepare,
    random_subsample_crop,
    resize,
    to_grayscale,
)


def naive_contrast_normalize(x, side=5):
    """Two-loop windowed-mean subtraction with valid-count borders."""
    h, w = x.shape
    half = side // 2
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            total, n = 0.0, 0
            for rr in range(max(0, r - half), min(h, r + half + 1)):
                for cc in range(max(0, c - half), min(w, c + half + 1)):
                    total += x[rr, cc]
                    n += 1
            out[r, c] = x[r, c] - total / n
    return out[None]


def naive_bilinear(x, out_h, out_w):
    """Scalar-loop evaluation of half-pixel-center bilinear sampling."""
    h, w = x.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (
                x[y0, x0] * (1 - fy) * (1 - fx)
                + x[y0, x1] * (1 - fy) * fx
                + x[y1, x0] * fy * (1 - fx)
                + x[y1, x1] * fy * fx
            )
    return out[None]


class TestToGrayscale:
    def test_equal_channels_pass_through(self):
        img = np.full((3, 4, 5), 0.37)
        np.testing.assert_allclose(to_grayscale(img), 0.37, rtol=0, atol=1e-15)

    def test_pure_red(self):
        img = np.zeros((3, 2, 2))
        img[0] = 1.0
        np.testing.assert_allclose(to_grayscale(img), 0.299, rtol=0, atol=0)

    def test_matches_direct_weighted_sum(self):
        rng = np.random.default_rng(60)
        img = rng.random(size=(3, 6, 7))
        got = to_grayscale(img)
        for r in range(6):
            for c in range(7):
                direct = 0.299 * img[0, r, c] + 0.587 * img[1, r, c] + 0.114 * img[2, r, c]
                assert abs(got[0, r, c] - direct) <= 1e-12

    def test_single_channel_passes_through(self):
        img = np.random.default_rng(61).random(size=(1, 3, 3))
        np.testing.assert_array_equal(to_grayscale(img), img)

    def test_rejects_other_channel_counts(self):
        with pytest.raises(ValueError, match="channels"):
            to_grayscale(np.zeros((2, 3, 3)))


class TestResize:
    def test_identity_dims_exact(self):
        rng = np.random.default_rng(62)
        img = rng.random(size=(2, 5, 7))
        np.testing.assert_array_equal(resize(img, 5, 7), img)

    def test_constant_stays_constant(self):
        img = np.full((1, 5, 5), 0.3)
        np.testing.assert_allclose(resize(img, 9, 3), 0.3, rtol=1e-12, atol=0)

    def test_ramp_downsample_hand_values(self):
        ramp = np.arange(16.0).reshape(1, 4, 4)
        # sampling at source coords {0.5, 2.5}^2 averages each 2x2 block
        np.testing.assert_allclose(
            resize(ramp, 2, 2), [[[2.5, 4.5], [10.5, 12.5]]], rtol=0, atol=1e-12
        )

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(63)
        img = rng.random(size=(1, 7, 5))
        for out_h, out_w in [(3, 3), (14, 10), (5, 9)]:
            np.testing.assert_allclose(
                resize(img, out_h, out_w),
                naive_bilinear(img[0], out_h, out_w),
                rtol=0,
                atol=1e-12,
            )

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError, match="out_h"):
            resize(np.zeros((1, 4, 4)), 0, 4)


class TestContrastNormalize:
    def test_constant_image_is_exactly_zero(self):
        for v in (0.1, 0.7, 1.0):
            out = contrast_normalize(np.full((1, 9, 9), v))
            assert np.all(out == 0.0)

    def test_centered_impulse_values(self):
        img = np.zeros((1, 11, 11))
        img[0, 5, 5] = 1.0
        out = contrast_normalize(img)
        assert out[0, 5, 5] == 0.96
        assert out[0, 4, 4] == -0.04
        assert out[0, 7, 7] == -0.04
        assert out[0, 5, 8] == 0.0

    def test_matches_naive_windowed_mean(self):
        rng = np.random.default_rng(64)
        img = rng.random(size=(1, 12, 12))
        np.testing.assert_allclose(
            contrast_normalize(img), naive_contrast_normalize(img[0]), rtol=0, atol=1e-12
        )

    def test_invariant_to_constant_offset(self):
        rng = np.random.default_rng(65)
        img = rng.random(size=(1, 10, 10))
        np.testing.assert_allclose(
            contrast_normalize(img + 0.37), contrast_normalize(img), rtol=0, atol=1e-12
        )

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError, match="channel"):
            contrast_normalize(np.zeros((3, 5, 5)))


class TestRandomSubsampleCrop:
    def test_exact_size_input_is_identity(self):
        rng = np.random.default_rng(68)
        img = rng.random(size=(1, 64, 64))
        out = random_subsample_crop(img, np.random.default_rng(0))
        np.testing.assert_array_equal(out, img)

    def test_constant_image_any_factor(self):
        img = np.full((1, 300, 300), 0.25)
        out = random_subsample_crop(img, np.random.default_rng(1))
        assert out.shape == (1, 64, 64)
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_fixed_seed_reproduces_output(self):
        rng = np.random.default_rng(69)
        img = rng.random(size=(1, 200, 150))
        a = random_subsample_crop(img, np.random.default_rng(42))
        b = random_subsample_crop(img, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_infeasible_factors_are_clipped(self):
        rng = np.random.default_rng(70)
        img = rng.random(size=(1, 100, 100))  # only factor 1 fits a 64x64 crop
        for seed in range(5):
            out = random_subsample_crop(img, np.random.default_rng(seed))
            assert out.shape == (1, 64, 64)
            # factor 1 means the crop is a contiguous sub-block of the input
            found = any(
                np.array_equal(out[0], img[0, r : r + 64, c : c + 64])
                for r in range(37)
                for c in range(37)
            )
            assert found

    def test_rejects_too_small_image(self):
        with pytest.raises(ValueError, match="smaller"):
            random_subsample_crop(np.zeros((1, 50, 64)), np.random.default_rng(0))


class TestPrepare:
    def test_resize_chain_is_the_three_transforms_bit_for_bit(self):
        img = np.random.default_rng(71).random(size=(3, 40, 52))
        expect = contrast_normalize(resize(to_grayscale(img), 24, 24))
        np.testing.assert_array_equal(prepare(img, 24), expect)

    def test_crop_chain_draws_from_the_generator(self):
        img = np.random.default_rng(72).random(size=(3, 150, 130))
        expect = contrast_normalize(
            random_subsample_crop(to_grayscale(img), np.random.default_rng(5), 32, 32)
        )
        np.testing.assert_array_equal(prepare(img, 32, np.random.default_rng(5)), expect)
