import tracemalloc
import types

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from convmp import conv_mp
from convmp.conv_mp import build_shift_gram, conv_mp_encode, correlate, greedy_steps
from blas_threads import lines_at_1_and_2_blas_threads
from codes import records
from convmp.core import (
    ConfigError, DataError, SparseCode, normalize_filters, reconstruct, residual_energy,
)
from oracles import gram_matrix, mp_encode, oracle_greedy_steps, toeplitz_expand


def random_bank(rng, k, c, fh, fw):
    return normalize_filters(rng.normal(size=(k, c, fh, fw)))


def naive_correlate(bank, image):
    """Quadruple-loop valid cross-correlation."""
    k, c, fh, fw = bank.shape
    _, h, w = image.shape
    maps = np.zeros((k, h - fh + 1, w - fw + 1))
    for j in range(k):
        for r in range(h - fh + 1):
            for col in range(w - fw + 1):
                total = 0.0
                for ch in range(c):
                    for u in range(fh):
                        for v in range(fw):
                            total += bank[j, ch, u, v] * image[ch, r + u, col + v]
                maps[j, r, col] = total
    return maps


def shifted_inner_product(fi, fj, sr, sc):
    """<filter i, filter j shifted by (sr, sc)> with zero padding."""
    c, fh, fw = fi.shape
    total = 0.0
    for ch in range(c):
        for r in range(fh):
            for col in range(fw):
                r2, c2 = r - sr, col - sc
                if 0 <= r2 < fh and 0 <= c2 < fw:
                    total += fi[ch, r, col] * fj[ch, r2, c2]
    return total


def run_both(maps, table, q, tolerance=0.0):
    """greedy_steps and the oracle on copies of maps; returns both results."""
    got_maps, want_maps = maps.copy(), maps.copy()
    got = records(greedy_steps(got_maps, table, q, tolerance))
    want = oracle_greedy_steps(want_maps, table, q, tolerance)
    return got, got_maps, want, want_maps


def place(bank, j, r, c, h, w, coeff=1.0):
    out = np.zeros((bank.shape[1], h, w))
    _, _, fh, fw = bank.shape
    out[:, r : r + fh, c : c + fw] = coeff * bank[j]
    return out


class TestCorrelate:
    def test_zero_image_gives_zero_maps(self):
        rng = np.random.default_rng(20)
        bank = random_bank(rng, 3, 2, 3, 3)
        maps = correlate(bank, np.zeros((2, 8, 8)))
        assert maps.shape == (3, 6, 6)
        assert np.all(maps == 0.0)

    def test_self_correlation_peaks_at_placement(self):
        rng = np.random.default_rng(21)
        bank = random_bank(rng, 3, 1, 4, 4)
        image = place(bank, 1, 2, 3, 10, 10)
        maps = correlate(bank, image)
        assert maps[1, 2, 3] == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(np.abs(maps[1])) == 2 * maps.shape[2] + 3

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(22)
        bank = random_bank(rng, 3, 1, 3, 3)
        image = rng.normal(size=(1, 10, 10))
        np.testing.assert_allclose(
            correlate(bank, image), naive_correlate(bank, image), rtol=0, atol=1e-12
        )

    def test_multichannel_matches_naive_loop(self):
        rng = np.random.default_rng(23)
        bank = random_bank(rng, 2, 3, 3, 2)
        image = rng.normal(size=(3, 7, 9))
        np.testing.assert_allclose(
            correlate(bank, image), naive_correlate(bank, image), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "shape, n_bands, cols",
        [
            # (k, c, h_f, w_f, h, w); bands from CORRELATE_BAND_SAMPLES = 2**15,
            # which holds a band's unfolded rows and its GEMM results together,
            # column segments from CORRELATE_CHUNK_MACS = 2**18
            ((3, 2, 5, 4, 44, 70), 1, 67),  # all 40 map rows in one band
            ((8, 1, 16, 16, 64, 64), 3, 49),  # 17-row bands over 49 rows: a 15-row tail
            ((16, 1, 8, 8, 256, 256), 83, 249),  # 3-row bands over 249 rows
            ((8, 2, 7, 16, 147, 139), 141, 124),  # one-row bands
            ((1, 1, 12, 12, 187, 218), 88, 207),  # k=1 is a GEMV per map row
            ((1, 1, 11, 13, 187, 198), 59, 186),  # 4-row GEMV chunks differed here at 2+ BLAS threads
            ((1024, 8, 16, 16, 24, 16), 1, 1),  # one-column maps, one window over budget
            ((16, 3, 19, 19, 32, 80), 14, 15),  # h_f rows over the band budget, a row over
            # the GEMM budget: one-row bands, 15-window row segments, 5 per row
        ],
        ids=["one-band", "three-bands", "many-bands", "multichannel", "k1", "k1-threaded",
             "window-over-budget", "row-over-budget"],
    )
    def test_each_map_row_is_its_own_gemm(self, monkeypatch, shape, n_bands, cols):
        k, c, fh, fw, h, w = shape
        rng = np.random.default_rng(24)
        bank = rng.normal(size=(k, c, fh, fw))
        image = rng.normal(size=(c, h, w))
        hv, wv = h - fh + 1, w - fw + 1
        # windows[r, :, x] is the window at (r, x), taps in (dy, channel, dx) order
        windows = sliding_window_view(image, (fh, fw), axis=(1, 2)).transpose(1, 3, 0, 4, 2)
        windows = windows.reshape(hv, fh * c * fw, wv)
        weights_dyx = bank.transpose(0, 2, 1, 3).reshape(k, -1)
        matmul, gemms = np.matmul, []

        def spy(a, b, out):  # record each batched matmul's windows, result and buffers
            matmul(a, b, out=out)
            gemms.append((b.copy(), out.copy(), b.base, out.base, out.ctypes.data))

        monkeypatch.setattr(np, "matmul", spy)
        got = correlate(bank, image)
        monkeypatch.undo()
        assert got.shape == (k, hv, wv)
        assert got.transpose(1, 2, 0).flags.c_contiguous  # stored (h_v, w_v, k)
        cover = np.zeros((hv, wv), dtype=int)
        bands = set()
        for stack, result, band, buffer, start in gemms:
            # each GEMM writes a (rows, k, w_v) buffer: n_rows map rows from column c0
            n_rows, n_filters, n_cols = result.shape
            rows, c0 = buffer.shape[0], (start - buffer.ctypes.data) // buffer.itemsize
            assert buffer.shape == (rows, k, wv) and 0 <= c0 < wv
            assert band.size + buffer.size <= conv_mp.CORRELATE_BAND_SAMPLES or rows == 1
            # the band's first map row is the one whose window the stack starts with
            (r0,) = np.flatnonzero((windows[:, :, c0] == stack[0, :, 0]).all(axis=1))
            bands.add(r0)
            assert n_filters == k
            assert n_cols == min(cols, wv - c0)
            assert n_cols * weights_dyx.size <= conv_mp.CORRELATE_CHUNK_MACS or n_cols == 1
            cover[r0 : r0 + n_rows, c0 : c0 + n_cols] += 1
            for i, r in enumerate(range(r0, r0 + n_rows)):
                window = np.ascontiguousarray(windows[r, :, c0 : c0 + n_cols])
                assert np.array_equal(stack[i], window)
                assert np.array_equal(result[i], weights_dyx @ window)
                assert np.array_equal(got[:, r, c0 : c0 + n_cols], result[i])
        assert len(bands) == n_bands
        assert np.all(cover == 1)

    def test_working_set_is_one_chunk(self):
        # A whole-image unfold of 256x256 with 8x8 filters is 31.7 MB; with the
        # (62001, 16) GEMM result and its transpose that was 37.8 MiB beyond
        # the 7.6 MiB output.
        rng = np.random.default_rng(25)
        bank = rng.normal(size=(16, 1, 8, 8))
        image = rng.normal(size=(1, 256, 256))
        tracemalloc.start()
        try:
            maps = correlate(bank, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - maps.nbytes < 8 * 2**20

    def test_working_set_at_train_shape_is_under_1_mib(self):
        # train's default shape (k8, 16x16 filters, 64x64 images): a 17-row
        # band copies 32 unfolded rows and holds 17 rows of GEMM results,
        # 0.25 MB. Chunks of at least 2**21 multiply-adds unfolded 21 rows of
        # windows, 2.1 MB.
        rng = np.random.default_rng(26)
        bank = rng.normal(size=(8, 1, 16, 16))
        image = rng.normal(size=(1, 64, 64))
        tracemalloc.start()
        try:
            maps = correlate(bank, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - maps.nbytes < 2**20

    def test_one_band_copy_is_alive_at_a_time(self):
        # encode256's shape: each 3-row band copies 10 unfolded rows, a
        # (10, 1, 8, 249) array, and its GEMMs write a (3, 16, 249) array:
        # 249 KiB together. Copying the next band while the previous one is
        # still held makes the working set 498 KiB.
        rng = np.random.default_rng(26)
        bank = rng.normal(size=(16, 1, 8, 8))
        image = rng.normal(size=(1, 256, 256))
        tracemalloc.start()
        try:
            maps = correlate(bank, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - maps.nbytes < 1.5 * 16 * 8 * 249 * 8

    def test_maps_have_the_same_bits_at_1_and_2_blas_threads(self):
        # Each child hashes the maps of the same seeded shapes; only the BLAS
        # thread count differs. The fixed shapes differed at 1 and 2 threads
        # when chunks held at least 2**21 multiply-adds (k=1 GEMVs and some
        # k >= 2 GEMMs); the fifth and sixth put a row, then a window, over
        # budget. The next five are the benchmark's shapes: encode256, train64,
        # train64's shift-table canvas, and pipeline2's layer 2 (its pooled maps
        # and its shift-table canvas).
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from convmp.conv_mp import correlate\n"
            "shapes = [(1, 1, 8, 8, 256, 256), (1, 3, 3, 9, 287, 297), (8, 1, 20, 20, 64, 64),\n"
            "          (8, 3, 12, 12, 64, 64), (16, 3, 19, 19, 32, 80), (1024, 8, 16, 16, 24, 16),\n"
            "          (16, 1, 8, 8, 256, 256), (8, 1, 16, 16, 64, 64), (8, 1, 16, 16, 46, 46),\n"
            "          (16, 8, 4, 4, 7, 7), (16, 8, 4, 4, 10, 10)]\n"
            "rng = np.random.default_rng(27)\n"
            "while len(shapes) < 305:\n"
            "    k, c, fh, fw = (int(v) for v in rng.integers(1, (33, 9, 21, 21)))\n"
            "    shapes.append((k, c, fh, fw, int(rng.integers(fh, 129)), int(rng.integers(fw, 129))))\n"
            "for i, (k, c, fh, fw, h, w) in enumerate(shapes):\n"
            "    data = np.random.default_rng([27, i])\n"
            "    maps = correlate(data.normal(size=(k, c, fh, fw)), data.normal(size=(c, h, w)))\n"
            "    print(k, c, fh, fw, h, w, hashlib.sha256(maps.tobytes()).hexdigest())\n"
        )
        one, two = lines_at_1_and_2_blas_threads(script)
        assert len(one) == len(two) == 305
        assert [a for a, b in zip(one, two) if a != b] == []

    def test_rejects_mismatches(self):
        bank = np.ones((1, 2, 2, 2)) * 0.25
        with pytest.raises(ValueError, match="channels"):
            correlate(bank, np.zeros((1, 5, 5)))
        with pytest.raises(ValueError, match="fit"):
            correlate(bank, np.zeros((2, 1, 5)))


class TestBuildShiftGram:
    def test_centered_delta_filter(self):
        bank = np.zeros((1, 1, 3, 3))
        bank[0, 0, 1, 1] = 1.0
        table = build_shift_gram(bank)
        expect = np.zeros((5, 5))
        expect[2, 2] = 1.0
        np.testing.assert_array_equal(table[0, 0], expect)

    def test_spike_alignment_of_1x2_filters(self):
        bank = np.zeros((2, 1, 1, 2))
        bank[0, 0, 0, 0] = 1.0  # u = (1, 0)
        bank[1, 0, 0, 1] = 1.0  # v = (0, 1)
        table = build_shift_gram(bank)
        # shifting v by -1 aligns the spikes; offset index 0 = shift -1
        np.testing.assert_array_equal(table[0, 1, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(table[1, 0, 0], [0.0, 0.0, 1.0])

    def test_matches_zero_pad_oracle(self):
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 3, 2, 3, 4)
        table = build_shift_gram(bank)
        k, _, fh, fw = bank.shape
        for i in range(k):
            for j in range(k):
                for sr in range(-(fh - 1), fh):
                    for sc in range(-(fw - 1), fw):
                        direct = shifted_inner_product(bank[i], bank[j], sr, sc)
                        got = table[i, j, sr + fh - 1, sc + fw - 1]
                        assert abs(got - direct) <= 1e-12

    def test_reflection_symmetry_is_exact(self):
        rng = np.random.default_rng(25)
        bank = random_bank(rng, 4, 1, 5, 3)
        table = build_shift_gram(bank)
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(table[i, j], table[j, i, ::-1, ::-1])

    def test_unit_diagonal_center(self):
        rng = np.random.default_rng(26)
        bank = random_bank(rng, 5, 2, 4, 4)
        table = build_shift_gram(bank)
        for j in range(5):
            assert abs(table[j, j, 3, 3] - 1.0) <= 1e-10


class TestConvMpEncode:
    def test_a_prepared_bank_is_stored_in_tap_order_and_gives_the_plain_bytes(self):
        # layer 2's shape: 16 filters over 8 channels of 4x4, on 7x7 maps
        rng = np.random.default_rng(81)
        bank = random_bank(rng, 16, 8, 4, 4)
        image = rng.normal(size=(8, 7, 7))
        prepared = conv_mp.prepare_bank(bank)
        taps = prepared.array.transpose(0, 2, 1, 3)  # correlate's (k, h_f, c, w_f) order
        assert taps.flags.c_contiguous and not taps.flags.writeable
        assert correlate(prepared, image).tobytes() == correlate(bank, image).tobytes()
        assert build_shift_gram(prepared).tobytes() == build_shift_gram(bank).tobytes()
        code = conv_mp_encode(prepared, image, 12)
        assert records(code) == records(conv_mp_encode(bank, image, 12))
        for c in (code, SparseCode(8, 7, 7)):
            assert reconstruct(c, prepared).tobytes() == reconstruct(c, bank).tobytes()

    def test_single_placement_recovered(self):
        rng = np.random.default_rng(27)
        bank = random_bank(rng, 3, 1, 5, 5)
        image = place(bank, 2, 4, 6, 16, 16, coeff=1.7)
        code = conv_mp_encode(bank, image, q=1)
        (act,) = records(code)
        assert (act.filter_index, act.row, act.col) == (2, 4, 6)
        assert act.coefficient == pytest.approx(1.7, abs=1e-12)
        assert residual_energy(image, code, bank) <= 1e-10

    def test_negative_placement_keeps_sign(self):
        rng = np.random.default_rng(28)
        bank = random_bank(rng, 2, 1, 3, 3)
        image = place(bank, 0, 1, 2, 8, 8, coeff=-1.0)
        code = conv_mp_encode(bank, image, q=1)
        assert records(code)[0].coefficient == pytest.approx(-1.0, abs=1e-12)

    def test_zero_image_gives_empty_code(self):
        rng = np.random.default_rng(29)
        bank = random_bank(rng, 2, 1, 3, 3)
        code = conv_mp_encode(bank, np.zeros((1, 6, 6)), q=5)
        assert records(code) == []

    def test_matches_toeplitz_oracle(self):
        rng = np.random.default_rng(30)
        bank = random_bank(rng, 3, 1, 5, 5)
        image = rng.normal(size=(1, 16, 16))
        code = conv_mp_encode(bank, image, q=10)

        dictionary = toeplitz_expand(bank, (16, 16))
        flat = mp_encode(dictionary, image.ravel(), q=10)
        wv = 16 - 5 + 1
        expect = [(j // (wv * wv), (j % (wv * wv)) // wv, j % wv, a) for j, a in flat.steps]
        got = records(code)
        assert [g[:3] for g in got] == [e[:3] for e in expect]
        np.testing.assert_allclose(
            [g[3] for g in got], [e[3] for e in expect], rtol=0, atol=1e-9
        )

    def test_incremental_maps_stay_exact(self):
        rng = np.random.default_rng(31)
        bank = random_bank(rng, 3, 1, 5, 5)
        table = build_shift_gram(bank)
        image = rng.normal(size=(1, 16, 16))
        maps = correlate(bank, image)
        taken = []
        for _ in range(30):
            step = records(greedy_steps(maps, table, max_steps=1))
            if not step:
                break
            taken.extend(step)
            resid = image - reconstruct(SparseCode(1, 16, 16, taken), bank)
            np.testing.assert_allclose(maps, correlate(bank, resid), rtol=0, atol=1e-8)

    def test_energy_drops_by_coefficient_squared(self):
        rng = np.random.default_rng(32)
        bank = random_bank(rng, 2, 2, 4, 4)
        image = rng.normal(size=(2, 12, 12))
        code = conv_mp_encode(bank, image, q=15)
        e0 = float(np.sum(image * image))
        prev = e0
        acts = records(code)
        for n in range(1, len(acts) + 1):
            prefix = SparseCode(2, 12, 12, acts[:n])
            now = residual_energy(image, prefix, bank)
            a = acts[n - 1].coefficient
            assert abs(now - (prev - a * a)) <= 1e-8 * e0
            prev = now

    def test_maps_do_not_drift_over_long_pursuits(self):
        # q is over 5x the map area (22 x 22 per filter) in one call
        rng = np.random.default_rng(38)
        bank = random_bank(rng, 2, 1, 3, 3)
        table = build_shift_gram(bank)
        image = rng.normal(size=(1, 24, 24))
        maps = correlate(bank, image)
        q = 5 * 22 * 22 + 80
        activations = records(greedy_steps(maps, table, q))
        assert len(activations) == q
        resid = image - reconstruct(SparseCode(1, 24, 24, activations), bank)
        # measured drift is about 2e-15; float64 rounding over q window
        # updates of O(1) values stays far below 1e-12
        np.testing.assert_allclose(maps, correlate(bank, resid), rtol=0, atol=1e-12)
        initial = float(np.sum(image * image))
        final = float(np.sum(resid * resid))
        spent = sum(a.coefficient ** 2 for a in activations)
        assert abs(initial - spent - final) <= 1e-12 * initial

    def test_validates_the_image_once(self, monkeypatch):
        calls = []

        def counting_as_image(arr, *args, **kwargs):
            calls.append(arr)
            return real_as_image(arr, *args, **kwargs)

        real_as_image = conv_mp.as_image
        monkeypatch.setattr(conv_mp, "as_image", counting_as_image)
        rng = np.random.default_rng(39)
        bank = random_bank(rng, 2, 1, 3, 3)
        image = rng.normal(size=(1, 9, 9))
        conv_mp_encode(bank, image, q=3)
        # build_shift_gram's canvases pass through as_image too; the image once
        assert sum(arr is image for arr in calls) == 1

    def test_residual_tolerance_stops_early(self):
        rng = np.random.default_rng(33)
        bank = random_bank(rng, 2, 1, 3, 3)
        image = place(bank, 1, 2, 2, 8, 8, coeff=0.5)
        code = conv_mp_encode(bank, image, q=50, residual_tolerance=0.6)
        assert records(code) == []

    def test_infinite_tolerance_stops_at_once_and_nan_is_rejected(self):
        rng = np.random.default_rng(35)
        bank = random_bank(rng, 2, 1, 3, 3)
        image = rng.normal(size=(1, 8, 8))
        assert records(conv_mp_encode(bank, image, q=5, residual_tolerance=np.inf)) == []
        with pytest.raises(ConfigError, match="residual_tolerance"):
            conv_mp_encode(bank, image, q=5, residual_tolerance=np.nan)

    def test_an_old_style_call_with_a_table_is_rejected(self):
        """The table comes from the bank alone, so it is no argument: a call
        that still passes one reads the image as q."""
        rng = np.random.default_rng(34)
        bank = random_bank(rng, 2, 1, 3, 3)
        with pytest.raises(ConfigError, match="q must be an integer"):
            conv_mp_encode(bank, build_shift_gram(bank), np.zeros((1, 6, 6)), 1)


class TestGreedyStepsMatchesOracle:
    # (k, channels, h_f, w_f, h, w): small, layer-2-like, wide and tall
    # maps; h_v and w_v are not multiples of any tile side in all but one.
    SHAPES = [
        (3, 1, 3, 3, 14, 12),
        (2, 3, 4, 2, 17, 11),
        (8, 1, 8, 8, 128, 100),
        (4, 2, 5, 3, 100, 120),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_shapes_are_bit_identical(self, shape):
        k, c, fh, fw, h, w = shape
        rng = np.random.default_rng(sum(shape))
        bank = random_bank(rng, k, c, fh, fw)
        maps = correlate(bank, rng.normal(size=(c, h, w)))
        got, got_maps, want, want_maps = run_both(maps, build_shift_gram(bank), 120)
        assert len(want) == 120
        assert got == want
        assert np.array_equal(got_maps, want_maps)

    def test_tolerance_stop_is_bit_identical(self):
        rng = np.random.default_rng(40)
        bank = random_bank(rng, 4, 1, 6, 6)
        maps = correlate(bank, rng.normal(size=(1, 120, 90)))
        tolerance = float(np.quantile(np.abs(maps), 0.999))
        got, got_maps, want, want_maps = run_both(maps, build_shift_gram(bank), 500, tolerance)
        assert 0 < len(want) < 500
        assert got == want
        assert np.array_equal(got_maps, want_maps)

    @pytest.mark.parametrize("stop", [False, True])
    def test_pursuits_longer_than_one_block_are_bit_identical(self, monkeypatch, stop):
        # each block of STEP_BLOCK steps is one call of the C loop
        monkeypatch.setattr(conv_mp, "STEP_BLOCK", 7)
        rng = np.random.default_rng(47)
        bank = random_bank(rng, 3, 1, 4, 4)
        table = build_shift_gram(bank)
        maps = correlate(bank, rng.normal(size=(1, 30, 40)))
        # just under the first 28 peaks of a full pursuit: a stop in the fifth block
        peaks = [abs(act.coefficient) for act in oracle_greedy_steps(maps.copy(), table, 28)]
        tolerance = np.nextafter(min(peaks), 0) if stop else 0
        for q in (6, 7, 8, 14, 60):
            got, got_maps, want, want_maps = run_both(maps, table, q, tolerance)
            assert got == want
            assert np.array_equal(got_maps, want_maps)
        assert 28 <= len(want) < 35 if stop else len(want) == 60

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_maps_take_no_step(self, zero):
        rng = np.random.default_rng(41)
        bank = random_bank(rng, 3, 2, 4, 4)
        maps = np.full((3, 90, 70), zero)
        maps[1, ::2] = 0.0  # signed zeros mixed
        before = maps.tobytes()
        assert records(greedy_steps(maps, build_shift_gram(bank), 10)) == []
        assert maps.tobytes() == before

    @pytest.mark.parametrize(
        "plant, first",
        [
            # equal magnitude in two filters: the lower filter index wins,
            # at one position and from a later tile row
            ({(2, 5, 5): 3.0, (1, 40, 9): -3.0}, (1, 40, 9)),
            ({(2, 17, 30): -3.0, (0, 17, 30): 3.0, (1, 17, 30): 3.0}, (0, 17, 30)),
            # equal magnitude far apart in one map: the earlier row wins
            ({(0, 30, 2): 3.0, (0, 3, 20): 3.0}, (0, 3, 20)),
            # +v and -v close together: the row-major first wins
            ({(1, 9, 8): 3.0, (1, 10, 1): -3.0}, (1, 9, 8)),
            ({(1, 9, 8): -3.0, (1, 9, 2): 3.0}, (1, 9, 2)),
            # across tiles of one tile row, whatever the tile shape: a later
            # column on an earlier row wins
            ({(0, 14, 1): 3.0, (0, 13, 44): -3.0, (0, 12, 90): 3.0}, (0, 12, 90)),
        ],
    )
    def test_planted_exact_ties_break_like_the_oracle(self, plant, first):
        rng = np.random.default_rng(42)
        bank = random_bank(rng, 3, 1, 4, 4)
        maps = rng.uniform(-1.0, 1.0, size=(3, 60, 97))
        for idx, v in plant.items():
            maps[idx] = v
        got, got_maps, want, want_maps = run_both(maps, build_shift_gram(bank), 60)
        assert (want[0].filter_index, want[0].row, want[0].col) == first
        assert got == want
        assert np.array_equal(got_maps, want_maps)

    @pytest.mark.parametrize("seed", range(20))
    def test_ties_that_windows_keep_creating_break_like_the_oracle(self, seed):
        """Maps of -1, 0 and 1 and a sparse table of -1, 0 and 1 keep every
        value a small integer, so exact ties at the top arise at every step:
        between tiles, and between a window's new values and the peaks it
        left alone, or lowered."""
        rng = np.random.default_rng(seed)
        k, hv, wv = int(rng.integers(1, 4)), int(rng.integers(20, 80)), int(rng.integers(20, 120))
        maps = rng.integers(-1, 2, size=(k, hv, wv)).astype(float)
        table = rng.integers(-1, 2, size=(k, k, 5, 5)) * (rng.random((k, k, 5, 5)) < 0.05)
        table[range(k), range(k), 2, 2] = 1  # each step zeroes the entry it takes
        got, got_maps, want, want_maps = run_both(maps, table.astype(float), 300)
        assert got == want
        assert got_maps.tobytes() == want_maps.tobytes()

    def test_correlates_maps_are_updated_where_they_lie(self, monkeypatch):
        rng = np.random.default_rng(45)
        bank = random_bank(rng, 4, 1, 5, 5)
        table = build_shift_gram(bank)
        maps = correlate(bank, rng.normal(size=(1, 30, 40)))
        want_maps = maps.copy()
        want = oracle_greedy_steps(want_maps, table, 25)
        loop, seen = conv_mp.library().pursue, []

        def spy(work, *args):  # the address the C loop updates
            seen.append(work)
            return loop(work, *args)

        monkeypatch.setattr(conv_mp, "library", lambda: types.SimpleNamespace(pursue=spy))
        assert records(greedy_steps(maps, table, 25)) == want
        assert seen == [maps.ctypes.data]
        assert np.array_equal(maps, want_maps)

    def test_non_contiguous_maps_are_updated_in_place(self):
        rng = np.random.default_rng(43)
        bank = random_bank(rng, 8, 1, 8, 8)
        table = build_shift_gram(bank)
        maps = correlate(bank, rng.normal(size=(1, 120, 110)))
        storage = np.zeros((8, 113, 2 * 103))
        strided = storage[:, :, ::2]
        strided[...] = maps
        fortran = np.asfortranarray(maps)
        want_maps = maps.copy()
        want = oracle_greedy_steps(want_maps, table, 80)
        for view in (strided, fortran, maps.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
            assert not view.flags.c_contiguous
            assert records(greedy_steps(view, table, 80)) == want
            assert np.array_equal(view, want_maps)
        assert np.all(storage[:, :, 1::2] == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_maps_holding_a_nan_or_an_infinity_are_a_data_error(self, bad):
        rng = np.random.default_rng(44)
        bank = random_bank(rng, 2, 1, 3, 3)
        maps = correlate(bank, rng.normal(size=(1, 11, 13)))
        maps[1, 7, 3] = bad
        before = maps.tobytes()
        with pytest.raises(DataError, match="NaN or an infinity"):
            greedy_steps(maps, build_shift_gram(bank), 5)
        assert maps.tobytes() == before  # the first scan stops before any step

    def test_a_window_update_that_overflows_is_a_data_error(self):
        # the first step, +big at (0, 0, 0), subtracts big from its right
        # neighbour -big, which overflows to -inf; the second step meets it
        big = 1.7e308
        maps = np.zeros((2, 4, 5))
        maps[0, 0, :2] = big, -big
        table = np.zeros((2, 2, 3, 3))
        table[[0, 1], [0, 1], 1, 1] = 1.0
        table[0, 0, 1, 2] = 1.0
        with pytest.raises(DataError, match="NaN or an infinity"):
            greedy_steps(maps, table, 5)

    def test_a_table_that_does_not_fit_the_maps_is_rejected(self):
        maps = np.ones((3, 10, 10))
        for shape in [(2, 2, 3, 3), (3, 3, 4, 3), (3, 2, 3, 3)]:
            with pytest.raises(ConfigError, match="shift table"):
                greedy_steps(maps, np.zeros(shape), 5)
        assert np.all(maps == 1.0)


class TestToeplitzExpand:
    def test_filter_sized_image_gives_one_column(self):
        rng = np.random.default_rng(35)
        bank = random_bank(rng, 1, 1, 3, 3)
        d = toeplitz_expand(bank, (3, 3))
        assert d.shape == (9, 1)
        np.testing.assert_array_equal(d[:, 0], bank[0].ravel())

    def test_delta_filter_expands_to_identity(self):
        bank = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(toeplitz_expand(bank, (3, 3)), np.eye(9))

    def test_gram_of_expansion_matches_shift_table(self):
        rng = np.random.default_rng(36)
        bank = random_bank(rng, 2, 1, 3, 3)
        h = w = 7
        wv = w - 3 + 1
        dictionary = toeplitz_expand(bank, (h, w))
        gram = gram_matrix(dictionary)
        table = build_shift_gram(bank)

        def col(j, r, c):
            return j * wv * wv + r * wv + c

        for i in range(2):
            for j in range(2):
                for r1, c1, r2, c2 in [(0, 0, 0, 0), (1, 2, 3, 4), (2, 2, 0, 1), (4, 4, 2, 3)]:
                    g = gram[col(i, r1, c1), col(j, r2, c2)]
                    dr, dc = r2 - r1, c2 - c1
                    if abs(dr) <= 2 and abs(dc) <= 2:
                        expect = table[i, j, dr + 2, dc + 2]
                    else:
                        expect = 0.0
                    assert abs(g - expect) <= 1e-12

    def test_size_guard(self):
        rng = np.random.default_rng(37)
        bank = random_bank(rng, 4, 1, 2, 2)
        with pytest.raises(ValueError, match="guard"):
            toeplitz_expand(bank, (200, 200))
