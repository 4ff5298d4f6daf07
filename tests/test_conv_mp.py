import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from convmp import conv_mp
from convmp.conv_mp import build_shift_gram, conv_mp_encode, correlate, greedy_steps
from blas_threads import lines_at_1_and_2_blas_threads
from codes import Activation, records
from convmp.core import (
    ConfigError, SparseCode, normalize_filters, reconstruct, residual_energy,
)
from oracles import gram_matrix, mp_encode, toeplitz_expand


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


def oracle_greedy_steps(maps, table, max_steps, tolerance=0.0):
    """The pursuit loop as a full-map rescan every step: the reference that
    greedy_steps must match bit for bit on either of its paths."""
    k, hv, wv = maps.shape
    fh = (table.shape[2] + 1) // 2
    fw = (table.shape[3] + 1) // 2
    activations = []
    for _ in range(max_steps):
        flat = int(np.abs(maps).argmax())
        j, pr, pc = np.unravel_index(flat, maps.shape)
        a = float(maps[j, pr, pc])
        if abs(a) <= tolerance:
            break
        activations.append(Activation(int(j), int(pr), int(pc), a))
        r0, r1 = max(0, pr - fh + 1), min(hv, pr + fh)
        c0, c1 = max(0, pc - fw + 1), min(wv, pc + fw)
        maps[:, r0:r1, c0:c1] -= a * table[
            j,
            :,
            r0 - pr + fh - 1 : r1 - pr + fh - 1,
            c0 - pc + fw - 1 : c1 - pc + fw - 1,
        ]
    return activations


# "auto" lets greedy_steps choose its path from the map shape; the other two
# force the direct scan or the block-max cache on every shape.
PATHS = {"auto": None, "direct": float("inf"), "cached": float("-inf")}


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch):
    if PATHS[request.param] is not None:
        monkeypatch.setattr(conv_mp, "CACHE_MIN_SKIPPED", PATHS[request.param])
    return request.param


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
            # column segments from CORRELATE_CHUNK_MACS = 2**18
            ((3, 2, 5, 4, 60, 70), 1, 67),  # all 56 map rows in one band
            ((8, 1, 16, 16, 64, 64), 2, 49),  # 26-row bands over 49 rows: a 23-row tail
            ((16, 1, 8, 8, 256, 256), 28, 249),  # 9-row bands over 249 rows: a 6-row tail
            ((8, 2, 7, 16, 147, 139), 71, 124),  # 2-row bands over 141 rows: a 1-row tail
            ((1, 1, 12, 12, 187, 218), 88, 207),  # k=1 is a GEMV per map row
            ((1, 1, 11, 13, 187, 198), 59, 186),  # 4-row GEMV chunks differed here at 2+ BLAS threads
            ((1024, 8, 16, 16, 24, 16), 1, 1),  # one-column maps, one window over budget
            ((16, 3, 19, 19, 32, 80), 14, 15),  # h_f rows over the band budget, a row over
            # the GEMM budget: one-row bands, 15-window row segments, 5 per row
        ],
        ids=["one-band", "two-bands", "many-bands", "multichannel", "k1", "k1-threaded",
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
        matmul, outs = np.matmul, []

        def spy(a, b, out):  # record where each batched matmul writes
            outs.append((out.ctypes.data, out.shape))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        got = correlate(bank, image)
        monkeypatch.undo()
        assert got.flags.c_contiguous
        base = got.ctypes.data
        cover = np.zeros((hv, wv), dtype=int)
        bands = set()
        for start, (n_rows, n_filters, n_cols) in outs:
            r0, c0 = divmod((start - base) // got.itemsize, wv)
            bands.add(r0)
            assert n_filters == k
            assert n_cols == min(cols, wv - c0)
            assert n_cols * weights_dyx.size <= conv_mp.CORRELATE_CHUNK_MACS or n_cols == 1
            cover[r0 : r0 + n_rows, c0 : c0 + n_cols] += 1
            for r in range(r0, r0 + n_rows):
                window = np.ascontiguousarray(windows[r, :, c0 : c0 + n_cols])
                assert np.array_equal(got[:, r, c0 : c0 + n_cols], weights_dyx @ window)
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
        # train's default shape (k8, 16x16 filters, 64x64 images): a band
        # copies 41 unfolded rows, 0.26 MB. Chunks of at least 2**21
        # multiply-adds unfolded 21 rows of windows, 2.1 MB.
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
        # encode256's shape: each 9-row band copies 16 unfolded rows, a
        # (16, 1, 8, 249) array of 249 KiB. Copying the next band while the
        # previous one is still held makes the working set 498 KiB.
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
    def test_single_placement_recovered(self):
        rng = np.random.default_rng(27)
        bank = random_bank(rng, 3, 1, 5, 5)
        table = build_shift_gram(bank)
        image = place(bank, 2, 4, 6, 16, 16, coeff=1.7)
        code = conv_mp_encode(bank, table, image, q=1)
        (act,) = records(code)
        assert (act.filter_index, act.row, act.col) == (2, 4, 6)
        assert act.coefficient == pytest.approx(1.7, abs=1e-12)
        assert residual_energy(image, code, bank) <= 1e-10

    def test_negative_placement_keeps_sign(self):
        rng = np.random.default_rng(28)
        bank = random_bank(rng, 2, 1, 3, 3)
        table = build_shift_gram(bank)
        image = place(bank, 0, 1, 2, 8, 8, coeff=-1.0)
        code = conv_mp_encode(bank, table, image, q=1)
        assert records(code)[0].coefficient == pytest.approx(-1.0, abs=1e-12)

    def test_zero_image_gives_empty_code(self):
        rng = np.random.default_rng(29)
        bank = random_bank(rng, 2, 1, 3, 3)
        code = conv_mp_encode(bank, build_shift_gram(bank), np.zeros((1, 6, 6)), q=5)
        assert records(code) == []

    def test_matches_toeplitz_oracle(self):
        rng = np.random.default_rng(30)
        bank = random_bank(rng, 3, 1, 5, 5)
        table = build_shift_gram(bank)
        image = rng.normal(size=(1, 16, 16))
        code = conv_mp_encode(bank, table, image, q=10)

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
        table = build_shift_gram(bank)
        image = rng.normal(size=(2, 12, 12))
        code = conv_mp_encode(bank, table, image, q=15)
        e0 = float(np.sum(image * image))
        prev = e0
        acts = records(code)
        for n in range(1, len(acts) + 1):
            prefix = SparseCode(2, 12, 12, acts[:n])
            now = residual_energy(image, prefix, bank)
            a = acts[n - 1].coefficient
            assert abs(now - (prev - a * a)) <= 1e-8 * e0
            prev = now

    def test_maps_do_not_drift_over_long_pursuits(self, path):
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
            calls.append(1)
            return real_as_image(arr, *args, **kwargs)

        real_as_image = conv_mp.as_image
        monkeypatch.setattr(conv_mp, "as_image", counting_as_image)
        rng = np.random.default_rng(39)
        bank = random_bank(rng, 2, 1, 3, 3)
        table = build_shift_gram(bank)
        calls.clear()
        conv_mp_encode(bank, table, rng.normal(size=(1, 9, 9)), q=3)
        assert len(calls) == 1

    def test_residual_tolerance_stops_early(self):
        rng = np.random.default_rng(33)
        bank = random_bank(rng, 2, 1, 3, 3)
        table = build_shift_gram(bank)
        image = place(bank, 1, 2, 2, 8, 8, coeff=0.5)
        code = conv_mp_encode(bank, table, image, q=50, residual_tolerance=0.6)
        assert records(code) == []

    def test_infinite_tolerance_stops_at_once_and_nan_is_rejected(self):
        rng = np.random.default_rng(35)
        bank = random_bank(rng, 2, 1, 3, 3)
        table = build_shift_gram(bank)
        image = rng.normal(size=(1, 8, 8))
        assert records(conv_mp_encode(bank, table, image, q=5, residual_tolerance=np.inf)) == []
        with pytest.raises(ConfigError, match="residual_tolerance"):
            conv_mp_encode(bank, table, image, q=5, residual_tolerance=np.nan)

    def test_rejects_mismatched_table(self):
        rng = np.random.default_rng(34)
        bank = random_bank(rng, 2, 1, 3, 3)
        other = build_shift_gram(random_bank(rng, 3, 1, 3, 3))
        with pytest.raises(ConfigError, match="table"):
            conv_mp_encode(bank, other, np.zeros((1, 6, 6)), q=1)

    def test_rejects_a_stale_table(self):
        """A table of another unit-norm bank of the same shape has a unit
        center diagonal too; encoding off it would drift silently."""
        rng = np.random.default_rng(36)
        bank = random_bank(rng, 4, 1, 5, 5)
        stale = build_shift_gram(random_bank(rng, 4, 1, 5, 5))
        with pytest.raises(ConfigError, match="stale"):
            conv_mp_encode(bank, stale, rng.normal(size=(1, 24, 24)), q=30)


class TestGreedyStepsMatchesOracle:
    # (k, channels, h_f, w_f, h, w); the first two skip fewer entries than
    # CACHE_MIN_SKIPPED per step, the last two more, so "auto" covers both
    # paths. h_v is not a multiple of h_f in all but the first.
    SHAPES = [
        (3, 1, 3, 3, 14, 12),
        (2, 3, 4, 2, 17, 11),
        (8, 1, 8, 8, 128, 100),
        (4, 2, 5, 3, 100, 120),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_shapes_are_bit_identical(self, path, shape):
        k, c, fh, fw, h, w = shape
        rng = np.random.default_rng(sum(shape))
        bank = random_bank(rng, k, c, fh, fw)
        maps = correlate(bank, rng.normal(size=(c, h, w)))
        got, got_maps, want, want_maps = run_both(maps, build_shift_gram(bank), 120)
        assert len(want) == 120
        assert got == want
        assert np.array_equal(got_maps, want_maps)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_selection_follows_the_map_shape(self, monkeypatch, shape):
        k, c, fh, fw, h, w = shape
        hv, wv = h - fh + 1, w - fw + 1
        refreshes = []

        def counting_block_max(*args):
            refreshes.append(1)
            return real_block_max(*args)

        real_block_max = conv_mp._block_max
        monkeypatch.setattr(conv_mp, "_block_max", counting_block_max)
        rng = np.random.default_rng(44)
        bank = random_bank(rng, k, c, fh, fw)
        greedy_steps(correlate(bank, rng.normal(size=(c, h, w))), build_shift_gram(bank), 5)
        # one step skips k * w_v * (h_v - 3 * h_f) entries of the full rescan
        cached = k * wv * (hv - 3 * fh) > conv_mp.CACHE_MIN_SKIPPED
        assert len(refreshes) == (1 + 5 if cached else 0)

    def test_tolerance_stop_is_bit_identical(self, path):
        rng = np.random.default_rng(40)
        bank = random_bank(rng, 4, 1, 6, 6)
        maps = correlate(bank, rng.normal(size=(1, 120, 90)))
        tolerance = float(np.quantile(np.abs(maps), 0.999))
        got, got_maps, want, want_maps = run_both(maps, build_shift_gram(bank), 500, tolerance)
        assert 0 < len(want) < 500
        assert got == want
        assert np.array_equal(got_maps, want_maps)

    def test_all_zero_maps_take_no_step(self, path):
        rng = np.random.default_rng(41)
        bank = random_bank(rng, 3, 2, 4, 4)
        maps = np.zeros((3, 90, 70))
        assert records(greedy_steps(maps, build_shift_gram(bank), 10)) == []
        assert np.all(maps == 0.0)

    @pytest.mark.parametrize(
        "plant, first",
        [
            # equal magnitude in two filters: the lower filter index wins
            ({(2, 5, 5): 3.0, (1, 40, 9): -3.0}, (1, 40, 9)),
            # equal magnitude in two blocks of one filter: the earlier block wins
            ({(0, 30, 2): 3.0, (0, 3, 20): 3.0}, (0, 3, 20)),
            # +v and -v inside one block: the row-major first wins
            ({(1, 9, 8): 3.0, (1, 10, 1): -3.0}, (1, 9, 8)),
            ({(1, 9, 8): -3.0, (1, 9, 2): 3.0}, (1, 9, 2)),
        ],
    )
    def test_planted_exact_ties_break_like_the_oracle(self, path, plant, first):
        rng = np.random.default_rng(42)
        bank = random_bank(rng, 3, 1, 4, 4)
        maps = rng.uniform(-1.0, 1.0, size=(3, 60, 50))
        for idx, v in plant.items():
            maps[idx] = v
        got, got_maps, want, want_maps = run_both(maps, build_shift_gram(bank), 60)
        assert (want[0].filter_index, want[0].row, want[0].col) == first
        assert got == want
        assert np.array_equal(got_maps, want_maps)

    def test_non_contiguous_maps_are_updated_in_place(self, path):
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


def abs_block_max_oracle(maps, starts):
    """The np.abs-based block max that _block_max's max(max, -min) replaced."""
    return np.maximum.reduceat(np.abs(maps).reshape(maps.shape[0], -1), starts, axis=1)


class TestBlockMax:
    # 3 maps of 14x5 in blocks of 4 rows: the last block has 2 rows
    STARTS = np.arange(0, 14 * 5, 4 * 5)

    @pytest.mark.parametrize(
        "plant",
        [
            {(1, 5, 2): 7.0, (1, 6, 0): -7.0},  # +v and -v in one block
            {(1, 5, 2): 6.0, (1, 6, 0): -7.0},  # the negative one is larger
            {(0, 13, 4): -9.0},  # in the short last block
        ],
    )
    def test_planted_values_match_the_abs_oracle(self, plant):
        maps = np.random.default_rng(45).uniform(-1.0, 1.0, size=(3, 14, 5))
        for idx, v in plant.items():
            maps[idx] = v
        got = conv_mp._block_max(maps, self.STARTS)
        assert got.shape == (3, 4)
        assert np.array_equal(got, abs_block_max_oracle(maps, self.STARTS))

    def test_signed_zeros_match_the_abs_oracle(self):
        maps = np.zeros((3, 14, 5))
        maps[0] = -0.0  # a map of negative zeros
        maps[1, ::2] = -0.0  # mixed signed zeros
        maps[2, 12:] = -0.0  # the short last block
        maps[2, 0, 0] = -0.5
        got = conv_mp._block_max(maps, self.STARTS)
        assert np.array_equal(got, abs_block_max_oracle(maps, self.STARTS))

    def test_bands_of_any_layout_match_the_abs_oracle(self):
        maps = np.random.default_rng(46).normal(size=(3, 14, 5))
        for view in (maps, maps[:, 4:12], np.asfortranarray(maps)[:, 4:12], maps[:, :, ::-1]):
            starts = self.STARTS[: -(-view.shape[1] // 4)]
            assert np.array_equal(
                conv_mp._block_max(view, starts), abs_block_max_oracle(view, starts)
            )


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
