import numpy as np
import pytest

from codes import Activation, records
from convmp.core import DataError, SparseCode, normalize_filters
from convmp.model_io import (
    INTP_MAX,
    list_float_images,
    list_images,
    load_bank,
    load_code,
    load_float_image,
    load_image,
    render_filter_grid,
    save_bank,
    save_code,
    save_float_image,
    save_image,
    write_atomic,
    write_lines,
)


def random_bank(rng, k, c, fh, fw):
    return normalize_filters(rng.normal(size=(k, c, fh, fw)))


class TestBankFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        bank = random_bank(rng, 3, 2, 4, 5)
        path = tmp_path / "m.bank"
        save_bank(bank, path)
        np.testing.assert_array_equal(load_bank(path), bank)

    def test_payload_size_for_eight_16x16_filters(self, tmp_path):
        rng = np.random.default_rng(81)
        bank = random_bank(rng, 8, 1, 16, 16)
        path = tmp_path / "m.bank"
        save_bank(bank, path)
        assert path.stat().st_size == 25 + 16384  # header + 8*1*16*16*8

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(82)
        path = tmp_path / "m.bank"
        save_bank(random_bank(rng, 2, 1, 3, 3), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_bank(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bank"
        path.write_bytes(b"NOPE!" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            load_bank(path)

    def test_non_unit_norm_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(83)
        bank = random_bank(rng, 2, 1, 3, 3)
        path = tmp_path / "m.bank"
        save_bank(bank, path)
        data = bytearray(path.read_bytes())
        data[25:33] = np.asarray([5.0]).tobytes()  # corrupt first sample
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt"):
            load_bank(path)


class TestFloatImageFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(84)
        img = rng.normal(size=(1, 6, 7))
        path = tmp_path / "i.f64"
        save_float_image(img, path)
        np.testing.assert_array_equal(load_float_image(path), img)

    def test_magic_differs_from_bank(self, tmp_path):
        rng = np.random.default_rng(85)
        path = tmp_path / "i.f64"
        save_float_image(rng.normal(size=(1, 4, 4)), path)
        with pytest.raises(ValueError, match="magic"):
            load_bank(path)


def test_loaded_banks_and_images_own_their_data_and_are_writeable(tmp_path):
    # one copy of the payload: not a view of the file's bytes, nor of a copy of them
    rng = np.random.default_rng(90)
    save_bank(random_bank(rng, 3, 2, 4, 5), tmp_path / "m.bank")
    save_float_image(rng.normal(size=(2, 6, 7)), tmp_path / "i.f64")
    for loaded in (load_bank(tmp_path / "m.bank"), load_float_image(tmp_path / "i.f64")):
        assert loaded.flags.owndata and loaded.flags.writeable


def decode_pnm_oracle(data):
    """Byte-level PNM decoder independent of the library implementation."""
    import re

    m = re.match(rb"(P[56])\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", data)
    assert m is not None
    magic, w, h, maxval = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    raster = data[m.end() :]
    chans = 1 if magic == b"P5" else 3
    vals = list(raster[: w * h * chans])
    return magic, w, h, maxval, vals


class TestPnmImages:
    def test_all_white_p5(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n3 2\n255\n" + bytes([255] * 6))
        img = load_image(path)
        assert img.shape == (1, 2, 3)
        np.testing.assert_array_equal(img, 1.0)

    def test_p5_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(86)
        raw = bytes(rng.integers(0, 256, size=20, dtype=np.uint8))
        src = tmp_path / "a.pgm"
        src.write_bytes(b"P5\n5 4\n255\n" + raw)
        dst = tmp_path / "b.pgm"
        save_image(load_image(src), dst)
        assert dst.read_bytes() == src.read_bytes()

    def test_p6_matches_independent_decoder(self, tmp_path):
        rng = np.random.default_rng(87)
        raw = bytes(rng.integers(0, 256, size=4 * 3 * 3, dtype=np.uint8))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n4 3\n255\n" + raw)
        img = load_image(path)
        magic, w, h, maxval, vals = decode_pnm_oracle(path.read_bytes())
        assert img.shape == (3, h, w)
        for r in range(h):
            for c in range(w):
                for ch in range(3):
                    assert img[ch, r, c] == vals[(r * w + c) * 3 + ch] / 255

    def test_signed_save_maps_full_range(self, tmp_path):
        img = np.array([[[-2.0, 0.0], [0.0, 2.0]]])
        path = tmp_path / "s.pgm"
        save_image(img, path, signed=True)
        out = load_image(path)
        assert out[0, 0, 0] == 0.0
        assert out[0, 1, 1] == 1.0

    def test_signed_save_constant_falls_back_to_midgray(self, tmp_path):
        path = tmp_path / "g.pgm"
        save_image(np.full((1, 2, 2), -3.0), path, signed=True)
        np.testing.assert_array_equal(load_image(path), 128 / 255)

    def test_rejects_unsupported_magic_and_depth(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P4\n2 2\n")
        with pytest.raises(ValueError, match="magic"):
            load_image(p)
        p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="depth"):
            load_image(p)


class TestCodeFiles:
    def test_empty_code_is_header_only(self, tmp_path):
        path = tmp_path / "c.code"
        save_code(SparseCode(1, 8, 9), path)
        assert path.read_text() == "CMPC1 1 8 9 0\n"
        code = load_code(path)
        assert (code.channels, code.image_height, code.image_width) == (1, 8, 9)
        assert records(code) == []

    def test_round_trip_preserves_order_and_values(self, tmp_path):
        rng = np.random.default_rng(88)
        acts = [
            Activation(int(rng.integers(4)), int(rng.integers(10)), int(rng.integers(10)),
                       float(rng.normal()))
            for _ in range(17)
        ]
        code = SparseCode(2, 12, 12, acts)
        path = tmp_path / "c.code"
        save_code(code, path)
        loaded = load_code(path)
        assert records(loaded) == acts

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.code"
        path.write_text("CMPC1 1 4 4 2\n0 1 1 0.5\n0 x 1 0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            load_code(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.code"
        path.write_text("CMPC1 1 4 4 3\n0 1 1 0.5\n")
        with pytest.raises(ValueError, match="promises"):
            load_code(path)

    @pytest.mark.parametrize(
        "header", ["CMPC1 1 -5 8 0", "CMPC1 0 8 8 0", "CMPC1 1 8 0 0", "CMPC1 1 8 8 -1"]
    )
    def test_header_with_bad_dims_or_count_is_data_error(self, tmp_path, header):
        path = tmp_path / "c.code"
        path.write_text(header + "\n")
        with pytest.raises(DataError, match="line 1"):
            load_code(path)

    @pytest.mark.parametrize(
        "record",
        [f"{INTP_MAX + 1} 0 0 1.0", f"0 {-INTP_MAX - 2} 0 1.0", "0 0 99999999999999999999 1.0"],
        ids=["filter-index", "row", "col"],
    )
    def test_a_record_index_beyond_intp_is_data_error(self, tmp_path, record):
        path = tmp_path / "c.code"
        path.write_text(f"CMPC1 1 5 5 1\n{record}\n")
        with pytest.raises(DataError, match="line 2: index overflows intp"):
            load_code(path)

    @pytest.mark.parametrize(
        "header", ["CMPC1 1 99999999999999999999 5 0", f"CMPC1 2 1 {INTP_MAX // 2 + 1} 0"]
    )
    def test_a_header_beyond_intp_is_data_error(self, tmp_path, header):
        path = tmp_path / "c.code"
        path.write_text(header + "\n")
        with pytest.raises(DataError, match="line 1: .* samples overflow intp"):
            load_code(path)

    def test_indices_and_sizes_at_the_intp_limit_load(self, tmp_path):
        path = tmp_path / "c.code"
        path.write_text(f"CMPC1 1 1 {INTP_MAX} 1\n{INTP_MAX} {-INTP_MAX} 0 1.0\n")
        code = load_code(path)
        assert code.image_width == INTP_MAX
        assert records(code) == [(INTP_MAX, -INTP_MAX, 0, 1.0)]


class TestWriteAtomic:
    def test_a_write_that_raises_midway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "m.bank"
        save_bank(random_bank(np.random.default_rng(5), 2, 1, 3, 3), path)
        before = path.read_bytes()

        def chunks():
            yield b"partial"
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_atomic(path, chunks())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_writers_leave_only_their_target(self, tmp_path):
        rng = np.random.default_rng(6)
        save_bank(random_bank(rng, 2, 1, 3, 3), tmp_path / "m.bank")
        save_float_image(rng.normal(size=(1, 4, 5)), tmp_path / "x.f64")
        save_image(rng.random((3, 4, 5)), tmp_path / "x.ppm")
        save_code(SparseCode(1, 8, 9), tmp_path / "c.code")
        write_lines(tmp_path / "s.txt", ["a=1", "b=2"])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.code", "m.bank", "s.txt", "x.f64", "x.ppm"
        ]
        assert (tmp_path / "s.txt").read_bytes() == b"a=1\nb=2\n"

    def test_write_lines_with_no_lines_gives_an_empty_file(self, tmp_path):
        write_lines(tmp_path / "s.txt", [])
        assert (tmp_path / "s.txt").read_bytes() == b""


class TestRenderFilterGrid:
    def test_single_filter_single_cell(self):
        rng = np.random.default_rng(89)
        bank = random_bank(rng, 1, 1, 4, 4)
        grid = render_filter_grid(bank)
        assert grid.shape == (1 * 5 + 1, 1 * 5 + 1)
        lo, hi = bank[0, 0].min(), bank[0, 0].max()
        np.testing.assert_allclose(
            grid[1:5, 1:5], (bank[0, 0] - lo) / (hi - lo), rtol=0, atol=1e-12
        )

    def test_eight_filters_make_3x3_grid_with_midgray_cell(self):
        rng = np.random.default_rng(90)
        bank = random_bank(rng, 8, 1, 3, 3)
        grid = render_filter_grid(bank)
        assert grid.shape == (3 * 4 + 1, 3 * 4 + 1)
        np.testing.assert_array_equal(grid[9:12, 9:12], 0.5)  # unused ninth cell

    def test_grid_dims_arithmetic(self):
        rng = np.random.default_rng(91)
        for k, fh, fw in [(2, 3, 5), (5, 4, 4), (7, 2, 3)]:
            bank = random_bank(rng, k, 1, fh, fw)
            grid = render_filter_grid(bank)
            import math

            cols = math.ceil(math.sqrt(k))
            rows = math.ceil(k / cols)
            assert grid.shape == (rows * (fh + 1) + 1, cols * (fw + 1) + 1)

    def test_multichannel_cells_show_channels_side_by_side(self):
        rng = np.random.default_rng(92)
        bank = random_bank(rng, 1, 2, 3, 3)
        grid = render_filter_grid(bank)
        assert grid.shape == (3 + 2, 1 * (2 * 3 + 1 + 1) + 1)

    def test_scale_replicates_pixels(self, tmp_path):
        rng = np.random.default_rng(93)
        bank = random_bank(rng, 2, 1, 2, 2)
        g1 = render_filter_grid(bank)
        g3 = render_filter_grid(bank, tmp_path / "g.pgm", cell_scale=3)
        assert g3.shape == (g1.shape[0] * 3, g1.shape[1] * 3)
        assert (tmp_path / "g.pgm").exists()
        np.testing.assert_array_equal(g3[::3, ::3], g1)


class TestListing:
    def test_sorted_listing_by_suffix(self, tmp_path):
        (tmp_path / "b.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
        (tmp_path / "a.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        (tmp_path / "c.txt").write_text("not an image")
        (tmp_path / "z.f64").write_bytes(b"")
        names = [p.name for p in list_images(tmp_path)]
        assert names == ["a.ppm", "b.pgm"]
        assert [p.name for p in list_float_images(tmp_path)] == ["z.f64"]
