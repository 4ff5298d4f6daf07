import ctypes
import math
import platform

import numpy as np
import pytest

from blas_threads import kernels_picked_at_run_time, lines_at_1_and_2_blas_threads, lines_in_children
from codes import Activation, records
from convmp import _native, conv_mp, core, dict_learn
from convmp._native import POWER_CONVERGED, POWER_ZERO
from convmp.conv_mp import build_shift_gram, conv_mp_encode, prepare_bank
from convmp.core import (
    DataError,
    PreparedBank,
    SparseCode,
    TrainConfig,
    normalize_filters,
    reconstruct,
    residual_energy,
)
from convmp.dict_learn import (
    collect_activated_patches,
    encode_all,
    filter_windows,
    init_filters,
    pca_top_component,
    train,
    update_filter,
)
from oracles import oracle_update_filter, power_bits, window_index


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.sqrt(np.sum(v * v))


def windows_of(codes, num_filters, fh, fw):
    """filter_windows over the codes, as a list."""
    return list(filter_windows(codes, num_filters, fh, fw))


def flat_buffer(residuals):
    """The residuals copied back to back into one flat buffer, and per-image
    views of that buffer (so they see its repairs)."""
    flat = np.concatenate([r.ravel() for r in residuals])
    bounds = np.cumsum([0] + [r.size for r in residuals])
    views = [flat[a:b].reshape(r.shape) for a, b, r in zip(bounds, bounds[1:], residuals)]
    return flat, views


def flat_sweep(residuals, codes, j, bank):
    """Per-image residuals and their codes in the form the sweep takes them
    for filter j: flat_buffer's buffer and views, j's windows and summed
    coefficients, and the patches collect_activated_patches gathers there,
    each in the filter's shape."""
    k, _, fh, fw = bank.shape
    flat, views = flat_buffer(residuals)
    windows, coefs = windows_of(codes, k, fh, fw)[j]
    patches = collect_activated_patches(flat, windows, coefs, bank[j])
    return flat, views, windows, coefs, list(patches.reshape(-1, *bank[j].shape))


def oracle_group_by_filter(code, num_filters):
    """Per filter, a dict of its distinct positions in first-use order, each
    mapped to the sum of its coefficients in activation order."""
    groups = [{} for _ in range(num_filters)]
    for act in records(code):
        positions = groups[act.filter_index]
        key = (act.row, act.col)
        positions[key] = positions.get(key, 0.0) + act.coefficient
    return groups


def oracle_windows(codes, shapes, num_filters, fh, fw):
    """oracle_group_by_filter's positions in filter_windows's form: per
    filter, each position's window read out of a flat buffer that holds its
    own sample numbers, and the summed coefficients, in image order, then
    each image's first-use order."""
    flat, views = flat_buffer([np.zeros(shape) for shape in shapes])
    flat[:] = np.arange(flat.size)
    groups = [oracle_group_by_filter(code, num_filters) for code in codes]
    out = []
    for j in range(num_filters):
        rows, coefs = [], []
        for view, group in zip(views, groups):
            for (r, c), a in group[j].items():
                rows.append(view[:, r : r + fh, c : c + fw].ravel())
                coefs.append(a)
        index = np.array(rows, dtype=np.intp).reshape(len(rows), shapes[0][0] * fh * fw)
        out.append((index, np.array(coefs, dtype=np.float64)))
    return out


def make_cfg(**overrides):
    base = dict(
        num_filters=2,
        filter_height=3,
        filter_width=3,
        sparsity=4,
        epochs=1,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestInitFilters:
    def test_single_patch_corpus(self):
        image = np.arange(9.0).reshape(1, 3, 3) + 1.0
        bank = init_filters([image], make_cfg(num_filters=3))
        for j in range(3):
            np.testing.assert_allclose(bank[j], unit(image), rtol=0, atol=1e-12)

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(40)
        images = [rng.normal(size=(1, 12, 12)) for _ in range(5)]
        a = init_filters(images, make_cfg(seed=3))
        b = init_filters(images, make_cfg(seed=3))
        np.testing.assert_array_equal(a, b)
        c = init_filters(images, make_cfg(seed=4))
        assert not np.array_equal(a, c)

    def test_all_filters_unit_norm(self):
        rng = np.random.default_rng(41)
        images = [rng.normal(size=(2, 10, 10)) for _ in range(3)]
        bank = init_filters(images, make_cfg(num_filters=6))
        norms = np.sqrt(np.sum(bank * bank, axis=(1, 2, 3)))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_rejects_all_zero_corpus(self):
        with pytest.raises(ValueError, match="zero"):
            init_filters([np.zeros((1, 5, 5))], make_cfg())

    def test_rejects_too_small_corpus(self):
        with pytest.raises(DataError, match="smaller than the 3x3 filters"):
            init_filters([np.ones((1, 2, 2))], make_cfg())

    def test_rejects_any_undersized_image(self):
        images = [np.ones((1, 8, 8)), np.ones((1, 8, 2))]
        with pytest.raises(DataError, match="image 1 is 8x2"):
            init_filters(images, make_cfg())

    def test_rejects_mixed_channel_counts(self):
        images = [np.ones((1, 8, 8)), np.ones((2, 8, 8))]
        with pytest.raises(DataError, match="image 1 has 2 channels"):
            init_filters(images, make_cfg())

    def test_a_patch_whose_norm_overflows_is_a_data_error(self):
        # each sample is finite, but a 3x3 patch's sum of squares is 9e400
        with pytest.raises(DataError, match="norm of a 3x3 corpus patch overflows"):
            init_filters([np.full((1, 6, 6), 1e200)], make_cfg())

    @pytest.mark.parametrize("exponent", [-540, -520])
    def test_a_nonzero_patch_whose_norm_underflows_is_a_data_error(self, exponent):
        # at 2^-540 a 3x3 patch's sum of squares is 0, at 2^-520 subnormal,
        # where its square root is inexact: the corpus is not all zero
        images = [2.0**exponent * np.random.default_rng(43).normal(size=(1, 24, 24))]
        with pytest.raises(DataError, match="nonzero 3x3 corpus patch underflows float64; "
                                            "scale the corpus up"):
            init_filters(images, make_cfg())


class TestCollectActivatedPatches:
    def test_perfect_single_atom_image(self):
        rng = np.random.default_rng(42)
        bank = np.stack([unit(rng.normal(size=(1, 3, 3)))])
        code = SparseCode(1, 8, 8, [Activation(0, 2, 3, 1.4)])
        image = reconstruct(code, bank)
        residual = image - reconstruct(code, bank)
        _, _, windows, coefs, patches = flat_sweep([residual], [code], 0, bank)
        np.testing.assert_array_equal(coefs, [1.4])
        np.testing.assert_array_equal(windows[:, 0], [2 * 8 + 3])  # the window's corner
        assert len(patches) == 1
        np.testing.assert_allclose(patches[0], 1.4 * bank[0], rtol=0, atol=1e-12)

    def test_unused_filter_gives_empty_set(self):
        bank = np.stack([unit(np.ones((1, 2, 2))), unit(np.eye(2)[None])])
        code = SparseCode(1, 5, 5, [Activation(0, 1, 1, 2.0)])
        image = reconstruct(code, bank)
        _, _, windows, coefs, patches = flat_sweep([image * 0.0], [code], 1, bank)
        assert windows.shape == (0, 3) and coefs.shape == (0,)
        assert window_index(windows, 1, 2, 2).shape == (0, 4)
        assert patches == []

    def test_repeated_position_accumulates(self):
        bank = np.stack([unit(np.ones((1, 2, 2)))])
        code = SparseCode(
            1,
            4,
            4,
            [Activation(0, 1, 1, 2.0), Activation(0, 0, 2, 0.7), Activation(0, 1, 1, -0.5)],
        )
        image = reconstruct(code, bank)
        residual = image - reconstruct(code, bank)
        _, _, windows, coefs, patches = flat_sweep([residual], [code], 0, bank)
        np.testing.assert_array_equal(windows[:, 0], [1 * 4 + 1, 0 * 4 + 2])  # first-use order
        assert coefs[0] == pytest.approx(1.5, abs=1e-15)
        assert len(patches) == 2
        np.testing.assert_allclose(patches[0], 1.5 * bank[0], rtol=0, atol=1e-12)

    def test_overlap_matches_explicit_subtraction_oracle(self):
        rng = np.random.default_rng(43)
        bank = np.stack(
            [unit(rng.normal(size=(1, 3, 3))), unit(rng.normal(size=(1, 3, 3)))]
        )
        acts = [Activation(0, 2, 2, 1.2), Activation(1, 3, 3, -0.8)]
        code = SparseCode(1, 8, 8, acts)
        image = rng.normal(size=(1, 8, 8))
        residual = image - reconstruct(code, bank)

        patches = flat_sweep([residual], [code], 0, bank)[-1]
        others = SparseCode(1, 8, 8, [acts[1]])
        expect = (image - reconstruct(others, bank))[:, 2:5, 2:5]
        np.testing.assert_allclose(patches[0], expect, rtol=0, atol=1e-12)


    def test_a_window_outside_the_buffer_or_a_malformed_argument_is_rejected(self):
        # the compiled gather and repair read the windows where they lie, so
        # they check, before reading or writing, that each window fits
        flat, filt, coefs = np.arange(20.0), np.full((1, 2, 2), 0.5), np.ones(1)
        fits = [(0, 5, 20), (13, 5, 20)]  # in a 4x5 image: the first and last 2x2 corners
        for window in fits:
            windows = np.array([window], dtype=np.intp)
            assert collect_activated_patches(flat, windows, coefs, filt).shape == (1, 4)
        misfits = [(-1, 5, 20), (14, 5, 20), (0, 1, 20), (0, 5, 5), (0, 5, 21),
                   (2**62, 5, 20), (0, 2**62, 2**62)]  # the last two would overflow a sum
        for window in misfits:
            windows = np.array([window], dtype=np.intp)
            with pytest.raises(core.ConfigError, match="outside the 20-sample residual"):
                collect_activated_patches(flat, windows, coefs, filt)
            assert _native.library().repair(flat.ctypes.data, flat.size, windows.ctypes.data, 1,
                                            1, 2, 2, coefs.ctypes.data, filt.ctypes.data,
                                            coefs.ctypes.data, filt.ctypes.data) == -1
            assert np.array_equal(flat, np.arange(20.0))  # nothing written
        windows = np.array([fits[0]], dtype=np.intp)
        with pytest.raises(core.ConfigError, match=r"shape \(1, 3\) do not fit 2 coefficients"):
            collect_activated_patches(flat, windows, np.ones(2), filt)
        read_only = flat.copy()
        read_only.flags.writeable = False
        for residual in (np.arange(40.0)[::2], read_only, np.arange(20)):
            with pytest.raises(core.ConfigError, match="writeable C-contiguous float64"):
                update_filter(filt[None].copy(), 0, windows, coefs, residual, [flat[None, None]],
                              np.random.default_rng(0))


class TestPcaTopComponent:
    def test_rank_one_set_returns_direction(self):
        rng = np.random.default_rng(44)
        v = unit(rng.normal(size=(1, 3, 3)))
        out = pca_top_component([2 * v, -3 * v, v], prev=v)
        np.testing.assert_allclose(out, v, rtol=0, atol=1e-10)

    def test_single_patch_normalized(self):
        u = np.array([[[3.0, 0.0], [0.0, 4.0]]])
        out = pca_top_component([u])
        np.testing.assert_allclose(out, u / 5.0, rtol=0, atol=1e-12)

    def test_sign_rule_without_prev_makes_first_nonzero_positive(self):
        u = np.array([[[-3.0, 0.0], [0.0, -4.0]]])
        out = pca_top_component([u])
        assert out[0, 0, 0] > 0

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            patches = [rng.normal(size=(1, 3, 3)) for _ in range(20)]
            got = pca_top_component(patches).ravel()
            rows = np.stack([p.ravel() for p in patches])
            w, vecs = np.linalg.eigh(rows.T @ rows)
            top = vecs[:, np.argmax(w)]
            assert abs(float(got @ top)) >= 1 - 1e-8

    @pytest.mark.parametrize("n", [5, 30], ids=["n<dim", "n>=dim"])
    def test_array_input_gives_the_bits_of_the_list_input(self, n):
        rng = np.random.default_rng(59)
        patches = [rng.normal(size=(2, 3, 3)) for _ in range(n)]
        prev = rng.normal(size=(2, 3, 3))
        listed = pca_top_component(patches, prev=prev)
        stacked = pca_top_component(np.stack(patches).reshape(n, -1), prev=prev)
        assert listed.shape == (2, 3, 3) and stacked.shape == (18,)
        assert np.array_equal(stacked, listed.ravel())

    @pytest.mark.parametrize("n", [3, 8, 17, 18, 40], ids=lambda n: f"n{n}-dim18")
    def test_matches_dense_eigendecomposition_on_either_side_of_dim(self, n, caplog):
        # criterion 10's tolerance, on either side of n = dim
        rng = np.random.default_rng(60 + n)
        for _ in range(10):
            rows = rng.normal(size=(n, 18))
            with caplog.at_level("WARNING", logger="convmp.dict_learn"):
                got = pca_top_component(rows)
            w, vecs = np.linalg.eigh(rows.T @ rows)
            assert abs(float(got @ vecs[:, np.argmax(w)])) >= 1 - 1e-8
            assert np.sum(got * got) == pytest.approx(1.0, abs=1e-12)
        assert caplog.records == []

    def test_rank_deficient_short_set_converges(self, caplog):
        # 6 rows in dim 27 spanning only 2 directions: rows^T rows has rank 2,
        # and the iteration still converges to its top eigenvector
        rng = np.random.default_rng(61)
        basis = rng.normal(size=(2, 27))
        rows = rng.normal(size=(6, 2)) @ basis
        with caplog.at_level("WARNING", logger="convmp.dict_learn"):
            got = pca_top_component(rows)
        assert caplog.records == []
        w, vecs = np.linalg.eigh(rows.T @ rows)
        assert abs(float(got @ vecs[:, np.argmax(w)])) >= 1 - 1e-8
        assert np.sum(got * got) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_and_all_zero(self):
        with pytest.raises(ValueError, match="empty"):
            pca_top_component([])
        with pytest.raises(ValueError, match="dead"):
            pca_top_component([np.zeros((1, 2, 2))])

    def test_products_that_overflow_are_a_data_error(self, caplog):
        # finite rows whose row . v overflows in the first step
        rows = np.full((4, 9), 1e300)
        with pytest.raises(DataError, match="products overflow"):
            pca_top_component(rows)
        assert caplog.records == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_patch(self, bad, caplog):
        patches = np.random.default_rng(62).normal(size=(20, 9))
        patches[7, 4] = bad
        with pytest.raises(DataError, match="finite"):
            pca_top_component(patches)
        assert caplog.records == []

    @staticmethod
    def _nullspace_rows(rank):
        """Rows orthogonal to the seeded start, which power's first step
        sends to y = 0: at rank 1, (b, -a) and -2 (b, -a) against the start
        (a, b); at rank 2, (b, -a, 0), 2 (c, 0, -a) and (0, c, -b) / 2
        against (a, b, c). Each row's dot product with the start pairs
        x*y with -(y*x), which cancel exactly. Strided rows keep numpy off
        BLAS, whose fused multiply-adds would leave a rounding residue."""
        if rank == 1:
            a, b = dict_learn._pca_start(2)
            rows = np.array([[b, 0.0, -a, 0.0], [-2 * b, 0.0, 2 * a, 0.0]])[:, ::2]
        else:
            a, b, c = dict_learn._pca_start(3)
            rows = np.array([[b, 0.0, -a, 0.0, 0.0, 0.0], [2 * c, 0.0, 0.0, 0.0, -2 * a, 0.0],
                             [0.0, 0.0, c / 2, 0.0, -b / 2, 0.0]])[:, ::2]
        assert not np.any((rows @ dict_learn._pca_start(rank + 1)) @ rows)
        return rows

    def test_a_start_in_the_nullspace_restarts(self):
        rows = self._nullspace_rows(1)
        a, b = dict_learn._pca_start(2)
        # the restarted start converges to the rows' direction, first entry positive
        np.testing.assert_allclose(pca_top_component(rows), unit([b, -a]) * np.sign(b),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_the_restart_has_the_bits_of_power_from_the_largest_row(self, rank):
        # one restart, with the budget left, from the row holding the largest
        # |entry|, scaled by that entry and normalized
        rows = self._nullspace_rows(rank)
        max_iter, tol = dict_learn._PCA_MAX_ITER, dict_learn._PCA_TOL
        status, _, used = power_bits(rows, dict_learn._pca_start(rank + 1), max_iter, tol)
        assert status == POWER_ZERO
        row, col = np.unravel_index(np.argmax(np.abs(rows)), rows.shape)
        start = rows[row] / rows[row, col]
        start /= math.sqrt(start @ start)
        status, want, _ = power_bits(rows, start, max_iter - used, tol)
        assert status == POWER_CONVERGED
        want = -want if want[np.flatnonzero(want)[0]] < 0 else want
        assert pca_top_component(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1e-80, 1e-150, 1e-200])
    def test_products_that_underflow_are_a_data_error(self, scale, caplog):
        # at 1e-80 |y|^2 is subnormal, so |y| is inexact and y / |y| would be
        # off unit norm; at 1e-150 |y|^2 underflows while y does not; at
        # 1e-200 every (row . v) row does, so the start looks like one in the
        # nullspace, and the product of the restart's row underflows as well
        rows = np.random.default_rng(63).normal(size=(50, 64)) * scale
        with caplog.at_level("WARNING", logger="convmp.dict_learn"):
            with pytest.raises(DataError, match="underflow float64; scale the corpus up"):
                pca_top_component(rows)
        assert caplog.records == []

    @pytest.mark.parametrize("scale", [1e-78, 1e-80])
    def test_power_stops_where_its_emulation_does_once_y_is_tiny(self, scale):
        # |y|^2 below the smallest normal double stops the first step, v untouched
        rows = np.random.default_rng(63).normal(size=(50, 64)) * scale
        start = dict_learn._pca_start(64)
        max_iter, tol = dict_learn._PCA_MAX_ITER, dict_learn._PCA_TOL
        status, want, used = power_bits(rows, start, max_iter, tol)
        assert (status, used, want.tobytes()) == (POWER_ZERO, 1, start.tobytes())
        v, y, steps = start.copy(), np.empty(64), ctypes.c_ssize_t()
        got = _native.library().power(rows.ctypes.data, 50, 64, v.ctypes.data, y.ctypes.data,
                                      max_iter, tol, ctypes.byref(steps))
        assert (got, steps.value, v.tobytes()) == (status, used, want.tobytes())

    def test_large_sets_have_the_same_bits_at_1_and_2_blas_threads(self):
        # The sets a row-blocked numpy refit had to split, 450 x 1024 being
        # OpenBLAS's own threading threshold; the compiled loop calls no BLAS
        # routine at any size. Each set's first column is scaled up, so the
        # top direction is well separated and a few iterations converge.
        sets = [(11544, 68), (500, 1024), (450, 1024)]
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from convmp.dict_learn import pca_top_component\n"
            f"for n, dim in {sets}:\n"
            "    rows = np.random.default_rng([n, dim]).normal(size=(n, dim))\n"
            "    rows[:, 0] *= 2.0\n"
            "    print(n, dim, hashlib.sha256(pca_top_component(rows).tobytes()).hexdigest())\n"
        )
        one, two = lines_at_1_and_2_blas_threads(script)
        assert len(one) == len(two) == 3
        assert [a for a, b in zip(one, two) if a != b] == []

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                        or not kernels_picked_at_run_time(),
                        reason="OPENBLAS_CORETYPE picks a kernel of numpy's own x86-64 OpenBLAS")
    def test_the_refit_has_the_same_bits_under_the_prescott_blas_kernel(self):
        # OPENBLAS_CORETYPE swaps the BLAS kernels a CPU would pick, so one
        # host shows what another CPU would; every x86-64 CPU runs Prescott's.
        # Normalizing the start with BLAS ddot changed the bytes at dims 36 and 64.
        script = (
            "import numpy as np\n"
            "from convmp.dict_learn import pca_top_component\n"
            "for dim in (16, 36, 64, 128, 256):\n"
            "    rows = np.random.default_rng(dim).normal(size=(40, dim))\n"
            "    print(dim, pca_top_component(rows).tobytes().hex())\n"
        )
        usual, prescott = lines_in_children(script, [{}, {"OPENBLAS_CORETYPE": "Prescott"}])
        assert len(usual) == len(prescott) == 5
        assert [a.split()[0] for a, b in zip(usual, prescott) if a != b] == []

    def test_warns_when_the_iteration_cap_is_reached(self, caplog, monkeypatch):
        rng = np.random.default_rng(57)
        patches = [rng.normal(size=(1, 3, 3)) for _ in range(20)]
        with caplog.at_level("WARNING", logger="convmp.dict_learn"):
            pca_top_component(patches)
        assert caplog.records == []
        monkeypatch.setattr(dict_learn, "_PCA_MAX_ITER", 1)
        with caplog.at_level("WARNING", logger="convmp.dict_learn"):
            pca_top_component(patches)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "cap of 1 iterations unconverged" in messages[0]


def _projected_code(code, j, residual, old_bank, new_w):
    """code with filter j's activations replaced by one activation per
    position, its coefficient the projection of that position's patch
    (collected with old_bank before the update) onto the new filter."""
    positions = oracle_group_by_filter(code, len(old_bank))[j]
    patches = flat_sweep([residual], [code], j, old_bank)[-1]
    acts = [a for a in records(code) if a.filter_index != j]
    acts += [
        Activation(j, r, c, float(new_w.ravel() @ p.ravel()))
        for (r, c), p in zip(positions, patches)
    ]
    return SparseCode(code.channels, code.image_height, code.image_width, acts)


class TestUpdateFilter:
    def _state(self, bank, code, image, j):
        """The residual (a view of the flat buffer update_filter repairs) and
        filter j's sweep inputs: windows, coefs, buffer."""
        residual = image - reconstruct(code, bank)
        flat, (residual,), windows, coefs, _ = flat_sweep([residual], [code], j, bank)
        return residual, (windows, coefs, flat)

    def test_perfect_data_is_a_fixed_point(self):
        rng = np.random.default_rng(46)
        bank = np.stack([unit(rng.normal(size=(1, 3, 3)))])
        acts = [Activation(0, 0, 0, 1.5), Activation(0, 4, 4, -2.0)]
        code = SparseCode(1, 8, 8, list(acts))
        image = reconstruct(code, bank)
        residual, sweep = self._state(bank, code, image, 0)
        before = residual.copy()

        old_bank = bank.copy()
        dead = update_filter(bank, 0, *sweep, [image], np.random.default_rng(0))
        assert not dead
        np.testing.assert_allclose(bank[0], old_bank[0], rtol=0, atol=1e-9)
        got = records(_projected_code(code, 0, before, old_bank, bank[0]))
        assert [(a.row, a.col) for a in got] == [(a.row, a.col) for a in acts]
        for g, e in zip(got, acts):
            assert g.coefficient == pytest.approx(e.coefficient, abs=1e-10)
        np.testing.assert_allclose(residual, 0.0, rtol=0, atol=1e-9)

    def test_dead_filter_reinitialized_from_data(self):
        rng = np.random.default_rng(47)
        bank = np.stack(
            [unit(rng.normal(size=(1, 3, 3))), unit(rng.normal(size=(1, 3, 3)))]
        )
        code = SparseCode(1, 8, 8, [Activation(0, 1, 1, 1.0)])
        image = reconstruct(code, bank)
        residual, sweep = self._state(bank, code, image, 1)
        residual_before = residual.copy()
        before = bank[1].copy()
        dead = update_filter(bank, 1, *sweep, [image], np.random.default_rng(5))
        assert dead
        assert not np.array_equal(bank[1], before)
        assert np.sum(bank[1] * bank[1]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(residual, residual_before)  # j had no positions

    def test_energy_never_increases_for_nonoverlapping_activations(self):
        rng = np.random.default_rng(48)
        bank = np.stack(
            [unit(rng.normal(size=(1, 3, 3))), unit(rng.normal(size=(1, 3, 3)))]
        )
        acts = [
            Activation(0, 0, 0, 1.0),
            Activation(0, 0, 5, -0.7),
            Activation(0, 5, 0, 1.3),
            Activation(1, 5, 5, 0.6),
        ]
        code = SparseCode(1, 8, 8, list(acts))
        image = rng.normal(size=(1, 8, 8))
        residual, sweep = self._state(bank, code, image, 0)
        before = residual_energy(image, code, bank)
        update_filter(bank, 0, *sweep, [image], np.random.default_rng(1))
        after = float(np.sum(np.square(residual)))
        assert after <= before + 1e-9

    def test_residual_consistency_with_overlapping_same_filter(self):
        rng = np.random.default_rng(49)
        bank = np.stack(
            [unit(rng.normal(size=(1, 3, 3))), unit(rng.normal(size=(1, 3, 3)))]
        )
        acts = [
            Activation(0, 2, 2, 1.1),
            Activation(0, 3, 3, -0.9),  # overlaps the first
            Activation(1, 0, 0, 0.4),
            Activation(0, 2, 2, 0.3),  # repeat of the first position
        ]
        code = SparseCode(1, 8, 8, list(acts))
        image = rng.normal(size=(1, 8, 8))
        residual, sweep = self._state(bank, code, image, 0)
        before, old_bank = residual.copy(), bank.copy()

        update_filter(bank, 0, *sweep, [image], np.random.default_rng(2))
        # residual = image - reconstruction with j's coefficients replaced by
        # the closed-form projections onto the new filter
        expected = _projected_code(code, 0, before, old_bank, bank[0])
        np.testing.assert_allclose(
            residual, image - reconstruct(expected, bank), rtol=0, atol=1e-8
        )

    def test_residual_repair_stays_per_image(self):
        rng = np.random.default_rng(58)
        bank = np.stack(
            [unit(rng.normal(size=(1, 3, 3))), unit(rng.normal(size=(1, 3, 3)))]
        )
        codes = [
            SparseCode(
                1,
                8,
                8,
                [
                    Activation(0, 1, 1, 0.8),
                    Activation(0, 2, 3, -1.2),  # overlaps the first
                    Activation(1, 4, 4, 0.5),
                    Activation(0, 1, 1, 0.4),  # repeat
                ],
            ),
            SparseCode(
                1,
                9,
                7,
                [
                    Activation(0, 5, 2, 1.5),
                    Activation(0, 5, 2, -0.3),  # repeat
                    Activation(0, 4, 3, 0.9),  # overlaps it
                    Activation(1, 0, 0, -0.6),
                ],
            ),
        ]
        images = [rng.normal(size=(1, 8, 8)), rng.normal(size=(1, 9, 7))]
        residuals = [im - reconstruct(code, bank) for im, code in zip(images, codes)]
        before, old_bank = [r.copy() for r in residuals], bank.copy()
        flat, residuals, windows, coefs, _ = flat_sweep(residuals, codes, 0, bank)

        dead = update_filter(bank, 0, windows, coefs, flat, images, np.random.default_rng(3))
        assert not dead
        for i, image in enumerate(images):
            expected = _projected_code(codes[i], 0, before[i], old_bank, bank[0])
            np.testing.assert_allclose(
                residuals[i], image - reconstruct(expected, bank), rtol=0, atol=1e-8
            )


class TestSweepMatchesOracle:
    """update_filter on the flat buffer against oracle_update_filter."""

    def _sweep_both(self, seed, min_activations):
        rng = np.random.default_rng(seed)
        k, c, fh, fw = 4, 2, 3, 4
        bank = rng.normal(size=(k, c, fh, fw))
        bank /= np.sqrt(np.sum(bank * bank, axis=(1, 2, 3)))[:, None, None, None]
        sizes = [(9, 11), (12, 8), (9, 11)]  # two image sizes
        images, codes = [], []
        for i, (h, w) in enumerate(sizes):
            acts = []
            for _ in range(14):
                # filter 3 is never used (empty everywhere); filter 1 not in image 1
                j = int(rng.choice([0, 1, 2] if i != 1 else [0, 2]))
                # a 3x3 grid of corners near the middle: overlaps and repeats
                r, col = int(rng.integers(2, 5)), int(rng.integers(2, 5))
                acts.append(Activation(j, r, col, float(rng.normal())))
            codes.append(SparseCode(c, h, w, acts))
            images.append(rng.normal(size=(c, h, w)))
        residuals = [im - reconstruct(code, bank) for im, code in zip(images, codes)]
        groups = [oracle_group_by_filter(code, k) for code in codes]
        assert any(len(g[0]) < sum(a.filter_index == 0 for a in records(code))
                   for g, code in zip(groups, codes))  # some position repeats

        oracle_bank, flat_bank = bank.copy(), bank.copy()
        oracle_rng, flat_rng = np.random.default_rng(9), np.random.default_rng(9)
        flat, views = flat_buffer(residuals)
        deads = []
        for j, (windows, coefs) in enumerate(windows_of(codes, k, fh, fw)):
            positions = [g[j] for g in groups]
            expect = oracle_update_filter(oracle_bank, j, positions, residuals, images,
                                          oracle_rng, min_activations)
            got = update_filter(flat_bank, j, windows, coefs, flat, images, flat_rng,
                                min_activations)
            assert got == expect
            deads.append(got)
            assert np.array_equal(flat_bank, oracle_bank)
            for view, residual in zip(views, residuals):
                assert np.array_equal(view, residual)
        return deads

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_the_sequential_loop(self, seed):
        assert self._sweep_both(seed, min_activations=1) == [False, False, False, True]

    def test_bit_identical_when_live_filters_are_reinitialized(self):
        # filters with positions but too few of them still repair the residual
        assert self._sweep_both(6, min_activations=1000) == [True] * 4


def random_case(rng):
    """A random filter_windows input: 1-4 codes over one to three image
    shapes, with repeated positions, signed zeros, cancelling pairs, unused
    filters and empty codes."""
    k, c = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    fh, fw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kinds = [(c, fh + int(rng.integers(0, 4)), fw + int(rng.integers(0, 4)))
             for _ in range(int(rng.integers(1, 4)))]
    shapes = [kinds[int(rng.integers(len(kinds)))] for _ in range(int(rng.integers(1, 5)))]
    used = rng.permutation(k)[: int(rng.integers(1, k + 1))]
    codes = []
    for _, h, w in shapes:
        acts = []
        for _ in range(int(rng.integers(0, 12))):
            j = int(rng.choice(used))
            # corners from at most a 2x2 grid, so positions repeat often
            r, col = int(rng.integers(min(2, h - fh + 1))), int(rng.integers(min(2, w - fw + 1)))
            a = float(rng.choice([rng.normal(), -0.0, 0.0, 1.0, -1.0]))
            acts.append(Activation(j, r, col, a))
        codes.append(SparseCode(c, h, w, acts))
    return codes, shapes, k, fh, fw


class TestFilterWindows:
    """filter_windows against oracle_windows, the per-position dicts."""

    def test_matches_the_dict_oracle_bit_for_bit(self):
        rng = np.random.default_rng(62)
        seen = {"mixed": 0, "repeat": 0, "negzero": 0, "unused": 0, "empty": 0}
        for _ in range(1000):
            codes, shapes, k, fh, fw = random_case(rng)
            got = windows_of(codes, k, fh, fw)
            expect = oracle_windows(codes, shapes, k, fh, fw)
            assert len(got) == k
            for (windows, coefs), (oracle_index, oracle_coefs) in zip(got, expect):
                assert windows.dtype == np.intp and coefs.dtype == np.float64
                index = window_index(windows, shapes[0][0], fh, fw)
                assert np.array_equal(index, oracle_index)
                assert index.shape == oracle_index.shape
                assert coefs.tobytes() == oracle_coefs.tobytes()
            acts = [a for code in codes for a in records(code)]
            seen["mixed"] += len(set(shapes)) > 1
            seen["repeat"] += sum(len(i) for i, _ in got) < len(acts)
            seen["negzero"] += any(np.signbit(a.coefficient) and a.coefficient == 0
                                   for a in acts)
            seen["unused"] += any(len(i) == 0 for i, _ in got)
            seen["empty"] += any(len(code) == 0 for code in codes)
        assert min(seen.values()) >= 50, seen

    def test_index_follows_image_then_first_use_order(self):
        shapes = [(2, 4, 5), (2, 3, 3), (2, 5, 4)]
        codes = [
            SparseCode(2, 4, 5, [Activation(0, 1, 2, 0.5), Activation(1, 2, 0, 3.0),
                                 Activation(0, 0, 0, -1.0)]),
            SparseCode(2, 3, 3, [Activation(1, 1, 0, 4.0)]),
            SparseCode(2, 5, 4, [Activation(0, 2, 1, 2.0)]),
        ]
        windows, coefs = windows_of(codes, 2, 2, 3)[0]
        index = window_index(windows, 2, 2, 3)
        assert windows.shape == (3, 3) and index.shape == (3, 2 * 2 * 3)
        # each window's image width and plane size: images 0, 0 and 2
        np.testing.assert_array_equal(windows[:, 1:], [[5, 20], [5, 20], [4, 20]])
        np.testing.assert_array_equal(coefs, [0.5, -1.0, 2.0])
        # in a buffer holding its own flat positions, each image's window
        # reads out the index row of its window
        flat, views = flat_buffer([np.zeros(shape) for shape in shapes])
        flat[:] = np.arange(flat.size)
        placed = [views[0][:, 1:3, 2:5], views[0][:, 0:2, 0:3], views[2][:, 2:4, 1:4]]
        for row, window in zip(index, placed):
            np.testing.assert_array_equal(row, window.ravel())

    def test_repeats_sum_in_activation_order_at_the_first_use(self):
        acts = [Activation(0, 1, 1, 0.1), Activation(0, 0, 0, 5.0), Activation(0, 1, 1, 0.2),
                Activation(0, 1, 1, 0.3)]
        windows, coefs = windows_of([SparseCode(1, 4, 4, acts)], 1, 2, 2)[0]
        np.testing.assert_array_equal(windows[:, 0], [5, 0])
        assert coefs[0] == (0.0 + 0.1 + 0.2) + 0.3 and coefs[1] == 5.0

    def test_no_positions_give_an_empty_index(self):
        empty = [SparseCode(3, 6, 6), SparseCode(3, 5, 7)]
        [(windows, coefs)] = windows_of(empty, 1, 2, 2)
        assert windows.shape == (0, 3) and coefs.shape == (0,)
        assert window_index(windows, 3, 2, 2).shape == (0, 12)


class TestEncodeAll:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Counts of the bank's unit-norm checks (as_bank's filter norms), from here on."""
        counts = {"unit norm": 0}
        norms = core.filter_norms

        def counted_norms(bank):
            counts["unit norm"] += 1
            return norms(bank)

        monkeypatch.setattr(core, "filter_norms", counted_norms)
        return counts

    def test_the_bank_is_checked_once_per_sweep_not_once_per_image(self, checks):
        rng = np.random.default_rng(70)
        bank = np.stack([unit(f) for f in rng.normal(size=(3, 2, 4, 4))])
        images = [rng.normal(size=(2, 12, 13)) for _ in range(5)]
        codes = encode_all(bank, images, 6)
        assert checks == {"unit norm": 1}
        train(images, TrainConfig(3, 4, 4, 6, epochs=2, seed=1))
        assert checks == {"unit norm": 3}  # one more per epoch
        # the codes of encoding each image alone, which prepares the bank each time
        alone = [conv_mp_encode(bank, image, 6) for image in images]
        assert [records(c) for c in codes] == [records(c) for c in alone]
        assert checks == {"unit norm": 8}

    def test_a_prepared_bank_holds_read_only_copies(self):
        rng = np.random.default_rng(73)
        bank = normalize_filters(rng.normal(size=(2, 1, 3, 3)))
        image = rng.normal(size=(1, 8, 9))
        prepared = prepare_bank(bank)
        want = records(conv_mp_encode(bank, image, 4))
        bank[0] = -bank[0]  # as train's filter updates do, after the sweep
        assert records(conv_mp_encode(prepared, image, 4)) == want
        for a in (prepared.array, prepared.table):
            assert not a.flags.writeable
        with pytest.raises(AttributeError):
            prepared.table = build_shift_gram(bank)

    @pytest.fixture
    def tables(self, monkeypatch):
        """Counts of shift-table builds (conv_mp.build_shift_gram), from here on."""
        counts = {"tables": 0}
        build = conv_mp.build_shift_gram

        def counted_build(bank):
            counts["tables"] += 1
            return build(bank)

        monkeypatch.setattr(conv_mp, "build_shift_gram", counted_build)
        return counts

    def test_a_prepared_bank_derives_its_table_and_takes_no_other(self):
        bank = normalize_filters(np.random.default_rng(74).normal(size=(2, 1, 3, 3)))
        prepared = prepare_bank(bank)
        with pytest.raises(TypeError):
            PreparedBank(prepared.array, build_shift_gram(bank))
        # perfbench's correlate hook reads a bank's shape to count its flops
        assert prepared.shape == bank.shape

    def test_a_bank_prepared_only_to_reconstruct_builds_no_table(self, tables):
        rng = np.random.default_rng(75)
        prepared = prepare_bank(normalize_filters(rng.normal(size=(3, 2, 4, 4))))
        code = SparseCode(2, 9, 9, [Activation(1, 2, 3, 0.5), Activation(0, 5, 0, -1.5)])
        reconstruct(code, prepared)
        assert tables == {"tables": 0}

    def test_a_sweep_builds_one_table_the_banks_own(self, tables):
        rng = np.random.default_rng(76)
        bank = normalize_filters(rng.normal(size=(3, 2, 4, 4)))
        images = [rng.normal(size=(2, 11, 12)) for _ in range(4)]
        prepared = prepare_bank(bank)
        encode_all(prepared, images, 5)
        assert tables == {"tables": 1}
        assert prepared.table.tobytes() == build_shift_gram(bank).tobytes()

    def test_a_bank_off_unit_norm_is_rejected_once(self):
        bank = 2 * normalize_filters(np.random.default_rng(72).normal(size=(2, 1, 3, 3)))
        with pytest.raises(DataError, match="filter 0 has norm 2"):
            encode_all(bank, [np.ones((1, 6, 6))], 2)


class TestTrain:
    def test_zero_epochs_returns_initial_bank(self):
        rng = np.random.default_rng(50)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(3)]
        cfg = make_cfg(epochs=0)
        bank, stats = train(images, cfg)
        np.testing.assert_array_equal(bank, init_filters(images, cfg))
        assert stats.epoch_energy == []

    def test_recovers_single_planted_filter(self):
        # filter-sized images: one placement each, non-overlapping by construction
        rng = np.random.default_rng(51)
        truth = unit(rng.normal(size=(1, 5, 5)))
        scales = rng.uniform(0.5, 2.0, size=20) * rng.choice([-1.0, 1.0], size=20)
        images = [s * truth for s in scales]
        cfg = TrainConfig(1, 5, 5, sparsity=1, epochs=2, seed=9)
        bank, stats = train(images, cfg)
        assert abs(float(truth.ravel() @ bank[0].ravel())) >= 0.999
        assert len(stats.epoch_energy) == 2

    def test_filters_stay_unit_norm(self):
        rng = np.random.default_rng(52)
        images = [rng.normal(size=(1, 12, 12)) for _ in range(4)]
        bank, _ = train(images, make_cfg(epochs=3, sparsity=6))
        norms = np.sqrt(np.sum(bank * bank, axis=(1, 2, 3)))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(53)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(3)]
        a, sa = train(images, make_cfg(epochs=2))
        b, sb = train(images, make_cfg(epochs=2))
        np.testing.assert_array_equal(a, b)
        assert sa.epoch_energy == sb.epoch_energy

    def test_threads_do_not_change_the_result(self):
        rng = np.random.default_rng(54)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(4)]
        a, _ = train(images, make_cfg(epochs=2), threads=1)
        b, _ = train(images, make_cfg(epochs=2), threads=4)
        np.testing.assert_array_equal(a, b)

    def test_banks_have_the_same_bits_at_1_and_2_blas_threads(self):
        # Each child trains the same seeded random corpora and takes the top
        # direction of three random (n, dim) patch sets; only the BLAS thread
        # count differs. With a Gram matrix product in pca_top_component, the
        # three training setups and the two n < dim sets gave different bits
        # at 1 and 2 threads.
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from convmp.core import TrainConfig\n"
            "from convmp.dict_learn import pca_top_component, train\n"
            "for n, h, k, f, s in [(12, 48, 4, 12, 0), (10, 64, 4, 16, 3), (6, 48, 2, 12, 4)]:\n"
            "    images = np.random.default_rng(s).normal(size=(n, 1, h, h))\n"
            "    bank, _ = train(images, TrainConfig(k, f, f, 40, 2, seed=s))\n"
            "    print(n, h, k, f, s, hashlib.sha256(bank.tobytes()).hexdigest())\n"
            "for n, dim in [(100, 128), (300, 400), (2000, 128)]:\n"
            "    rows = np.random.default_rng([n, dim]).normal(size=(n, dim))\n"
            "    print(n, dim, hashlib.sha256(pca_top_component(rows).tobytes()).hexdigest())\n"
        )
        one, two = lines_at_1_and_2_blas_threads(script)
        assert len(one) == len(two) == 6
        assert [a for a, b in zip(one, two) if a != b] == []

    def test_resuming_after_epoch_1_from_the_bank_bytes_and_rng_state_gives_trains_bytes(self):
        # the state an epoch hands the next is the bank and the reinit RNG:
        # resume from their saved bytes in fresh objects and finish the run
        rng = np.random.default_rng(1)
        images = [rng.normal(size=(1, 12, 12)) for _ in range(3)]
        cfg = TrainConfig(5, 3, 3, 6, epochs=3, seed=1, min_activations=3)
        want_bank, want = train(images, cfg)
        assert [e for e, _ in want.reinit_events].count(2) >= 1  # the resumed epoch redraws

        bank, stats = init_filters(images, cfg), dict_learn.TrainStats()
        reinit = np.random.default_rng([cfg.seed, 1])
        for epoch in range(2):
            dict_learn._epoch(bank, images, cfg, reinit, stats, epoch)
        saved, state = bank.tobytes(), reinit.bit_generator.state
        bank = np.frombuffer(saved).reshape(bank.shape).copy()
        reinit = np.random.default_rng()
        reinit.bit_generator.state = state
        stats = dict_learn.TrainStats(list(stats.epoch_energy), list(stats.activation_counts),
                                      list(stats.reinit_events))
        dict_learn._epoch(bank, images, cfg, reinit, stats, 2)
        assert bank.tobytes() == want_bank.tobytes()
        assert stats.lines() == want.lines()
        assert stats.reinit_events == want.reinit_events

    def test_counts_sum_to_steps_taken(self):
        rng = np.random.default_rng(55)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(3)]
        _, stats = train(images, make_cfg(epochs=1, sparsity=5))
        assert sum(stats.activation_counts[0]) == 3 * 5

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            train([], make_cfg())

    def test_an_epoch_without_activations_is_a_data_error(self):
        # an infinite tolerance stops every pursuit before its first step
        images = np.random.default_rng(63).normal(size=(2, 1, 8, 8))
        with pytest.raises(DataError, match="every filter is dead"):
            train(images, make_cfg(residual_tolerance=float("inf")))

    def test_emits_one_log_line_per_epoch(self, caplog):
        rng = np.random.default_rng(56)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(2)]
        with caplog.at_level("INFO", logger="convmp.dict_learn"):
            _, stats = train(images, make_cfg(epochs=2))
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        assert lines == stats.lines()  # one formatter for the log and the stats file
        assert lines[0].startswith("epoch=0 energy=")
        for field in ("act_min=", "act_max=", "reinits="):
            assert field in lines[0]
