import numpy as np
import pytest

from convmp import dict_learn
from convmp.core import Activation, SparseCode, TrainConfig, reconstruct, residual_energy
from convmp.dict_learn import (
    collect_activated_patches,
    group_by_filter,
    init_filters,
    pca_top_component,
    train,
    update_filter,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.sqrt(np.sum(v * v))


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
        with pytest.raises(ValueError, match="at least"):
            init_filters([np.ones((1, 2, 2))], make_cfg())


class TestCollectActivatedPatches:
    def test_perfect_single_atom_image(self):
        rng = np.random.default_rng(42)
        bank = np.stack([unit(rng.normal(size=(1, 3, 3)))])
        code = SparseCode(1, 8, 8, [Activation(0, 2, 3, 1.4)])
        image = reconstruct(code, bank)
        residual = image - reconstruct(code, bank)
        positions = group_by_filter(code, 1)[0]
        assert positions == {(2, 3): 1.4}
        patches = collect_activated_patches(residual, positions, bank[0])
        assert len(patches) == 1
        np.testing.assert_allclose(patches[0], 1.4 * bank[0], rtol=0, atol=1e-12)

    def test_unused_filter_gives_empty_set(self):
        bank = np.stack([unit(np.ones((1, 2, 2))), unit(np.eye(2)[None])])
        code = SparseCode(1, 5, 5, [Activation(0, 1, 1, 2.0)])
        image = reconstruct(code, bank)
        positions = group_by_filter(code, 2)[1]
        assert positions == {}
        assert collect_activated_patches(image * 0.0, positions, bank[1]) == []

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
        positions = group_by_filter(code, 1)[0]
        assert list(positions) == [(1, 1), (0, 2)]  # first-use order
        assert positions[(1, 1)] == pytest.approx(1.5, abs=1e-15)
        patches = collect_activated_patches(residual, positions, bank[0])
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

        patches = collect_activated_patches(residual, group_by_filter(code, 2)[0], bank[0])
        others = SparseCode(1, 8, 8, [acts[1]])
        expect = (image - reconstruct(others, bank))[:, 2:5, 2:5]
        np.testing.assert_allclose(patches[0], expect, rtol=0, atol=1e-12)


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

    def test_rejects_empty_and_all_zero(self):
        with pytest.raises(ValueError, match="empty"):
            pca_top_component([])
        with pytest.raises(ValueError, match="dead"):
            pca_top_component([np.zeros((1, 2, 2))])

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


def _projected_code(code, j, residual, positions, old_w, new_w):
    """code with filter j's activations replaced by one activation per
    position, its coefficient the projection of that position's patch
    (collected before the update) onto the new filter."""
    patches = collect_activated_patches(residual, positions, old_w)
    acts = [a for a in code.activations if a.filter_index != j]
    acts += [
        Activation(j, r, c, float(new_w.ravel() @ p.ravel()))
        for (r, c), p in zip(positions, patches)
    ]
    return SparseCode(code.channels, code.image_height, code.image_width, acts)


class TestUpdateFilter:
    def _state(self, bank, code, image):
        residual = image - reconstruct(code, bank)
        return residual, group_by_filter(code, bank.shape[0])

    def test_perfect_data_is_a_fixed_point(self):
        rng = np.random.default_rng(46)
        bank = np.stack([unit(rng.normal(size=(1, 3, 3)))])
        acts = [Activation(0, 0, 0, 1.5), Activation(0, 4, 4, -2.0)]
        code = SparseCode(1, 8, 8, list(acts))
        image = reconstruct(code, bank)
        residual, groups = self._state(bank, code, image)
        before = residual.copy()

        old = bank[0].copy()
        dead = update_filter(
            bank, 0, [groups[0]], [residual], [image], np.random.default_rng(0)
        )
        assert not dead
        np.testing.assert_allclose(bank[0], old, rtol=0, atol=1e-9)
        got = _projected_code(code, 0, before, groups[0], old, bank[0]).activations
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
        residual, groups = self._state(bank, code, image)
        residual_before = residual.copy()
        before = bank[1].copy()
        dead = update_filter(
            bank, 1, [groups[1]], [residual], [image], np.random.default_rng(5)
        )
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
        residual, groups = self._state(bank, code, image)
        before = residual_energy(image, code, bank)
        update_filter(
            bank, 0, [groups[0]], [residual], [image], np.random.default_rng(1)
        )
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
        residual, groups = self._state(bank, code, image)
        before, old = residual.copy(), bank[0].copy()

        update_filter(
            bank, 0, [groups[0]], [residual], [image], np.random.default_rng(2)
        )
        # residual = image - reconstruction with j's coefficients replaced by
        # the closed-form projections onto the new filter
        expected = _projected_code(code, 0, before, groups[0], old, bank[0])
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
        before, old = [r.copy() for r in residuals], bank[0].copy()
        positions = [group_by_filter(code, 2)[0] for code in codes]

        dead = update_filter(bank, 0, positions, residuals, images, np.random.default_rng(3))
        assert not dead
        for i, image in enumerate(images):
            expected = _projected_code(codes[i], 0, before[i], positions[i], old, bank[0])
            np.testing.assert_allclose(
                residuals[i], image - reconstruct(expected, bank), rtol=0, atol=1e-8
            )


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

    def test_counts_sum_to_steps_taken(self):
        rng = np.random.default_rng(55)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(3)]
        _, stats = train(images, make_cfg(epochs=1, sparsity=5))
        assert sum(stats.activation_counts[0]) == 3 * 5

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            train([], make_cfg())

    def test_emits_one_log_line_per_epoch(self, caplog):
        rng = np.random.default_rng(56)
        images = [rng.normal(size=(1, 10, 10)) for _ in range(2)]
        with caplog.at_level("INFO", logger="convmp.dict_learn"):
            train(images, make_cfg(epochs=2))
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        assert lines[0].startswith("epoch=0 energy=")
        for field in ("act_min=", "act_max=", "reinits="):
            assert field in lines[0]
