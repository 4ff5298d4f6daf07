import argparse
import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import convmp
from codes import Activation, records
from convmp.core import (
    ACTIVATION,
    SparseCode,
    ConfigError,
    TrainConfig,
    normalize_filters,
    reconstruct,
    residual_energy,
)
from convmp.conv_mp import build_shift_gram, conv_mp_encode


def paste_oracle(code, bank):
    """Independent reconstruction: paste every patch one sample at a time."""
    k, c, fh, fw = bank.shape
    out = np.zeros((code.channels, code.image_height, code.image_width))
    for act in records(code):
        for ch in range(c):
            for r in range(fh):
                for cc in range(fw):
                    out[ch, act.row + r, act.col + cc] += (
                        act.coefficient * bank[act.filter_index, ch, r, cc]
                    )
    return out


def slice_paste_oracle(code, bank):
    """The per-activation slice paste that reconstruct's one scatter replaced:
    the reference it must match bit for bit."""
    _, _, fh, fw = bank.shape
    out = np.zeros((code.channels, code.image_height, code.image_width))
    for act in records(code):
        out[:, act.row : act.row + fh, act.col : act.col + fw] += (
            act.coefficient * bank[act.filter_index]
        )
    return out


def random_bank(rng, k, c, fh, fw):
    return normalize_filters(rng.normal(size=(k, c, fh, fw)))


def random_code(rng, bank, c, h, w, n):
    _, _, fh, fw = bank.shape
    acts = [
        Activation(
            int(rng.integers(bank.shape[0])),
            int(rng.integers(h - fh + 1)),
            int(rng.integers(w - fw + 1)),
            float(rng.normal()),
        )
        for _ in range(n)
    ]
    return SparseCode(c, h, w, acts)


class TestReconstruct:
    def test_empty_code_gives_zero_image(self):
        bank = np.zeros((2, 1, 3, 3))
        bank[:, 0, 1, 1] = 1.0
        out = reconstruct(SparseCode(1, 5, 7), bank)
        assert out.shape == (1, 5, 7)
        assert np.all(out == 0.0)

    def test_single_activation_places_filter(self):
        rng = np.random.default_rng(0)
        bank = random_bank(rng, 1, 1, 3, 4)
        code = SparseCode(1, 6, 8, [Activation(0, 0, 0, 1.0)])
        out = reconstruct(code, bank)
        assert np.array_equal(out[0, :3, :4], bank[0, 0])
        assert np.all(out[0, 3:, :] == 0.0)
        assert np.all(out[0, :, 4:] == 0.0)

    def test_overlapping_activations_match_paste_oracle(self):
        rng = np.random.default_rng(1)
        bank = random_bank(rng, 2, 1, 3, 3)
        code = SparseCode(
            1, 8, 8, [Activation(0, 2, 2, 1.5), Activation(1, 3, 3, -0.75)]
        )
        np.testing.assert_allclose(
            reconstruct(code, bank), paste_oracle(code, bank), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "case", ["overlap-and-repeat", "dense-multichannel", "empty", "four-borders"]
    )
    def test_is_bit_identical_to_the_slice_paste_loop(self, case):
        rng = np.random.default_rng(3)
        bank = random_bank(rng, 3, 2, 4, 3)
        h, w = 11, 9
        if case == "overlap-and-repeat":
            placements = [(0, 2, 2, 1.5), (1, 3, 3, -0.75), (0, 2, 2, 0.1),
                          (2, 4, 1, -0.0), (0, 2, 2, -1.6), (1, 3, 4, 0.0)]
            code = SparseCode(2, h, w, [Activation(*p) for p in placements])
        elif case == "dense-multichannel":
            code = random_code(rng, bank, 2, h, w, 300)
        elif case == "empty":
            code = SparseCode(2, h, w)
        else:
            corners = [(0, 0), (0, w - 3), (h - 4, 0), (h - 4, w - 3)]
            acts = [Activation(i % 3, r, c, rng.normal()) for i, (r, c) in enumerate(corners)]
            code = SparseCode(2, h, w, acts)
        got, want = reconstruct(code, bank), slice_paste_oracle(code, bank)
        assert got.shape == want.shape == (2, h, w)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_linearity_in_the_code(self):
        rng = np.random.default_rng(2)
        bank = random_bank(rng, 3, 2, 4, 4)
        for _ in range(10):
            a = random_code(rng, bank, 2, 10, 9, 5)
            b = random_code(rng, bank, 2, 10, 9, 7)
            joint = SparseCode(2, 10, 9, records(a) + records(b))
            np.testing.assert_allclose(
                reconstruct(joint, bank),
                reconstruct(a, bank) + reconstruct(b, bank),
                rtol=0,
                atol=1e-10,
            )

    def test_rejects_bad_position(self):
        bank = np.ones((1, 1, 3, 3)) / 3.0
        code = SparseCode(1, 5, 5, [Activation(0, 3, 0, 1.0)])
        with pytest.raises(ValueError, match="row"):
            reconstruct(code, bank)

    def test_rejects_channel_mismatch(self):
        bank = np.ones((1, 2, 2, 2)) * 0.5
        with pytest.raises(ValueError, match="channels"):
            reconstruct(SparseCode(1, 4, 4), bank)

    @pytest.mark.parametrize("filter_index", [1, -1], ids=["k", "negative"])
    def test_rejects_a_bad_filter_index(self, filter_index):
        code = SparseCode(1, 5, 5, [Activation(filter_index, 0, 0, 1.0)])
        with pytest.raises(ConfigError, match="filter_index"):
            reconstruct(code, np.ones((1, 1, 3, 3)) / 3.0)


class TestSparseCode:
    def test_tuples_become_one_activation_array_in_order(self):
        acts = [Activation(2, 0, 4, -0.0), Activation(0, 3, 1, 1.5), Activation(2, 0, 4, 0.25)]
        got = SparseCode(1, 9, 9, acts).activations
        assert got.dtype == ACTIVATION and got.shape == (3,)
        for name in ("filter_index", "row", "col"):
            assert got[name].dtype == np.intp
            assert got[name].tolist() == [getattr(a, name) for a in acts]
        assert got["coefficient"].dtype == np.float64
        assert got["coefficient"].tobytes() == np.array([-0.0, 1.5, 0.25]).tobytes()

    def test_empty_code_gives_an_empty_activation_array(self):
        acts = SparseCode(2, 4, 4).activations
        assert acts.dtype == ACTIVATION and acts.shape == (0,)

    def test_check_compatible_names_the_first_bad_activation_and_field(self):
        code = SparseCode(1, 5, 5, [(0, 0, 0, 1.0), (0, 0, 3, 1.0), (1, 3, 0, 1.0)])
        bank = np.ones((1, 1, 3, 3)) / 3.0
        with pytest.raises(ConfigError) as err:
            reconstruct(code, bank)
        assert str(err.value) == "activation 1: col 3 outside valid grid [0, 2]"
        with pytest.raises(ConfigError) as err:
            reconstruct(SparseCode(1, 5, 5, [(1, 3, 0, 1.0)]), bank)
        assert str(err.value) == "activation 0: filter_index 1 outside bank of 1"


class TestResidualEnergy:
    def test_exact_reconstruction_has_zero_energy(self):
        rng = np.random.default_rng(3)
        bank = random_bank(rng, 2, 1, 3, 3)
        code = random_code(rng, bank, 1, 7, 7, 4)
        image = reconstruct(code, bank)
        assert residual_energy(image, code, bank) == 0.0

    def test_empty_code_energy_is_sum_of_squares(self):
        rng = np.random.default_rng(4)
        bank = random_bank(rng, 1, 1, 2, 2)
        image = rng.normal(size=(1, 6, 6))
        assert residual_energy(image, SparseCode(1, 6, 6), bank) == float(
            np.sum(image * image)
        )

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        bank = random_bank(rng, 2, 1, 3, 3)
        image = rng.normal(size=(1, 8, 8))
        code = random_code(rng, bank, 1, 8, 8, 2)
        recon = paste_oracle(code, bank)
        expect = 0.0
        for ch in range(1):
            for r in range(8):
                for c in range(8):
                    d = image[ch, r, c] - recon[ch, r, c]
                    expect += d * d
        assert residual_energy(image, code, bank) == pytest.approx(expect, abs=1e-10)

    def test_rejects_dim_mismatch(self):
        bank = np.ones((1, 1, 2, 2)) * 0.5
        image = np.zeros((1, 4, 4))
        with pytest.raises(ValueError, match="dims"):
            residual_energy(image, SparseCode(1, 5, 4), bank)


class TestNormalizeFilters:
    def test_unit_bank_unchanged(self):
        rng = np.random.default_rng(6)
        bank = random_bank(rng, 3, 2, 4, 5)
        np.testing.assert_allclose(normalize_filters(bank), bank, rtol=0, atol=1e-12)

    def test_all_twos_filter(self):
        bank = np.full((1, 1, 2, 2), 2.0)
        np.testing.assert_allclose(normalize_filters(bank), 0.5, rtol=0, atol=0)

    def test_random_bank_norms_are_one(self):
        rng = np.random.default_rng(7)
        out = normalize_filters(rng.normal(size=(5, 3, 4, 4)))
        norms = np.sqrt(np.sum(out * out, axis=(1, 2, 3)))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        once = normalize_filters(rng.normal(size=(4, 1, 3, 3)))
        np.testing.assert_allclose(normalize_filters(once), once, rtol=0, atol=1e-12)

    def test_rejects_zero_filter(self):
        bank = np.zeros((2, 1, 2, 2))
        bank[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="filter 1"):
            normalize_filters(bank)


class TestTrainConfig:
    def test_validate_accepts_defaults(self):
        TrainConfig(4, 8, 8, sparsity=20, epochs=3)

    def test_validate_accepts_infinite_tolerance(self):
        TrainConfig(4, 8, 8, sparsity=20, epochs=3, residual_tolerance=float("inf"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_filters": 0},
            {"sparsity": 0},
            {"filter_height": 0},
            {"min_activations": 0},
            {"residual_tolerance": -1.0},
            {"residual_tolerance": float("nan")},
        ],
    )
    def test_validate_rejects_bad_counts(self, kwargs):
        base = dict(
            num_filters=2, filter_height=3, filter_width=3, sparsity=5, epochs=1
        )
        base.update(kwargs)
        with pytest.raises(ConfigError):
            TrainConfig(**base)

    @pytest.mark.parametrize("seed", [None, 1.5, "3"])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        # None passes the CLI's seed check (unseeded) but means nothing to train
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(2, 3, 3, sparsity=5, epochs=1, seed=seed)

    @pytest.mark.parametrize("tolerance", [None, "3", [0.5]])
    def test_a_tolerance_that_is_not_a_number_is_a_config_error(self, tolerance):
        # TrainConfig and conv_mp_encode share one check, so both reject it alike
        bank = normalize_filters(np.ones((1, 1, 2, 2)))
        with pytest.raises(ConfigError, match="residual_tolerance"):
            TrainConfig(2, 3, 3, sparsity=5, epochs=1, residual_tolerance=tolerance)
        with pytest.raises(ConfigError, match="residual_tolerance"):
            conv_mp_encode(bank, build_shift_gram(bank), np.ones((1, 4, 4)), 2, tolerance)

    def test_accepts_a_numpy_integer_seed(self):
        assert TrainConfig(2, 3, 3, sparsity=5, epochs=1, seed=np.int64(7)).seed == 7

    def test_fields_cannot_be_assigned(self):
        cfg = TrainConfig(4, 8, 8, sparsity=20, epochs=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sparsity = 0
        assert cfg.sparsity == 20

    @pytest.mark.parametrize("field", ["sparsity", "seed", "min_activations"])
    def test_replace_checks_the_new_value(self, field):
        cfg = TrainConfig(4, 8, 8, sparsity=20, epochs=3)
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(cfg, **{field: -1})


def test_library_raises_only_typed_errors():
    """A bare ValueError, RuntimeError or Exception escapes the CLI's mapping as an
    internal error."""
    offenders = []
    for path in sorted(Path(convmp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "Exception", "RuntimeError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []



def _count_entry_points():
    """Every count the library and the CLI check, as (id, the name the error
    gives, least, call with (value, a directory holding an empty config file),
    kind of value). The CLI's parsed flags are passed as an argparse
    namespace; the HxW and --q text it parses is given as text."""
    from convmp.cli import _parse_dims, cmd_bench, cmd_pipeline, cmd_preprocess
    from convmp.conv_mp import build_shift_gram, conv_mp_encode
    from convmp.model_io import render_filter_grid
    from convmp.pipeline import PipelineConfig, run_two_layer
    from convmp.preprocess import avg_pool, resize

    train = dict(num_filters=2, filter_height=3, filter_width=3, sparsity=5, epochs=1)
    layers = dict(layer1=TrainConfig(**train), layer2=TrainConfig(**train))
    bank = normalize_filters(np.ones((1, 1, 2, 2)))
    image = np.ones((1, 4, 4))

    def preprocess(**flags):
        return cmd_preprocess(argparse.Namespace(**{"seed": 0, "size": 8, **flags}))

    def bench(**flags):
        return cmd_bench(argparse.Namespace(
            **{"image": "12x12", "filter": "3x3", "q": "2", "k": 1, "repeat": 1, "seed": 0,
               **flags}))

    def pipeline(d, **flags):
        return cmd_pipeline(argparse.Namespace(
            **{"scale": 1, "seed": None, "config": d / "empty.cfg", **flags}))

    return [
        *((f"TrainConfig-{f}", f, 0 if f in ("epochs", "seed") else 1,
           lambda v, d, f=f: TrainConfig(**{**train, f: v}), "value")
          for f in ("num_filters", "filter_height", "filter_width", "sparsity", "epochs",
                    "seed", "min_activations")),
        *((f"PipelineConfig-{f}", f, 1,
           lambda v, d, f=f: PipelineConfig(**layers, **{f: v}), "value")
          for f in ("pool_size", "image_size")),
        ("conv_mp_encode-q", "q", 1,
         lambda v, d: conv_mp_encode(bank, build_shift_gram(bank), image, v), "value"),
        ("resize-out_h", "out_h", 1, lambda v, d: resize(image, v, 4), "value"),
        ("resize-out_w", "out_w", 1, lambda v, d: resize(image, 4, v), "value"),
        ("avg_pool-pool", "pool", 1, lambda v, d: avg_pool(image, v), "value"),
        ("render_filter_grid-cell_scale", "cell_scale", 1,
         lambda v, d: render_filter_grid(bank, cell_scale=v), "value"),
        ("run_two_layer-seed", "seed", 0,
         lambda v, d: run_two_layer(d, PipelineConfig(**layers), v), "seed"),
        ("preprocess-size", "--size", 1, lambda v, d: preprocess(size=v), "value"),
        ("preprocess-seed", "--seed", 0, lambda v, d: preprocess(seed=v), "value"),
        ("bench-k", "--k", 1, lambda v, d: bench(k=v), "value"),
        ("bench-repeat", "--repeat", 1, lambda v, d: bench(repeat=v), "value"),
        ("bench-seed", "--seed", 0, lambda v, d: bench(seed=v), "value"),
        ("bench-q", "--q", 1, lambda v, d: bench(q=f"2,{v}"), "text"),
        ("dims-height", "--image", 1, lambda v, d: _parse_dims(f"{v}x4", "--image"), "text"),
        ("dims-width", "--image", 1, lambda v, d: _parse_dims(f"4x{v}", "--image"), "text"),
        ("pipeline-scale", "--scale", 1, lambda v, d: pipeline(d, scale=v), "value"),
        ("pipeline-seed", "seed", 0, lambda v, d: pipeline(d, seed=v), "seed"),
    ]


COUNT_ENTRY_POINTS = _count_entry_points()


@pytest.mark.parametrize(
    ("name", "least", "call", "kind"),
    [entry[1:] for entry in COUNT_ENTRY_POINTS],
    ids=[entry[0] for entry in COUNT_ENTRY_POINTS],
)
def test_every_count_rejects_a_small_or_non_integer_value(tmp_path, name, least, call, kind):
    """Below the least value, a float, None or a string: each a ConfigError
    naming the count, from the library as from the CLI. A None seed means
    unseeded, and text given as "3" is a valid count."""
    (tmp_path / "empty.cfg").write_text("")
    bad = {
        "value": [least - 1, 2.5, None, "3"],
        "seed": [least - 1, 2.5, "3"],
        "text": [str(least - 1), "2.5", "None"],
    }[kind]
    for value in bad:
        with pytest.raises(ConfigError, match=re.escape(name)):
            call(value, tmp_path)
