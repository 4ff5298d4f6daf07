import argparse
import dataclasses
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convmp
from codes import Activation, records
from convmp.cli import (
    TRAIN_DEFAULTS,
    TRAIN_NAMES,
    _parse_config_file,
    _pipeline_config,
    _train_config,
    _train_entries,
    build_parser,
    main,
    run_bench,
)
from convmp.core import (
    ConfigError,
    SparseCode,
    TrainConfig,
    normalize_filters,
    reconstruct,
    residual_energy,
)
from convmp.model_io import (
    BANK_MAGIC,
    load_bank,
    load_code,
    load_float_image,
    load_image,
    save_bank,
    save_code,
    save_image,
)
from convmp.pipeline import run_two_layer


def write_pgm_corpus(directory, n, size, seed):
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        save_image(rng.random(size=(1, size, size)), directory / f"img{i:03d}.pgm")


@pytest.fixture()
def trained_model(tmp_path):
    corpus = tmp_path / "pre"
    write_pgm_corpus(tmp_path / "raw", 6, 32, seed=0)
    assert main(["preprocess", "--in", str(tmp_path / "raw"), "--out", str(corpus),
                 "--size", "32"]) == 0
    model = tmp_path / "model.bank"
    assert main(["train", "--corpus", str(corpus), "--out", str(model), "--k", "3",
                 "--filter", "6x6", "--q", "8", "--epochs", "1", "--seed", "4",
                 "--threads", "1"]) == 0
    return corpus, model


class TestPreprocess:
    def test_constant_image_gives_zero_sidecar(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        save_image(np.full((1, 40, 40), 0.5), raw / "const.pgm")
        out = tmp_path / "out"
        assert main(["preprocess", "--in", str(raw), "--out", str(out), "--size", "32"]) == 0
        sidecar = load_float_image(out / "const.f64")
        assert sidecar.shape == (1, 32, 32)
        assert np.all(sidecar == 0.0)

    def test_outputs_are_sized_and_one_to_one(self, tmp_path):
        write_pgm_corpus(tmp_path / "raw", 4, 50, seed=1)
        out = tmp_path / "out"
        assert main(["preprocess", "--in", str(tmp_path / "raw"), "--out", str(out)]) == 0
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        f64s = sorted(p.name for p in out.glob("*.f64"))
        assert len(pgms) == len(f64s) == 4
        for p in out.glob("*.f64"):
            assert load_float_image(p).shape == (1, 64, 64)
        assert (out / "manifest.txt").read_text().startswith("tool=convmp")

    def test_pascal_crop_deterministic_under_seed(self, tmp_path):
        write_pgm_corpus(tmp_path / "raw", 3, 150, seed=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["preprocess", "--in", str(tmp_path / "raw"), "--out", str(out),
                         "--pascal-crop", "--seed", "11"]) == 0
        for name in ("img000", "img001", "img002"):
            assert (out_a / f"{name}.f64").read_bytes() == (out_b / f"{name}.f64").read_bytes()
            assert (out_a / f"{name}.pgm").read_bytes() == (out_b / f"{name}.pgm").read_bytes()

    def test_missing_input_dir_is_data_error(self, tmp_path):
        assert main(["preprocess", "--in", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3


class TestTrain:
    def test_writes_bank_stats_manifest(self, trained_model):
        corpus, model = trained_model
        bank = load_bank(model)
        assert bank.shape == (3, 1, 6, 6)
        stats = (model.parent / (model.name + ".stats.txt")).read_text()
        assert stats.startswith("epoch=0 energy=")
        manifest = (model.parent / (model.name + ".manifest.txt")).read_text()
        assert "command=train" in manifest
        assert "seed=4" in manifest

    def test_manifest_records_every_setting_in_flag_order(self, trained_model):
        corpus, model = trained_model
        lines = (model.parent / (model.name + ".manifest.txt")).read_text().splitlines()
        assert lines[0].startswith("tool=convmp ")
        assert lines[1:] == [
            "command=train", f"corpus={corpus}", f"out={model}", "k=3", "filter=6x6", "q=8",
            "epochs=1", "seed=4", "tolerance=0.0", "min_activations=1", "threads=1",
        ]

    def test_epochs_zero_reproduces_init(self, tmp_path, trained_model):
        corpus, _ = trained_model
        out_a, out_b = tmp_path / "a.bank", tmp_path / "b.bank"
        flags = ["--corpus", str(corpus), "--k", "2", "--filter", "5x5", "--q", "3",
                 "--epochs", "0", "--seed", "8"]
        assert main(["train", "--out", str(out_a), *flags]) == 0
        assert main(["train", "--out", str(out_b), *flags]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert Path(str(out_a) + ".stats.txt").read_bytes() == b""  # no epochs, no lines

    def test_bad_filter_spec_is_config_error(self, tmp_path):
        assert main(["train", "--corpus", str(tmp_path), "--out", str(tmp_path / "m"),
                     "--filter", "16by16"]) == 2

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main(["train", "--corpus", str(tmp_path / "none"),
                     "--out", str(tmp_path / "m.bank")]) == 3

    def test_defaults_match_pipeline_layer1_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c", "--out", "m.bank"])
        assert _train_config(vars(args)) == _pipeline_config({}).layer1

    def test_train_config_fields_are_the_name_tables(self):
        table = [field for fields in TRAIN_NAMES.values() for field in fields]
        assert [field.name for field in dataclasses.fields(TrainConfig)] == table

    def test_train_flags_are_the_manifest_entries_of_the_defaults(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = [a for a in sub.choices["train"]._actions
                 if a.dest not in ("help", "corpus", "out", "threads")]
        assert [(a.dest, a.default) for a in flags] == list(_train_entries(TRAIN_DEFAULTS).items())
        for a in flags:
            assert a.option_strings == ["--" + a.dest.replace("_", "-")]

    def test_manifest_reads_back_and_its_flags_reproduce_the_bank(self, tmp_path, trained_model):
        corpus, _ = trained_model
        first, again = tmp_path / "a.bank", tmp_path / "b.bank"
        assert main(["train", "--corpus", str(corpus), "--out", str(first), "--k", "2",
                     "--filter", "5x4", "--q", "6", "--epochs", "2", "--seed", "9",
                     "--tolerance", "0.01", "--min-activations", "2"]) == 0
        values = _parse_config_file(tmp_path / "a.bank.manifest.txt")
        assert _train_config(values) == TrainConfig(
            num_filters=2, filter_height=5, filter_width=4, sparsity=6, epochs=2, seed=9,
            residual_tolerance=0.01, min_activations=2,
        )
        flags = [arg for name in TRAIN_NAMES for arg in ("--" + name.replace("_", "-"), values[name])]
        assert main(["train", "--corpus", values["corpus"], "--out", str(again), *flags,
                     "--threads", values["threads"]]) == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("command", [["train", "--out", "m.bank"],
                                         ["pipeline", "--config", "p.cfg", "--out", "run"]])
    def test_threads_defaults_to_one_on_every_machine(self, command):
        args = build_parser().parse_args(command + ["--corpus", "c"])
        assert args.threads == 1  # recorded in the manifest, so it must not depend on the host


class TestEncodeReconstruct:
    def test_encode_prints_energies_matching_recomputation(self, trained_model, tmp_path, capsys):
        corpus, model = trained_model
        image_path = next(iter(sorted(corpus.glob("*.f64"))))
        code_path = tmp_path / "img.code"
        assert main(["encode", "--model", str(model), "--image", str(image_path),
                     "--q", "12", "--out", str(code_path)]) == 0
        line = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in line.split())
        bank = load_bank(model)
        image = load_float_image(image_path)
        code = load_code(code_path)
        assert len(code.activations) == 12
        assert float(fields["initial_energy"]) == float(np.sum(image * image))
        assert float(fields["final_energy"]) == pytest.approx(
            residual_energy(image, code, bank), rel=1e-12
        )

    def test_encode_zero_image_gives_empty_code_and_zero_energy(self, trained_model, tmp_path, capsys):
        _, model = trained_model
        zero = tmp_path / "zero.pgm"
        save_image(np.zeros((1, 32, 32)), zero)
        code_path = tmp_path / "zero.code"
        assert main(["encode", "--model", str(model), "--image", str(zero),
                     "--out", str(code_path)]) == 0
        out = capsys.readouterr().out
        assert "final_energy=0 " in out
        assert records(load_code(code_path)) == []

    def test_encode_dim_mismatch_is_config_error(self, trained_model, tmp_path):
        _, model = trained_model
        tiny = tmp_path / "tiny.pgm"
        save_image(np.zeros((1, 4, 4)), tiny)
        assert main(["encode", "--model", str(model), "--image", str(tiny),
                     "--out", str(tmp_path / "c")]) == 2

    def test_reconstruct_matches_library_prequantization(self, trained_model, tmp_path):
        corpus, model = trained_model
        bank = load_bank(model)
        image_path = next(iter(sorted(corpus.glob("*.f64"))))
        code_path = tmp_path / "img.code"
        assert main(["encode", "--model", str(model), "--image", str(image_path),
                     "--q", "6", "--out", str(code_path)]) == 0
        out_path = tmp_path / "recon.pgm"
        assert main(["reconstruct", "--model", str(model), "--code", str(code_path),
                     "--out", str(out_path)]) == 0
        direct = tmp_path / "direct.pgm"
        save_image(reconstruct(load_code(code_path), bank), direct, signed=True)
        assert out_path.read_bytes() == direct.read_bytes()

    def test_reconstruct_empty_code_is_midgray(self, trained_model, tmp_path):
        _, model = trained_model
        code_path = tmp_path / "empty.code"
        save_code(SparseCode(1, 10, 10), code_path)
        out_path = tmp_path / "empty.pgm"
        assert main(["reconstruct", "--model", str(model), "--code", str(code_path),
                     "--out", str(out_path)]) == 0
        np.testing.assert_array_equal(load_image(out_path), 128 / 255)

    def test_encode_lowers_energy_vs_zero_code(self, trained_model, tmp_path, capsys):
        corpus, model = trained_model
        image_path = next(iter(sorted(corpus.glob("*.f64"))))
        assert main(["encode", "--model", str(model), "--image", str(image_path),
                     "--q", "10", "--out", str(tmp_path / "c.code")]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.strip().split())
        assert float(fields["final_energy"]) < float(fields["initial_energy"])


class TestRenderFilters:
    def test_render_from_saved_model(self, trained_model, tmp_path):
        _, model = trained_model
        out = tmp_path / "filters.pgm"
        assert main(["render-filters", "--model", str(model), "--out", str(out),
                     "--scale", "2"]) == 0
        img = load_image(out)
        assert img.shape == (1, 2 * (2 * 7 + 1), 2 * (2 * 7 + 1))


class TestPipelineCommand:
    def test_runs_and_emits_outputs(self, tmp_path):
        write_pgm_corpus(tmp_path / "raw", 5, 24, seed=3)
        config = tmp_path / "pipe.cfg"
        config.write_text(
            "# two-layer settings\n"
            "image_size=24\npool=8\n"
            "layer1.k=2\nlayer1.filter=6x6\nlayer1.q=5\nlayer1.epochs=1\n"
            "layer2.k=3\nlayer2.filter=2x2\nlayer2.q=3\nlayer2.epochs=1\n"
        )
        out = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(tmp_path / "raw"), "--config", str(config),
                     "--out", str(out), "--seed", "5", "--threads", "1"]) == 0
        # the command saves what run_two_layer returns for the same config and seed
        bank1, bank2, _ = run_two_layer(tmp_path / "raw", _pipeline_config(
            _parse_config_file(config)), seed=5)
        np.testing.assert_array_equal(load_bank(out / "layer1.bank"), bank1)
        np.testing.assert_array_equal(load_bank(out / "layer2.bank"), bank2)
        assert bank1.shape == (2, 1, 6, 6) and bank2.shape == (3, 2, 2, 2)
        assert (out / "stats.txt").read_text().startswith("layer=1 epoch=0 ")
        for name in ("layer1_filters.pgm", "layer2_filters.pgm", "manifest.txt"):
            assert (out / name).exists()

    @pytest.mark.parametrize("seed", [["--seed", "5"], []], ids=["seeded", "unseeded"])
    def test_manifest_records_every_layer_setting(self, tmp_path, seed):
        write_pgm_corpus(tmp_path / "raw", 4, 24, seed=6)
        config = tmp_path / "pipe.cfg"
        config.write_text(
            "image_size=24\npool=8\n"
            "layer1.k=2\nlayer1.filter=6x6\nlayer1.q=4\nlayer1.epochs=1\n"
            "layer1.tolerance=0.01\nlayer1.min_activations=2\n"
            "layer2.k=2\nlayer2.filter=2x2\nlayer2.q=3\nlayer2.epochs=1\n"
            "layer2.min_activations=3\n"
        )
        base = ["pipeline", "--corpus", str(tmp_path / "raw")]
        first, again = tmp_path / "o1", tmp_path / "o2"
        assert main([*base, "--config", str(config), "--out", str(first), *seed]) == 0
        manifest = first / "manifest.txt"
        lines = manifest.read_text().splitlines()
        for entry in ("layer1.tolerance=0.01", "layer1.min_activations=2",
                      "layer2.tolerance=0.01", "layer2.min_activations=3"):
            assert entry in lines
        # read back as a config file, the manifest gives the run's settings and outputs
        assert _pipeline_config(_parse_config_file(manifest)) == _pipeline_config(
            _parse_config_file(config)
        )
        assert main([*base, "--config", str(manifest), "--out", str(again)]) == 0
        for name in ("layer1.bank", "layer2.bank"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_bad_config_line_is_config_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("layer1.k 8\n")
        assert main(["pipeline", "--corpus", str(tmp_path), "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_is_named(self):
        with pytest.raises(ConfigError, match=r"unknown config key layer1\.epoch$"):
            _pipeline_config({"layer1.epoch": "3"})

    def test_seed_flag_overrides_config_file_seed(self, tmp_path):
        write_pgm_corpus(tmp_path / "raw", 4, 24, seed=4)
        config = tmp_path / "pipe.cfg"
        config.write_text(
            "image_size=24\npool=8\nseed=99\n"
            "layer1.k=2\nlayer1.filter=6x6\nlayer1.q=4\nlayer1.epochs=1\n"
            "layer2.k=2\nlayer2.filter=2x2\nlayer2.q=3\nlayer2.epochs=1\n"
        )
        out_file_seed = tmp_path / "o1"
        out_flag_seed = tmp_path / "o2"
        out_same_flag = tmp_path / "o3"
        base = ["pipeline", "--corpus", str(tmp_path / "raw"), "--config", str(config),
                "--threads", "1"]
        assert main([*base, "--out", str(out_file_seed)]) == 0
        assert main([*base, "--out", str(out_flag_seed), "--seed", "5"]) == 0
        assert main([*base, "--out", str(out_same_flag), "--seed", "5"]) == 0
        flag_bytes = (out_flag_seed / "layer1.bank").read_bytes()
        assert (out_same_flag / "layer1.bank").read_bytes() == flag_bytes
        assert (out_file_seed / "layer1.bank").read_bytes() != flag_bytes


def write_raw_bank(path, bank):
    """Write bank bytes without save_bank's validation, as a corrupt file would be."""
    path.write_bytes(BANK_MAGIC + struct.pack("<5I", 1, *bank.shape)
                     + np.ascontiguousarray(bank, dtype="<f8").tobytes())


def _bank_scaled(tmp_path):
    bank = normalize_filters(np.random.default_rng(0).normal(size=(2, 1, 4, 4)))
    write_raw_bank(tmp_path / "m.bank", bank * (1 + 1e-8))


def _bank_nan(tmp_path):
    bank = normalize_filters(np.random.default_rng(0).normal(size=(2, 1, 4, 4)))
    bank[1, 0, 2, 2] = np.nan
    write_raw_bank(tmp_path / "m.bank", bank)


def _bank_empty(tmp_path):
    write_raw_bank(tmp_path / "m.bank", np.zeros((0, 1, 4, 4)))


def _code_nan(tmp_path):
    save_bank(normalize_filters(np.ones((1, 1, 3, 3))), tmp_path / "m.bank")
    (tmp_path / "c.code").write_text("CMPC1 1 5 5 1\n0 1 1 nan\n")


def _code_header(header):
    def prepare(tmp_path):
        save_bank(normalize_filters(np.ones((1, 1, 3, 3))), tmp_path / "m.bank")
        (tmp_path / "c.code").write_text(header + "\n")
    return prepare


def _valid_bank(tmp_path):
    save_bank(normalize_filters(np.ones((1, 1, 3, 3))), tmp_path / "m.bank")


def _code_not_utf8(tmp_path):
    _valid_bank(tmp_path)
    (tmp_path / "c.code").write_bytes(b"CMPC1 1 12 12 1\n0 0 0 \xff\xfe\n")


def _code_record(record):
    def prepare(tmp_path):
        _valid_bank(tmp_path)  # one 3x3 filter, so a 5x5 code has cols 0..2
        (tmp_path / "c.code").write_text(f"CMPC1 1 5 5 1\n{record}\n")
    return prepare


def _code_two_channels(tmp_path):
    save_bank(normalize_filters(np.ones((1, 2, 3, 3))), tmp_path / "m.bank")
    save_code(SparseCode(2, 5, 5, [Activation(0, 1, 1, 1.0)]), tmp_path / "c.code")


PIPE_CFG = (b"image_size=24\npool=8\nlayer1.k=2\nlayer1.filter=6x6\nlayer1.q=3\n"
            b"layer1.epochs=1\nlayer2.k=2\nlayer2.filter=2x2\nlayer2.q=2\nlayer2.epochs=1\n")


def _pipeline_inputs(tmp_path):
    write_pgm_corpus(tmp_path / "raw", 3, 24, seed=3)
    (tmp_path / "pipe.cfg").write_bytes(PIPE_CFG)


def _config_file(data):
    def prepare(tmp_path):
        write_pgm_corpus(tmp_path / "raw", 3, 24, seed=3)
        (tmp_path / "pipe.cfg").write_bytes(data)
    return prepare


def _no_files(tmp_path):
    pass


def _image_file(data):
    def prepare(tmp_path):
        _valid_bank(tmp_path)
        (tmp_path / "img.pgm").write_bytes(data)
    return prepare


ENCODE = ["encode", "--model", "{d}/m.bank", "--image", "{d}/img.pgm", "--out", "{d}/c.code"]
RENDER = ["render-filters", "--model", "{d}/m.bank", "--out", "{d}/f.pgm"]
RECONSTRUCT = ["reconstruct", "--model", "{d}/m.bank", "--code", "{d}/c.code",
               "--out", "{d}/r.pgm"]
PIPELINE_RUN = ["pipeline", "--corpus", "{d}/raw", "--config", "{d}/pipe.cfg", "--out", "{d}/run"]
PIPELINE = PIPELINE_RUN + ["--scale", "0", "--threads", "1"]
TRAIN_NAN = ["train", "--corpus", "{d}", "--out", "{d}/m.bank", "--tolerance", "nan"]
TRAIN_SMALL = ["train", "--corpus", "{d}", "--out", "{d}/m.bank", "--k", "2", "--filter", "3x3",
               "--q", "2", "--epochs", "1"]
PREPROCESS = ["preprocess", "--in", "{d}", "--out", "{d}/pre", "--size", "8"]
BENCH = ["bench", "--image", "12x12", "--filter", "3x3", "--q", "2", "--repeat", "1"]


class TestMalformedInputExitCodes:
    """Inputs the library rejects exit 2 or 3, never as an internal error."""

    @pytest.mark.parametrize(
        ("prepare", "argv", "expected"),
        [
            (_bank_scaled, ENCODE, 3),
            (_bank_nan, ENCODE, 3),
            (_bank_nan, RENDER, 3),
            (_bank_empty, ENCODE, 3),
            (_bank_empty, RENDER, 3),
            (_code_nan, RECONSTRUCT, 3),
            (_code_two_channels, RECONSTRUCT, 2),
            (_code_header("CMPC1 1 -5 8 0"), RECONSTRUCT, 3),
            (_code_header("CMPC1 0 8 8 0"), RECONSTRUCT, 3),
            (_code_header("CMPC1 1 8 0 0"), RECONSTRUCT, 3),
            (_code_header("CMPC1 1 8 8 -1"), RECONSTRUCT, 3),
            (_code_not_utf8, RECONSTRUCT, 3),
            (_code_record("1 0 0 1.0"), RECONSTRUCT, 2),
            (_code_record("-1 0 0 1.0"), RECONSTRUCT, 2),
            (_code_record("0 1 3 1.0"), RECONSTRUCT, 2),
            (_code_record("99999999999999999999 0 0 1.0"), RECONSTRUCT, 3),
            (_code_header("CMPC1 1 99999999999999999999 5 0"), RECONSTRUCT, 3),
            (_code_header("CMPC1 1 5 99999999999999999999 1\n0 0 0 1.0"), RECONSTRUCT, 3),
            (_valid_bank, ENCODE + ["--tolerance", "nan"], 2),
            (_no_files, TRAIN_NAN, 2),
            (_pipeline_inputs, PIPELINE, 2),
            (_config_file(b"\xff\xfe=3\n"), PIPELINE_RUN, 3),
            (_config_file(b"layer1.tolerance=nan\n"), PIPELINE_RUN, 2),
            (_config_file(PIPE_CFG + b"layer1.epoch=3\n"), PIPELINE_RUN, 2),
            (_no_files, TRAIN_SMALL + ["--seed", "-1"], 2),
            (_no_files, PREPROCESS + ["--seed", "-1"], 2),
            (_no_files, PREPROCESS + ["--seed", "-1", "--pascal-crop"], 2),
            (_no_files, PREPROCESS + ["--size", "0"], 2),
            (_no_files, PREPROCESS + ["--size", "-3"], 2),
            (_no_files, PREPROCESS + ["--pascal-crop", "--size", "0"], 2),
            (_no_files, PREPROCESS + ["--pascal-crop", "--size", "100"], 3),
            (_no_files, BENCH + ["--seed", "-1"], 2),
            (_pipeline_inputs, PIPELINE_RUN + ["--seed", "-1"], 2),
            (_config_file(PIPE_CFG + b"seed=-1\n"), PIPELINE_RUN, 2),
            (_config_file(PIPE_CFG + b"layer1.seed=-1\n"), PIPELINE_RUN, 2),
            (_no_files, BENCH + ["--k", "-1"], 2),
            (_no_files, BENCH + ["--k", "0"], 2),
            (_no_files, BENCH + ["--image", "1x1", "--filter", "1x1", "--k", "1"], 2),
            (_image_file(b"P5\n-2 -2\n255\n\x01\x02\x03\x04"), ENCODE, 3),
            (_image_file(b"P6\n-1 -1\n255\n\x01\x02\x03"), ENCODE, 3),
        ],
        ids=["encode-scaled-bank", "encode-nan-bank", "render-nan-bank", "encode-empty-bank",
             "render-empty-bank", "reconstruct-nan-coefficient", "reconstruct-two-channels",
             "reconstruct-negative-height", "reconstruct-zero-channels",
             "reconstruct-zero-width", "reconstruct-negative-count", "reconstruct-not-utf8",
             "reconstruct-filter-index-k", "reconstruct-negative-filter-index",
             "reconstruct-col-outside-grid", "reconstruct-filter-index-beyond-intp",
             "reconstruct-height-beyond-intp", "reconstruct-width-beyond-intp",
             "encode-nan-tolerance", "train-nan-tolerance", "pipeline-scale-zero",
             "pipeline-config-not-utf8", "pipeline-config-nan-tolerance",
             "pipeline-config-unknown-key",
             "train-negative-seed", "preprocess-negative-seed", "preprocess-crop-negative-seed",
             "preprocess-zero-size", "preprocess-negative-size", "preprocess-crop-zero-size",
             "preprocess-crop-larger-than-every-image",
             "bench-negative-seed", "pipeline-negative-seed", "pipeline-config-negative-seed",
             "pipeline-config-negative-layer-seed",
             "bench-negative-k", "bench-zero-k", "bench-pursuit-outruns-map",
             "encode-pgm-two-negative-sizes", "encode-ppm-two-negative-sizes"],
    )
    def test_exit_code(self, tmp_path, capsys, prepare, argv, expected):
        save_image(np.random.default_rng(1).random((1, 12, 12)), tmp_path / "img.pgm")
        prepare(tmp_path)
        assert main([a.format(d=tmp_path) for a in argv]) == expected
        assert "internal error" not in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # pipeline rejects --scale before any output
        if expected == 2:  # preprocess rejects its flags before the manifest
            assert not (tmp_path / "pre").exists()


@pytest.mark.parametrize(
    "argv",
    [["preprocess", "--in", "{d}/raw", "--out", "{d}/pre", "--size=--"],
     ["train", "--corpus", "{d}", "--out", "{d}/m.bank", "--q=--"],
     ["encode", "--model", "{d}/m.bank", "--image", "{d}/img.pgm", "--out", "{d}/c", "--q=--"],
     ["bench", "--k=--"]],
    ids=["preprocess", "train", "encode", "bench"],
)
def test_a_flag_given_as_double_dash_is_a_usage_error(tmp_path, capsys, argv):
    # argparse before Python 3.12 hands "--flag=--" over as [], past the flag's type,
    # and main rejects it; later versions reject "--" through the type themselves
    save_bank(normalize_filters(np.ones((1, 1, 2, 2))), tmp_path / "m.bank")
    save_image(np.full((1, 4, 4), 0.5), tmp_path / "img.pgm")
    with pytest.raises(SystemExit) as exc:
        main([a.format(d=tmp_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag = argv[-1].split("=")[0].lstrip("-")
    assert re.search(rf"error: argument (--)?{flag}\b", err) and "Traceback" not in err


def test_a_code_too_large_to_hold_is_data_error(tmp_path):
    pytest.importorskip("resource")
    _valid_bank(tmp_path)
    (tmp_path / "c.code").write_text("CMPC1 1 100000 100000 0\n")  # 74.5 GiB to reconstruct
    # the child caps its own address space before it imports numpy, so the
    # reconstruction fails to allocate instead of being attempted
    script = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from convmp.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(convmp.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [a.format(d=tmp_path) for a in RECONSTRUCT]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "data error: Unable to allocate" in proc.stderr
    assert not (tmp_path / "r.pgm").exists()


def test_importing_the_cli_loads_every_package_module():
    # A module no user path imports is test-only code and belongs in tests/.
    # The child imports this checkout's src, whatever is installed.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import convmp.cli\n"
        "print(convmp.__file__)\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'convmp'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    location, loaded = proc.stdout.splitlines()
    assert Path(location).parent == src / "convmp"
    modules = {"convmp"} | {f"convmp.{p.stem}" for p in (src / "convmp").glob("*.py")}
    modules.discard("convmp.__init__")
    assert set(loaded.split()) == modules


class TestBench:
    def test_report_shape_and_arithmetic(self, capsys):
        assert main(["bench", "--image", "24x24", "--k", "2", "--filter", "5x5",
                     "--q", "4,8", "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "q=4 median_ms=" in out
        assert "ratio q=4->q=8:" in out

    def test_run_bench_returns_two_ratios_for_three_qs(self):
        report = run_bench((24, 24), 2, (5, 5), [4, 8, 16], repeat=3, seed=0)
        assert len(report["ratios"]) == 2
        assert len(report["per_step_ns"]) == 3

    def test_bad_q_list_is_config_error(self):
        assert main(["bench", "--q", "50,abc"]) == 2
