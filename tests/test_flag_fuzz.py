"""Flag fuzzing: any value given to the numeric and HxW flags of train, encode,
bench, preprocess, render-filters and pipeline, and to the pipeline's
numeric config values (zero, negatives, nan, inf, empty, non-numeric text,
malformed HxW) either runs or is rejected, so the CLI exits 0, 2 or 3,
never 4, and prints no traceback.

Every drawn size is small (images up to 40x40, up to 6 filters of at most
14x14, a few pursuit steps and epochs, render scales up to 8), so no case
allocates more than a few kilobytes; a flag or config value that is not
drawn keeps a small setting. The runs share the FUZZ settings of the parser
fuzzing.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
# Importing the parser fuzzers also moves Hypothesis's storage out of the tree.
from test_parser_fuzz import FUZZ  # noqa: E402

from convmp.cli import main  # noqa: E402
from convmp.core import normalize_filters  # noqa: E402
from convmp.model_io import save_bank, save_float_image, save_image  # noqa: E402

FLAGS = settings(FUZZ, max_examples=120)  # keeps the six fuzzers near 4 s together
JUNK = ["", " ", "nan", "inf", "-inf", "x", "1.5", "1e2", "0x10", "--"]


def mostly(valid, invalid):
    """Three draws in four from valid, so that most examples get past the
    parser and run, and the rest from invalid."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 3 else valid)


def ints(hi=6):
    """Flag text for an integer: 1..hi, or zero, a negative or text that is not one."""
    return mostly(
        st.integers(1, hi).map(str),
        st.one_of(st.integers(-2, 0).map(str), st.sampled_from(JUNK)),
    )


def floats():
    """Flag text for a float: 0..4, or a negative, special value or text that is not one."""
    return mostly(
        st.floats(0.0, 4.0).map(repr),
        st.one_of(st.floats(-1.0, -0.0).map(repr), st.sampled_from(JUNK + ["1e308"])),
    )


def dims(hi):
    """Flag text for HxW: sides in 1..hi, or zero or negative sides, or malformed."""
    return mostly(
        st.builds("{}x{}".format, st.integers(1, hi), st.integers(1, hi)),
        st.one_of(
            st.builds("{}X{}".format, st.integers(-1, 2), st.integers(-1, 2)),
            st.sampled_from(["", "x", "4", "4x", "x4", "4x4x4", "axb", "nanxnan", "4 x 4"]),
        ),
    )


def q_lists():
    """bench --q text: comma-separated small ints, some malformed."""
    item = mostly(st.integers(1, 6).map(str), st.sampled_from(["0", "-1", "", "a", "nan"]))
    return st.lists(item, min_size=1, max_size=3).map(",".join)


def drawn_flags(strategies):
    """Any subset of the flags, each with a drawn value, as --flag=value
    tokens (so that a value starting with - is not read as a flag)."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda values: [f"{flag}={value}" for flag, value in values.items()]
    )


def drawn_config(strategies):
    """Any subset of the config keys, each with a drawn value, as key=value lines."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda values: "".join(f"{key}={value}\n" for key, value in values.items())
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A three-image 12x12 corpus, three raw 16x16 PGM images, a unit-norm
    2x4x4 bank, and an output directory."""
    root = tmp_path_factory.mktemp("flags")
    rng = np.random.default_rng(0)
    corpus, raw = root / "corpus", root / "raw"
    corpus.mkdir()
    raw.mkdir()
    for i in range(3):
        save_float_image(rng.normal(size=(1, 12, 12)), corpus / f"im{i}.f64")
        save_image(rng.random((1, 16, 16)), raw / f"im{i}.pgm")
    save_bank(normalize_filters(rng.normal(size=(2, 1, 4, 4))), root / "model.bank")
    return root


def exits_cleanly(argv, capsys):
    """Run the CLI; its exit code is 0, 2 or 3 and stderr holds no traceback."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects a value that does not convert
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, err)


@FLAGS
@given(flags=drawn_flags({
    "--k": ints(), "--filter": dims(14), "--q": ints(), "--epochs": ints(3),
    "--seed": ints(), "--tolerance": floats(), "--min-activations": ints(),
    "--threads": ints(),
}))
def test_train_flags_exit_0_2_or_3(inputs, capsys, flags):
    small = ["--k=2", "--filter=4x4", "--q=4", "--epochs=1"]
    exits_cleanly(
        ["train", "--corpus", inputs / "corpus", "--out", inputs / "out.bank", *small, *flags],
        capsys,
    )


@FLAGS
@given(flags=drawn_flags({"--q": ints(), "--tolerance": floats()}))
def test_encode_flags_exit_0_2_or_3(inputs, capsys, flags):
    exits_cleanly(
        ["encode", "--model", inputs / "model.bank", "--image", inputs / "corpus" / "im0.f64",
         "--out", inputs / "out.code", *flags],
        capsys,
    )


@FLAGS
@given(flags=drawn_flags({
    "--image": dims(40), "--k": ints(), "--filter": dims(8), "--q": q_lists(),
    "--repeat": ints(3), "--seed": ints(),
}))
def test_bench_flags_exit_0_2_or_3(capsys, flags):
    small = ["--image=24x24", "--k=2", "--filter=5x5", "--q=2,4", "--repeat=2"]
    exits_cleanly(["bench", *small, *flags], capsys)


@FLAGS
@given(crop=st.booleans(), flags=drawn_flags({"--size": ints(24), "--seed": ints()}))
def test_preprocess_flags_exit_0_2_or_3(inputs, capsys, crop, flags):
    argv = ["preprocess", "--in", inputs / "raw", "--out", inputs / "pre", *flags]
    exits_cleanly(argv + ["--pascal-crop"] * crop, capsys)


@FLAGS
@given(flags=drawn_flags({"--scale": ints(8)}))
def test_render_filters_flags_exit_0_2_or_3(inputs, capsys, flags):
    exits_cleanly(
        ["render-filters", "--model", inputs / "model.bank", "--out", inputs / "f.pgm", *flags],
        capsys,
    )


PIPELINE_SMALL = (
    "image_size=16\npool=4\nlayer1.k=2\nlayer1.filter=4x4\nlayer1.q=3\nlayer1.epochs=1\n"
    "layer2.k=2\nlayer2.filter=2x2\nlayer2.q=2\nlayer2.epochs=1\n"
)


@FLAGS
@given(
    flags=drawn_flags({"--scale": ints(4), "--seed": ints()}),
    config=drawn_config({
        "image_size": ints(20), "pool": ints(6),
        **{f"layer{n}.k": ints(3) for n in (1, 2)},
        **{f"layer{n}.q": ints(4) for n in (1, 2)},
        **{f"layer{n}.epochs": ints(2) for n in (1, 2)},
        **{f"layer{n}.tolerance": floats() for n in (1, 2)},
        **{f"layer{n}.min_activations": ints(3) for n in (1, 2)},
        **{f"layer{n}.seed": ints() for n in (1, 2)},
        "layer1.filter": dims(8), "layer2.filter": dims(4),
    }),
)
def test_pipeline_flags_and_config_values_exit_0_2_or_3(inputs, capsys, flags, config):
    # drawn values come after the small settings, and a later key=value wins
    (inputs / "pipe.cfg").write_text(PIPELINE_SMALL + config)
    exits_cleanly(
        ["pipeline", "--corpus", inputs / "raw", "--config", inputs / "pipe.cfg",
         "--out", inputs / "run", *flags],
        capsys,
    )
