"""The config codec's round trips: every valid TrainConfig and every
PipelineConfig whose layer-2 filters fit its pooled maps, written as a
manifest and read back, is the same config; a TrainConfig's entries given
as train's flags parse back to it. The draws include seeds above 2**63 and
tolerances of 0.0, inf and subnormals.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
# Importing the parser fuzzers also moves Hypothesis's storage out of the tree.
from test_parser_fuzz import FUZZ  # noqa: E402

from convmp.cli import build_parser  # noqa: E402
from convmp.config import entries, pipeline_config, read, train_config, write  # noqa: E402
from convmp.core import TrainConfig  # noqa: E402
from convmp.pipeline import PipelineConfig  # noqa: E402

ROUND_TRIP = settings(FUZZ, max_examples=120)  # keeps the three properties near 1.2 s

SEEDS = st.one_of(st.integers(0, 2**70), st.sampled_from([2**63, 2**64 - 1, 2**64]))
TOLERANCES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),  # inf and subnormals included
    st.sampled_from([0.0, math.inf, 5e-324, 2.2250738585072014e-308 / 3]),
)


def train_configs(heights=st.integers(1, 64), widths=st.integers(1, 64)):
    return st.builds(
        TrainConfig, num_filters=st.integers(1, 2**40), filter_height=heights,
        filter_width=widths, sparsity=st.integers(1, 2**40), epochs=st.integers(0, 2**40),
        seed=SEEDS, residual_tolerance=TOLERANCES, min_activations=st.integers(1, 2**40),
    )


@st.composite
def pipeline_configs(draw):
    """A PipelineConfig whose layer-1 filters fit image_size and whose
    layer-2 filters fit the pooled layer-1 maps."""
    size, pool = draw(st.integers(1, 96)), draw(st.integers(1, 12))
    h1, w1 = draw(st.integers(1, size)), draw(st.integers(1, size))
    layer1 = draw(train_configs(st.just(h1), st.just(w1)))
    ph, pw = (-(-(size - f + 1) // pool) for f in (h1, w1))
    layer2 = draw(train_configs(st.integers(1, ph), st.integers(1, pw)))
    return PipelineConfig(layer1, layer2, pool_size=pool, image_size=size)


@ROUND_TRIP
@given(cfg=train_configs())
@example(cfg=TrainConfig(1, 1, 1, sparsity=1, epochs=0, seed=2**70, residual_tolerance=math.inf))
def test_a_train_manifest_reads_back_as_its_config(tmp_path, cfg):
    path = tmp_path / "m.bank.manifest.txt"
    write(path, {"command": "train", "corpus": "c", "out": "m.bank", **entries(cfg)})
    assert train_config(read(path)) == cfg


@ROUND_TRIP
@given(cfg=train_configs())
@example(cfg=TrainConfig(3, 2, 5, sparsity=4, epochs=1, seed=2**64, residual_tolerance=5e-324))
def test_train_entries_as_flags_parse_back_to_the_config(cfg):
    flags = [text for name, value in entries(cfg).items()
             for text in ("--" + name.replace("_", "-"), str(value))]
    args = build_parser().parse_args(["train", "--corpus", "c", "--out", "m.bank", *flags])
    assert train_config(vars(args)) == cfg


@ROUND_TRIP
@given(cfg=pipeline_configs())
def test_a_pipeline_manifest_reads_back_as_its_config(tmp_path, cfg):
    path = tmp_path / "manifest.txt"
    write(path, {"command": "pipeline", "corpus": "raw", "out": "run", **entries(cfg)})
    assert pipeline_config(read(path)) == cfg
