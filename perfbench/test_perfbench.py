"""Tests of the benchmark itself, at tiny shapes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from spans import Tracer, _union_within
from workloads import Encode256, Pipeline2, Train64

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    Train64(corpora=2, images=3, size=24, hidden=3, filter=6, atoms=3, k=3, q=5, epochs=2),
    Encode256(pool=2, size=32, k=4, filter=4, atoms=10, q=20),
    Pipeline2(corpora=1, images=2, height=24, width=32, epochs=2),
]

# The figures the benchmark documents, beyond those BENCHMARK.json lists.
RECORD_METRICS = {
    "encode_images_per_s", "wall_s", "cpu_s", "peak_rss_mb", "energy_frac", "setup_s",
}
RECORD_LAYER_METRICS = {
    "conv_mp.greedy_steps.steps", "conv_mp.greedy_steps.self_s",
    "conv_mp.greedy_steps.ns_per_step", "conv_mp.correlate.gflop_computed",
    "dict_learn.encode_all.self_s", "dict_learn.update_filter.reinit_frac",
    "dict_learn.pca_top_component.rows", "model_io.save_bank.bytes_written",
    "pipeline.avg_pool.self_s", "preprocess.resize.self_s", "trace.overhead",
}


def _import_convmp():
    sys.path.insert(0, str(ROOT / "src"))
    import convmp.cli

    return convmp.cli


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run.run_workload(ROOT, workload, seed=5, seconds=0.01, trace=bool(trace))
    line = run.report(SPEC, result, bool(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], float | int) for m in line["metrics"].values())
    assert (RECORD_LAYER_METRICS if trace else RECORD_METRICS) <= set(result["metrics"])
    assert result["environment"]["blas_threads_env"] == run.PINNED_BLAS_THREADS
    assert result["host_probe_s"] > 0 and len(result["host_probe_samples"]) == run.SETUP_PROBES
    assert result["outputs"]["sha256"] and result["outputs"]["repeats_identical"]


def test_traced_layers_match_the_workload():
    result = run.run_workload(ROOT, TINY[1], seed=5, seconds=0.01, trace=True)
    m = result["metrics"]
    assert m["conv_mp.greedy_steps.steps"] == TINY[1].q
    dict_learn = [k for k in m if k.startswith("dict_learn.") and k.endswith(".self_s")]
    assert dict_learn and all(m[k] == 0 for k in dict_learn)
    assert set(result["extra"]["bindings"]["conv_mp.conv_mp_encode"]) >= {
        "convmp.conv_mp.conv_mp_encode", "convmp.dict_learn.conv_mp_encode",
        "convmp.cli.conv_mp_encode",
    }


def test_corrupted_code_file_counts_as_failed(tmp_path, monkeypatch):
    cli = _import_convmp()
    wl = TINY[1]
    wl.prepare(tmp_path, np.random.default_rng(0))
    real_main = cli.main

    def main_then_corrupt(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        lines = out.read_text().splitlines()
        f, r, c, coef = lines[1].split()
        lines[1] = f"{f} {r} {c} {float(coef) * 1.001!r}"
        out.write_text("\n".join(lines) + "\n")
        return code

    monkeypatch.setattr(cli, "main", main_then_corrupt)
    plan = {"workload": wl.name, "params": run.dataclasses.asdict(wl), "work": str(tmp_path),
            "seconds": 0.0, "trace": False}
    result = worker.run(plan)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert any("energy identity" in reason for reason in result["failures"])
    result["metrics"]["setup_s"] = 0.1
    assert run.report(SPEC, result, False)["correct"] is False


def test_pool_thread_spans_are_children_of_encode_all(tmp_path):
    _import_convmp()
    from convmp.core import TrainConfig
    from convmp.dict_learn import train

    images = [np.random.default_rng(i).normal(size=(1, 20, 20)) for i in range(4)]
    cfg = TrainConfig(num_filters=3, filter_height=5, filter_width=5, sparsity=6, epochs=2)
    tracer = Tracer()
    tracer.install()
    try:
        import convmp.dict_learn as dl

        dl.train(images, cfg, threads=2)
        spans = list(tracer.spans)
        layers = tracer.collect()
    finally:
        tracer.uninstall()
    assert dl.train is train  # uninstall restored every binding
    names = {sid: name for sid, _, name, _, _ in spans}
    encodes = [parent for _, parent, name, _, _ in spans if name == "conv_mp.conv_mp_encode"]
    assert len(encodes) == 8 and all(names[p] == "dict_learn.encode_all" for p in encodes)
    assert layers["conv_mp.greedy_steps"]["steps"] == 8 * 6
    enc = layers["dict_learn.encode_all"]
    assert 0 <= enc["self_s"] < enc["total_s"]


def test_self_time_subtracts_the_union_of_children():
    assert _union_within([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert _union_within([(1, 5), (2, 3)], 0, 10) == 4
    assert _union_within([(-1, 2), (9, 12)], 0, 10) == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "encode256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
