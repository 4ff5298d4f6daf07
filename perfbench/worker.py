"""One benchmark worker process: times its own `import convmp.cli`, then runs
a workload's ops closed-loop, one after another, through
`convmp.cli.main([...])`, checks every op's outputs, and writes its
measurements as JSON.

    python3 worker.py --probe ROOT     print the import time of convmp.cli
                                       and the host probe's time, as JSON
    python3 worker.py PLAN.json        run the plan written by run.py

Only the standard library is imported before convmp.cli, so the import
time includes numpy's, as a user's CLI command pays it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def timed_import(root: Path) -> float:
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import convmp.cli  # noqa: F401

    setup_s = time.perf_counter() - t0
    where = Path(sys.modules["convmp"].__file__).resolve()
    if not where.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported convmp from {where}, not from {root / 'src'}")
    return setup_s


def host_probe() -> float:
    """Seconds for a fixed task that touches no convmp code: a pure-Python
    loop and a numpy pass over a fixed array. The program does not change it,
    so its drift between runs shows how fast the shared host was at the time."""
    import numpy as np

    x = np.arange(1 << 19, dtype=np.float64)
    t0 = time.perf_counter()
    sum(i * i for i in range(500_000))
    float(np.sqrt(x * x + 1.0).sum())
    return time.perf_counter() - t0


def environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def run(plan: dict) -> dict:
    import contextlib
    import io
    import resource
    import statistics

    import convmp.cli as cli
    from spans import Tracer
    from workloads import WORKLOADS, OpResult

    wl = WORKLOADS[plan["workload"]](**plan["params"])
    work = Path(plan["work"])
    (work / "out").mkdir(parents=True, exist_ok=True)
    tracer = Tracer()

    def run_op(i: int, traced: bool = False) -> dict:
        buf = io.StringIO()
        c0, t0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(wl.argv(work, i))
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
        # user plus system CPU of every thread, the total getrusage gives,
        # read through clock_gettime at nanosecond resolution
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if code != 0:
            res = OpResult(False, f"exit code {code}")
        else:
            try:
                res = wl.check(work, i, buf.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res = OpResult(False, f"output unreadable: {exc}")
        op = {"input": i, "wall_s": wall, "cpu_s": cpu, "ok": res.ok, "reason": res.reason,
              "energy": res.energy, "outputs": res.outputs}
        if traced:
            layers = tracer.collect()
            problem = _trace_mismatch(wl, layers, res)
            if res.ok and problem:
                op.update(ok=False, reason=problem)
            op["layers"] = layers
        return op

    def traced_op(i: int) -> dict:
        nonlocal bindings
        tracer.install()
        try:
            return run_op(i, traced=True)
        finally:
            bindings = tracer.bindings()
            tracer.uninstall()

    def closed_loop(seconds: float, *steps) -> list[list[dict]]:
        """Run each step on input 0, 1, ... in turn until time is up and
        every input ran; one op list per step."""
        ops = [[] for _ in steps]
        start = time.perf_counter()
        while len(ops[0]) < wl.inputs or time.perf_counter() - start < seconds:
            i = len(ops[0]) % wl.inputs
            for out, step in zip(ops, steps):
                out.append(step(i))
        return ops

    bindings = {}
    warmup = [run_op(0)]  # lazy set-up and first-touch costs stay out of the timings
    if plan["trace"]:
        # untraced and traced ops alternate on the same inputs, so the
        # overhead ratio compares like with like under the same machine load
        timed, traced = closed_loop(plan["seconds"], run_op, traced_op)
        metrics = _layer_metrics(traced, timed)
        extra = {"bindings": bindings}
        timed = timed + traced
    else:
        (timed,) = closed_loop(plan["seconds"], run_op)
        energy = {op["input"]: op["energy"] for op in timed if op["energy"]}
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in timed),
            "cpu_s": statistics.median(op["cpu_s"] for op in timed),
            "encode_images_per_s": statistics.median(
                wl.encodes_per_op / op["wall_s"] for op in timed
            ),
            # outputs are deterministic per input, so one value per distinct
            # input; None (JSON null) only when every op failed
            "energy_frac": sum(e[1] for e in energy.values()) / sum(e[0] for e in energy.values())
            if energy else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {
            "train_image_epochs_per_s": statistics.median(
                wl.image_epochs_per_op / op["wall_s"] for op in timed
            ),
            "op_wall_s": [op["wall_s"] for op in timed],
        }
    ops = warmup + timed
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "failures": sorted({op["reason"] for op in ops if not op["ok"]}),
        "outputs": _output_hashes(ops),
    }


def _trace_mismatch(wl, layers: dict, res) -> str:
    """Cross-check traced counts against the outputs, so that a binding the
    tracer missed shows up as a failed op instead of an undercount."""
    encodes = layers["conv_mp.conv_mp_encode"]
    steps = layers["conv_mp.greedy_steps"]["steps"]
    written = res.code_activations or encodes["activations"]
    if steps != written:
        return f"traced {steps} greedy steps, outputs hold {written} activations"
    if encodes["calls"] != wl.encodes_per_op:
        return f"traced {encodes['calls']} encodes, expected {wl.encodes_per_op}"
    shift_filters = layers["conv_mp.build_shift_gram"]["filters"]
    if layers["conv_mp.correlate"]["calls"] != encodes["calls"] + shift_filters:
        return "traced correlate calls do not match encodes plus shift-table builds"
    return ""


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-op layer figures, each the median over the traced ops."""
    import statistics

    rows = []
    for op in traced:
        layers = op["layers"]
        row = {}
        for name, entry in layers.items():
            for key, value in entry.items():
                if key != "total_s":
                    row[f"{name}.{key}"] = value
        steps = layers["conv_mp.greedy_steps"]["steps"]
        row["conv_mp.greedy_steps.ns_per_step"] = (
            layers["conv_mp.greedy_steps"]["self_s"] / steps * 1e9 if steps else 0.0
        )
        row["conv_mp.correlate.gflop_computed"] = layers["conv_mp.correlate"]["flop_computed"] / 1e9
        update = layers["dict_learn.update_filter"]
        row["dict_learn.update_filter.reinit_frac"] = (
            update["reinits"] / update["calls"] if update["calls"] else 0.0
        )
        rows.append(row)
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["trace.overhead"] = statistics.median(op["wall_s"] for op in traced) / (
        statistics.median(op["wall_s"] for op in untraced)
    )
    return metrics


def _output_hashes(ops: list[dict]) -> dict:
    """SHA-256 of each produced file, and whether every repeat of an input
    reproduced it bit for bit (reported, not gated)."""
    hashes: dict[str, set] = {}
    for op in ops:
        for name, digest in op["outputs"].items():
            hashes.setdefault(name, set()).add(digest)
    return {
        "sha256": {name: sorted(d)[0] for name, d in sorted(hashes.items())},
        "repeats_identical": all(len(d) == 1 for d in hashes.values()),
    }


def main() -> int:
    import json

    if sys.argv[1] == "--probe":
        setup_s = timed_import(Path(sys.argv[2]))
        print(json.dumps([setup_s, host_probe()]))
        return 0
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text())
    setup_s = timed_import(Path(plan["root"]))
    result = run(plan)
    result["setup_s"] = setup_s
    result["environment"] = environment()
    plan_path.with_suffix(".result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
