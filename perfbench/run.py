"""End-to-end and per-layer benchmark of the convmp CLI.

    python3 perfbench/run.py --workload {train64,encode256,pipeline2} \
        --seed N --seconds S --trace {0,1}

Run from a checkout's root. The workload's inputs are generated from --seed
into a scratch directory; the program keeps its own seeds at their defaults.
Setup is timed in fresh processes; the ops run in one more fresh worker
process with BLAS pinned to one thread. With --trace 0 the last stdout line
holds the end-to-end metrics listed in BENCHMARK.json, with --trace 1 the
per-layer ones. The line before it is a JSON record of the environment,
output hashes and every measured figure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 12  # fresh processes timing `import convmp.cli`, plus the worker's own
PINNED_BLAS_THREADS = "1"


def git_commit(root: Path) -> str:
    """HEAD's commit id, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_BLAS_THREADS
    return env


def _worker(args: list[str], timeout: float, stderr) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child if it overruns its timeout
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=worker_env(), cwd=HERE,
        stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=timeout, check=True,
    )


def _probe(root: Path) -> list[float]:
    """[import time of convmp.cli, host probe time] from one fresh process."""
    return json.loads(_worker(["--probe", str(root)], 60, subprocess.DEVNULL).stdout)


def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, time setup, run the worker; return its measurements."""
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload.prepare(work, np.random.default_rng(seed))
        # the first probe also fills the bytecode cache; it is not counted
        probes = [_probe(root) for _ in range(SETUP_PROBES // 2 + 1)][1:]
        plan = work / "plan.json"
        plan.write_text(json.dumps({
            "root": str(root), "work": str(work), "workload": workload.name,
            "params": dataclasses.asdict(workload), "seconds": seconds, "trace": trace,
        }))
        with open(work / "worker.stderr", "w") as err:
            try:
                _worker([str(plan)], 150, err)
            except subprocess.CalledProcessError:
                sys.stderr.write((work / "worker.stderr").read_text()[-4000:])
                raise
        result = json.loads(plan.with_suffix(".result.json").read_text())
        # half the probes after the ops, so the median spans the whole run
        probes += [_probe(root) for _ in range(SETUP_PROBES - len(probes))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    result["setup_s_samples"] = [setup for setup, _ in probes] + [result["setup_s"]]
    result["metrics"]["setup_s"] = statistics.median(result["setup_s_samples"])
    result["host_probe_samples"] = [host for _, host in probes]
    result["host_probe_s"] = statistics.median(result["host_probe_samples"])
    return result


def report(spec: dict, result: dict, trace: bool) -> dict:
    """The result line: exactly the metrics BENCHMARK.json lists for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "convmp" / "cli.py").is_file():
        print(f"no convmp sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
    record = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "commit": git_commit(root),
        "failed_frac": result["failed"] / result["attempted"],
        **{k: result[k] for k in ("attempted", "failed", "failures", "environment", "outputs",
                                  "setup_s_samples", "host_probe_s", "host_probe_samples",
                                  "extra", "metrics")},
        "params": dataclasses.asdict(workload),
    }
    print(json.dumps({"record": record}))
    print(json.dumps(report(spec, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
