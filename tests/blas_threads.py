"""Run one script in two child processes that differ only in the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import convmp


def lines_at_1_and_2_blas_threads(script):
    """The script's stdout lines at OPENBLAS_NUM_THREADS=1 and at 2, with
    this checkout's convmp importable in both children."""
    src = str(Path(convmp.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for n in ("1", "2")
    ]
    outs = [child.communicate(timeout=120) for child in children]
    for child, (_, err) in zip(children, outs):
        assert child.returncode == 0, err
    return [out.splitlines() for out, _ in outs]
