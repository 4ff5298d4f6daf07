"""Run one script in child processes that differ only in their BLAS settings."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import convmp


def kernels_picked_at_run_time():
    """Whether numpy's BLAS is an OpenBLAS built to pick its kernels when it
    loads, the build where OPENBLAS_CORETYPE picks one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def lines_in_children(script, envs):
    """The script's stdout lines in one child per env, a dict of variables
    set over this process's, with this checkout's convmp importable in each."""
    src = str(Path(convmp.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script], env={**os.environ, **env, "PYTHONPATH": path},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for env in envs
    ]
    outs = [child.communicate(timeout=120) for child in children]
    for child, (_, err) in zip(children, outs):
        assert child.returncode == 0, err
    return [out.splitlines() for out, _ in outs]


def lines_at_1_and_2_blas_threads(script):
    """The script's stdout lines at OPENBLAS_NUM_THREADS=1 and at 2."""
    return lines_in_children(
        script, [{"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n} for n in ("1", "2")]
    )
