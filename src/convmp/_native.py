"""Build and load _native.c, the compiled kernels, on first use.

The library is built with the C compiler Python was built with (sysconfig's
CC, else cc) and named by a hash of the source, the flags and the platform
tag, so an edited source or another Python gets its own build.
It goes into this package's __pycache__, as bytecode does, or into a
per-user cache directory (mode 0700) when that is not writable. A build
writes a temporary file and installs it with os.replace, so processes
racing to build it are safe; then the builds of other hashes are removed.
A cached build that does not load is built again, once.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

# No -ffast-math or -march=native: the kernels must give the same bits everywhere.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_native.c")
# the return codes of power
POWER_CONVERGED, POWER_CAPPED, POWER_ZERO, POWER_NON_FINITE = range(4)


class BuildError(RuntimeError):
    """The compiled kernels could not be built."""


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded library, building it if needed, with its five entry points
    declared: pursue(maps, k, hv, wv, table, fh, fw, max_steps, tolerance,
    out), power(rows, n, dim, v, y, max_iter, tolerance, iterations),
    reconstruct(steps, n, bank, strides, c, fh, fw, h, w, out),
    collect(residual, size, windows, n, coefs, f, c, fh, fw, patches) and
    repair(residual, size, windows, n, c, fh, fw, coefs, old, proj, new)."""
    path = _library()
    try:
        loaded = ctypes.CDLL(str(path))
    except OSError:  # a cached build that does not load: cut short, or for another C library
        path = _build(path)
        try:
            loaded = ctypes.CDLL(str(path))
        except OSError as exc:
            raise BuildError(f"the rebuilt native library does not load: {exc}") from exc
    size, pointer, double = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    loaded.pursue.argtypes = [pointer, size, size, size, pointer, size, size, size, double, pointer]
    loaded.pursue.restype = size
    loaded.power.argtypes = [pointer, size, size, pointer, pointer, size, double,
                             ctypes.POINTER(size)]
    loaded.power.restype = ctypes.c_int
    loaded.reconstruct.argtypes = [pointer, size, pointer, pointer, *[size] * 5, pointer]
    loaded.reconstruct.restype = None
    loaded.collect.argtypes = [pointer, size, pointer, size, pointer, pointer, *[size] * 3, pointer]
    loaded.repair.argtypes = [pointer, size, pointer, *[size] * 4, *[pointer] * 4]
    loaded.collect.restype = loaded.repair.restype = ctypes.c_int
    return loaded


def _library() -> Path:
    # zlib, not hashlib: numpy has loaded zlib already, while hashlib maps
    # OpenSSL, ≈3.5 MB of resident memory for one 32-bit name
    key = zlib.crc32(SOURCE.read_bytes() + repr((FLAGS, EXTENSION_SUFFIXES[0])).encode())
    name = f"_native-{key:08x}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "convmp"
    places = [SOURCE.parent / "__pycache__", cache]
    for place in places:
        if (place / name).is_file():
            return place / name
    for place in places:
        try:
            place.mkdir(mode=0o700 if place is cache else 0o777, parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(place, os.W_OK):
            return _build(place / name)
    raise BuildError(f"no writable directory for the native library among {places}")


def _build(target: Path) -> Path:
    # imported here, on a build only: they would add ≈7 ms to every start-up
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    command = [*cc, *FLAGS, str(SOURCE), "-o", tmp]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        failure = f"exited {done.returncode}:\n{done.stderr.strip()}" if done.returncode else ""
    except OSError as exc:  # no such compiler, or not executable
        failure = f"could not start: {exc}"
    if failure:
        os.unlink(tmp)
        raise BuildError(f"building the native library failed: {shlex.join(command)} {failure}")
    # readable like the source, as bytecode is (the linker kept mkstemp's 0600)
    os.chmod(tmp, SOURCE.stat().st_mode & 0o777)
    os.replace(tmp, target)
    for stale in target.parent.glob("_native-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target
