"""Build and load _pursuit.c, the compiled pursuit loop, on first use.

The library is built with the C compiler Python was built with (sysconfig's
CC) and named by a hash of the source, the flags, the compiler setting and
the platform tag, so an edited source or another Python gets its own build.
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

# The compiler command; None means the one Python was built with.
CC = None
# No -ffast-math or -march=native: the steps must keep numpy's bits everywhere.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_pursuit.c")


class BuildError(RuntimeError):
    """The compiled pursuit loop could not be built."""


@functools.cache
def pursue():
    """The C function pursue(maps, k, hv, wv, table, fh, fw, max_steps,
    tolerance, out) from _pursuit.c, building the library if needed."""
    library = _library()
    try:
        loaded = ctypes.CDLL(str(library))
    except OSError:  # a cached build that does not load: cut short, or for another C library
        library = _build(library)
        try:
            loaded = ctypes.CDLL(str(library))
        except OSError as exc:
            raise BuildError(f"the rebuilt pursuit library does not load: {exc}") from exc
    fn = loaded.pursue
    size, pointer = ctypes.c_ssize_t, ctypes.c_void_p
    fn.argtypes = [pointer, size, size, size, pointer, size, size, size, ctypes.c_double, pointer]
    fn.restype = size
    return fn


def _library() -> Path:
    # zlib, not hashlib: numpy has loaded zlib already, while hashlib maps
    # OpenSSL, ≈3.5 MB of resident memory for one 32-bit name
    key = zlib.crc32(SOURCE.read_bytes() + repr((FLAGS, CC, EXTENSION_SUFFIXES[0])).encode())
    name = f"_pursuit-{key:08x}.so"
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
    raise BuildError(f"no writable directory for the pursuit library among {places}")


def _build(target: Path) -> Path:
    # imported here, on a build only: they would add ≈7 ms to every start-up
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    cc = shlex.split(CC or sysconfig.get_config_var("CC") or "cc")
    command = [*cc, *FLAGS, str(SOURCE), "-o", tmp]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        failure = f"exited {done.returncode}:\n{done.stderr.strip()}" if done.returncode else ""
    except OSError as exc:  # no such compiler, or not executable
        failure = f"could not start: {exc}"
    if failure:
        os.unlink(tmp)
        raise BuildError(f"building the pursuit library failed: {shlex.join(command)} {failure}")
    # readable like the source, as bytecode is (the linker kept mkstemp's 0600)
    os.chmod(tmp, SOURCE.stat().st_mode & 0o777)
    os.replace(tmp, target)
    for stale in target.parent.glob("_pursuit-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target
