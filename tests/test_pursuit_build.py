"""The compiled kernels' build: on first use, into the package's
__pycache__ or a per-user cache, safe under racing processes, and a clear
error when no compiler runs.

The cold-build tests run `convmp encode` in child processes on a copy of
the package that has no built library yet.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import convmp
from convmp import _native
from convmp.cli import main
from codes import records
from convmp.conv_mp import build_shift_gram, correlate, greedy_steps
from convmp.core import DataError, SparseCode, normalize_filters
from convmp.dict_learn import pca_top_component
from convmp.model_io import save_bank, save_code, save_float_image
from oracles import oracle_greedy_steps

Q = 40


@pytest.fixture
def inputs(tmp_path):
    """A bank and an image on disk, and the code file the oracle gives for them."""
    rng = np.random.default_rng(60)
    bank = normalize_filters(rng.normal(size=(4, 1, 5, 5)))
    image = rng.normal(size=(1, 40, 36))
    save_bank(bank, tmp_path / "model.bank")
    save_float_image(image, tmp_path / "image.f64")
    steps = oracle_greedy_steps(correlate(bank, image), build_shift_gram(bank), Q)
    save_code(SparseCode(*image.shape, steps), tmp_path / "oracle.code")
    return tmp_path


def encode_argv(directory, out):
    return ["encode", "--model", str(directory / "model.bank"), "--image",
            str(directory / "image.f64"), "--q", str(Q), "--out", str(directory / out)]


def fresh_package(directory):
    """A copy of the convmp sources with no __pycache__, so no built library."""
    shutil.copytree(Path(convmp.__file__).parent, directory / "src" / "convmp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return directory / "src" / "convmp"


def start_encode(directory, out):
    """`convmp encode` of the inputs in a child process on the fresh package."""
    env = {**os.environ, "PYTHONPATH": str(directory / "src"),
           "XDG_CACHE_HOME": str(directory / "user-cache")}
    code = "import sys; from convmp.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.Popen([sys.executable, "-c", code, *encode_argv(directory, out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(child):
    _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err


def test_importing_the_cli_builds_nothing_and_loads_no_build_tools(tmp_path):
    package = fresh_package(tmp_path)
    script = ("import sys, convmp.cli; "
              "print(*sorted({'hashlib', 'shlex', 'subprocess', 'sysconfig'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"
    assert list(package.glob("__pycache__/_native-*")) == []


def test_the_first_encode_builds_the_library_and_gives_the_oracles_bytes(inputs):
    package = fresh_package(inputs)
    (package / "__pycache__").mkdir()
    stale = package / "__pycache__" / "_native-00000000.so"
    stale.write_bytes(b"an earlier build")
    finish(start_encode(inputs, "first.code"))
    assert (inputs / "first.code").read_bytes() == (inputs / "oracle.code").read_bytes()
    # the new build replaced the one of another hash; nothing else was written
    (library,) = (package / "__pycache__").glob("*.so")
    assert library.name.startswith("_native-") and library.name != stale.name
    assert not (inputs / "user-cache").exists()


def test_two_processes_racing_a_cold_build_both_succeed(inputs):
    package = fresh_package(inputs)
    children = [start_encode(inputs, f"race{i}.code") for i in range(2)]
    for child in children:
        finish(child)
    for i in range(2):
        assert (inputs / f"race{i}.code").read_bytes() == (inputs / "oracle.code").read_bytes()
    assert [path.suffix for path in (package / "__pycache__").glob("_native-*")] == [".so"]


@pytest.fixture
def rebuild(tmp_path, monkeypatch):
    """Forget the loaded library before and after the test, so the test's
    loader settings take effect and later tests load the usual one again;
    the per-user cache is one under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "user-cache"))
    _native.library.cache_clear()
    yield
    _native.library.cache_clear()


def test_a_missing_compiler_is_a_named_error_without_a_traceback(
    inputs, rebuild, monkeypatch, capsys
):
    # a copy of the package has no build of its own, so the encode builds one
    package = fresh_package(inputs)
    monkeypatch.setattr(_native, "SOURCE", package / "_native.c")
    (package / "__pycache__").mkdir()
    other = package / "__pycache__" / "_native-00000000.so"
    other.write_bytes(b"an earlier build")
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "convmp-no-such-compiler -O0"
                        if name == "CC" else config_var(name))
    assert main(encode_argv(inputs, "failed.code")) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: building the native library failed: "
                          "convmp-no-such-compiler -O0 -O3 -fPIC -shared -ffp-contract=off ")
    assert "could not start" in err
    assert "Traceback" not in err
    assert not (inputs / "failed.code").exists()
    # a failed build leaves no file behind and removes no other build
    assert list((package / "__pycache__").glob("_native-*")) == [other]


def test_a_compiler_error_quotes_the_compilers_stderr(tmp_path, rebuild, monkeypatch):
    source = tmp_path / "_native.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(_native, "SOURCE", source)
    with pytest.raises(_native.BuildError, match=r"(?s)exited [1-9].*this is not C"):
        _native.library()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["__pycache__", "_native.c"]
    assert list((tmp_path / "__pycache__").iterdir()) == []


def test_an_unwritable_package_builds_into_a_private_user_cache(tmp_path, rebuild, monkeypatch):
    package = fresh_package(tmp_path)
    monkeypatch.setattr(_native, "SOURCE", package / "_native.c")
    access = os.access

    def no_writes_in_the_package(path, mode):
        # the tests may run as root, which may write anywhere, so the
        # package directory is made unwritable by answering for it
        return Path(path).parent != package and access(path, mode)

    monkeypatch.setattr(os, "access", no_writes_in_the_package)
    library = _native._library()
    assert library.parent == tmp_path / "user-cache" / "convmp"
    assert library.parent.stat().st_mode & 0o777 == 0o700
    assert _native._library() == library  # found, not rebuilt
    assert not (package / "__pycache__").exists() or not any((package / "__pycache__").iterdir())


def test_a_cached_library_that_does_not_load_is_rebuilt(tmp_path, rebuild, monkeypatch):
    package = fresh_package(tmp_path)
    monkeypatch.setattr(_native, "SOURCE", package / "_native.c")
    library = _native._library()
    library.write_bytes(b"\x7fE")  # cut short: dlopen says "file too short"
    rng = np.random.default_rng(61)
    bank = normalize_filters(rng.normal(size=(3, 1, 4, 4)))
    maps, table = correlate(bank, rng.normal(size=(1, 20, 24))), build_shift_gram(bank)
    want_maps = maps.copy()
    want = oracle_greedy_steps(want_maps, table, Q)
    assert records(greedy_steps(maps, table, Q)) == want
    assert np.array_equal(maps, want_maps)
    assert list((package / "__pycache__").glob("_native-*")) == [library]
    assert library.stat().st_size > 2


def test_a_rebuilt_library_that_still_does_not_load_is_a_build_error(tmp_path, rebuild,
                                                                      monkeypatch):
    # -c makes an object file, which builds but does not load
    package = fresh_package(tmp_path)
    monkeypatch.setattr(_native, "SOURCE", package / "_native.c")
    monkeypatch.setattr(_native, "FLAGS", ("-O3", "-fPIC", "-c", "-ffp-contract=off"))
    with pytest.raises(_native.BuildError, match="rebuilt native library does not load"):
        _native.library()


def test_the_portable_loop_without_sse2_gives_the_oracles_steps(tmp_path, rebuild, monkeypatch):
    # on x86-64 the loop takes two lanes at a time; -U__SSE2__ builds the
    # scalar loops that other targets run
    package = fresh_package(tmp_path)
    monkeypatch.setattr(_native, "SOURCE", package / "_native.c")
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-U__SSE2__"))
    rng = np.random.default_rng(62)
    bank = normalize_filters(rng.normal(size=(5, 2, 4, 3)))
    table = build_shift_gram(bank)
    for maps in (correlate(bank, rng.normal(size=(2, 41, 37))),
                 rng.integers(-1, 2, size=(5, 38, 35)).astype(float)):
        want_maps = maps.copy()
        want = oracle_greedy_steps(want_maps, table, 3 * Q)
        assert records(greedy_steps(maps, table, 3 * Q)) == want
        assert maps.tobytes() == want_maps.tobytes()
    with pytest.raises(DataError, match="NaN or an infinity"):
        greedy_steps(np.full((5, 9, 9), np.nan), table, Q)


def test_the_baseline_and_scalar_power_iterations_give_the_dispatched_bits(tmp_path, rebuild,
                                                                           monkeypatch):
    # the usual build runs the AVX-512F build of the loop where the CPU has
    # it; -DCONVMP_NO_AVX512F leaves only the baseline build (two-lane SSE2
    # on x86-64), and -fno-tree-vectorize makes that one lane at a time. Sets
    # with a dim of 8 or more, and not a multiple of 8, run whole lanes and a
    # tail; power gathers every row alone, so the row counts, 1 to 300, only
    # vary how many gathers a step makes.
    rng = np.random.default_rng(63)
    sets = [rng.normal(size=shape) for shape in
            [(1, 1), (3, 7), (9, 13), (17, 128), (40, 256), (300, 61), (25, 8)]]
    prev = [None, None, rng.normal(size=13), None, rng.normal(size=256), None, None]
    dispatched = [pca_top_component(rows, p).tobytes() for rows, p in zip(sets, prev)]
    package = fresh_package(tmp_path)
    monkeypatch.setattr(_native, "SOURCE", package / "_native.c")
    usual = _native.FLAGS
    for flags in (("-DCONVMP_NO_AVX512F",), ("-DCONVMP_NO_AVX512F", "-fno-tree-vectorize")):
        monkeypatch.setattr(_native, "FLAGS", (*usual, *flags))
        _native.library.cache_clear()
        assert [pca_top_component(rows, p).tobytes() for rows, p in zip(sets, prev)] == dispatched
