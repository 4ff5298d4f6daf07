"""The matching pursuit invariants as properties over random shapes.

Hypothesis draws a bank and image shape (k, c, h_f, w_f, h, w), a step
budget q, a stopping tolerance and a data seed, with the parser fuzzers'
settings (derandomized, no example database). Sizes stay small: the largest
explicit dictionary is 432 x 243 floats, under 1 MB. The C pursuit loop is
checked against its numpy oracle on larger maps too, up to 16 x 249 x 249,
and the C power iteration of the filter refit against two numpy oracles:
one to a tolerance, and one that emulates its lanes bit for bit. The C
reconstruct, collect and repair of the filter sweep are checked byte for
byte against the numpy they replaced.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
# Importing the parser fuzzers also moves Hypothesis's storage out of the tree.
from test_parser_fuzz import FUZZ  # noqa: E402

from blas_threads import lines_at_1_and_2_blas_threads  # noqa: E402
from codes import records  # noqa: E402
from convmp.conv_mp import (  # noqa: E402
    build_shift_gram, conv_mp_encode, correlate, greedy_steps, prepare_bank,
)
from convmp.core import SparseCode, normalize_filters, reconstruct, residual_energy  # noqa: E402
from convmp._native import POWER_CONVERGED, library  # noqa: E402
from convmp.dict_learn import (  # noqa: E402
    _PCA_MAX_ITER, _PCA_TOL, _pca_start, collect_activated_patches, filter_windows,
    pca_top_component,
)
from oracles import (  # noqa: E402
    collect_bits, mp_encode, oracle_greedy_steps, power_bits, power_iteration,
    reconstruct_bits, repair_bits, toeplitz_expand,
)

PROPERTY = settings(FUZZ, max_examples=150)  # keeps the four small properties near 2 s


@st.composite
def instances(draw, channels=st.integers(1, 3)):
    """(bank, image, q, tolerance): a unit-norm k x c x h_f x w_f bank and a
    c x h x w image of standard normal samples, with h and w at most 8 past
    the filter."""
    k, c = draw(st.integers(1, 3)), draw(channels)
    fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(fh, fh + 8)), draw(st.integers(fw, fw + 8))
    q = draw(st.integers(1, 12))
    tolerance = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = normalize_filters(rng.normal(size=(k, c, fh, fw)))
    return bank, rng.normal(size=(c, h, w)), q, tolerance


def pursue(bank, image, q, tolerance):
    """greedy_steps from the image's correlation maps: (steps, final maps)."""
    maps = correlate(bank, image)
    return greedy_steps(maps, build_shift_gram(bank), q, tolerance), maps


@PROPERTY
@given(case=instances(channels=st.integers(2, 3)))
def test_multichannel_pursuit_matches_the_toeplitz_oracle(case):
    # Once the oracle's step is below the rounding floor, the picks are among
    # rounding noise, so from there on only the coefficients are compared.
    bank, image, q, tolerance = case
    _, _, fh, fw = bank.shape
    _, h, w = image.shape
    wv = w - fw + 1
    got = records(conv_mp_encode(bank, image, q, tolerance))
    want = mp_encode(toeplitz_expand(bank, (h, w)), image.ravel(), q).steps
    floor = 1e-6 * np.linalg.norm(image)
    for act, (column, a) in zip(got, want):
        assert abs(act.coefficient - a) <= 1e-9
        if abs(a) > floor:
            j, pos = divmod(column, (h - fh + 1) * wv)
            assert (act.filter_index, act.row, act.col) == (j, *divmod(pos, wv))
    if len(got) < q:  # stopped at the tolerance, where the oracle's next step is
        assert abs(want[len(got)][1]) <= tolerance + 1e-9


@PROPERTY
@given(case=instances())
def test_energy_drops_by_the_squared_coefficients(case):
    bank, image, q, tolerance = case
    code = conv_mp_encode(bank, image, q, tolerance)
    initial = float(np.sum(image * image))
    drop = float(np.sum(code.activations["coefficient"] ** 2))
    assert abs(initial - drop - residual_energy(image, code, bank)) <= 1e-8 * initial


@PROPERTY
@given(case=instances())
def test_maintained_maps_equal_a_fresh_correlation(case):
    bank, image, q, tolerance = case
    steps, maps = pursue(bank, image, q, tolerance)
    residual = image - reconstruct(SparseCode(*image.shape, steps), bank)
    assert np.max(np.abs(maps - correlate(bank, residual))) <= 1e-8


@st.composite
def pursuits(draw):
    """(maps, table, q, tolerance) for greedy_steps and its oracle, in the
    layouts greedy_steps is given.

    The maps are a unit-norm bank's correlations of a normal image, with its
    shift table, at one of five geometries: small; wide, up to 256x256
    images and 16 filters of 8x8 (encode256's shape); tall and thin; 1x1
    filters on images down to 1x1 (the maps oracles.mp_encode_gram makes);
    and layer 2's 16 filters of 8 channels. Or they are -v, 0 and v, with a
    table of -1, 0 and 1, dense or sparse, whose centre diagonal is 1, so
    exact ties keep arising. On top: maybe all zeros, maybe up to four planted
    peaks of one magnitude, each at a new position, at the last one's
    position in another filter, or a tile side or two away from it in any
    filter, so ties arise across filters at one position and across tiles;
    and a tolerance from zero to the largest magnitude. The maps come in
    correlate's own layout (filter-innermost, updated where they lie), C or
    Fortran order, a strided view or a transposed copy, and the table as
    build_shift_gram's filter-innermost view or in C order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["small", "wide", "tall", "1x1", "layer2", "integer"]))
    if kind == "integer":
        k, hv, wv = draw(st.integers(1, 4)), draw(st.integers(1, 80)), draw(st.integers(1, 80))
        fh, fw = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        maps = rng.integers(-1, 2, size=(k, hv, wv)) * draw(st.sampled_from([1.0, 4.0]))
        shape, density = (k, k, 2 * fh - 1, 2 * fw - 1), draw(st.sampled_from([0.05, 0.2, 1.0]))
        table = (rng.integers(-1, 2, size=shape) * (rng.random(shape) < density)).astype(float)
        table[range(k), range(k), fh - 1, fw - 1] = 1.0
    else:
        k, c, fh, fw, extra_h, extra_w = {
            "small": (3, 3, 5, 5, 12, 12),
            "wide": (16, 1, 8, 8, 248, 248),
            "tall": (4, 2, 6, 3, 300, 3),
            "1x1": (16, 8, 1, 1, 6, 6),
            "layer2": (16, 8, 4, 4, 6, 6),
        }[kind]
        # each limit itself half the time, so the largest shapes do come up
        k, c, fh, fw, extra_h, extra_w = (
            draw(st.integers(least, most) | st.just(most))
            for least, most in zip((1, 1, 1, 1, 0, 0), (k, c, fh, fw, extra_h, extra_w))
        )
        h, w = fh + extra_h, fw + extra_w
        bank = normalize_filters(rng.normal(size=(k, c, fh, fw)))
        maps, table = correlate(bank, rng.normal(size=(c, h, w))), build_shift_gram(bank)
    if draw(st.booleans()) and draw(st.booleans()):
        maps[...] = 0.0
    peak = float(np.abs(maps).max()) + 1.0
    where = None
    for _ in range(draw(st.integers(0, 4))):
        move = draw(st.sampled_from(["new", "same", (0, 8), (4, 0), (-4, 8), (8, -16)]))
        if where is None or move == "new":
            where = tuple(int(rng.integers(n)) for n in maps.shape)
        else:
            dr, dc = (0, 0) if move == "same" else move
            _, hv, wv = maps.shape
            where = (int(rng.integers(maps.shape[0])), min(max(where[1] + dr, 0), hv - 1),
                     min(max(where[2] + dc, 0), wv - 1))
        maps[where] = peak * draw(st.sampled_from([1.0, -1.0]))
    tolerance = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])) * float(np.abs(maps).max())
    maps = in_layout(maps, draw(st.sampled_from(["correlate", "C", "F", "strided", "transposed"])))
    if draw(st.booleans()):
        table = np.ascontiguousarray(table.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    else:
        table = np.ascontiguousarray(table)
    return maps, table, draw(st.integers(1, 60)), tolerance


def in_layout(maps, layout):
    """A copy of maps in the given memory layout."""
    if layout == "correlate":
        return np.ascontiguousarray(maps.transpose(1, 2, 0)).transpose(2, 0, 1)
    if layout == "C":
        return np.ascontiguousarray(maps)
    if layout == "F":
        return np.asfortranarray(maps)
    if layout == "strided":
        storage = np.zeros((*maps.shape[:2], 2 * maps.shape[2]))
        storage[:, :, ::2] = maps
        return storage[:, :, ::2]
    return maps.transpose(0, 2, 1).copy().transpose(0, 2, 1)


@settings(FUZZ, max_examples=100)
@given(case=pursuits())
def test_greedy_steps_matches_the_oracle_bit_for_bit(case):
    maps, table, q, tolerance = case
    want_maps = maps.copy()
    want = oracle_greedy_steps(want_maps, table, q, tolerance)
    assert records(greedy_steps(maps, table, q, tolerance)) == want
    assert maps.tobytes() == want_maps.tobytes()


def test_greedy_steps_matches_the_oracle_at_1_and_2_blas_threads():
    # the maps come from correlate, so each child draws them at its own count
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_invariants\n"
        "test_invariants.test_greedy_steps_matches_the_oracle_bit_for_bit()\n"
        "print('matched')\n"
    )
    assert lines_at_1_and_2_blas_threads(script) == [["matched"], ["matched"]]


@PROPERTY
@given(case=instances())
def test_shift_table_is_reflection_symmetric(case):
    table = build_shift_gram(case[0])
    assert np.array_equal(table, table.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


@PROPERTY
@given(n=st.integers(1, 60), dim=st.integers(1, 70), scale=st.integers(-30, 30),
       with_prev=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_compiled_power_iteration_matches_the_numpy_oracle(n, dim, scale, with_prev, seed):
    # standard normal rows times a power of two, with the first column
    # stretched so the top direction stands clear of the next one
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim)) * 2.0**scale
    rows[:, 0] *= 1.5
    prev = rng.normal(size=dim) if with_prev else None
    want, converged = power_iteration(rows, prev)
    assert converged
    got = pca_top_component(rows, prev=prev)
    assert float(got @ want) >= 1 - 1e-8  # aligned, and the same sign
    assert abs(float(got @ got) - 1.0) <= 1e-12


@PROPERTY
@example(n=3, dim=5, scale=0, seed=0)  # a few rows, a dim below one lane block of 8
@example(n=4, dim=8, scale=0, seed=1)  # one whole lane block and no entries past it
@example(n=203, dim=139, scale=0, seed=2)  # many rows, 3 entries past the last lane block
@given(n=st.integers(1, 300), dim=st.integers(1, 139), scale=st.integers(-30, 30),
       seed=st.integers(0, 2**32 - 1))
def test_the_compiled_power_iteration_has_the_bits_of_its_emulation(n, dim, scale, seed):
    # the first column stretched 4x: a clear top direction keeps the steps to tens
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, dim)) * 2.0**scale
    rows[:, 0] *= 4.0
    start = _pca_start(dim)
    status, want, steps = power_bits(rows, start, _PCA_MAX_ITER, _PCA_TOL)
    assert status == POWER_CONVERGED
    v, y, iterations = start.copy(), np.empty(dim), ctypes.c_ssize_t()
    got = library().power(rows.ctypes.data, n, dim, v.ctypes.data, y.ctypes.data,
                          _PCA_MAX_ITER, _PCA_TOL, ctypes.byref(iterations))
    assert (got, iterations.value) == (status, steps)
    assert v.tobytes() == want.tobytes()
    # pca_top_component runs power from the same start, then makes the first nonzero entry positive
    first = want[np.flatnonzero(want)[0]]
    assert pca_top_component(rows).tobytes() == (-want if first < 0 else want).tobytes()


@st.composite
def sweeps(draw):
    """(bank, images, codes, rng) for the filter sweep's kernels: a unit-norm
    k x c x h_f x w_f bank whose last filter has no windows, and 2-4 normal
    images of two shapes in turn, each with up to 14 activations whose
    corners lie on a 3x3 grid at most, so one filter's windows repeat and
    overlap and a sample sums three or more terms."""
    k, c = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(fh, fh + 4)), draw(st.integers(fw, fw + 4))
    shapes = [(c, h, w), (c, h + draw(st.integers(1, 3)), w)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = normalize_filters(rng.normal(size=(k, c, fh, fw)))
    images, codes = [], []
    for i in range(draw(st.integers(2, 4))):
        shape = shapes[i % 2]
        rows, cols = min(3, shape[1] - fh + 1), min(3, shape[2] - fw + 1)
        acts = [(int(rng.integers(k - 1)), int(rng.integers(rows)), int(rng.integers(cols)),
                 float(rng.normal())) for _ in range(draw(st.integers(0, 14)))]
        images.append(rng.normal(size=shape))
        codes.append(SparseCode(*shape, acts))
    return bank, images, codes, rng


@PROPERTY
@given(case=sweeps())
def test_the_sweep_kernels_have_the_bits_of_the_numpy_they_replaced(case):
    # reconstruct against one np.bincount, from the bank and from the
    # prepared bank where it lies; then per filter, collect against the
    # numpy gather and repair against np.add.at and np.subtract.at
    bank, images, codes, rng = case
    k, c, fh, fw = bank.shape
    prepared = prepare_bank(bank)
    residuals = []
    for image, code in zip(images, codes):
        want = reconstruct_bits(code, bank).tobytes()
        assert reconstruct(code, bank).tobytes() == want
        assert reconstruct(code, prepared).tobytes() == want
        residuals.append((image - reconstruct(code, bank)).ravel())
    flat = np.concatenate(residuals)
    oracle = flat.copy()
    for j, (windows, coefs) in enumerate(filter_windows(codes, k, fh, fw)):
        assert j < k - 1 or len(windows) == 0
        patches = collect_activated_patches(flat, windows, coefs, bank[j])
        assert patches.tobytes() == collect_bits(oracle, windows, coefs, bank[j]).tobytes()
        proj, new = rng.normal(size=len(windows)), rng.normal(size=(c, fh, fw))
        assert library().repair(
            flat.ctypes.data, flat.size, windows.ctypes.data, len(windows), c, fh, fw,
            coefs.ctypes.data, bank[j].ctypes.data, proj.ctypes.data, new.ctypes.data) == 0
        repair_bits(oracle, windows, coefs, bank[j], proj, new)
        assert flat.tobytes() == oracle.tobytes()
