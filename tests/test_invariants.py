"""The matching pursuit invariants as properties over random shapes.

Hypothesis draws a bank and image shape (k, c, h_f, w_f, h, w), a step
budget q, a stopping tolerance and a data seed, with the parser fuzzers'
settings (derandomized, no example database). Sizes stay small: the largest
explicit dictionary is 432 x 243 floats, under 1 MB.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
# Importing the parser fuzzers also moves Hypothesis's storage out of the tree.
from test_parser_fuzz import FUZZ  # noqa: E402

from codes import records  # noqa: E402
from convmp import conv_mp  # noqa: E402
from convmp.conv_mp import build_shift_gram, conv_mp_encode, correlate, greedy_steps  # noqa: E402
from convmp.core import SparseCode, normalize_filters, reconstruct, residual_energy  # noqa: E402
from oracles import mp_encode, toeplitz_expand  # noqa: E402

PROPERTY = settings(FUZZ, max_examples=150)  # keeps the five properties near 2 s


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
    got = records(conv_mp_encode(bank, build_shift_gram(bank), image, q, tolerance))
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
    code = conv_mp_encode(bank, build_shift_gram(bank), image, q, tolerance)
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


@PROPERTY
@given(case=instances())
def test_cached_and_direct_argmax_agree_exactly(case):
    # Each path is forced the way test_conv_mp's path fixture forces it.
    runs = []
    for threshold in (float("inf"), float("-inf")):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conv_mp, "CACHE_MIN_SKIPPED", threshold)
            steps, maps = pursue(*case)
        runs.append((records(steps), maps))
    (direct, direct_maps), (cached, cached_maps) = runs
    assert direct == cached
    assert np.array_equal(direct_maps, cached_maps)


@PROPERTY
@given(case=instances())
def test_shift_table_is_reflection_symmetric(case):
    table = build_shift_gram(case[0])
    assert np.array_equal(table, table.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
