"""Acceptance suite: oracle- and property-based checks at fixed tolerances.

Each test prints one [PASS]/[FAIL] line (run with -s to see them all).
"""

import time

import numpy as np
import pytest

import oracles
from codes import records
from convmp.cli import main
from convmp.conv_mp import build_shift_gram, conv_mp_encode, correlate, greedy_steps
from convmp.core import SparseCode, TrainConfig, normalize_filters, reconstruct, residual_energy
from convmp.dict_learn import pca_top_component, train
from convmp.model_io import load_bank, save_image
from convmp.preprocess import contrast_normalize
from oracles import gram_matrix, mp_encode, mp_encode_gram, toeplitz_expand


def check(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def random_bank(rng, k, c, fh, fw):
    return normalize_filters(rng.normal(size=(k, c, fh, fw)))


def test_criterion_1_toeplitz_oracle_equivalence():
    rng = np.random.default_rng(201)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        h = int(rng.integers(8, 17))
        w = int(rng.integers(8, 17))
        k = int(rng.integers(1, 4))
        fh = int(rng.integers(2, 6))
        fw = int(rng.integers(2, 6))
        q = int(rng.integers(1, 11))
        bank = random_bank(rng, k, 1, fh, fw)
        image = rng.normal(size=(1, h, w))

        code = conv_mp_encode(bank, image, q)
        flat = mp_encode(toeplitz_expand(bank, (h, w)), image.ravel(), q)
        hv, wv = h - fh + 1, w - fw + 1
        expect = [(j // (hv * wv), (j % (hv * wv)) // wv, j % wv) for j, _ in flat.steps]
        got = [(a.filter_index, a.row, a.col) for a in records(code)]
        assert got == expect, "activation sequences differ"
        worst = max(
            worst,
            max(
                abs(a.coefficient - s[1])
                for a, s in zip(records(code), flat.steps)
            ),
        )
    elapsed = time.perf_counter() - start
    check(
        1,
        f"conv pursuit matches Toeplitz oracle on 25 instances "
        f"(worst coeff gap {worst:.2e}, {elapsed:.1f}s)",
        worst <= 1e-9 and elapsed < 10.0,
    )


def test_criterion_2_greedy_step_energy_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):  # patch pursuit runs
        d = int(rng.integers(4, 13))
        k = int(rng.integers(3, 17))
        atoms = rng.normal(size=(d, k))
        atoms /= np.sqrt(np.sum(atoms * atoms, axis=0))
        x = rng.normal(size=d)
        e0 = float(x @ x)
        resid, prev = x.copy(), e0
        for j, a in mp_encode(atoms, x, q=6).steps:
            resid -= a * atoms[:, j]
            now = float(resid @ resid)
            worst = max(worst, abs(now - (prev - a * a)) / e0)
            prev = now
    for _ in range(50):  # convolutional pursuit runs
        bank = random_bank(rng, int(rng.integers(1, 4)), 1, 3, 3)
        image = rng.normal(size=(1, 12, 12))
        code = conv_mp_encode(bank, image, q=8)
        e0 = float(np.sum(image * image))
        prev = e0
        acts = records(code)
        for n, act in enumerate(acts, start=1):
            now = residual_energy(image, SparseCode(1, 12, 12, acts[:n]), bank)
            worst = max(worst, abs(now - (prev - act.coefficient**2)) / e0)
            prev = now
    check(
        2,
        f"per-step energy drop equals coefficient^2 over 100 runs "
        f"(worst relative gap {worst:.2e})",
        worst <= 1e-8,
    )


def test_criterion_3_incremental_map_exactness():
    rng = np.random.default_rng(203)
    bank = random_bank(rng, 8, 1, 16, 16)
    table = build_shift_gram(bank)
    image = rng.normal(size=(1, 64, 64))
    maps = correlate(bank, image)
    residual = image.copy()
    worst = 0.0
    for _ in range(200):
        (act,) = records(greedy_steps(maps, table, max_steps=1))
        residual[
            :, act.row : act.row + 16, act.col : act.col + 16
        ] -= act.coefficient * bank[act.filter_index]
        worst = max(worst, float(np.max(np.abs(maps - correlate(bank, residual)))))
    check(
        3,
        f"maintained maps match recomputation after each of 200 steps "
        f"(worst abs gap {worst:.2e})",
        worst <= 1e-8,
    )


def gabor_filter(theta, phase):
    ys, xs = np.mgrid[0:8, 0:8] - 3.5
    xr = xs * np.cos(theta) + ys * np.sin(theta)
    yr = -xs * np.sin(theta) + ys * np.cos(theta)
    g = np.exp(-(xr**2 + yr**2) / (2 * 2.2**2)) * np.cos(2 * np.pi * 0.35 * xr + phase)
    return (g / np.sqrt(np.sum(g * g)))[None]


def exhaustive_shift_sign_correlation(truth, learned):
    """Oracle: direct search over every relative shift and both signs."""
    c, fh, fw = truth.shape
    best = 0.0
    for sr in range(-(fh - 1), fh):
        for sc in range(-(fw - 1), fw):
            total = 0.0
            for ch in range(c):
                for r in range(fh):
                    for col in range(fw):
                        r2, c2 = r - sr, col - sc
                        if 0 <= r2 < fh and 0 <= c2 < fw:
                            total += truth[ch, r, col] * learned[ch, r2, c2]
            best = max(best, abs(total))
    return best


def test_criterion_4_planted_dictionary_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    truth = np.stack(
        [gabor_filter(t * np.pi / 4, p) for t, p in [(0, 0), (1, np.pi / 2), (2, 0), (3, np.pi / 2)]]
    )
    sites = [(r, c) for r in range(0, 25, 8) for c in range(0, 25, 8)]
    images = []
    for _ in range(200):
        img = np.zeros((1, 32, 32))
        for _ in range(20):  # q=20 sparse placements per image
            r, c = sites[int(rng.integers(len(sites)))]
            r = min(24, max(0, r + int(rng.integers(-1, 2))))
            c = min(24, max(0, c + int(rng.integers(-1, 2))))
            j = int(rng.integers(4))
            coeff = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            img[:, r : r + 8, c : c + 8] += coeff * truth[j]
        img += rng.normal(0.0, 0.01, size=img.shape)
        images.append(img)

    bank, _ = train(images, TrainConfig(4, 8, 8, sparsity=20, epochs=20, seed=11))
    scores = [
        max(exhaustive_shift_sign_correlation(truth[t], bank[j]) for j in range(4))
        for t in range(4)
    ]
    elapsed = time.perf_counter() - start
    check(
        4,
        f"every planted filter recovered up to sign/shift, correlations "
        f"{['%.3f' % s for s in scores]} ({elapsed:.0f}s)",
        min(scores) >= 0.9 and elapsed < 300.0,
    )


def test_criterion_5_pursuit_cost_scales_linearly(capsys):
    assert main(
        ["bench", "--image", "64x64", "--k", "8", "--filter", "16x16",
         "--q", "50,100,200", "--repeat", "20", "--seed", "0"]
    ) == 0
    out = capsys.readouterr().out
    ratios = [
        float(line.rsplit(":", 1)[1]) for line in out.splitlines() if line.startswith("ratio ")
    ]
    per_step = [
        line.rsplit("=", 1)[1] for line in out.splitlines() if "per_step_ns" in line
    ]
    check(
        5,
        f"greedy-loop time per q-doubling grew by {ratios} "
        f"(per-step ns {per_step})",
        len(ratios) == 2 and all(1.5 <= r <= 2.5 for r in ratios),
    )


def test_criterion_6_gram_bookkeeping_equivalence(monkeypatch):
    calls = 0
    real = oracles._signal_correlations

    def counting(atoms, signal):
        nonlocal calls
        calls += 1
        return real(atoms, signal)

    monkeypatch.setattr(oracles, "_signal_correlations", counting)
    rng = np.random.default_rng(206)
    worst = 0.0
    single_product = True
    for _ in range(100):
        d = int(rng.integers(2, 17))
        k = int(rng.integers(2, 25))
        q = int(rng.integers(1, 9))
        atoms = rng.normal(size=(d, k))
        atoms /= np.sqrt(np.sum(atoms * atoms, axis=0))
        x = rng.normal(size=d)
        plain = mp_encode(atoms, x, q)
        calls = 0
        booked = mp_encode_gram(atoms, gram_matrix(atoms), x, q)
        single_product &= calls == 1
        assert [j for j, _ in plain.steps] == [j for j, _ in booked.steps]
        worst = max(worst, float(np.max(np.abs(plain.coefficients - booked.coefficients))))
    check(
        6,
        f"gram-bookkeeping pursuit matches plain pursuit on 100 instances "
        f"(worst gap {worst:.2e}, one correlation product per encode: {single_product})",
        worst <= 1e-10 and single_product,
    )


def test_criterion_7_preprocessing_exactness():
    rng = np.random.default_rng(207)
    constant_ok = all(
        np.all(contrast_normalize(np.full((1, 9, 11), v)) == 0.0) for v in (0.2, 0.5, 1.0)
    )
    img = np.zeros((1, 11, 11))
    img[0, 5, 5] = 1.0
    out = contrast_normalize(img)
    impulse_ok = (
        out[0, 5, 5] == 0.96
        and out[0, 4, 4] == -0.04
        and out[0, 3, 7] == -0.04
        and out[0, 5, 8] == 0.0
    )
    x = rng.random(size=(1, 12, 12))
    got = contrast_normalize(x)
    worst = 0.0
    for r in range(12):
        for c in range(12):
            total, n = 0.0, 0
            for rr in range(max(0, r - 2), min(12, r + 3)):
                for cc in range(max(0, c - 2), min(12, c + 3)):
                    total += x[0, rr, cc]
                    n += 1
            worst = max(worst, abs(got[0, r, c] - (x[0, r, c] - total / n)))
    check(
        7,
        f"contrast normalization exact on constants, 0.96/-0.04 on the impulse, "
        f"oracle gap {worst:.2e}",
        constant_ok and impulse_ok and worst <= 1e-12,
    )


def _write_synthetic_corpus(directory, n=32, size=64, seed=0):
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    base_y = np.linspace(0, 1, size)[None, :, None]
    base_x = np.linspace(0, 1, size)[None, None, :]
    for i in range(n):
        img = 0.5 + 0.25 * np.sin(8 * np.pi * (base_y * rng.random() + base_x * rng.random()))
        img += 0.2 * rng.random(size=(1, size, size))
        save_image(np.clip(img, 0.0, 1.0), directory / f"img{i:03d}.pgm")


@pytest.mark.parametrize(
    "name,layer1,layer2,pool,expect1,expect2",
    [
        ("faces-like", (8, "16x16"), (16, "4x4"), 8, (8, 1, 16, 16), (16, 8, 4, 4)),
        ("pascal-like", (8, "8x8"), (64, "4x4"), 8, (8, 1, 8, 8), (64, 8, 4, 4)),
    ],
)
def test_criterion_8_pipeline_shape_reproduction(tmp_path, name, layer1, layer2, pool, expect1, expect2):
    start = time.perf_counter()
    corpus = tmp_path / "corpus"
    _write_synthetic_corpus(corpus, n=32, size=64, seed=8)
    config = tmp_path / "pipeline.cfg"
    config.write_text(
        "image_size=64\n"
        f"pool={pool}\n"
        f"layer1.k={layer1[0]}\nlayer1.filter={layer1[1]}\nlayer1.q=40\nlayer1.epochs=2\n"
        f"layer2.k={layer2[0]}\nlayer2.filter={layer2[1]}\nlayer2.q=40\nlayer2.epochs=2\n"
    )
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"out_{run}"
        code = main(
            ["pipeline", "--corpus", str(corpus), "--config", str(config),
             "--out", str(out), "--seed", "3", "--threads", "2"]
        )
        assert code == 0
        outs.append(out)
    bank1 = load_bank(outs[0] / "layer1.bank")
    bank2 = load_bank(outs[0] / "layer2.bank")
    reproducible = (
        (outs[0] / "layer1.bank").read_bytes() == (outs[1] / "layer1.bank").read_bytes()
        and (outs[0] / "layer2.bank").read_bytes() == (outs[1] / "layer2.bank").read_bytes()
    )
    elapsed = time.perf_counter() - start
    check(
        8,
        f"{name} pipeline shapes {bank1.shape}/{bank2.shape}, bit-reproducible "
        f"under fixed seed ({elapsed:.0f}s)",
        bank1.shape == expect1
        and bank2.shape == expect2
        and reproducible
        and elapsed < 600.0,
    )


def test_criterion_9_reconstruction_energy_profile(tmp_path):
    rng = np.random.default_rng(209)
    corpus = tmp_path / "corpus"
    _write_synthetic_corpus(corpus, n=8, size=64, seed=9)
    pre = tmp_path / "pre"
    assert main(["preprocess", "--in", str(corpus), "--out", str(pre)]) == 0
    model = tmp_path / "model.bank"
    assert main(
        ["train", "--corpus", str(pre), "--out", str(model), "--k", "8",
         "--filter", "16x16", "--q", "40", "--epochs", "1", "--seed", "2",
         "--threads", "2"]
    ) == 0
    bank = load_bank(model)

    from convmp.model_io import load_float_image

    image = load_float_image(next(iter(sorted(pre.glob("*.f64")))))
    code = conv_mp_encode(bank, image, q=40)
    energies = [float(np.sum(image * image))]
    for n in range(1, len(code.activations) + 1):
        energies.append(
            residual_energy(image, SparseCode(1, 64, 64, code.activations[:n]), bank)
        )
    slack = 1e-12 * energies[0]
    monotone = all(b <= a + slack for a, b in zip(energies, energies[1:]))
    check(
        9,
        f"40-step encode of a normalized image: energy non-increasing each step, "
        f"{energies[0]:.4g} -> {energies[-1]:.4g}",
        monotone and len(code.activations) == 40 and energies[-1] < energies[0],
    )


def test_criterion_10_pca_against_dense_eigendecomposition():
    rng = np.random.default_rng(210)
    worst = 1.0
    for _ in range(50):
        c = int(rng.integers(1, 4))
        fh = int(rng.integers(2, 10))
        fw = int(rng.integers(2, 10))
        if c * fh * fw > 256:
            c = 1
        n = int(rng.integers(2, 40))
        patches = [rng.normal(size=(c, fh, fw)) for _ in range(n)]
        got = pca_top_component(patches).ravel()
        rows = np.stack([p.ravel() for p in patches])
        w, vecs = np.linalg.eigh(rows.T @ rows)
        top = vecs[:, np.argmax(w)]
        worst = min(worst, abs(float(got @ top)))
    check(
        10,
        f"power-iteration principal direction vs dense eigensolver on 50 sets "
        f"(worst alignment {worst:.10f})",
        worst >= 1 - 1e-8,
    )
