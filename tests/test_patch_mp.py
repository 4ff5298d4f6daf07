import numpy as np
import pytest

import oracles
from oracles import gram_matrix, mp_encode, mp_encode_gram


def unit_columns(rng, d, k):
    atoms = rng.normal(size=(d, k))
    return atoms / np.sqrt(np.sum(atoms * atoms, axis=0))


def greedy_oracle(atoms, x, q):
    """Scan every atom at every step with plain Python loops."""
    e = [float(v) for v in x]
    steps = []
    for _ in range(q):
        best_j, best_mag, best_val = 0, -1.0, 0.0
        for j in range(atoms.shape[1]):
            corr = sum(atoms[i, j] * e[i] for i in range(len(e)))
            if abs(corr) > best_mag:
                best_j, best_mag, best_val = j, abs(corr), corr
        for i in range(len(e)):
            e[i] -= best_val * atoms[i, best_j]
        steps.append((best_j, best_val))
    return steps, e


class TestMpEncode:
    def test_orthonormal_basis_single_step(self):
        code = mp_encode(np.eye(2), np.array([3.0, 0.0]), q=1)
        np.testing.assert_array_equal(code.coefficients, [3.0, 0.0])
        np.testing.assert_array_equal(code.residual, [0.0, 0.0])
        assert code.steps == [(0, 3.0)]

    def test_signal_equal_to_an_atom(self):
        atoms = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
        code = mp_encode(atoms, np.array([0.6, 0.8]), q=1)
        assert code.steps[0][0] == 2
        assert code.steps[0][1] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(code.residual, 0.0, atol=1e-15)

    def test_tie_breaks_to_lowest_index(self):
        code = mp_encode(np.eye(2), np.array([1.0, 1.0]), q=2)
        assert [j for j, _ in code.steps] == [0, 1]
        np.testing.assert_array_equal(code.coefficients, [1.0, 1.0])
        np.testing.assert_array_equal(code.residual, [0.0, 0.0])

    def test_matches_exhaustive_greedy_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            atoms = unit_columns(rng, 6, 10)
            x = rng.normal(size=6)
            code = mp_encode(atoms, x, q=4)
            steps, resid = greedy_oracle(atoms, x, 4)
            assert [j for j, _ in code.steps] == [j for j, _ in steps]
            np.testing.assert_allclose(
                [a for _, a in code.steps], [a for _, a in steps], rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(code.residual, resid, rtol=0, atol=1e-10)

    def test_coefficients_accumulate_reselected_atoms(self):
        rng = np.random.default_rng(11)
        atoms = unit_columns(rng, 4, 3)
        code = mp_encode(atoms, rng.normal(size=4), q=12)
        accum = np.zeros(3)
        for j, a in code.steps:
            accum[j] += a
        np.testing.assert_allclose(code.coefficients, accum, rtol=0, atol=1e-12)

    def test_rejects_bad_q_and_dims(self):
        with pytest.raises(ValueError, match="q"):
            mp_encode(np.eye(2), np.zeros(2), q=0)
        with pytest.raises(ValueError, match="signal"):
            mp_encode(np.eye(2), np.zeros(3), q=1)
        with pytest.raises(ValueError, match="norm"):
            mp_encode(2 * np.eye(2), np.zeros(2), q=1)


class TestGramMatrix:
    def test_identity_dictionary(self):
        np.testing.assert_array_equal(gram_matrix(np.eye(3)), np.eye(3))

    def test_two_identical_atoms(self):
        atom = np.array([0.6, 0.8])
        g = gram_matrix(np.stack([atom, atom], axis=1))
        np.testing.assert_allclose(g, 1.0, rtol=0, atol=1e-15)

    def test_matches_direct_pairwise_products(self):
        rng = np.random.default_rng(12)
        atoms = unit_columns(rng, 7, 5)
        g = gram_matrix(atoms)
        for i in range(5):
            for j in range(5):
                direct = float(np.dot(atoms[:, i], atoms[:, j]))
                assert abs(g[i, j] - direct) <= 1e-12
        np.testing.assert_allclose(g, g.T, rtol=0, atol=1e-12)


class TestMpEncodeGram:
    def test_single_step_identical_to_plain(self):
        rng = np.random.default_rng(13)
        atoms = unit_columns(rng, 5, 8)
        x = rng.normal(size=5)
        plain = mp_encode(atoms, x, q=1)
        booked = mp_encode_gram(atoms, gram_matrix(atoms), x, q=1)
        assert booked.steps == plain.steps
        assert booked.residual is None

    def test_hundred_random_instances_match_plain(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 17))
            k = int(rng.integers(2, 25))
            q = int(rng.integers(1, 9))
            atoms = unit_columns(rng, d, k)
            x = rng.normal(size=d)
            plain = mp_encode(atoms, x, q)
            booked = mp_encode_gram(atoms, gram_matrix(atoms), x, q)
            assert [j for j, _ in booked.steps] == [j for j, _ in plain.steps]
            worst = max(
                worst,
                float(np.max(np.abs(booked.coefficients - plain.coefficients))),
            )
        assert worst <= 1e-10

    def test_zero_signal_stops_without_steps(self):
        atoms = unit_columns(np.random.default_rng(18), 4, 6)
        booked = mp_encode_gram(atoms, gram_matrix(atoms), np.zeros(4), q=3)
        assert booked.steps == []
        np.testing.assert_array_equal(booked.coefficients, np.zeros(6))

    def test_rejects_mismatched_gram(self):
        atoms = np.eye(3)
        with pytest.raises(ValueError, match="gram"):
            mp_encode_gram(atoms, np.eye(2), np.zeros(3), q=1)


class TestPursuitInvariants:
    def test_energy_identity_per_step(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            atoms = unit_columns(rng, 8, 12)
            x = rng.normal(size=8)
            e0 = float(x @ x)
            prev, resid = e0, x.copy()
            for j, a in mp_encode(atoms, x, q=6).steps:
                resid -= a * atoms[:, j]
                now = float(resid @ resid)
                assert abs(now - (prev - a * a)) <= 1e-8 * e0
                assert now <= prev + 1e-8 * e0
                prev = now

    def test_correlation_annihilated_after_selection(self):
        rng = np.random.default_rng(16)
        atoms = unit_columns(rng, 8, 12)
        x = rng.normal(size=8)
        resid = x.copy()
        for j, a in mp_encode(atoms, x, q=10).steps:
            resid -= a * atoms[:, j]
            assert abs(float(atoms[:, j] @ resid)) <= 1e-10

    def test_gram_variant_correlates_signal_once(self, monkeypatch):
        calls = 0
        real = oracles._signal_correlations

        def counting(atoms, signal):
            nonlocal calls
            calls += 1
            return real(atoms, signal)

        monkeypatch.setattr(oracles, "_signal_correlations", counting)
        rng = np.random.default_rng(17)
        atoms = unit_columns(rng, 6, 9)
        mp_encode_gram(atoms, gram_matrix(atoms), rng.normal(size=6), q=5)
        assert calls == 1
