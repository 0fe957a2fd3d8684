import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoga as tg
from thermoga.errors import (
    DegenerateDisorderError,
    DimensionMismatchError,
    InvalidSizeError,
    SizeCapError,
)

CHAIN = tg.ModelKind.CHAIN
SK = tg.ModelKind.SK


def chain_params(mean=0.0, std=1.0):
    return tg.DisorderParams(mean, std, CHAIN)


def sk_params(mean=0.0, std=1.0):
    return tg.DisorderParams(mean, std, SK)


class TestDisorderSampling:
    def test_all_zero_couplings_rejected(self):
        with pytest.raises(DegenerateDisorderError):
            tg.DisorderParams(0.0, 0.0, CHAIN)

    def test_negative_std_rejected(self):
        with pytest.raises(DegenerateDisorderError):
            tg.DisorderParams(1.0, -0.5, CHAIN)

    def test_chain_too_small(self):
        with pytest.raises(InvalidSizeError):
            tg.sample_chain_disorder(1, chain_params(), 0)

    def test_chain_moments(self):
        d = tg.sample_chain_disorder(2001, chain_params(), 12345)
        assert d.bonds.size == 2000
        assert abs(d.bonds.mean()) < 0.05
        assert abs(d.bonds.var() - 1.0) < 0.05

    def test_chain_deterministic(self):
        a = tg.sample_chain_disorder(50, chain_params(), 7)
        b = tg.sample_chain_disorder(50, chain_params(), 7)
        assert np.array_equal(a.bonds, b.bonds)

    def test_sk_symmetric_zero_diagonal(self):
        d = tg.sample_sk_disorder(30, sk_params(), 3)
        assert np.array_equal(d.couplings, d.couplings.T)
        assert np.all(np.diagonal(d.couplings) == 0.0)

    def test_sk_variance(self):
        d = tg.sample_sk_disorder(500, sk_params(), 11)
        off = d.couplings[np.triu_indices(500, k=1)]
        assert abs(off.var() - 1.0) < 0.05

    def test_sk_deterministic(self):
        a = tg.sample_sk_disorder(20, sk_params(), 9)
        b = tg.sample_sk_disorder(20, sk_params(), 9)
        assert np.array_equal(a.couplings, b.couplings)

    def test_wrong_model_tag(self):
        with pytest.raises(ValueError):
            tg.sample_chain_disorder(5, sk_params(), 0)


class TestChainEnergy:
    def test_aligned_ferromagnet(self):
        d = tg.ChainDisorder(bonds=[1.0, 1.0])
        assert tg.energy_chain([1, 1, 1], d) == -2.0

    def test_cancelling_terms(self):
        d = tg.ChainDisorder(bonds=[1.0, -1.0])
        assert tg.energy_chain([1, -1, 1], d) == 0.0

    def test_reversed_summation_oracle(self):
        rng = np.random.default_rng(5)
        d = tg.sample_chain_disorder(10, chain_params(), 21)
        for _ in range(20):
            s = rng.integers(0, 2, 10) * 2 - 1
            naive = -sum((s[i] * s[i + 1] * d.bonds[i]) for i in reversed(range(9)))
            assert tg.energy_chain(s, d) == pytest.approx(naive, rel=1e-12)

    def test_length_mismatch(self):
        d = tg.sample_chain_disorder(10, chain_params(), 21)
        with pytest.raises(DimensionMismatchError):
            tg.energy_chain([1, -1], d)

    def test_global_flip_symmetry(self):
        rng = np.random.default_rng(6)
        d = tg.sample_chain_disorder(30, chain_params(), 8)
        for _ in range(10):
            s = rng.integers(0, 2, 30) * 2 - 1
            assert tg.energy_chain(s, d) == tg.energy_chain(-s, d)

    def test_single_flip_gauge_property(self):
        # flipping s_k changes the energy by twice the local bond terms
        rng = np.random.default_rng(13)
        d = tg.sample_chain_disorder(20, chain_params(), 31)
        s = rng.integers(0, 2, 20) * 2 - 1
        e0 = tg.energy_chain(s, d)
        for k in range(20):
            local = 0.0
            if k > 0:
                local += d.bonds[k - 1] * s[k - 1] * s[k]
            if k < 19:
                local += d.bonds[k] * s[k] * s[k + 1]
            flipped = s.copy()
            flipped[k] = -flipped[k]
            assert tg.energy_chain(flipped, d) - e0 == pytest.approx(2 * local, abs=1e-12)


class TestSKEnergy:
    def test_two_spin_hand_value(self):
        d = tg.SKDisorder(couplings=[[0.0, 1.0], [1.0, 0.0]])
        assert tg.sk_energies(np.array([[1, 1]]), d)[0] == -1.0

    def test_zero_couplings_zero_energy(self):
        d = tg.SKDisorder(couplings=np.zeros((4, 4)))
        assert tg.sk_energies(np.array([[1, -1, 1, -1]]), d)[0] == 0.0

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        d = tg.sample_sk_disorder(10, sk_params(), 17)
        for _ in range(10):
            s = rng.integers(0, 2, 10) * 2 - 1
            brute = 0.0
            for i in range(10):
                for j in range(10):
                    if i != j:
                        brute += d.couplings[i, j] * s[i] * s[j]
            assert tg.sk_energies(s[None], d)[0] == pytest.approx(-brute / 10, rel=1e-12)

    def test_halved_couplings_halve_the_energy_exactly(self):
        # the single-counted (i < j) SK sum is this halved instance; halving is
        # exact in floating point, so every energy is bit-equal to half the ordered one
        rng = np.random.default_rng(3)
        for n in (2, 8, 40):
            d = tg.sample_sk_disorder(n, sk_params(), 19)
            half = tg.SKDisorder(d.couplings / 2)
            members = rng.integers(0, 2, (16, n)) * 2 - 1
            assert np.array_equal(tg.sk_energies(members, half),
                                  0.5 * tg.sk_energies(members, d))

    def test_global_flip_symmetry(self):
        rng = np.random.default_rng(4)
        d = tg.sample_sk_disorder(12, sk_params(), 23)
        s = rng.integers(0, 2, 12) * 2 - 1
        assert tg.sk_energies(s[None], d)[0] == tg.sk_energies(-s[None], d)[0]

    def test_energy_scale_times_four_is_the_flip_scale(self):
        # multiplying by a power of two is exact, so 4 * scale is bit-equal to
        # the 4/N flip factor
        for n in range(2, 300):
            assert 4.0 * tg.SKDisorder(np.zeros((n, n))).energy_scale == 4.0 / n

    def test_asymmetric_matrix_rejected(self):
        c = np.zeros((3, 3))
        c[0, 1] = 1.0
        with pytest.raises(ValueError):
            tg.SKDisorder(couplings=c)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), rows=st.integers(1, 12),
           mean=st.sampled_from([0.0, 0.7, -1.5]), seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_double_sum(self, n, rows, mean, seed):
        d = tg.sample_sk_disorder(n, sk_params(mean, 1.0), seed)
        members = np.random.default_rng(seed).integers(0, 2, (rows, n), dtype=np.int8) * 2 - 1
        batch = tg.sk_energies(members, d)
        scale = 1.0 / n
        tol = 1e-12 * scale * np.abs(d.couplings).sum()   # relative to the largest |E|
        for k, s in enumerate(members):
            brute = -scale * math.fsum(d.couplings[i, j] * s[i] * s[j]
                                       for i in range(n) for j in range(n) if i != j)
            single = tg.sk_energies(s[None, :], d)[0]
            assert abs(batch[k] - brute) <= tol
            assert abs(single - brute) <= tol
            assert abs(batch[k] - single) <= tol


class TestChainGroundState:
    def test_hand_example(self):
        d = tg.ChainDisorder(bonds=[2.0, -3.0])
        energy, config = tg.chain_ground_state(d)
        assert energy == -5.0
        assert np.array_equal(config, [1, 1, -1])

    def test_ferromagnetic_limit(self):
        d = tg.ChainDisorder(bonds=np.ones(9))
        energy, config = tg.chain_ground_state(d)
        assert energy == -9.0
        assert np.all(config == 1)

    def test_reconstruction_consistency(self):
        d = tg.sample_chain_disorder(100, chain_params(), 77)
        energy, config = tg.chain_ground_state(d)
        assert tg.energy_chain(config, d) == energy

    def test_exhaustive_minimum_small_sizes(self):
        for inst in range(30):
            n = 8 + (inst % 3) * 2
            d = tg.sample_chain_disorder(
                n, chain_params(), np.random.SeedSequence(entropy=55, spawn_key=(inst,)))
            energy, _ = tg.chain_ground_state(d)
            energies = tg.enumerate_landscape(d)
            assert energy == energies.min()
            assert energy <= energies.max()


class TestLandscape:
    def test_two_spin_order(self):
        d = tg.ChainDisorder(bonds=[1.0])
        # entry k is the state labelled k + 1: ++, +-, -+, --
        assert np.array_equal(tg.enumerate_landscape(d), [-1.0, 1.0, 1.0, -1.0])

    def test_label_bijection_endpoints(self):
        states = tg.states_from_indices(np.array([1, 16]), 4)
        assert np.all(states[0] == 1)
        assert np.all(states[1] == -1)

    def test_length_is_power_of_two(self):
        d = tg.sample_sk_disorder(6, sk_params(), 1)
        energies = tg.enumerate_landscape(d)
        assert energies.shape == (64,)
        states = tg.states_from_indices(np.arange(1, 65), 6)
        assert np.array_equal(energies, tg.sk_energies(states, d))

    def test_size_cap(self):
        d = tg.ChainDisorder(bonds=np.ones(21))
        with pytest.raises(SizeCapError):
            tg.enumerate_landscape(d)


class TestGibbsWeights:
    TEMPERATURES = (1e-320, 1e-308, 1e-3, 0.5, 1.0, 7.0, 1e300, math.inf)

    def test_rows_sum_to_one(self):
        energies = np.random.default_rng(3).normal(0.0, 5.0, (4, 9))
        for T in self.TEMPERATURES:
            w = tg.gibbs_weights(energies, T)
            assert w.shape == energies.shape and np.all(w >= 0)
            assert w.sum(axis=-1) == pytest.approx(np.ones(4), rel=1e-14)

    def test_infinite_temperature_is_uniform(self):
        assert np.array_equal(tg.gibbs_weights(np.array([0.0, -3.0, 2.0, 5.0]), math.inf),
                              [0.25] * 4)

    def test_energy_shift_leaves_weights_unchanged(self):
        energies = np.random.default_rng(4).normal(0.0, 2.0, 16)
        for T in (0.3, 1.0, 5.0):
            for c in (-40.0, 3.5, 1e3):
                assert tg.gibbs_weights(energies + c, T) == pytest.approx(
                    tg.gibbs_weights(energies, T), rel=1e-9, abs=1e-300)

    def test_tiny_temperature_splits_weight_among_ground_states(self):
        w = tg.gibbs_weights(np.array([1.0, -2.0, 0.5, -2.0, -1.999]), 1e-308)
        assert np.array_equal(w, [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_silent_at_every_temperature(self):
        energies = np.random.default_rng(5).normal(0.0, 5.0, 64)
        with np.errstate(all="raise"):
            for T in self.TEMPERATURES:
                assert np.all(np.isfinite(tg.gibbs_weights(energies, T)))


def test_ground_state_density_convergence():
    # disorder-averaged ground state per spin approaches -sqrt(2/pi)
    params = chain_params()
    vals = [tg.chain_ground_state(tg.sample_chain_disorder(
        2000, params, np.random.SeedSequence(entropy=91, spawn_key=(k,))))[0] / 2000
        for k in range(12)]
    assert abs(np.mean(vals) - (-np.sqrt(2 / np.pi))) < 0.01
