import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoga as tg
from thermoga import analytic, experiment, mcmc
from thermoga.errors import DimensionMismatchError, DomainError, SizeCapError
from thermoga.mcmc import _walk

CHAIN_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
SK_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK)


class TestFlipCosts:
    def test_chain_costs_match_recomputation(self):
        rng = np.random.default_rng(0)
        d = tg.sample_chain_disorder(15, CHAIN_01, 10)
        s = rng.integers(0, 2, 15) * 2 - 1
        costs = tg.chain_flip_costs(s, d)
        e0 = tg.energy_chain(s, d)
        for k in range(15):
            flipped = s.copy()
            flipped[k] = -flipped[k]
            assert costs[k] == pytest.approx(tg.energy_chain(flipped, d) - e0, abs=1e-12)


class TestMetropolisSweep:
    def test_infinite_temperature_accepts_everything(self):
        # every proposal accepted means every spin flips exactly once
        d = tg.sample_chain_disorder(20, CHAIN_01, 3)
        s = np.ones(20, dtype=np.int8)
        out = tg.metropolis_sweep(s, d, 1e9, 4)
        assert np.array_equal(out, -s)
        dsk = tg.sample_sk_disorder(10, SK_01, 5)
        s = np.ones(10, dtype=np.int8)
        assert np.array_equal(tg.metropolis_sweep(s, dsk, 1e9, 6), -s)

    def test_ground_state_frozen_at_low_temperature(self):
        d = tg.sample_chain_disorder(30, CHAIN_01, 7)
        _, config = tg.chain_ground_state(d)
        s = config
        for k in range(10):
            s = tg.metropolis_sweep(s, d, 1e-6, 100 + k)
        assert np.array_equal(s, config)

    def test_input_not_mutated(self):
        d = tg.sample_chain_disorder(10, CHAIN_01, 8)
        s = np.ones(10, dtype=np.int8)
        before = s.copy()
        tg.metropolis_sweep(s, d, 2.0, 9)
        assert np.array_equal(s, before)

    def test_temperature_domain(self):
        d = tg.sample_chain_disorder(10, CHAIN_01, 8)
        with pytest.raises(DomainError):
            tg.metropolis_sweep(np.ones(10, dtype=np.int8), d, 0.0, 1)

    @pytest.mark.parametrize("n_spins", [5, 9, 11, 12])
    def test_wrong_length_is_a_dimension_error(self, n_spins):
        # unchecked, a short chain configuration would sweep a truncated chain silently
        for d in (tg.sample_chain_disorder(10, CHAIN_01, 8), tg.sample_sk_disorder(10, SK_01, 8)):
            with pytest.raises(DimensionMismatchError):
                tg.metropolis_sweep(np.ones(n_spins, dtype=np.int8), d, 1.0, 1)


@pytest.mark.parametrize("call", [
    lambda T: tg.metropolis_sweep(np.ones(10, dtype=np.int8),
                                  tg.sample_chain_disorder(10, CHAIN_01, 8), T, 1),
    lambda T: tg.estimate_internal_energy(tg.sample_chain_disorder(10, CHAIN_01, 8), T,
                                          tg.MCMCOptions(sweeps=20, burn_in=5, thinning=1,
                                                         chains=2), 1),
    lambda T: tg.exact_gibbs_expectation(tg.sample_sk_disorder(6, SK_01, 8), T),
    lambda T: analytic.chain_free_energy_density(T, CHAIN_01),
    lambda T: analytic.chain_internal_energy(T, CHAIN_01),
    lambda T: analytic.sk_rs_fixed_point(T, SK_01),
    lambda T: tg.RSOrderParams(m=0.0, q=0.0, temperature=T, residual=0.0, iterations=1),
    lambda T: experiment.McmcCurveConfig(name="c", n=10, disorder=CHAIN_01,
                                         temperatures=(T, 1.0), realizations=1,
                                         options=tg.MCMCOptions(), seed=1),
], ids=["metropolis_sweep", "estimate_internal_energy", "exact_gibbs_expectation",
        "chain_free_energy_density", "chain_internal_energy", "sk_rs_fixed_point",
        "RSOrderParams", "McmcCurveConfig"])
def test_nan_temperature_is_a_domain_error(call):
    with pytest.raises(DomainError, match="positive"):
        call(float("nan"))


class TestExactGibbs:
    def test_two_spin_closed_form(self):
        d = tg.ChainDisorder(bonds=[1.0])
        for T in (0.5, 1.0, 2.0):
            u, z = tg.exact_gibbs_expectation(d, T)
            assert u == pytest.approx(-np.tanh(1.0 / T), rel=1e-12)
            assert z == pytest.approx(4 * np.cosh(1.0 / T), rel=1e-12)

    def test_infinite_temperature_limits(self):
        d = tg.sample_sk_disorder(8, SK_01, 12)
        u, z = tg.exact_gibbs_expectation(d, 1e12)
        energies = tg.enumerate_landscape(d)
        assert u == pytest.approx(energies.mean(), abs=1e-9)
        assert z == pytest.approx(2**8, rel=1e-9)

    def test_size_cap(self):
        d = tg.ChainDisorder(bonds=np.ones(25))
        with pytest.raises(SizeCapError):
            tg.exact_gibbs_expectation(d, 1.0)

    @pytest.mark.parametrize("T", [1e-15, 1e-300, 1e-320])
    def test_tiny_temperature_gives_the_ground_energy(self, T):
        # this instance has two ground states: U is their energy, not twice it, and never nan
        d = tg.sample_chain_disorder(12, CHAIN_01, 1)
        u, _ = tg.exact_gibbs_expectation(d, T)
        assert u == pytest.approx(tg.chain_ground_state(d)[0], rel=1e-12)

    def test_low_temperature_is_silent(self):
        d = tg.sample_chain_disorder(12, CHAIN_01, 1)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            u, z = tg.exact_gibbs_expectation(d, 1e-3)
        assert u == pytest.approx(tg.chain_ground_state(d)[0], rel=1e-12)
        assert z == math.inf


class TestEstimator:
    def test_matches_exact_small_instances(self):
        opts = tg.MCMCOptions(sweeps=2500, burn_in=400, thinning=3, chains=12)
        for inst in range(3):
            d = tg.sample_chain_disorder(
                10, CHAIN_01, np.random.SeedSequence(entropy=21, spawn_key=(inst,)))
            est, se = tg.estimate_internal_energy(d, 1.0, opts, 1000 + inst)
            exact, _ = tg.exact_gibbs_expectation(d, 1.0)
            assert abs(est - exact) < 3 * se
        for inst in range(3):
            d = tg.sample_sk_disorder(
                10, SK_01, np.random.SeedSequence(entropy=22, spawn_key=(inst,)))
            est, se = tg.estimate_internal_energy(d, 1.0, opts, 2000 + inst)
            exact, _ = tg.exact_gibbs_expectation(d, 1.0)
            assert abs(est - exact) < 3 * se

    def test_paramagnetic_limit(self):
        d = tg.sample_chain_disorder(200, CHAIN_01, 30)
        opts = tg.MCMCOptions(sweeps=800, burn_in=100, thinning=2, chains=6)
        est, se = tg.estimate_internal_energy(d, 1e8, opts, 31)
        assert abs(est) < max(5 * se, 1.0)

    def test_seed_sequence_is_not_advanced(self):
        # the walkers are the children `spawn` gives a fresh copy of the sequence,
        # so one SeedSequence object gives the same estimate on every call
        d = tg.sample_chain_disorder(12, CHAIN_01, 5)
        opts = tg.MCMCOptions(sweeps=300, burn_in=50, thinning=3, chains=4)
        ss = np.random.SeedSequence(7, spawn_key=(0, 1))
        first = tg.estimate_internal_energy(d, 1.0, opts, ss)
        assert tg.estimate_internal_energy(d, 1.0, opts, ss) == first
        assert ss.n_children_spawned == 0
        assert first == serial_estimate(d, 1.0, opts, np.random.SeedSequence(7, spawn_key=(0, 1)))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            tg.MCMCOptions(sweeps=100, burn_in=100, thinning=1, chains=1)


def test_detailed_balance_two_spin_histogram():
    # empirical visit frequencies of all 4 states match the exact Gibbs weights
    d = tg.ChainDisorder(bonds=[0.8])
    T = 1.0
    energies = tg.enumerate_landscape(d)
    weights = np.exp(-energies / T)
    probs = weights / weights.sum()

    rng = np.random.default_rng(77)
    s = np.ones((1, 2), dtype=np.int8)
    counts = np.zeros(4)
    n_samples = 60_000
    for k in range(n_samples * 2):
        _walk(s, d, T, [rng], 1)
        if k % 2:
            idx = (0 if s[0, 0] == 1 else 2) + (0 if s[0, 1] == 1 else 1)
            counts[idx] += 1
    freqs = counts / n_samples
    for p_hat, p in zip(freqs, probs):
        se = np.sqrt(p * (1 - p) / n_samples)
        # thinned samples still carry some autocorrelation; allow 3 sigma x 2
        assert abs(p_hat - p) < 6 * se


def test_self_averaging_dispersion_shrinks_with_size():
    opts = tg.MCMCOptions(sweeps=600, burn_in=150, thinning=3, chains=2)
    spreads = []
    for n in (100, 400, 1600):
        densities = []
        for inst in range(8):
            d = tg.sample_chain_disorder(
                n, CHAIN_01, np.random.SeedSequence(entropy=40 + n, spawn_key=(inst,)))
            est, _ = tg.estimate_internal_energy(d, 1.0, opts,
                                                 np.random.SeedSequence(entropy=41, spawn_key=(n, inst)))
            densities.append(est / n)
        spreads.append(np.std(densities, ddof=1))
    assert spreads[0] > spreads[1] > spreads[2]


# ---------------------------------------------------------------------------
# batched walkers against the one-walker-at-a-time sampler they replaced

def _serial_chain_sweep(s, d, T, rng):
    u = rng.random(s.size)
    for parity in (0, 1):
        costs = tg.chain_flip_costs(s, d)[parity::2]
        accept = u[parity::2] < np.exp(-np.maximum(costs, 0.0) / T)
        sub = s[parity::2]
        sub[accept] = -sub[accept]


def _serial_sk_sweep(s, d, T, rng, h, two_c):
    u = rng.random(s.size)
    for k in range(s.size):
        cost = two_c * s[k] * h[k]
        if cost <= 0.0 or u[k] < math.exp(-cost / T):
            old = s[k]
            s[k] = -old
            h -= (2.0 * old) * d.couplings[:, k]


def _serial_chain_mean(d, T, opts, rng):
    n = d.n
    sk_state = None
    if isinstance(d, tg.SKDisorder):
        s = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
        sk_state = (d.couplings @ s.astype(np.float64), 4.0 / n)
    elif T <= 20.0:
        s = tg.chain_ground_state(d)[1].copy()
    else:
        s = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    total, count = 0.0, 0
    for sweep in range(opts.sweeps):
        if sk_state is None:
            _serial_chain_sweep(s, d, T, rng)
        else:
            _serial_sk_sweep(s, d, T, rng, sk_state[0], sk_state[1])
        if sweep >= opts.burn_in and (sweep - opts.burn_in) % opts.thinning == 0:
            if sk_state is None:
                total += float(tg.chain_energies(s[None, :], d)[0])
            else:
                total += float(tg.sk_energies(s[None, :], d)[0])
            count += 1
    return total / count


def serial_estimate(d, T, opts, seed):
    """The per-chain loop `estimate_internal_energy` ran before walkers were batched."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    means = np.asarray([_serial_chain_mean(d, T, opts, np.random.default_rng(child))
                        for child in ss.spawn(opts.chains)])
    if opts.chains == 1:
        return float(means[0]), 0.0
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(opts.chains))


def _disorder(kind, n, seed):
    if kind == "chain":
        return tg.sample_chain_disorder(n, CHAIN_01, seed)
    return tg.sample_sk_disorder(n, SK_01, seed)


def _assert_matches_serial(d, got, ref):
    if isinstance(d, tg.ChainDisorder):
        assert got == ref
    else:
        # relative to the value, or to the energy scale sum|J|/N when the value is near 0
        scale = np.abs(d.couplings).sum() / d.n
        for g, r in zip(got, ref):
            assert abs(g - r) <= 1e-12 * max(abs(r), scale), (got, ref)


class TestBatchedWalkers:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["chain", "sk"]),
           n=st.integers(2, 9),
           T=st.sampled_from([0.05, 0.4, 1.0, 3.0, 25.0, 1e3]),
           chains=st.integers(1, 5),
           burn_in=st.integers(1, 12),
           extra=st.integers(1, 30),
           thinning=st.integers(1, 4),
           budget=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_serial_reference(self, kind, n, T, chains, burn_in, extra, thinning,
                                      budget, seed):
        # `budget` shrinks the uniform block to a few sweeps, so runs end mid-block
        # and burn-in crosses block boundaries
        d = _disorder(kind, n, seed)
        opts = tg.MCMCOptions(sweeps=burn_in + extra, burn_in=burn_in, thinning=thinning,
                              chains=chains)
        with mock.patch.object(mcmc, "_UNIFORM_DOUBLES", budget):
            got = tg.estimate_internal_energy(d, T, opts, seed + 1)
        _assert_matches_serial(d, got, serial_estimate(d, T, opts, seed + 1))
        if chains == 1:
            assert got[1] == 0.0

    @pytest.mark.parametrize("kind", ["chain", "sk"])
    def test_block_boundaries_at_criterion_four_shape(self, kind):
        # 4 walkers x 5 spins with a 60-double budget: blocks of 3 sweeps, 41 sweeps in
        # all (not a multiple), burn-in 7 ending inside the third block
        d = _disorder(kind, 5, 17)
        opts = tg.MCMCOptions(sweeps=41, burn_in=7, thinning=2, chains=4)
        ref = serial_estimate(d, 0.8, opts, 18)
        with mock.patch.object(mcmc, "_UNIFORM_DOUBLES", 60):
            _assert_matches_serial(d, tg.estimate_internal_energy(d, 0.8, opts, 18), ref)
        _assert_matches_serial(d, tg.estimate_internal_energy(d, 0.8, opts, 18), ref)

    def test_hot_chain_starts_at_random(self):
        d = _disorder("chain", 30, 19)
        opts = tg.MCMCOptions(sweeps=40, burn_in=5, thinning=1, chains=3)
        got = tg.estimate_internal_energy(d, 50.0, opts, 20)
        assert got == serial_estimate(d, 50.0, opts, 20)
        cold = tg.estimate_internal_energy(d, 20.0, tg.MCMCOptions(2, 1, 1, 3), 20)
        assert cold == serial_estimate(d, 20.0, tg.MCMCOptions(2, 1, 1, 3), 20)

    # explicit ids keep the test names stable for anyone selecting them by name
    @pytest.mark.parametrize("kind", ["chain", "sk"], ids=["chain-None", "sk-ordered"])
    @pytest.mark.parametrize("walkers", [1, 4])
    def test_batch_reproduces_metropolis_sweep(self, kind, walkers):
        d = _disorder(kind, 11, 23)
        seeds = [np.random.SeedSequence(24, spawn_key=(w,)) for w in range(walkers)]
        s = np.random.default_rng(25).integers(0, 2, size=(walkers, 11), dtype=np.int8) * 2 - 1
        expected = [tg.metropolis_sweep(row, d, 0.7, seed) for row, seed in zip(s, seeds)]
        _walk(s, d, 0.7, [np.random.default_rng(seed) for seed in seeds], 1)
        assert np.array_equal(s, np.stack(expected))

    @pytest.mark.parametrize("kind", ["chain", "sk"])
    def test_metropolis_sweep_matches_serial_sweep(self, kind):
        d = _disorder(kind, 13, 26)
        s = np.random.default_rng(27).integers(0, 2, size=13, dtype=np.int8) * 2 - 1
        for k in range(20):
            ref = s.copy()
            if kind == "chain":
                _serial_chain_sweep(ref, d, 0.6, np.random.default_rng(k))
            else:
                h = d.couplings @ ref.astype(np.float64)
                _serial_sk_sweep(ref, d, 0.6, np.random.default_rng(k), h, 4.0 / 13)
            s = tg.metropolis_sweep(s, d, 0.6, k)
            assert np.array_equal(s, ref)

    @pytest.mark.parametrize("kind", ["chain", "sk"])
    def test_near_zero_temperature_raises_no_floating_point_error(self, kind):
        d = _disorder(kind, 16, 28)
        s = np.random.default_rng(29).integers(0, 2, size=16, dtype=np.int8) * 2 - 1
        with np.errstate(all="raise"):
            for k in range(5):
                s = tg.metropolis_sweep(s, d, 1e-6, 30 + k)
            est, se = tg.estimate_internal_energy(d, 1e-6, tg.MCMCOptions(20, 5, 1, 3), 31)
        assert np.isfinite(est) and np.isfinite(se)
