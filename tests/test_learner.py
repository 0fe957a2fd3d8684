import numpy as np
import pytest

import thermoga as tg
from thermoga import learner
from thermoga.errors import DimensionMismatchError, DomainError, UnbracketableError

CHAIN_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
SK_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK)


class TestLearnerStep:
    def test_stationary_when_energies_match(self):
        state = tg.LearnerState(temperature=1.5, learning_rate=0.1)
        out = tg.learner_step(state, -3.0, -3.0)
        assert out.temperature == state.temperature
        assert out.generation == 1

    def test_cooling_direction(self):
        # population colder than the model: U(T) - u_ga > 0 lowers T
        state = tg.LearnerState(temperature=2.0, learning_rate=0.01)
        out = tg.learner_step(state, -10.0, -5.0)
        assert out.temperature < 2.0

    def test_heating_direction(self):
        state = tg.LearnerState(temperature=2.0, learning_rate=0.01)
        out = tg.learner_step(state, -2.0, -5.0)
        assert out.temperature > 2.0

    def test_zero_learning_rate_identity(self):
        state = tg.LearnerState(temperature=3.0, learning_rate=0.0)
        out = tg.learner_step(state, 100.0, -5.0)
        assert out.temperature == 3.0

    def test_floor_clamp_under_adversarial_input(self):
        state = tg.LearnerState(temperature=1.0, learning_rate=1.0)
        out = tg.learner_step(state, -1e12, 0.0)
        assert out.temperature == learner.T_FLOOR == 1e-6
        out2 = tg.learner_step(out, -1e12, 0.0)
        assert out2.temperature >= learner.T_FLOOR

    def test_start_below_floor_rejected(self):
        tg.LearnerState(temperature=learner.T_FLOOR)
        with pytest.raises(ValueError):
            tg.LearnerState(temperature=0.5 * learner.T_FLOOR)

    def test_descent_direction_sign(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = float(rng.uniform(0.1, 5))
            u_model = float(rng.normal(0, 10))
            u_pop = float(rng.normal(0, 10))
            state = tg.LearnerState(temperature=t, learning_rate=1e-4)
            out = tg.learner_step(state, u_pop, u_model)
            if out.temperature > learner.T_FLOOR:
                assert np.sign(out.temperature - t) == -np.sign(u_model - u_pop) or u_model == u_pop

    def test_nonfinite_input_rejected(self):
        state = tg.LearnerState(temperature=1.0)
        with pytest.raises(DomainError):
            tg.learner_step(state, float("nan"), 0.0)


class TestMatchTemperature:
    def test_inverts_forward_map(self):
        oracle = tg.analytic_chain_oracle(500, CHAIN_01)
        target = oracle.energy(1.0)
        assert tg.match_temperature(target, oracle, (0.05, 8.0)) == pytest.approx(1.0, abs=1e-6)

    def test_unbracketable_below_ground(self):
        oracle = tg.analytic_chain_oracle(500, CHAIN_01)
        too_low = 500 * (-np.sqrt(2 / np.pi)) * 1.01
        with pytest.raises(UnbracketableError):
            tg.match_temperature(too_low, oracle, (0.05, 8.0))

    def test_reversed_bracket_rejected(self):
        oracle = tg.analytic_chain_oracle(500, CHAIN_01)
        with pytest.raises(DomainError):
            tg.match_temperature(-100.0, oracle, (8.0, 0.05))

    def test_decreasing_oracle_rejected(self):
        oracle = tg.EnergyOracle(evaluator=lambda T: -T)
        with pytest.raises(DomainError):
            tg.match_temperature(-1.0, oracle, (0.5, 2.0))


def test_learner_converges_to_matched_temperature():
    # small constant-rate steps relax T to the root of U(T) = u_ga
    n = 100
    oracle = tg.analytic_chain_oracle(n, CHAIN_01)
    u_target = oracle.energy(1.0)
    t_star = tg.match_temperature(u_target, oracle, (0.1, 5.0))
    state = tg.LearnerState(temperature=1.4, learning_rate=1e-3)
    for _ in range(800):
        state = tg.learner_step(state, u_target, oracle.energy(state.temperature))
    assert abs(state.temperature - t_star) < 1e-3


class TestDisorderAverage:
    def test_identical_runs(self):
        runs = [np.array([1.0, 2.0, 3.0])] * 4
        mean, err = tg.disorder_averaged_trajectory(runs)
        assert np.array_equal(mean, [1.0, 2.0, 3.0])
        assert np.array_equal(err, [0.0, 0.0, 0.0])

    def test_two_constant_runs(self):
        mean, err = tg.disorder_averaged_trajectory([np.ones(5), 3 * np.ones(5)])
        assert np.all(mean == 2.0)
        assert np.allclose(err, 1.0 / np.sqrt(2) * np.sqrt(2))  # sd=sqrt(2), /sqrt(2)

    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            tg.disorder_averaged_trajectory([np.ones(5), np.ones(6)])

    def test_stderr_shrinks_like_root_replicas(self):
        rng = np.random.default_rng(3)
        runs = [rng.normal(0, 1, 50) for _ in range(20)]
        _, err5 = tg.disorder_averaged_trajectory(runs[:5])
        _, err20 = tg.disorder_averaged_trajectory(runs)
        # pooled: err ~ sd / sqrt(R); ratio of means over windows ~ 2
        assert np.mean(err5) / np.mean(err20) == pytest.approx(2.0, rel=0.35)


class TestOracleFactories:
    def test_analytic_chain_shares_code_path(self):
        oracle = tg.analytic_chain_oracle(321, CHAIN_01)
        assert oracle.energy(1.3) == 321 * tg.chain_internal_energy(1.3, CHAIN_01)

    def test_enumeration_oracle(self):
        d = tg.sample_chain_disorder(8, CHAIN_01, 5)
        oracle = tg.enumeration_oracle(d)
        assert oracle.energy(1.0) == tg.exact_gibbs_expectation(d, 1.0)[0]

    def test_analytic_sk_oracle_matches_direct_solve(self):
        oracle = tg.analytic_sk_oracle(100, SK_01)
        direct = 100 * tg.sk_internal_energy_density(
            2.0, SK_01, tg.sk_rs_fixed_point(2.0, SK_01))
        assert oracle.energy(2.0) == pytest.approx(direct, abs=1e-9)
        # warm start across calls stays consistent
        assert oracle.energy(1.8) == pytest.approx(
            100 * tg.sk_internal_energy_density(1.8, SK_01, tg.sk_rs_fixed_point(1.8, SK_01)),
            abs=1e-9)

    def test_mcmc_oracle_deterministic(self):
        d = tg.sample_chain_disorder(30, CHAIN_01, 6)
        opts = tg.MCMCOptions(sweeps=200, burn_in=50, thinning=2, chains=2)
        oracle = tg.mcmc_oracle(d, opts, 7)
        assert oracle.energy(1.0) == oracle.energy(1.0)
