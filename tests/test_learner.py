import numpy as np
import pytest

import thermoga as tg
from thermoga import learner
from thermoga.errors import DimensionMismatchError, DomainError

CHAIN_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
SK_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK)


class TestLearnerStep:
    def test_stationary_when_energies_match(self):
        assert tg.learner_step(1.5, 0.1, -3.0, -3.0) == 1.5

    def test_cooling_direction(self):
        # population colder than the model: U(T) - u_ga > 0 lowers T
        assert tg.learner_step(2.0, 0.01, -10.0, -5.0) < 2.0

    def test_heating_direction(self):
        assert tg.learner_step(2.0, 0.01, -2.0, -5.0) > 2.0

    def test_zero_learning_rate_identity(self):
        assert tg.learner_step(3.0, 0.0, 100.0, -5.0) == 3.0

    def test_floor_clamp_under_adversarial_input(self):
        t = tg.learner_step(1.0, 1.0, -1e12, 0.0)
        assert t == learner.T_FLOOR == 1e-6
        assert tg.learner_step(t, 1.0, -1e12, 0.0) >= learner.T_FLOOR

    def test_descent_direction_sign(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = float(rng.uniform(0.1, 5))
            u_model = float(rng.normal(0, 10))
            u_pop = float(rng.normal(0, 10))
            out = tg.learner_step(t, 1e-4, u_pop, u_model)
            if out > learner.T_FLOOR:
                assert np.sign(out - t) == -np.sign(u_model - u_pop) or u_model == u_pop

    def test_nonfinite_input_rejected(self):
        with pytest.raises(DomainError):
            tg.learner_step(1.0, 1e-3, float("nan"), 0.0)

    @pytest.mark.parametrize("t, eta, u_ga, u_model", [
        (float("inf"), 1e-3, -2.0, -1.0),    # inf - inf
        (2.0, float("inf"), -1.0, -1.0),     # inf * 0
    ])
    def test_nan_update_rejected_not_floored(self, t, eta, u_ga, u_model):
        # max(T_FLOOR, nan) is T_FLOOR: a NaN must not pass for a cold schedule
        with pytest.raises(DomainError, match="NaN"):
            tg.learner_step(t, eta, u_ga, u_model)


class TestLearnSchedule:
    U_GA = np.array([7.0, -20.0, -25.0, -31.5, -30.0, -40.25])

    @staticmethod
    def counting_oracle(calls):
        oracle = tg.analytic_chain_oracle(50, CHAIN_01)
        return tg.EnergyOracle(evaluator=lambda T: calls.append(T) or oracle.energy(T))

    def test_matches_a_hand_loop_bit_for_bit(self):
        oracle = tg.analytic_sk_oracle(40, SK_01)
        temperature, u_model = tg.learn_schedule(self.U_GA, 3.0, 2e-3, oracle)
        hand = tg.analytic_sk_oracle(40, SK_01)
        t, u = 3.0, hand.energy(3.0)
        want_t, want_u = [t], [u]
        for u_ga in self.U_GA[1:]:
            t = tg.learner_step(t, 2e-3, float(u_ga), u)
            u = hand.energy(t)
            want_t.append(t)
            want_u.append(u)
        assert np.array_equal(temperature, want_t)
        assert np.array_equal(u_model, want_u)

    def test_one_oracle_call_per_entry(self):
        calls = []
        temperature, _ = tg.learn_schedule(self.U_GA, 3.0, 2e-3, self.counting_oracle(calls))
        assert calls == list(temperature)

    def test_zero_learning_rate_keeps_t0(self):
        temperature, u_model = tg.learn_schedule(self.U_GA, 3.0, 0.0, self.counting_oracle([]))
        assert np.all(temperature == 3.0)
        assert np.all(u_model == u_model[0])

    def test_non_finite_energy_raises(self):
        u_ga = self.U_GA.copy()
        u_ga[3] = float("nan")
        with pytest.raises(DomainError, match="finite"):
            tg.learn_schedule(u_ga, 3.0, 2e-3, self.counting_oracle([]))
        with pytest.raises(DomainError, match="not finite"):
            tg.learn_schedule(self.U_GA, 3.0, 2e-3,
                              tg.EnergyOracle(evaluator=lambda T: float("inf")))


def test_learner_converges_to_matched_temperature():
    # small constant-rate steps relax T to the root of U(T) = u_ga, here T = 1
    n = 100
    oracle = tg.analytic_chain_oracle(n, CHAIN_01)
    u_target = oracle.energy(1.0)
    t = 1.4
    for _ in range(800):
        t = tg.learner_step(t, 1e-3, u_target, oracle.energy(t))
    assert abs(t - 1.0) < 1e-3


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

    def test_analytic_sk_oracle_matches_direct_solve(self):
        oracle = tg.analytic_sk_oracle(100, SK_01)
        for T in (2.0, 1.8, 0.5):
            assert oracle.energy(T) == 100 * tg.sk_internal_energy_density(
                T, SK_01, tg.sk_rs_fixed_point(T, SK_01))

    @pytest.mark.parametrize("j0", [0.0, 2.0])
    def test_analytic_sk_oracle_is_a_function_of_t_alone(self, j0):
        params = tg.DisorderParams(j0, 1.0, tg.ModelKind.SK)
        fresh = tg.analytic_sk_oracle(100, params).energy(0.5)
        asked_before = tg.analytic_sk_oracle(100, params)
        asked_before.energy(0.7)
        asked_before.energy(0.3)
        assert asked_before.energy(0.5) == fresh

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_energy_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="not finite"):
            tg.EnergyOracle(evaluator=lambda T: value).energy(1.0)
