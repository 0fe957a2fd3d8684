import numpy as np
import pytest

import thermoga as tg
from thermoga.errors import (
    DomainError,
    InsufficientDataError,
    OracleInconsistencyError,
    SizeCapError,
)


def power_series(exponent, amplitude=1.0, t_max=10_000, noise=0.0, seed=0):
    t = np.arange(1.0, t_max + 1.0)
    v = amplitude * t ** (-exponent)
    if noise:
        rng = np.random.default_rng(seed)
        v = v * np.exp(rng.normal(0.0, noise, t.size))
    return tg.TimeSeries(t, v)


class TestTimeSeries:
    def test_requires_increasing_positive_times(self):
        with pytest.raises(DomainError):
            tg.TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            tg.TimeSeries(np.array([2.0, 1.0]), np.array([1.0, 1.0]))

    def test_requires_finite_values(self):
        with pytest.raises(DomainError):
            tg.TimeSeries(np.array([1.0, 2.0]), np.array([1.0, np.inf]))


class TestResidualSeries:
    def test_constant_at_ground(self):
        series = tg.TimeSeries(np.arange(1.0, 6.0), np.full(5, -7.0))
        out = tg.residual_energy_series(series, -7.0)
        assert np.all(out.values == 0.0)

    def test_hand_values(self):
        series = tg.TimeSeries(np.array([1.0, 2.0]), np.array([-3.0, -4.5]))
        out = tg.residual_energy_series(series, -5.0)
        assert np.array_equal(out.values, [2.0, 0.5])

    def test_below_ground_raises(self):
        series = tg.TimeSeries(np.array([1.0, 2.0]), np.array([-3.0, -5.1]))
        with pytest.raises(OracleInconsistencyError):
            tg.residual_energy_series(series, -5.0)

    def test_ga_run_residual_nonnegative(self):
        params = tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
        d = tg.sample_chain_disorder(60, params, 4)
        model = tg.chain_evaluator(d)
        gp = tg.GAParams(population_size=30, genome_length=60)
        pop = tg.init_population(gp, model, 5)
        blocks_model = tg.replica_evaluator([d])
        best = []
        rng = np.random.default_rng(6)
        for t in range(40):
            if t % tg.DRAW_BLOCK == 0:
                draws = tg.draw_generations([rng], gp)
            pop = tg.step_generation(pop, gp, blocks_model, draws[t % tg.DRAW_BLOCK])
            best.append(pop.energies.min())
        ground, _ = tg.chain_ground_state(d)
        out = tg.residual_energy_series(tg.TimeSeries(np.arange(1.0, 41.0), np.array(best)), ground)
        assert np.all(out.values >= 0.0)


class TestPowerLawFit:
    def test_exact_recovery(self):
        fit = tg.fit_power_law(power_series(0.5))
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)
        assert fit.r_squared > 1 - 1e-9

    def test_noisy_recovery(self):
        fit = tg.fit_power_law(power_series(1.2, amplitude=3.0, noise=0.01, seed=12))
        assert fit.exponent == pytest.approx(1.2, abs=0.02)

    def test_constant_series(self):
        t = np.arange(1.0, 101.0)
        fit = tg.fit_power_law(tg.TimeSeries(t, np.full(100, 2.5)))
        assert fit.exponent == pytest.approx(0.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(2.5, rel=1e-9)

    def test_scale_equivariance(self):
        base = power_series(0.7, noise=0.02, seed=3)
        fit1 = tg.fit_power_law(base)
        fit2 = tg.fit_power_law(tg.TimeSeries(base.times, 10.0 * base.values))
        assert fit2.exponent == pytest.approx(fit1.exponent, abs=1e-12)
        assert fit2.amplitude == pytest.approx(10.0 * fit1.amplitude, rel=1e-9)

    def test_window_restriction(self):
        series = power_series(0.5, t_max=1000)
        fit = tg.fit_power_law(series, (100.0, 1000.0))
        assert fit.window == (100.0, 1000.0)

    def test_too_few_points(self):
        series = power_series(0.5, t_max=50)
        with pytest.raises(InsufficientDataError):
            tg.fit_power_law(series, (45.0, 50.0))

    def test_nonpositive_values_rejected(self):
        t = np.arange(1.0, 21.0)
        v = np.ones(20)
        v[5] = 0.0
        with pytest.raises(DomainError):
            tg.fit_power_law(tg.TimeSeries(t, v))


class TestCrossover:
    def test_pure_power_law_gives_none(self):
        assert tg.detect_crossover(power_series(0.6, t_max=500)) is None

    def test_piecewise_recovery(self):
        t = np.arange(1.0, 2001.0)
        v = np.where(t <= 100.0, t ** -0.3, 100.0 ** (0.9 - 0.3) * t ** -0.9)
        out = tg.detect_crossover(tg.TimeSeries(t, v))
        assert out is not None
        assert 100.0 / 1.5 <= out.t_break <= 100.0 * 1.5
        assert out.exponent_early == pytest.approx(0.3, abs=0.05)
        assert out.exponent_late == pytest.approx(0.9, abs=0.05)

    def test_false_positive_rate_under_null(self):
        hits = 0
        for trial in range(60):
            series = power_series(0.8, t_max=200, noise=0.01, seed=1000 + trial)
            hits += tg.detect_crossover(series) is not None
        assert hits / 60 < 0.05

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            tg.detect_crossover(power_series(0.5, t_max=30))


def random_holland_system(rng, k=8):
    g = rng.normal(0.0, 1.0, k)
    size = int(rng.integers(1, k - 1))
    members = rng.choice(k, size=size, replace=False)
    return tg.HollandSystem(fitness=g, schema_members=members)


class TestHolland:
    def test_equal_fitness_stationary(self):
        sys = tg.HollandSystem(fitness=np.array([1.0, 1.0]), schema_members=np.array([0]))
        for t in (0.5, 1.0, 5.0):
            assert tg.holland_residual(sys, t) == 0.0

    def test_linear_schedule_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sys = random_holland_system(rng)
            for t in (0.5, 1.0, 5.0):
                assert tg.holland_residual(sys, t, "linear") <= 1e-12

    def test_power_schedule_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sys = random_holland_system(rng)
            for xi in (0.5, 0.7, 1.3):
                for t in (0.5, 1.0, 5.0):
                    assert tg.holland_residual(sys, t, "power", xi) <= 1e-12

    def test_linear_equals_power_with_unit_exponent(self):
        rng = np.random.default_rng(9)
        sys = random_holland_system(rng)
        for t in (0.5, 2.0):
            assert tg.holland_residual(sys, t, "linear") == tg.holland_residual(sys, t, "power", 1.0)

    def test_distribution_normalized(self):
        rng = np.random.default_rng(10)
        sys = random_holland_system(rng, k=64)
        for t in (0.5, 1.0, 5.0):
            p = tg.holland_distribution(sys, t, "power", 0.7)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_huge_beta_puts_all_weight_on_the_fittest(self):
        sys = tg.HollandSystem(fitness=np.array([0.3, -1.0, 2.5, 2.4, 0.0]),
                               schema_members=np.array([2]))
        p = tg.holland_distribution(sys, 1e308)
        assert np.array_equal(p, [0.0, 0.0, 1.0, 0.0, 0.0])
        assert tg.holland_residual(sys, 1e308) == 0.0

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(10):
            sys = random_holland_system(rng, k=16)
            members = sys.schema_members
            for schedule, xi in (("linear", None), ("power", 0.7), ("power", 1.3)):
                for t in (0.5, 1.0, 5.0):
                    p_hi = tg.holland_distribution(sys, t + h, schedule, xi)
                    p_lo = tg.holland_distribution(sys, t - h, schedule, xi)
                    fd = (p_hi[members].sum() - p_lo[members].sum()) / (2 * h)
                    p = tg.holland_distribution(sys, t, schedule, xi)
                    g = sys.fitness
                    from thermoga.analysis import _schedule_beta_rate
                    _, rate = _schedule_beta_rate(t, schedule, xi)
                    analytic = rate * float(np.sum(p[members] * g[members]
                                                   - p[members] * (p @ g)))
                    assert abs(analytic - fd) < 1e-6

    def test_schema_must_be_strict_subset(self):
        with pytest.raises(DomainError):
            tg.HollandSystem(fitness=np.array([1.0, 2.0]), schema_members=np.array([0, 1]))

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            tg.HollandSystem(fitness=np.zeros(1 << 16), schema_members=np.array([0]))

    def test_overflow_guard(self):
        sys = tg.HollandSystem(fitness=np.array([500.0, -500.0, 100.0]),
                               schema_members=np.array([0]))
        assert np.isfinite(tg.holland_residual(sys, 5.0, "power", 1.3))
