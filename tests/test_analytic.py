import math

import numpy as np
import pytest
from scipy.integrate import quad

import thermoga as tg
from thermoga import analytic
from thermoga.errors import (
    ConvergenceError,
    DegenerateDisorderError,
    DomainError,
    TemperatureMismatchError,
)

CHAIN_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
SK_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK)


def gaussian_quad(f, center=0.0, width=1.0):
    """Adaptive reference integral of f against the standard normal measure."""
    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * f(x)
    pieces = sorted({-60.0, center - 30 * width, center, center + 30 * width, 60.0})
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        total += quad(integrand, lo, hi, limit=600)[0]
    return total


class TestQuadratureRule:
    def test_weights_normalized(self):
        _, weights = analytic._gauss_hermite_rule(101)
        assert abs(weights.sum() - 1.0) <= 1e-12

    def test_polynomial_moments(self):
        nodes, weights = analytic._gauss_hermite_rule(31)
        assert weights @ nodes == pytest.approx(0.0, abs=1e-10)
        assert weights @ nodes**2 == pytest.approx(1.0, abs=1e-10)
        assert weights @ nodes**4 == pytest.approx(3.0, abs=1e-10)
        assert weights @ nodes**6 == pytest.approx(15.0, abs=1e-9)


class TestErfcc:
    def test_half_at_zero(self):
        assert tg.erfcc(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_tail_limits(self):
        assert tg.erfcc(40.0) == pytest.approx(0.0, abs=1e-300)
        assert tg.erfcc(-40.0) == pytest.approx(1.0, abs=1e-15)

    def test_against_adaptive_integration(self):
        for x in (0.3, 1.0, 2.5):
            ref = quad(lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
                       x, 40.0, limit=400)[0]
            assert abs(float(tg.erfcc(x)) - ref) < 1e-12


class TestChainFreeEnergy:
    def test_degenerate_gaussian(self):
        params = tg.DisorderParams(1.0, 0.0, tg.ModelKind.CHAIN)
        for T in (0.5, 1.0, 3.0):
            assert tg.chain_free_energy_density(T, params) == pytest.approx(
                math.log(2 * math.cosh(1.0 / T)), rel=1e-14)

    def test_infinite_temperature_limit(self):
        assert tg.chain_free_energy_density(1e9, CHAIN_01) == pytest.approx(math.log(2), rel=1e-9)

    def test_against_adaptive_integration(self):
        for T in (0.3, 1.0, 2.0):
            beta = 1.0 / T
            ref = gaussian_quad(lambda x: math.log(2 * math.cosh(beta * x)), width=1.0)
            assert tg.chain_free_energy_density(T, CHAIN_01) == pytest.approx(ref, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tg.chain_free_energy_density(0.0, CHAIN_01)


class TestChainInternalEnergy:
    def test_ground_state_limit(self):
        assert abs(tg.chain_internal_energy(0.01, CHAIN_01) + math.sqrt(2 / math.pi)) < 1e-3

    def test_infinite_temperature(self):
        assert abs(tg.chain_internal_energy(1e9, CHAIN_01)) < 1e-8

    def test_thermodynamic_identity(self):
        # U = -df/dbeta via centered differences, relative 1e-5
        h = 1e-5
        for T in (0.2, 0.5, 1.0, 2.0, 5.0):
            beta = 1.0 / T
            fd = -(tg.chain_free_energy_density(1.0 / (beta + h), CHAIN_01)
                   - tg.chain_free_energy_density(1.0 / (beta - h), CHAIN_01)) / (2 * h)
            assert tg.chain_internal_energy(T, CHAIN_01) == pytest.approx(fd, rel=1e-5)

    def test_general_params_against_adaptive(self):
        params = tg.DisorderParams(1.0, 1.0, tg.ModelKind.CHAIN)
        for T in (0.4, 0.9, 1.1, 2.0):
            beta = 1.0 / T
            ref = (-1.0 * gaussian_quad(lambda x: math.tanh(beta * (1 + x)), center=-1.0)
                   - beta * gaussian_quad(lambda x: 1 / math.cosh(beta * (1 + x)) ** 2, center=-1.0))
            assert tg.chain_internal_energy(T, params) == pytest.approx(ref, abs=1e-9)

    def test_monotone_in_temperature(self):
        grid = np.linspace(0.05, 8.0, 60)
        vals = [tg.chain_internal_energy(float(T), CHAIN_01) for T in grid]
        assert np.all(np.diff(vals) > 0)


class TestChainGroundStateDensity:
    def test_standard_gaussian(self):
        assert tg.chain_ground_state_density(CHAIN_01) == pytest.approx(
            -math.sqrt(2 / math.pi), rel=1e-14)

    def test_ferromagnetic_limit(self):
        params = tg.DisorderParams(1.0, 0.0, tg.ModelKind.CHAIN)
        assert tg.chain_ground_state_density(params) == -1.0

    def test_monte_carlo_oracle(self):
        params = tg.DisorderParams(1.0, 1.0, tg.ModelKind.CHAIN)
        rng = np.random.default_rng(1234)
        draws = np.abs(rng.normal(1.0, 1.0, size=10_000_000))
        mc = -draws.mean()
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(tg.chain_ground_state_density(params) - mc) < 3 * se


def damped_rs_reference(T, params, damping=0.5, tolerance=1e-12, max_iterations=100_000):
    """The damped iteration the accelerated solver replaced, from the same start:
    (0, 0) in the paramagnet, T > J and T > |J0|, and (0.5*sgn(J0), 0.5) elsewhere."""
    beta = 1.0 / T
    j0, j = params.mean, params.std
    m, q = (0.0, 0.0) if T > j and T > abs(j0) else (0.5 * float(np.sign(j0)), 0.5)
    for _ in range(max_iterations):
        a = j * math.sqrt(max(q, 0.0))
        b = j0 * m
        fm = analytic._expect_tanh(beta, a, b)
        fq = analytic._expect_tanh2(beta, a, b)
        if max(abs(m - fm), abs(q - fq)) <= tolerance:
            return m, q
        m = (1.0 - damping) * m + damping * fm
        q = (1.0 - damping) * q + damping * fq
    raise AssertionError(f"reference iteration did not converge at T = {T}")


RS_GRID_J0 = (0.0, 0.5, 1.2, 2.0, 4.0)
RS_GRID_T = np.geomspace(10.0, 0.05, 50)


class TestRSFixedPoint:
    def test_paramagnetic_solution(self):
        rs = tg.sk_rs_fixed_point(2.0, SK_01)
        assert abs(rs.m) < 1e-10
        assert abs(rs.q) < 1e-10

    def test_contraction_oracle_above_critical_temperature(self):
        # independent iteration of the q-map with adaptive quadrature
        beta = 1.0 / 2.0
        q = 0.5
        for _ in range(200):
            q = gaussian_quad(lambda z: math.tanh(beta * math.sqrt(q) * z) ** 2,
                              width=max(math.sqrt(q), 1e-6))
        assert q < 1e-10

    def test_near_frozen_overlap(self):
        rs = tg.sk_rs_fixed_point(0.02, SK_01)
        assert rs.q >= 0.95

    def test_fixed_point_property(self):
        for T in (0.5, 1.3):
            rs = tg.sk_rs_fixed_point(T, tg.DisorderParams(0.8, 1.0, tg.ModelKind.SK))
            beta = 1.0 / T
            a = math.sqrt(rs.q)
            b = 0.8 * rs.m
            fm = gaussian_quad(lambda z: math.tanh(beta * (a * z + b)),
                               center=-b / max(a, 1e-9), width=max(a, 1e-9))
            fq = gaussian_quad(lambda z: math.tanh(beta * (a * z + b)) ** 2,
                               center=-b / max(a, 1e-9), width=max(a, 1e-9))
            assert rs.m == pytest.approx(fm, abs=5e-9)
            assert rs.q == pytest.approx(fq, abs=5e-9)

    def test_zero_field_magnetization_stays_zero(self):
        for T in (0.3, 0.7, 1.5):
            rs = tg.sk_rs_fixed_point(T, SK_01)
            assert abs(rs.m) < 1e-12

    def test_overlap_nonincreasing_in_temperature(self):
        qs = [tg.sk_rs_fixed_point(float(T), SK_01).q for T in np.linspace(0.1, 2.5, 15)]
        assert np.all(np.diff(qs) <= 1e-9)

    def test_matches_damped_iteration_on_cooling_grid(self):
        for j0 in RS_GRID_J0:
            params = tg.DisorderParams(j0, 1.0, tg.ModelKind.SK)
            for T in map(float, RS_GRID_T):
                rs = tg.sk_rs_fixed_point(T, params)
                m_ref, q_ref = damped_rs_reference(T, params)
                assert abs(rs.m - m_ref) <= 1e-9 and abs(rs.q - q_ref) <= 1e-9, (j0, T)
                if j0 == 0.0 and T < 1.0:
                    assert rs.q > 0.0, T

    def test_paramagnetic_warm_start_reaches_ferromagnet(self):
        # m = 0 solves the equations at every T; below T = J0 it is unstable, and
        # the solve at T = 1 must not stay on it
        params = tg.DisorderParams(2.0, 1.0, tg.ModelKind.SK)
        assert abs(tg.sk_rs_fixed_point(3.0, params).m) < 1e-10
        assert tg.sk_rs_fixed_point(1.0, params).m > 0.5

    def test_near_multicritical_point_finds_stable_root(self):
        # Unguarded secant steps settle on unstable roots here: m = 0 at the
        # first two points (the stable m is about 0.04 and 0.03), q = 0 at the
        # third (the stable q is about 0.02).
        for j0, T in ((1.01, 0.91), (1.06, 1.05), (0.9, 0.98)):
            params = tg.DisorderParams(j0, 1.0, tg.ModelKind.SK)
            rs = tg.sk_rs_fixed_point(T, params)
            m_ref, q_ref = damped_rs_reference(T, params)
            assert abs(rs.m - m_ref) <= 1e-9 and abs(rs.q - q_ref) <= 1e-9, (j0, T)

    def test_few_iterations_in_the_paramagnet(self):
        # the temperature range an SK campaign's learner spends its time in:
        # the start (0, 0) is the root there, so the first defect check passes
        for T in np.linspace(10.0, 3.6, 50):
            assert tg.sk_rs_fixed_point(float(T), SK_01).iterations == 1, T

    def test_convergence_error_carries_iterate(self, monkeypatch):
        monkeypatch.setattr(analytic, "_RS_MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError) as info:
            tg.sk_rs_fixed_point(0.5, SK_01)
        assert info.value.q is not None
        assert info.value.residual > 0


class TestSKInternalEnergy:
    def test_paramagnetic_value(self):
        rs = tg.RSOrderParams(m=0.0, q=0.0, temperature=2.0, residual=0.0, iterations=1)
        assert tg.sk_internal_energy_density(2.0, SK_01, rs) == pytest.approx(-0.25)

    def test_zero_temperature_prescription(self):
        # with q = 1 the thermal term vanishes and only -J0 m^2 / 2 remains
        params = tg.DisorderParams(2.0, 1.0, tg.ModelKind.SK)
        m = tg.sk_zero_temperature_magnetization(math.sqrt(2 / math.pi) * 2.0)
        rs = tg.RSOrderParams(m=m, q=1.0, temperature=1e-9, residual=0.0, iterations=1)
        val = tg.sk_internal_energy_density(1e-9, params, rs)
        assert val == pytest.approx(-0.5 * 2.0 * m * m, rel=1e-12)

    def test_temperature_mismatch(self):
        rs = tg.RSOrderParams(m=0.0, q=0.0, temperature=2.0, residual=0.0, iterations=1)
        with pytest.raises(TemperatureMismatchError):
            tg.sk_internal_energy_density(1.0, SK_01, rs)


class TestZeroTemperatureMagnetization:
    def test_zero_below_critical_point(self):
        for a in (0.0, 0.5, 1.0):
            assert tg.sk_zero_temperature_magnetization(a) == 0.0

    def test_saturation(self):
        m = tg.sk_zero_temperature_magnetization(50.0)
        assert abs(-m * m / 2 + 0.5) < 1e-3

    def test_root_residual(self):
        a = 1.2
        m = tg.sk_zero_temperature_magnetization(a)
        c = a * math.sqrt(math.pi / 2)
        assert abs(m - (1 - 2 * float(tg.erfcc(c * m)))) < 1e-10

    def test_curve_shape(self):
        grid = np.linspace(0.0, 3.0, 31)
        ms = np.array([tg.sk_zero_temperature_magnetization(float(a)) for a in grid])
        assert np.all(ms[grid <= 1.0] == 0.0)
        assert np.all(np.diff(ms) >= -1e-12)
        scaled = -grid * ms**2 / 2
        assert np.all(np.diff(scaled[grid > 1.2]) < 0)

    def test_negative_a_rejected(self):
        with pytest.raises(DomainError):
            tg.sk_zero_temperature_magnetization(-0.1)


def test_degenerate_ground_state_density():
    params = tg.DisorderParams(1.0, 0.0, tg.ModelKind.CHAIN)
    assert tg.chain_ground_state_density(params) == -1.0
    with pytest.raises((DegenerateDisorderError, ValueError)):
        tg.DisorderParams(0.0, 0.0, tg.ModelKind.CHAIN)
