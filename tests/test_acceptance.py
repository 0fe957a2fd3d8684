"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including measured values and wall times.  Campaign fixtures are
shared between criteria to keep the total under a few minutes.

Criterion 6 compares both pair counts of the fully connected model (the
ordered double sum, and the single-counted sum, which is the same
Hamiltonian with halved couplings) against the replica-symmetric energy
and requires exactly one to land within 10%.  Measured enumeration
energies sit roughly 70% (ordered) and 93% (unordered) away from the
prediction, so no pair count reaches the gate and the test fails by
design rather than be weakened; the README section on the SK
normalization explains why no factor-two convention can close that gap.
"""

import math
import time

import numpy as np
import pytest

import thermoga as tg
from thermoga import analysis, cli, experiment

CHAIN_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
SK_01 = tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK)


def report(num, budget_s, elapsed, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s/{budget_s:.0f}s): {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget: {line}"


@pytest.fixture(scope="module")
def campaign_sigma2(tmp_path_factory):
    cfg = dict(experiment.preset_configs("fgS", desk=True))["sigma2"]
    out = tmp_path_factory.mktemp("sigma2")
    return experiment.run_experiment(cfg, output_dir=out)


@pytest.fixture(scope="module")
def campaign_sigma4(tmp_path_factory):
    cfg = dict(experiment.preset_configs("fgS", desk=True))["sigma4"]
    out = tmp_path_factory.mktemp("sigma4")
    return experiment.run_experiment(cfg, output_dir=out)


def test_criterion_01_chain_ground_state_exact():
    start = time.time()
    checked = 0
    for n in (8, 12, 16):
        for inst in range(100):
            d = tg.sample_chain_disorder(
                n, CHAIN_01, np.random.SeedSequence(entropy=1001, spawn_key=(n, inst)))
            energy, config = tg.chain_ground_state(d)
            energies = tg.enumerate_landscape(d)
            assert energy == energies.min()          # bitwise float equality
            assert tg.energy_chain(config, d) == energy
            checked += 1
    report(1, 30, time.time() - start, checked == 300,
           f"{checked} instances, ground energy bitwise equal to exhaustive minimum")


def test_criterion_02_ground_state_density():
    start = time.time()
    vals = [tg.chain_ground_state(tg.sample_chain_disorder(
        2000, CHAIN_01, np.random.SeedSequence(entropy=1002, spawn_key=(k,))))[0] / 2000
        for k in range(50)]
    mean = float(np.mean(vals))
    target = -math.sqrt(2 / math.pi)
    rel = abs(mean - target) / abs(target)
    report(2, 10, time.time() - start, rel < 0.01,
           f"mean U_min/N = {mean:.5f} vs {target:.5f} (rel dev {rel:.2%})")


def test_criterion_03_chain_thermodynamics_and_mcmc_curve():
    start = time.time()
    # thermodynamic identity U = -df/dbeta at relative 1e-5
    h = 1e-5
    worst_rel = 0.0
    for T in (0.2, 0.5, 1.0, 2.0, 5.0):
        beta = 1.0 / T
        fd = -(tg.chain_free_energy_density(1.0 / (beta + h), CHAIN_01)
               - tg.chain_free_energy_density(1.0 / (beta - h), CHAIN_01)) / (2 * h)
        direct = tg.chain_internal_energy(T, CHAIN_01)
        worst_rel = max(worst_rel, abs(direct - fd) / abs(fd))
    identity_ok = worst_rel < 1e-5

    # Metropolis curve at N = 3000 against N * U(T), ten disorder draws
    n = 3000
    opts = tg.MCMCOptions(sweeps=2000, burn_in=600, thinning=4, chains=2)
    worst_z = 0.0
    for T in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        estimates = []
        for d_idx in range(10):
            d = tg.sample_chain_disorder(
                n, CHAIN_01, np.random.SeedSequence(entropy=33, spawn_key=(d_idx,)))
            est, _ = tg.estimate_internal_energy(
                d, T, opts, np.random.SeedSequence(entropy=34, spawn_key=(d_idx, int(T * 100))))
            estimates.append(est)
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        z = abs(estimates.mean() - n * tg.chain_internal_energy(T, CHAIN_01)) / se
        worst_z = max(worst_z, z)
    report(3, 300, time.time() - start, identity_ok and worst_z < 2.0,
           f"identity worst rel {worst_rel:.2e} (< 1e-5); curve worst z = {worst_z:.2f} (< 2)")


def test_criterion_04_small_n_gibbs_equivalence():
    start = time.time()
    opts = tg.MCMCOptions(sweeps=1800, burn_in=300, thinning=3, chains=16)
    worst_z = 0.0
    for kind in ("chain", "sk"):
        for inst in range(10):
            if kind == "chain":
                d = tg.sample_chain_disorder(
                    12, CHAIN_01, np.random.SeedSequence(entropy=40, spawn_key=(inst,)))
            else:
                d = tg.sample_sk_disorder(
                    12, SK_01, np.random.SeedSequence(entropy=41, spawn_key=(inst,)))
            for T in (0.5, 1.0, 2.0):
                est, se = tg.estimate_internal_energy(
                    d, T, opts, np.random.SeedSequence(entropy=42, spawn_key=(inst, int(T * 10))))
                exact, _ = tg.exact_gibbs_expectation(d, T)
                worst_z = max(worst_z, abs(est - exact) / max(se, 1e-12))
    report(4, 120, time.time() - start, worst_z < 3.0,
           f"20 instances x 3 temperatures, worst z = {worst_z:.2f} (< 3)")


def test_criterion_05_sk_rs_solver():
    start = time.time()
    qs = [tg.sk_rs_fixed_point(T, SK_01).q for T in (1.5, 2.0, 3.0)]
    paramagnetic_ok = all(abs(q) < 1e-10 for q in qs)
    q_cold = tg.sk_rs_fixed_point(0.02, SK_01).q
    frozen_ok = q_cold >= 0.95
    zero_below = all(tg.sk_zero_temperature_magnetization(a) == 0.0 for a in (0.3, 1.0))
    m_sat = tg.sk_zero_temperature_magnetization(50.0)
    sat_ok = abs(-m_sat**2 / 2 + 0.5) < 1e-3
    report(5, 10, time.time() - start,
           paramagnetic_ok and frozen_ok and zero_below and sat_ok,
           f"q(1.5,2,3) < 1e-10, q(0.02) = {q_cold:.4f} >= 0.95, "
           f"m(a<=1) = 0, U/J0N(a=50) = {-m_sat**2 / 2:.6f}")


def test_criterion_06_sk_pair_convention_resolution():
    # Exactly one convention is supposed to match the RS energy within 10%
    # at N = 12, T = 2, over 50 disorder draws.  Both counts are measured
    # and the winner's count would become `energy_scale`.
    start = time.time()
    T, n, draws = 2.0, 12, 50
    rs = tg.sk_rs_fixed_point(T, SK_01)
    target = tg.sk_internal_energy_density(SK_01, rs)
    per_conv = {"ordered": [], "unordered": []}
    for k in range(draws):
        d = tg.sample_sk_disorder(n, SK_01, np.random.SeedSequence(entropy=1006, spawn_key=(k,)))
        for conv, instance in (("ordered", d), ("unordered", tg.SKDisorder(d.couplings / 2))):
            u, _ = tg.exact_gibbs_expectation(instance, T)
            per_conv[conv].append(u / n)
    rels = {conv: abs(np.mean(vals) - target) / abs(target) for conv, vals in per_conv.items()}
    passing = [conv for conv, rel in rels.items() if rel < 0.10]
    elapsed = time.time() - start
    detail = (f"RS U/N = {target:.4f}; enumeration ordered = {np.mean(per_conv['ordered']):.4f} "
              f"(rel {rels['ordered']:.1%}), unordered = {np.mean(per_conv['unordered']):.4f} "
              f"(rel {rels['unordered']:.1%}); conventions within 10%: {passing or 'none'}")
    report(6, 120, elapsed, len(passing) == 1, detail)


def test_criterion_07_learner_dynamics(campaign_sigma2):
    start = time.time()
    s = campaign_sigma2
    tm = s.temperature_mean
    diffs = np.diff(tm)
    rising = np.nonzero(diffs > 0)[0]
    transient_end = int(rising.max()) + 1 if rising.size else 0
    fit = analysis.fit_power_law(analysis.TimeSeries(s.times[1:], tm[1:]), (200.0, 2000.0))
    residual_ok = np.all(s.series_mean >= 0.0)
    res_fit = analysis.fit_power_law(
        analysis.TimeSeries(s.times[1:], s.series_mean), (200.0, 2000.0))
    ok = (transient_end <= 100 and fit.exponent > 0.05 and fit.r_squared > 0.8
          and residual_ok and res_fit.exponent > 0.0)
    report(7, 300, time.time() - start, ok,
           f"transient ends at t = {transient_end} (<= 100); xi = {fit.exponent:.3f} (> 0.05), "
           f"r2 = {fit.r_squared:.3f} (> 0.8); residual >= 0, xi_eps = {res_fit.exponent:.3f} (> 0)")


def test_criterion_08_null_control(tmp_path):
    start = time.time()
    cfg = dict(experiment.preset_configs("fgNo", desk=True))["fgNo"]
    s = experiment.run_experiment(cfg, output_dir=tmp_path)
    tm = s.temperature_mean
    fit = analysis.fit_power_law(analysis.TimeSeries(s.times[1:], tm[1:]), (200.0, 2000.0))
    t0 = cfg.t0
    final_ok = abs(tm[-1] - t0) / t0 <= 0.10
    report(8, 300, time.time() - start, abs(fit.exponent) <= 0.05 and final_ok,
           f"sigma = 1: xi = {fit.exponent:+.3f} (|xi| <= 0.05), "
           f"final T = {tm[-1]:.3f} vs T0 = {t0} ({abs(tm[-1] - t0) / t0:.1%} <= 10%)")


def test_criterion_09_selection_pressure_ordering(campaign_sigma2, campaign_sigma4):
    start = time.time()
    med2 = np.median(campaign_sigma2.temperature, axis=0)
    med4 = np.median(campaign_sigma4.temperature, axis=0)
    window = slice(10, 101)
    ordering_ok = bool(np.all(med4[window] <= med2[window]))
    exps = {}
    for name, s in (("sigma2", campaign_sigma2), ("sigma4", campaign_sigma4)):
        exps[name] = analysis.fit_power_law(
            analysis.TimeSeries(s.times[1:], s.temperature_mean[1:]), (200.0, 2000.0)).exponent
    gap = abs(exps["sigma2"] - exps["sigma4"])
    report(9, 600, time.time() - start, ordering_ok and gap < 0.1,
           f"median T ordering holds on t in [10, 100]; exponents "
           f"{exps['sigma2']:.3f} vs {exps['sigma4']:.3f} (gap {gap:.3f} < 0.1)")


def test_criterion_10_holland_identity():
    start = time.time()
    rng = np.random.default_rng(1010)
    worst_residual = 0.0
    worst_fd = 0.0
    h = 1e-6
    for _ in range(50):
        k = int(rng.integers(2, 257))
        g = rng.normal(0.0, 1.0, k)
        size = int(rng.integers(1, k))
        members = rng.choice(k, size=size, replace=False)
        sys = tg.HollandSystem(fitness=g, schema_members=members)
        for schedule, xi in (("linear", None), ("power", 0.5), ("power", 0.7), ("power", 1.3)):
            for t in (0.5, 1.0, 5.0):
                worst_residual = max(worst_residual, tg.holland_residual(sys, t, schedule, xi))
                p_hi = tg.holland_distribution(sys, t + h, schedule, xi)
                p_lo = tg.holland_distribution(sys, t - h, schedule, xi)
                fd = (p_hi[sys.schema_members].sum() - p_lo[sys.schema_members].sum()) / (2 * h)
                p = tg.holland_distribution(sys, t, schedule, xi)
                from thermoga.analysis import _schedule_beta_rate
                _, rate = _schedule_beta_rate(t, schedule, xi)
                an = rate * float(np.sum(p[sys.schema_members] * g[sys.schema_members]
                                         - p[sys.schema_members] * (p @ g)))
                worst_fd = max(worst_fd, abs(an - fd))
    report(10, 10, time.time() - start, worst_residual <= 1e-10 and worst_fd <= 1e-6,
           f"worst residual {worst_residual:.2e} (<= 1e-10), "
           f"worst derivative-vs-FD gap {worst_fd:.2e} (<= 1e-6)")


def test_criterion_11_analysis_tooling():
    start = time.time()
    t = np.arange(1.0, 10_001.0)
    rng = np.random.default_rng(1011)
    noisy = 3.0 * t**-1.2 * np.exp(rng.normal(0, 0.01, t.size))
    fit = tg.fit_power_law(tg.TimeSeries(t, noisy))
    exponent_ok = abs(fit.exponent - 1.2) < 0.02

    tt = np.arange(1.0, 2001.0)
    piece = np.where(tt <= 100.0, tt**-0.3, 100.0 ** (0.9 - 0.3) * tt**-0.9)
    cross = tg.detect_crossover(tg.TimeSeries(tt, piece))
    cross_ok = cross is not None and 100 / 1.5 <= cross.t_break <= 100 * 1.5

    hits = 0
    for trial in range(200):
        ts = np.arange(1.0, 201.0)
        vals = ts**-0.8 * np.exp(np.random.default_rng(3000 + trial).normal(0, 0.01, ts.size))
        hits += tg.detect_crossover(tg.TimeSeries(ts, vals)) is not None
    fp_ok = hits / 200 < 0.05
    report(11, 30, time.time() - start, exponent_ok and cross_ok and fp_ok,
           f"xi = {fit.exponent:.4f} (1.2 +- 0.02); breakpoint {cross.t_break:.1f} "
           f"(target 100 x1.5); false positives {hits}/200 (< 5%)")


def test_criterion_12_preset_determinism(tmp_path):
    start = time.time()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["preset", "fg1D", "--desk", "--out", str(out_a)]) == 0
    assert cli.main(["preset", "fg1D", "--desk", "--out", str(out_b)]) == 0
    files_a = sorted(p for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p for p in out_b.rglob("*") if p.is_file())
    same_names = [p.relative_to(out_a) for p in files_a] == [p.relative_to(out_b) for p in files_b]
    identical = same_names and all(
        fa.read_bytes() == fb.read_bytes() for fa, fb in zip(files_a, files_b))
    report(12, 600, time.time() - start, identical,
           f"{len(files_a)} files, trees byte-identical across reruns")
