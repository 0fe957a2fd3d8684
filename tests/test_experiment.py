import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoga as tg
from thermoga import analytic, cli, experiment, ga
from thermoga.errors import ConvergenceError


def tiny_chain_config(out, generations=5, replicas=2, name="tiny"):
    n = 30
    return experiment.ExperimentConfig(
        name=name,
        model=tg.ModelKind.CHAIN,
        n=n,
        ga=tg.GAParams(population_size=12, genome_length=n, tournament_size=2,
                       crossover_rate=0.2, mutation_rate=0.01),
        disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN),
        t0=5.0,
        learning_rate=1e-4,
        generations=generations,
        replicas=replicas,
        seed=9001,
        oracle="analytic_chain",
        output_dir=str(out),
    )


class TestConfigSerialization:
    def test_all_presets_round_trip(self):
        for name in experiment.list_presets():
            for desk in (False, True):
                for label, cfg in experiment.preset_configs(name, desk=desk):
                    text = experiment.serialize_config(cfg)
                    assert experiment.parse_config(text) == cfg

    def test_campaign_file_round_trip(self, tmp_path):
        cfg = tiny_chain_config(tmp_path / "runs")
        path = tmp_path / "cfg.ini"
        path.write_text(experiment.serialize_config(cfg))
        assert experiment.load_config(path) == cfg

    def test_listing_contains_figure_presets(self):
        names = experiment.list_presets()
        assert "fg1D" in names
        assert "fgCSK" in names
        assert "fg1" in names
        assert "oracle-small-n" in names

    def test_fgS_sweeps_tournament_sizes(self):
        variants = experiment.preset_configs("fgS")
        sizes = sorted(cfg.ga.tournament_size for _, cfg in variants)
        assert sizes == [2, 3, 4]
        for _, cfg in variants:
            assert cfg.ga.crossover_rate == 0.1
            assert cfg.ga.mutation_rate == 0.001

    def test_genome_length_must_match_n(self, tmp_path):
        cfg = tiny_chain_config(tmp_path)
        with pytest.raises(ValueError):
            experiment.ExperimentConfig(**{**cfg.__dict__, "n": 31})

    def test_unknown_oracle_rejected(self, tmp_path):
        cfg = tiny_chain_config(tmp_path)
        with pytest.raises(ValueError, match="psychic"):
            experiment.ExperimentConfig(**{**cfg.__dict__, "oracle": "psychic"})

    def test_oracle_defaults_to_the_models_analytic_oracle(self, tmp_path):
        chain = tiny_chain_config(tmp_path)
        assert experiment.ExperimentConfig(**{**chain.__dict__, "oracle": None}) == chain
        n = 16
        sk = experiment.ExperimentConfig(
            name="sk", model=tg.ModelKind.SK, n=n,
            ga=tg.GAParams(population_size=10, genome_length=n),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=5.0, learning_rate=1e-3, generations=4, replicas=1, seed=17)
        assert sk.oracle == "analytic_sk"
        text = experiment.serialize_config(sk)
        assert "oracle = analytic_sk" in text
        assert experiment.parse_config(text.replace("oracle = analytic_sk\n", "")) == sk


class TestRunExperiment:
    def test_minimal_row_count(self, tmp_path):
        cfg = tiny_chain_config(tmp_path / "r", generations=1, replicas=1)
        summary = experiment.run_experiment(cfg)
        lines = (summary.output_dir / "replica_00.tsv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + t=0 + t=1
        assert lines[0].split("\t") == ["t", "temperature", "u_ga", "u_gibbs", "best_energy"]

    def test_outputs_exist_and_parse(self, tmp_path):
        cfg = tiny_chain_config(tmp_path / "r2")
        summary = experiment.run_experiment(cfg)
        paths = experiment.emit_plot_data(summary)
        expected = {"config.ini", "replica_00.tsv", "replica_01.tsv",
                    "temperature.tsv", "residual.tsv", "fit_report.txt"}
        assert expected <= {p.name for p in summary.output_dir.iterdir()}
        for p in paths:
            if p.suffix == ".tsv":
                body = p.read_text().strip().split("\n")
                for line in body[1:]:
                    assert all(np.isfinite(float(cell)) for cell in line.split("\t"))

    def test_deterministic_reruns(self, tmp_path):
        cfg_a = tiny_chain_config(tmp_path / "a")
        cfg_b = tiny_chain_config(tmp_path / "b")
        experiment.emit_plot_data(experiment.run_experiment(cfg_a))
        experiment.emit_plot_data(experiment.run_experiment(cfg_b))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            if pa.name == "config.ini":
                continue  # carries the output path
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_average_invariant_under_replica_permutation(self, tmp_path):
        cfg = tiny_chain_config(tmp_path / "perm", replicas=4)
        summary = experiment.run_experiment(cfg)
        perm = np.random.default_rng(0).permutation(4)
        mean, err = tg.disorder_averaged_trajectory([summary.temperature[i] for i in perm])
        assert np.allclose(mean, summary.temperature_mean)
        assert np.allclose(err, summary.temperature_stderr)

    def test_residual_series_nonnegative(self, tmp_path):
        cfg = tiny_chain_config(tmp_path / "res")
        summary = experiment.run_experiment(cfg)
        assert np.all(summary.series_mean >= 0.0)

    def test_sk_campaign_emits_fitness(self, tmp_path):
        n = 16
        cfg = experiment.ExperimentConfig(
            name="tiny-sk", model=tg.ModelKind.SK, n=n,
            ga=tg.GAParams(population_size=10, genome_length=n, tournament_size=2,
                           crossover_rate=0.2, mutation_rate=0.02),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=5.0, learning_rate=1e-3, generations=4, replicas=2, seed=17,
            oracle="analytic_sk", output_dir=str(tmp_path / "sk"))
        summary = experiment.run_experiment(cfg)
        experiment.emit_plot_data(summary)
        assert summary.series_name == "fitness"
        assert (summary.output_dir / "fitness.tsv").exists()
        assert np.allclose(summary.series_mean, -summary.u_ga[:, 1:].mean(axis=0))

    def test_enumeration_oracle_campaign(self, tmp_path):
        n = 10
        cfg = experiment.ExperimentConfig(
            name="tiny-enum", model=tg.ModelKind.CHAIN, n=n,
            ga=tg.GAParams(population_size=8, genome_length=n),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN),
            t0=2.0, learning_rate=1e-3, generations=3, replicas=1, seed=3,
            oracle="enumeration", output_dir=str(tmp_path / "enum"))
        summary = experiment.run_experiment(cfg)
        assert summary.temperature.shape == (1, 4)


class TestPairConvention:
    @staticmethod
    def enumeration_sk_config(out, conv):
        n = 10
        return experiment.ExperimentConfig(
            name=f"sk-{conv}", model=tg.ModelKind.SK, n=n,
            ga=tg.GAParams(population_size=8, genome_length=n, tournament_size=2,
                           crossover_rate=0.2, mutation_rate=0.05),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=2.0, learning_rate=1e-2, generations=5, replicas=2, seed=41,
            oracle="enumeration", sk_pair_convention=conv, output_dir=str(out))

    def test_unordered_campaign_threads_the_convention(self, tmp_path):
        cfg = self.enumeration_sk_config(tmp_path / "unordered", "unordered")
        assert experiment.parse_config(experiment.serialize_config(cfg)) == cfg
        half = experiment.run_experiment(cfg)
        full = experiment.run_experiment(self.enumeration_sk_config(tmp_path / "ordered",
                                                                    "ordered"))
        # same seed, same initial population: every energy is scaled by exactly 1/2
        assert np.array_equal(half.u_ga[:, 0], 0.5 * full.u_ga[:, 0])
        for r in range(cfg.replicas):
            d = experiment._build_disorder(cfg, r)
            assert d.pair_convention == "unordered"
            for t, T in enumerate(half.temperature[r]):
                assert half.u_gibbs[r, t] == tg.exact_gibbs_expectation(d, T)[0]

    def test_misspelt_convention_is_a_config_error(self, tmp_path, capsys):
        cfg = self.enumeration_sk_config(tmp_path / "bad", "unordered")
        text = experiment.serialize_config(cfg)
        path = tmp_path / "bad.ini"
        path.write_text(text.replace("sk_pair_convention = unordered",
                                     "sk_pair_convention = unorderd"))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG == 2
        assert "unorderd" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


# ---------------------------------------------------------------------------
# reference: the per-replica campaign loop the lockstep kernel replaced

def reference_tournament_select(pop, params, seed):
    rng = np.random.default_rng(seed)
    m, k = pop.size, params.tournament_size
    if k == 1:
        winners = rng.integers(0, m, size=m)
    else:
        keys = rng.random((m, m))
        draws = np.argpartition(keys, k - 1, axis=1)[:, :k]
        # Candidates in ascending key order, so an energy tie goes to the
        # smaller key.  numpy orders argpartition's first k - 1 slots only for
        # k <= 2 (slot 0 holds the minimum), so this is a no-op there.
        draws = np.take_along_axis(draws, np.argsort(np.take_along_axis(keys, draws, 1)), 1)
        winners = draws[np.arange(m), np.argmin(pop.energies[draws], axis=1)]
    return tg.Population(members=pop.members[winners], energies=pop.energies[winners],
                         generation=pop.generation)


def reference_boltzmann_select(pop, beta_s, seed):
    rng = np.random.default_rng(seed)
    idx = rng.choice(pop.size, size=pop.size, replace=True,
                     p=tg.boltzmann_weights(pop.energies, beta_s))
    return tg.Population(members=pop.members[idx], energies=pop.energies[idx],
                         generation=pop.generation)


def _reference_recached(pop, members, rows, model):
    energies = pop.energies
    if rows.size:
        energies = energies.copy()
        energies[rows] = model(members[rows])
    return tg.Population(members=members, energies=energies, generation=pop.generation)


def reference_crossover(pop, p_c, seed, model):
    rng = np.random.default_rng(seed)
    m, n = pop.members.shape
    order = rng.permutation(m)
    do_cross = rng.random(m // 2) < p_c
    cuts = rng.integers(1, n, size=m // 2) if n > 1 else np.ones(m // 2, dtype=np.int64)
    members = pop.members.copy()
    touched = []
    for pair_idx in np.nonzero(do_cross)[0]:
        if n == 1:
            continue
        i, j = order[2 * pair_idx], order[2 * pair_idx + 1]
        members[i], members[j] = ga.cross_pair(pop.members[i], pop.members[j],
                                               int(cuts[pair_idx]))
        touched += [i, j]
    touched = np.array(touched, dtype=np.intp)
    changed = touched[np.any(members[touched] != pop.members[touched], axis=1)]
    return _reference_recached(pop, members, changed, model)


def reference_mutate(pop, p_m, seed, model):
    if p_m == 0.0:
        return pop
    rng = np.random.default_rng(seed)
    flips = rng.random(pop.members.shape) < p_m
    members = np.where(flips, -pop.members, pop.members).astype(np.int8)
    return _reference_recached(pop, members, np.flatnonzero(flips.any(axis=1)), model)


def reference_replica(cfg, replica):
    """One replica run on its own, generation by generation."""
    disorder = experiment._build_disorder(cfg, replica)
    model = experiment._build_evaluator(cfg, disorder)
    oracle = experiment._build_oracle(cfg, disorder, replica)
    pop = tg.init_population(cfg.ga, model,
                             np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, 1)))
    state = tg.LearnerState(temperature=cfg.t0, learning_rate=cfg.learning_rate)
    rows = cfg.generations + 1
    temp, u_ga, u_gibbs, best = (np.empty(rows) for _ in range(4))
    temp[0] = state.temperature
    u_ga[0] = tg.empirical_energy(pop)
    u_gibbs[0] = oracle.energy(state.temperature)
    best[0] = float(pop.energies.min())
    for t in range(1, rows):
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, 3 + t))
        s_sel, s_cross, s_mut = ss.spawn(3)
        if cfg.ga.selection_mode == "tournament":
            selected = reference_tournament_select(pop, cfg.ga, s_sel)
        else:
            selected = reference_boltzmann_select(pop, cfg.ga.boltzmann_beta, s_sel)
        crossed = reference_crossover(selected, cfg.ga.crossover_rate, s_cross, model)
        pop = reference_mutate(crossed, cfg.ga.mutation_rate, s_mut, model)
        measured = selected if cfg.snapshot_policy == "post_selection" else pop
        u_meas = tg.empirical_energy(measured)
        state = tg.learner_step(state, u_meas, float(u_gibbs[t - 1]))
        temp[t] = state.temperature
        u_ga[t] = u_meas
        u_gibbs[t] = oracle.energy(state.temperature)
        best[t] = float(pop.energies.min())
    return temp, u_ga, u_gibbs, best


class TestLockstepMatchesReference:
    """Replicas advanced as one batch reproduce replicas run one by one, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(model=st.sampled_from([tg.ModelKind.CHAIN, tg.ModelKind.SK]),
           n=st.integers(2, 12),
           pairs=st.integers(1, 6),
           sigma=st.sampled_from(["1", "2", "3", "M"]),
           selection=st.sampled_from(["tournament", "boltzmann"]),
           beta=st.sampled_from([0.0, 0.7, 5.0]),
           snapshot=st.sampled_from(experiment.SNAPSHOT_POLICIES),
           p_c=st.sampled_from([0.0, 0.3, 1.0]),
           p_m=st.sampled_from([0.0, 0.05, 1.0]),
           replicas=st.integers(1, 3),
           generations=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_arrays_equal_per_replica_reference(self, model, n, pairs, sigma, selection, beta,
                                                snapshot, p_c, p_m, replicas, generations, seed):
        m = 2 * pairs
        k = m if sigma == "M" else min(int(sigma), m)
        cfg = experiment.ExperimentConfig(
            name="lockstep", model=model, n=n,
            ga=tg.GAParams(population_size=m, genome_length=n, tournament_size=k,
                           crossover_rate=p_c, mutation_rate=p_m, selection_mode=selection,
                           boltzmann_beta=beta),
            disorder=tg.DisorderParams(0.0, 1.0, model),
            t0=2.0, learning_rate=1e-2, generations=generations, replicas=replicas,
            seed=seed, oracle="enumeration", snapshot_policy=snapshot)
        with tempfile.TemporaryDirectory() as out:
            summary = experiment.run_experiment(cfg, output_dir=out)
        assert summary.replica_failures == []
        ref = [reference_replica(cfg, r) for r in range(replicas)]
        for got, want in zip((summary.temperature, summary.u_ga, summary.u_gibbs,
                              summary.best_energy), zip(*ref)):
            assert np.array_equal(got, np.stack(want))

    def test_replica_output_does_not_depend_on_replica_count(self, tmp_path):
        one = experiment.run_experiment(tiny_chain_config(tmp_path / "one", replicas=1))
        three = experiment.run_experiment(tiny_chain_config(tmp_path / "three", replicas=3))
        assert ((tmp_path / "one" / "replica_00.tsv").read_bytes()
                == (tmp_path / "three" / "replica_00.tsv").read_bytes())
        assert np.array_equal(one.temperature[0], three.temperature[0])


class TestOracleCalls:
    @settings(max_examples=8, deadline=None)
    @given(generations=st.integers(1, 12), replicas=st.integers(1, 3))
    def test_one_oracle_evaluation_per_generation(self, generations, replicas):
        calls = []
        original = experiment._build_oracle

        def counting(cfg, disorder, replica):
            oracle = original(cfg, disorder, replica)
            return tg.EnergyOracle(
                evaluator=lambda T: calls.append(replica) or oracle.energy(T))

        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "_build_oracle", counting)
            experiment.run_experiment(
                tiny_chain_config(out, generations=generations, replicas=replicas))
        assert [calls.count(r) for r in range(replicas)] == [generations + 1] * replicas


class TestReplicaFailures:
    def test_failing_replica_recorded_others_finish(self, tmp_path, monkeypatch):
        original = experiment._build_oracle

        def build(cfg, disorder, replica):
            if replica != 1:
                return original(cfg, disorder, replica)

            def fail(T):
                raise ConvergenceError("RS fixed point did not converge", residual=1.0)
            return tg.EnergyOracle(evaluator=fail)

        monkeypatch.setattr(experiment, "_build_oracle", build)
        summary = experiment.run_experiment(tiny_chain_config(tmp_path / "f", replicas=3))
        assert [r for r, _ in summary.replica_failures] == [1]
        assert summary.temperature.shape == (2, 6)
        names = {p.name for p in summary.output_dir.iterdir()}
        assert {"replica_00.tsv", "replica_02.tsv", "failures.txt"} <= names
        assert "replica_01.tsv" not in names
        text = (summary.output_dir / "failures.txt").read_text()
        assert text.startswith("replica 1: ConvergenceError")
        assert text.count("\n") == 1

    def test_all_replicas_failing_exits_numeric(self, tmp_path, monkeypatch, capsys):
        # the real RS solver, held to a budget it cannot meet, fails every replica;
        # t0 lies below T = J, since in the paramagnet the solve starts on its
        # root (0, 0) and one iteration suffices
        monkeypatch.setattr(analytic, "_RS_MAX_ITERATIONS", 1)
        n = 16
        cfg = experiment.ExperimentConfig(
            name="sk-fail", model=tg.ModelKind.SK, n=n,
            ga=tg.GAParams(population_size=10, genome_length=n),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=0.8, learning_rate=1e-3, generations=3, replicas=2, seed=17,
            oracle="analytic_sk", output_dir=str(tmp_path / "sk"))
        path = tmp_path / "sk.ini"
        path.write_text(experiment.serialize_config(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERIC == 4
        err = capsys.readouterr().err
        assert "all 2 replicas failed" in err and err.count("ConvergenceError") == 2


class TestMidRunFailures:
    """In lockstep, a replica that raises at generation t > 0 leaves the batch alone."""

    @staticmethod
    def run_failing(out, calls_before_failure):
        original = experiment._build_oracle

        def build(cfg, disorder, replica):
            oracle = original(cfg, disorder, replica)
            if replica not in calls_before_failure:
                return oracle
            calls = {"n": 0}

            def energy(T):
                calls["n"] += 1
                if calls["n"] > calls_before_failure[replica]:
                    raise ConvergenceError("RS fixed point did not converge", residual=1.0)
                return oracle.energy(T)
            return tg.EnergyOracle(evaluator=energy)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "_build_oracle", build)
            return experiment.run_experiment(tiny_chain_config(out, replicas=3))

    def test_failed_replica_dropped_survivors_unchanged(self, tmp_path):
        clean = experiment.run_experiment(tiny_chain_config(tmp_path / "clean", replicas=3))
        summary = self.run_failing(tmp_path / "f", {1: 3})
        assert [r for r, _ in summary.replica_failures] == [1]
        assert (tmp_path / "f" / "failures.txt").read_text() == (
            "replica 1: ConvergenceError: RS fixed point did not converge\n")
        assert not (tmp_path / "f" / "replica_01.tsv").exists()
        for name in ("replica_00.tsv", "replica_02.tsv"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
        assert np.array_equal(summary.temperature, clean.temperature[[0, 2]])

    def test_failures_listed_by_replica_index(self, tmp_path):
        # replica 2 fails at generation 1, replica 0 at generation 4
        summary = self.run_failing(tmp_path / "f", {2: 1, 0: 4})
        assert [r for r, _ in summary.replica_failures] == [0, 2]
        lines = (tmp_path / "f" / "failures.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in lines] == ["replica 0", "replica 2"]
        assert summary.temperature.shape == (1, 6)

    def test_kernel_failure_fails_every_live_replica(self, tmp_path, monkeypatch):
        # replica 1's oracle fails at generation 1; the batched mutation then
        # raises at generation 3, which no single replica can be blamed for
        original, calls = ga.mutate, []

        def mutate(*args):
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("injected")
            return original(*args)

        monkeypatch.setattr(ga, "mutate", mutate)
        with pytest.raises(RuntimeError) as err:
            self.run_failing(tmp_path / "f", {1: 1})
        assert str(err.value) == (
            "all 3 replicas failed: [(0, 'FloatingPointError: injected'), "
            "(1, 'ConvergenceError: RS fixed point did not converge'), "
            "(2, 'FloatingPointError: injected')]")


class TestOutputResolution:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(tmp_path / "env"))
        cfg = tiny_chain_config(tmp_path / "cfgdir", name="envtest")
        out = experiment.resolve_output_dir(cfg, override=tmp_path / "cli")
        assert out == tmp_path / "env" / "envtest"

    def test_override_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(experiment.ENV_OUTPUT_DIR, raising=False)
        cfg = tiny_chain_config(tmp_path / "cfgdir")
        assert experiment.resolve_output_dir(cfg, override=tmp_path / "cli") == tmp_path / "cli"


class TestMcmcCurve:
    def test_desk_curve_files(self, tmp_path):
        cfg = experiment.McmcCurveConfig(
            name="curve", n=60, disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN),
            temperatures=(0.5, 1.0, 2.0), realizations=2,
            options=tg.MCMCOptions(sweeps=300, burn_in=100, thinning=3, chains=2),
            seed=5, output_dir=str(tmp_path / "curve"))
        paths = experiment.run_mcmc_curve(cfg)
        mcmc_rows = paths[0].read_text().strip().split("\n")
        exact_rows = paths[1].read_text().strip().split("\n")
        assert len(mcmc_rows) == len(exact_rows) == 4
        # estimates land near the exact curve at this easy size
        for row_m, row_e in zip(mcmc_rows[1:], exact_rows[1:]):
            t, u, se = map(float, row_m.split("\t"))
            _, u_exact = map(float, row_e.split("\t"))
            assert abs(u - u_exact) < max(10 * se, 0.15 * abs(u_exact))

    def test_each_realization_sampled_once(self, tmp_path, monkeypatch):
        calls = []
        original = tg.spin_systems.sample_chain_disorder
        monkeypatch.setattr(tg.spin_systems, "sample_chain_disorder",
                            lambda *args: calls.append(args) or original(*args))
        cfg = experiment.McmcCurveConfig(
            name="curve", n=20, disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN),
            temperatures=(0.5, 1.0, 2.0), realizations=3,
            options=tg.MCMCOptions(sweeps=20, burn_in=5, thinning=3, chains=2),
            seed=5, output_dir=str(tmp_path / "curve"))
        experiment.run_mcmc_curve(cfg)
        assert [args[2].spawn_key for args in calls] == [(0, 0), (1, 0), (2, 0)]


class TestCli:
    def test_list_presets_verb(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fg1D" in out and "fgCSK" in out

    def test_run_verb_with_config(self, tmp_path, capsys):
        cfg = tiny_chain_config(tmp_path / "cli-run", generations=2, replicas=1)
        path = tmp_path / "tiny.ini"
        path.write_text(experiment.serialize_config(cfg))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "cli-run" / "temperature.tsv").exists()

    def test_oracle_check_output_dir_follows_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(tmp_path / "env"))
        assert cli.main(["oracle-check", "--out", str(tmp_path / "cli")]) == 0
        report = (tmp_path / "env" / "oracle-small-n" / "oracle_check.txt").read_text()
        assert report.splitlines() == capsys.readouterr().out.splitlines()
        assert not (tmp_path / "cli").exists()

        seen = []
        monkeypatch.setattr(experiment, "oracle_check",
                            lambda seed, output_dir: seen.append(output_dir) or (True, []))
        assert cli.main(["oracle-check"]) == 0
        assert seen == [tmp_path / "env" / "oracle-small-n"]

    def test_failed_oracle_check_exits_numeric_on_every_verb(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(tmp_path / "env"))
        monkeypatch.setattr(experiment, "oracle_check",
                            lambda seed, output_dir: (False, ["PASS  one", "FAIL  two"]))
        assert cli.main(["oracle-check"]) == cli.EXIT_NUMERIC == 4
        assert capsys.readouterr().out == "PASS  one\nFAIL  two\n"
        [(_, cfg)] = experiment.preset_configs("oracle-small-n")
        path = tmp_path / "suite.ini"
        path.write_text(experiment.serialize_config(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().out == "PASS  one\nFAIL  two\n"
        assert cli.main(["preset", "oracle-small-n"]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().out == f"{tmp_path / 'env' / 'oracle-small-n'}\n"

    def test_unknown_preset_exit_code(self):
        assert cli.main(["preset", "nope"]) == cli.EXIT_CONFIG

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = campaign\nname = x\nmodel = chain\nn = -3\n")
        assert cli.main(["run", str(path)]) != 0
