import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoga as tg
from thermoga import analytic, cli, experiment
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


class TestOracleCalls:
    @settings(max_examples=8, deadline=None)
    @given(generations=st.integers(1, 12), replicas=st.integers(1, 3))
    def test_one_oracle_evaluation_per_generation(self, generations, replicas):
        calls = []
        original = experiment._build_oracle

        def counting(cfg, disorder, replica):
            oracle = original(cfg, disorder, replica)
            return tg.EnergyOracle(
                evaluator=lambda T: calls.append(replica) or oracle.energy(T), kind=oracle.kind)

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
            return tg.EnergyOracle(evaluator=fail, kind=cfg.oracle)

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
        budget = analytic.FixedPointOptions(max_iterations=1)
        monkeypatch.setattr(analytic, "FixedPointOptions", lambda: budget)
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

    def test_unknown_preset_exit_code(self):
        assert cli.main(["preset", "nope"]) == cli.EXIT_CONFIG

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = campaign\nname = x\nmodel = chain\nn = -3\n")
        assert cli.main(["run", str(path)]) != 0
