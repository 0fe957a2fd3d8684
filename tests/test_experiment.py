import dataclasses
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoga as tg
from thermoga import analytic, cli, experiment, ga, learner
from thermoga.errors import ConvergenceError


def tiny_chain_config(out, generations=5, replicas=2, name="tiny"):
    n = 30
    return experiment.ExperimentConfig(
        name=name,
        ga=tg.GAParams(population_size=12, genome_length=n, tournament_size=2,
                       crossover_rate=0.2, mutation_rate=0.01),
        disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN),
        t0=5.0,
        learning_rate=1e-4,
        generations=generations,
        replicas=replicas,
        seed=9001,
        output_dir=str(out),
    )


def drop_line(text, key):
    """Config text without the line that sets `key`."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"{key} = "))


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

    def test_percent_is_literal(self, tmp_path):
        cfg = tiny_chain_config(tmp_path / "runs%1", name="run%(x)s 50%")
        text = experiment.serialize_config(cfg)
        assert "name = run%(x)s 50%\n" in text
        assert experiment.parse_config(text) == cfg

    def test_written_bytes(self):
        campaign = experiment.serialize_config(tiny_chain_config("runs/tiny"))
        assert campaign == (
            "[run]\nkind = campaign\nname = tiny\nmodel = chain\nn = 30\ngenerations = 5\n"
            "replicas = 2\nseed = 9001\nt0 = 5.0\nlearning_rate = 0.0001\n"
            "output_dir = runs/tiny\n\n"
            "[ga]\npopulation_size = 12\ntournament_size = 2\ncrossover_rate = 0.2\n"
            "mutation_rate = 0.01\nselection_mode = tournament\nboltzmann_beta = 0.0\n\n"
            "[disorder]\nmean = 0.0\nstd = 1.0\n\n")
        [(_, curve)] = experiment.preset_configs("fg1", desk=True)
        assert experiment.serialize_config(curve) == (
            "[run]\nkind = mcmc_curve\nname = fg1\nn = 300\n"
            "temperatures = 0.2, 0.3, 0.5, 0.7, 1.0, 1.3, 1.6, 2.0, 2.4, 3.0\n"
            "realizations = 4\nseed = 190\nsweeps = 800\nburn_in = 200\nthinning = 3\n"
            "chains = 4\n\n[disorder]\nmean = 0.0\nstd = 1.0\n\n")

    @pytest.mark.parametrize("kind", ["campaign", "mcmc_curve"])
    def test_readme_table_lists_the_schema_keys(self, kind):
        # the README's table of a kind's keys, row by row: `[section]` | keys | default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split(f"`kind = {kind}`", 1)[1].split("\n\n")[1]
        listed = {}
        for row in table.splitlines()[2:]:
            section, keys = row.split("|")[1:3]
            keys = re.sub(r"\([^)]*\)", "", keys)   # value hints such as (`chain` or `sk`)
            listed.setdefault(section.strip().strip("`[]"), []).extend(re.findall(r"`(\w+)`", keys))
        assert listed == {section: [key for key in keys if key != "kind"]
                          for section, keys in experiment._SCHEMAS[kind].items()}

    def test_readme_table_lists_the_presets(self):
        # the README's presets table, row by row: | `name` | model | sweep |
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| preset | model | sweep |", 1)[1].split("\n\n")[0]
        listed = [re.match(r"\| `([^`]+)`", row).group(1) for row in table.splitlines()[2:]]
        assert listed == experiment.list_presets()

    def test_listing_contains_figure_presets(self):
        names = experiment.list_presets()
        assert "fg1D" in names
        assert "fgCSK" in names
        assert "fg1" in names

    def test_fgS_sweeps_tournament_sizes(self):
        variants = experiment.preset_configs("fgS")
        sizes = sorted(cfg.ga.tournament_size for _, cfg in variants)
        assert sizes == [2, 3, 4]
        for _, cfg in variants:
            assert cfg.ga.crossover_rate == 0.1
            assert cfg.ga.mutation_rate == 0.001

    def test_n_and_model_are_read_from_ga_and_disorder(self, tmp_path):
        cfg = tiny_chain_config(tmp_path)
        assert (cfg.n, cfg.model) == (30, tg.ModelKind.CHAIN)
        with pytest.raises(TypeError):
            experiment.ExperimentConfig(**{**cfg.__dict__, "n": 31})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n = 31

    def test_absent_optional_keys_take_dataclass_defaults(self):
        text = ("[run]\nname = minimal\nmodel = sk\nn = 16\ngenerations = 4\nreplicas = 1\n"
                "seed = 17\nt0 = 5.0\nlearning_rate = 0.001\n\n"
                "[ga]\npopulation_size = 10\n\n[disorder]\nmean = 0.0\nstd = 1.0\n")
        assert experiment.parse_config(text) == experiment.ExperimentConfig(
            name="minimal", ga=tg.GAParams(population_size=10, genome_length=16),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=5.0, learning_rate=1e-3, generations=4, replicas=1, seed=17)

    @pytest.mark.parametrize("extra, named", [
        ("sk_pair_convension = unordered", "sk_pair_convension"),
        ("snapshot_policy = post_mutation", "snapshot_policy"),
        ("[gaa]\ntournament_size = 3", "gaa"),
    ])
    def test_unknown_section_or_key_is_a_config_error(self, tmp_path, capsys, extra, named):
        cfg = tiny_chain_config(tmp_path / "out")
        text = experiment.serialize_config(cfg).replace("\n[ga]\n", f"{extra}\n\n[ga]\n")
        assert text.count(named) == 1
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_keys_of_another_kind_are_rejected(self):
        [(_, curve)] = experiment.preset_configs("fg1")
        text = experiment.serialize_config(curve) + "\n[ga]\npopulation_size = 10\n"
        with pytest.raises(ValueError, match=r"\[ga\] in a mcmc_curve config"):
            experiment.parse_config(text)


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
            name="tiny-sk",
            ga=tg.GAParams(population_size=10, genome_length=n, tournament_size=2,
                           crossover_rate=0.2, mutation_rate=0.02),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=5.0, learning_rate=1e-3, generations=4, replicas=2, seed=17,
            output_dir=str(tmp_path / "sk"))
        summary = experiment.run_experiment(cfg)
        experiment.emit_plot_data(summary)
        assert summary.series_name == "fitness"
        assert (summary.output_dir / "fitness.tsv").exists()
        assert np.allclose(summary.series_mean, -summary.u_ga[:, 1:].mean(axis=0))

    def test_unexpected_fit_error_propagates(self, tmp_path, monkeypatch):
        # the temperature fit runs; the series fit then meets a plain ValueError,
        # which is a fault, not data too poor to fit
        original, calls = experiment.analysis.fit_power_law, []

        def fit(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("injected")
            return original(*args)

        monkeypatch.setattr(experiment.analysis, "fit_power_law", fit)
        with pytest.raises(ValueError, match="injected"):
            experiment.run_experiment(tiny_chain_config(tmp_path / "fit"))

    def test_too_short_a_run_reports_every_fit_unavailable(self, tmp_path):
        # 5 generations leave 5 points in the fit window: each fit says why it is missing
        want = (b"residual = unavailable (need at least 10 points in the window, got 5)\n"
                b"temperature = unavailable (need at least 10 points in the window, got 5)\n"
                b"temperature_crossover = unavailable (need at least 40 points, got 5)\n")
        assert experiment.run_config(tiny_chain_config(tmp_path / "lib")) == tmp_path / "lib"
        assert (tmp_path / "lib" / "fit_report.txt").read_bytes() == want
        path = tmp_path / "tiny.ini"
        path.write_text(experiment.serialize_config(tiny_chain_config(tmp_path / "cli")))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "cli" / "fit_report.txt").read_bytes() == want


class TestStartTemperature:
    def test_start_below_floor_rejected(self, tmp_path):
        cfg = tiny_chain_config(tmp_path)
        assert dataclasses.replace(cfg, t0=learner.T_FLOOR).t0 == learner.T_FLOOR
        with pytest.raises(ValueError, match="T_FLOOR"):
            dataclasses.replace(cfg, t0=0.5 * learner.T_FLOOR)

    def test_t0_below_floor_is_a_config_error(self, tmp_path, capsys):
        # every replica would fail at set-up: the config is refused before anything is written
        text = experiment.serialize_config(tiny_chain_config(tmp_path / "cold"))
        path = tmp_path / "cold.ini"
        path.write_text(text.replace("t0 = 5.0", "t0 = 1e-07"))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG == 2
        assert "t0" in capsys.readouterr().err
        assert not (tmp_path / "cold").exists()

    @pytest.mark.parametrize("key", ["t0", "learning_rate"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_learner_setting_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = tiny_chain_config(tmp_path / "out")
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(cfg, **{key: float(value)})
        path = tmp_path / "bad.ini"
        path.write_text(experiment.serialize_config(cfg).replace(
            f"{key} = {getattr(cfg, key)!r}", f"{key} = {value}"))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["mean", "std"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_disorder_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = tiny_chain_config(tmp_path / "out")
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(cfg.disorder, **{key: float(value)})
        text = experiment.serialize_config(cfg)
        line = f"{key} = {getattr(cfg.disorder, key)!r}\n"
        assert text.count(line) == 1
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(line, f"{key} = {value}\n"))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# reference: one replica run on its own with plain loops, drawing from the replica's
# one generator a block of ga.DRAW_BLOCK generations at a time

G = ga.DRAW_BLOCK


def reference_flips(rng, sites, p):
    """Sites in [0, sites) that flip: a walk over Geometric(p) gaps, drawn in chunks."""
    if p == 0.0:
        return []
    chunk = int(sites * p + 5.0 * (sites * p) ** 0.5) + 2
    flips, pos = [], -1
    while pos < sites:
        for gap in rng.geometric(p, size=chunk).tolist():
            pos += min(gap, sites + 1)
            if pos < sites:
                flips.append(pos)
    return flips


def reference_block(rng, params):
    """One replica's draws for G generations, in the order the campaign draws them."""
    m, n, k = params.population_size, params.genome_length, params.tournament_size
    tournament = params.selection_mode == "tournament"
    columns = [rng.integers(0, m - c, size=G * m) for c in range(k)] if tournament else []
    orders = rng.permuted(np.tile(np.arange(m), (G, 1)), axis=1)
    cross = rng.random((G, m // 2))
    cuts = rng.integers(1, n, size=(G, m // 2)) if n > 1 else np.ones((G, m // 2), np.int64)
    flips = reference_flips(rng, G * m * n, params.mutation_rate)
    uniforms = None if tournament else rng.random(G * m)
    return [dict(columns=[col[g * m:(g + 1) * m] for col in columns], order=orders[g],
                 cross=cross[g], cuts=cuts[g],
                 flips=[f - g * m * n for f in flips if g * m * n <= f < (g + 1) * m * n],
                 uniforms=None if tournament else uniforms[g * m:(g + 1) * m])
            for g in range(G)]


def reference_tournament_select(pop, draws):
    winners = []
    for raw in zip(*draws["columns"]):
        picks = []
        for x in raw:
            for p in sorted(picks):   # skip the earlier picks, in ascending order
                x += x >= p
            picks.append(int(x))
        best = min(pop.energies[picks])
        winners.append(next(p for p in picks if pop.energies[p] == best))   # first drawn
    return tg.Population(members=pop.members[winners], energies=pop.energies[winners])


def reference_boltzmann_select(pop, beta_s, draws):
    cdf = np.cumsum(tg.gibbs_weights(pop.energies, 1 / beta_s if beta_s else math.inf))
    cdf /= cdf[-1]
    idx = cdf.searchsorted(draws["uniforms"], side="right")   # as Generator.choice(p=...)
    return tg.Population(members=pop.members[idx], energies=pop.energies[idx])


def _reference_recached(pop, members, rows, model):
    energies = pop.energies
    if rows.size:
        energies = energies.copy()
        energies[rows] = model(members[rows])
    return tg.Population(members=members, energies=energies)


def reference_crossover(pop, p_c, draws, model):
    m, n = pop.members.shape
    order = draws["order"]
    members = pop.members.copy()
    touched = []
    for pair_idx in np.nonzero(draws["cross"] < p_c)[0]:
        if n == 1:
            continue
        i, j = order[2 * pair_idx], order[2 * pair_idx + 1]
        cut = int(draws["cuts"][pair_idx])   # the children swap tails from the cut on
        members[i, cut:], members[j, cut:] = pop.members[j, cut:], pop.members[i, cut:]
        touched += [i, j]
    touched = np.array(touched, dtype=np.intp)
    changed = touched[np.any(members[touched] != pop.members[touched], axis=1)]
    return _reference_recached(pop, members, changed, model)


def reference_mutate(pop, draws, model):
    if not draws["flips"]:
        return pop
    flips = np.zeros(pop.members.size, dtype=bool)
    flips[draws["flips"]] = True
    flips = flips.reshape(pop.members.shape)
    members = np.where(flips, -pop.members, pop.members).astype(np.int8)
    return _reference_recached(pop, members, np.flatnonzero(flips.any(axis=1)), model)


def reference_replica(cfg, replica):
    """One replica run on its own, generation by generation."""
    disorder = experiment._build_disorder(cfg, replica)
    model = experiment._build_evaluator(cfg, disorder)
    oracle = experiment._build_oracle(cfg)
    pop = tg.init_population(cfg.ga, model,
                             np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, 1)))
    rows = cfg.generations + 1
    temp, u_ga, u_gibbs, best = (np.empty(rows) for _ in range(4))
    t_learned = cfg.t0
    temp[0] = t_learned
    u_ga[0] = float(np.mean(pop.energies))
    u_gibbs[0] = oracle.energy(t_learned)
    best[0] = float(pop.energies.min())
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, 3)))
    for t in range(1, rows):
        if (t - 1) % G == 0:
            block = reference_block(rng, cfg.ga)
        draws = block[(t - 1) % G]
        if cfg.ga.selection_mode == "tournament":
            selected = reference_tournament_select(pop, draws)
        else:
            selected = reference_boltzmann_select(pop, cfg.ga.boltzmann_beta, draws)
        crossed = reference_crossover(selected, cfg.ga.crossover_rate, draws, model)
        pop = reference_mutate(crossed, draws, model)
        u_meas = float(np.mean(pop.energies))
        t_learned = tg.learner_step(t_learned, cfg.learning_rate, u_meas, float(u_gibbs[t - 1]))
        temp[t] = t_learned
        u_ga[t] = u_meas
        u_gibbs[t] = oracle.energy(t_learned)
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
           p_c=st.sampled_from([0.0, 0.3, 1.0]),
           p_m=st.sampled_from([0.0, 0.05, 1.0]),
           replicas=st.integers(1, 3),
           generations=st.integers(1, G + 4),
           seed=st.integers(0, 2**32 - 1))
    def test_arrays_equal_per_replica_reference(self, model, n, pairs, sigma, selection, beta,
                                                p_c, p_m, replicas, generations, seed):
        m = 2 * pairs
        k = m if sigma == "M" else min(int(sigma), m)
        cfg = experiment.ExperimentConfig(
            name="lockstep",
            ga=tg.GAParams(population_size=m, genome_length=n, tournament_size=k,
                           crossover_rate=p_c, mutation_rate=p_m, selection_mode=selection,
                           boltzmann_beta=beta),
            disorder=tg.DisorderParams(0.0, 1.0, model),
            t0=2.0, learning_rate=1e-2, generations=generations, replicas=replicas,
            seed=seed)
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

    def test_shorter_runs_are_the_first_rows_of_a_longer_one(self, tmp_path):
        # draws come in whole blocks of G generations whatever the run length
        runs = {g: experiment.run_experiment(tiny_chain_config(tmp_path / str(g), generations=g))
                for g in (5, G + 5, 40)}
        for g in (5, G + 5):
            for got, want in ((runs[g].temperature, runs[40].temperature),
                              (runs[g].u_ga, runs[40].u_ga), (runs[g].u_gibbs, runs[40].u_gibbs),
                              (runs[g].best_energy, runs[40].best_energy)):
                assert np.array_equal(got, want[:, :g + 1])
            for name in ("replica_00.tsv", "replica_01.tsv"):
                lines = (tmp_path / "40" / name).read_bytes().splitlines(keepends=True)
                assert (tmp_path / str(g) / name).read_bytes() == b"".join(lines[:g + 2])


class TestOracleCalls:
    @settings(max_examples=8, deadline=None)
    @given(generations=st.integers(1, 12), replicas=st.integers(1, 3))
    def test_one_oracle_evaluation_per_generation(self, generations, replicas):
        calls = []
        original = experiment._build_oracle

        built = []

        def counting(cfg):
            # replicas are built in index order
            oracle, replica = original(cfg), len(built)
            built.append(replica)
            return tg.EnergyOracle(
                evaluator=lambda T: calls.append(replica) or oracle.energy(T))

        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "_build_oracle", counting)
            experiment.run_experiment(
                tiny_chain_config(out, generations=generations, replicas=replicas))
        assert [calls.count(r) for r in range(replicas)] == [generations + 1] * replicas


class TestEvolveThenLearn:
    """The learned T never acts on the GA: each schedule is learned after the run."""

    def test_the_ga_does_not_read_the_learner(self, tmp_path):
        a = experiment.run_experiment(tiny_chain_config(tmp_path / "a", replicas=3))
        b = experiment.run_experiment(dataclasses.replace(
            tiny_chain_config(tmp_path / "b", replicas=3), t0=0.7, learning_rate=3e-2))
        assert np.array_equal(a.u_ga, b.u_ga)
        assert np.array_equal(a.best_energy, b.best_energy)
        assert not np.array_equal(a.temperature, b.temperature)

    @pytest.mark.parametrize("model", [tg.ModelKind.CHAIN, tg.ModelKind.SK])
    def test_schedule_is_learned_from_the_recorded_energies(self, tmp_path, model):
        cfg = dataclasses.replace(
            tiny_chain_config(tmp_path, generations=2 * G + 3, replicas=3),
            disorder=tg.DisorderParams(0.0, 1.0, model))
        summary = experiment.run_experiment(cfg)
        for k in range(cfg.replicas):
            temperature, u_model = tg.learn_schedule(
                summary.u_ga[k], cfg.t0, cfg.learning_rate, experiment._build_oracle(cfg))
            assert np.array_equal(summary.temperature[k], temperature)
            assert np.array_equal(summary.u_gibbs[k], u_model)


class TestReplicaFailures:
    def test_failing_replica_recorded_others_finish(self, tmp_path, monkeypatch):
        original, built = experiment._build_oracle, []

        def build(cfg):
            replica = len(built)   # replicas are built in index order
            built.append(replica)
            if replica != 1:
                return original(cfg)

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
            name="sk-fail",
            ga=tg.GAParams(population_size=10, genome_length=n),
            disorder=tg.DisorderParams(0.0, 1.0, tg.ModelKind.SK),
            t0=0.8, learning_rate=1e-3, generations=3, replicas=2, seed=17,
            output_dir=str(tmp_path / "sk"))
        path = tmp_path / "sk.ini"
        path.write_text(experiment.serialize_config(cfg))
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERIC == 4
        err = capsys.readouterr().err
        assert "all 2 replicas failed" in err and err.count("ConvergenceError") == 2


class TestMidRunFailures:
    """In lockstep, a replica that raises at generation t > 0 leaves the batch alone."""

    @staticmethod
    def fail(T):
        raise ConvergenceError("RS fixed point did not converge", residual=1.0)

    @classmethod
    def run_failing(cls, out, calls_before_failure, generations=5, fault=None):
        """Replica r's oracle meets `fault` (default: raise) after its first
        calls_before_failure[r] calls, at generation calls_before_failure[r]."""
        fault = fault or cls.fail
        original, built = experiment._build_oracle, []

        def build(cfg):
            oracle, replica = original(cfg), len(built)   # built in index order
            built.append(replica)
            if replica not in calls_before_failure:
                return oracle
            calls = {"n": 0}

            def energy(T):
                calls["n"] += 1
                if calls["n"] > calls_before_failure[replica]:
                    return fault(T)
                return oracle.energy(T)
            return tg.EnergyOracle(evaluator=energy)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "_build_oracle", build)
            return experiment.run_experiment(tiny_chain_config(out, generations, replicas=3))

    def assert_survivors_as_clean(self, tmp_path, generations):
        experiment.run_experiment(tiny_chain_config(tmp_path / "clean", generations, replicas=3))
        for name in ("replica_00.tsv", "replica_02.tsv"):
            assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

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
        # replica 2's learner fails at generation 1 and replica 0's at generation 4;
        # then replica 0's oracle fails at T0, and replica 2's learner at generation 3
        clean = tmp_path / "clean" / "replica_01.tsv"
        experiment.run_experiment(tiny_chain_config(clean.parent, replicas=3))
        for case, calls_before_failure in enumerate(({2: 1, 0: 4}, {0: 0, 2: 3})):
            out = tmp_path / f"f{case}"
            summary = self.run_failing(out, calls_before_failure)
            assert [r for r, _ in summary.replica_failures] == [0, 2]
            lines = (out / "failures.txt").read_text().splitlines()
            assert [line.split(":")[0] for line in lines] == ["replica 0", "replica 2"]
            assert summary.temperature.shape == (1, 6)
            assert (out / "replica_01.tsv").read_bytes() == clean.read_bytes()

    def test_failure_mid_block_leaves_survivors_as_clean(self, tmp_path):
        # replica 1 fails at generation G + 3; the survivors keep their rows of the
        # block of draws in progress
        summary = self.run_failing(tmp_path / "f", {1: G + 3}, generations=2 * G + 5)
        assert [r for r, _ in summary.replica_failures] == [1]
        assert not (tmp_path / "f" / "replica_01.tsv").exists()
        self.assert_survivors_as_clean(tmp_path, 2 * G + 5)

    def test_non_finite_energy_at_the_last_generation_fails_the_replica(self, tmp_path):
        summary = self.run_failing(tmp_path / "f", {1: 5}, fault=lambda T: float("nan"))
        assert [r for r, _ in summary.replica_failures] == [1]
        assert (tmp_path / "f" / "failures.txt").read_text().startswith(
            "replica 1: DomainError: U(T) = nan at T = ")
        assert not (tmp_path / "f" / "replica_01.tsv").exists()
        self.assert_survivors_as_clean(tmp_path, 5)

    def test_kernel_failure_fails_every_live_replica(self, tmp_path, monkeypatch):
        # the batched mutation raises at generation 3, which no single replica can
        # be blamed for; the learners run after the GA, so replica 1's oracle,
        # set to fail at generation 1, is never reached
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
            "(1, 'FloatingPointError: injected'), "
            "(2, 'FloatingPointError: injected')]")


class TestOutputResolution:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(tmp_path / "env"))
        cfg = tiny_chain_config(tmp_path / "cfgdir", name="envtest")
        out = experiment.resolve_output_dir(cfg.name, cfg.output_dir, override=tmp_path / "cli")
        assert out == tmp_path / "env" / "envtest"

    def test_override_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(experiment.ENV_OUTPUT_DIR, raising=False)
        cfg = tiny_chain_config(tmp_path / "cfgdir")
        out = experiment.resolve_output_dir(cfg.name, cfg.output_dir, override=tmp_path / "cli")
        assert out == tmp_path / "cli"


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

    def test_exact_column_counts_the_bonds(self, tmp_path):
        # an open chain of n spins has n - 1 bonds
        n, params = 20, tg.DisorderParams(0.0, 1.0, tg.ModelKind.CHAIN)
        cfg = experiment.McmcCurveConfig(
            name="curve", n=n, disorder=params, temperatures=(0.5, 1.0, 2.0), realizations=1,
            options=tg.MCMCOptions(sweeps=20, burn_in=5, thinning=3, chains=2),
            seed=5, output_dir=str(tmp_path / "curve"))
        rows = experiment.run_mcmc_curve(cfg)[1].read_text().splitlines()[1:]
        assert [float(row.split("\t")[1]) for row in rows] == [
            (n - 1) * analytic.chain_internal_energy(T, params) for T in cfg.temperatures]


class TestCli:
    def test_list_presets_verb(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fg1D" in out and "fgCSK" in out

    def test_package_runs_without_scipy(self):
        # numpy is the only runtime dependency: importing the package and running a
        # verb must not load scipy, which only the tests and the benchmark use
        code = ("import sys, thermoga, thermoga.cli\n"
                "assert thermoga.cli.main(['list-presets']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(tg.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_run_verb_with_config(self, tmp_path, capsys):
        cfg = tiny_chain_config(tmp_path / "cli-run", generations=2, replicas=1)
        path = tmp_path / "tiny.ini"
        path.write_text(experiment.serialize_config(cfg))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "cli-run" / "temperature.tsv").exists()

    def test_run_verb_with_percent_in_values(self, tmp_path, capsys):
        out = tmp_path / "run%1"
        text = ("[run]\nname = run%1\nmodel = chain\nn = 20\ngenerations = 2\nreplicas = 1\n"
                f"seed = 3\nt0 = 5.0\nlearning_rate = 1e-4\noutput_dir = {out}\n\n"
                "[ga]\npopulation_size = 8\n\n[disorder]\nmean = 0.0\nstd = 1.0\n")
        path = tmp_path / "percent.ini"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        written = experiment.load_config(out / "config.ini")
        assert (written.name, written.output_dir) == ("run%1", str(out))

    def test_oracle_check_output_dir_follows_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(tmp_path / "env"))
        assert cli.main(["oracle-check", "--out", str(tmp_path / "cli")]) == 0
        report = (tmp_path / "env" / "oracle-small-n" / "oracle_check.txt").read_text()
        assert report.splitlines() == capsys.readouterr().out.splitlines()
        assert not (tmp_path / "cli").exists()

        seen = []
        monkeypatch.setattr(experiment, "oracle_check",
                            lambda output_dir: seen.append(output_dir) or (True, []))
        assert cli.main(["oracle-check"]) == 0
        monkeypatch.delenv(experiment.ENV_OUTPUT_DIR)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["oracle-check"]) == 0
        assert cli.main(["oracle-check", "--out", str(tmp_path / "cli")]) == 0
        assert seen == [tmp_path / "env" / "oracle-small-n",
                        tmp_path / "thermoga_runs" / "oracle-small-n", tmp_path / "cli"]

    def test_failed_oracle_check_exits_numeric_on_every_verb(self, tmp_path, monkeypatch,
                                                              capsys):
        # the suite is the `oracle-check` verb alone: no preset or config kind runs it
        monkeypatch.setenv(experiment.ENV_OUTPUT_DIR, str(tmp_path / "env"))
        monkeypatch.setattr(experiment, "oracle_check",
                            lambda output_dir: (False, ["PASS  one", "FAIL  two"]))
        assert cli.main(["oracle-check"]) == cli.EXIT_NUMERIC == 4
        assert capsys.readouterr().out == "PASS  one\nFAIL  two\n"
        path = tmp_path / "suite.ini"
        path.write_text("[run]\nkind = oracle_suite\nname = oracle-small-n\nseed = 424242\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert cli.main(["preset", "oracle-small-n"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "env").exists()

    def test_unknown_preset_exit_code(self, capsys):
        assert cli.main(["preset", "nope"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: unknown preset 'nope'; available: "
                                           + ", ".join(experiment.list_presets()) + "\n")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = campaign\nname = x\nmodel = chain\nn = -3\n")
        assert cli.main(["run", str(path)]) != 0
        campaign = experiment.serialize_config(tiny_chain_config(tmp_path / "out"))
        curve = experiment.serialize_config(experiment.preset_configs("fg1", desk=True)[0][1])
        cases = [("n", "run", "[run]\nname = x\nmodel = chain\n"),
                 ("model", "run", "[run]\nname = x\nn = 8\n")]
        cases += [(key, section, drop_line(campaign, key)) for section, key in (
            ("run", "name"), ("run", "seed"), ("run", "generations"), ("run", "replicas"),
            ("run", "t0"), ("run", "learning_rate"), ("ga", "population_size"),
            ("disorder", "mean"), ("disorder", "std"))]
        cases += [(key, section, drop_line(curve, key)) for section, key in (
            ("run", "n"), ("run", "temperatures"), ("run", "realizations"), ("disorder", "std"))]
        cases.append(("mean", "disorder", campaign[:campaign.index("[disorder]")]))
        for key, section, text in cases:
            capsys.readouterr()
            path.write_text(text)
            assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: missing required key {key!r} in [{section}]\n")
        # a config.ini written while a campaign still named its oracle
        capsys.readouterr()
        old = campaign.replace("learning_rate = 0.0001\n",
                               "learning_rate = 0.0001\noracle = analytic_chain\n")
        assert old.count("oracle = ") == 1
        path.write_text(old)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown key 'oracle' in section [run] of a campaign config\n")
        # a config.ini written while a campaign still named its SK pair convention
        capsys.readouterr()
        path.write_text(campaign.replace("learning_rate = 0.0001\n",
                                         "learning_rate = 0.0001\nsk_pair_convention = ordered\n"))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown key 'sk_pair_convention' in section [run] of a campaign config\n")
        # a NaN or infinite beta would make every Boltzmann slot copy member 0 of its block
        boltzmann = campaign.replace("selection_mode = tournament", "selection_mode = boltzmann")
        assert boltzmann.count("boltzmann_beta = 0.0\n") == 1
        for value in ("nan", "inf"):
            capsys.readouterr()
            path.write_text(boltzmann.replace("boltzmann_beta = 0.0", f"boltzmann_beta = {value}"))
            assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
            assert "boltzmann_beta must be finite" in capsys.readouterr().err
        # INI text that configparser itself rejects
        for text, why in [(campaign[campaign.index("name = "):], "no section headers"),
                          (campaign.replace("seed = 9001\n", "seed = 9001\nseed = 9002\n"),
                           "option 'seed' in section 'run' already exists"),
                          (campaign + "[ga]\npopulation_size = 12\n",
                           "section 'ga' already exists")]:
            capsys.readouterr()
            path.write_text(text)
            assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and why in err
        capsys.readouterr()
        path.write_text("[run]\nkind = oracle_suite\nname = s\nseed = 1\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown config kind 'oracle_suite'; known: campaign, mcmc_curve\n")
        assert not (tmp_path / "out").exists()

    def test_malformed_config_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "nohdr.ini"
        path.write_text("name = x\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: File contains no section headers.")
        assert f"file: {str(path)!r}, line: 1" in err

    def test_single_site_genome_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "n1.ini"
        path.write_text(experiment.serialize_config(tiny_chain_config(tmp_path / "out"))
                        .replace("n = 30\n", "n = 1\n"))
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: genome length must be at least 2\n"
        assert not (tmp_path / "out").exists()
