"""Campaign orchestration: configs, seeded disorder-averaged runs, exports.

A campaign runs R independent replicas.  Each replica draws its own
disorder, initializes its own population and learner, and evolves for the
configured number of generations; every random stream is derived from the
base seed and the replica index, so a campaign is a pure function of its
config and every output byte is reproducible.  The replicas advance in
lockstep: their populations are the row blocks of one array, and one call
of the generation kernel advances them all, while each keeps its own
streams, learner and oracle.  A replica's output therefore does not depend
on R.  Replicas that fail, at set-up or mid-run, are recorded and dropped;
the disorder average is taken over the survivors.

Config files are flat two-level INI text (sections [run], [ga],
[disorder]); presets cover the standard figure-style experiments for both
models plus the MCMC-versus-exact internal-energy curve and a small-size
cross-oracle suite.  Desk variants shrink the system size for fast runs on
a laptop while keeping every other parameter.  `run_config` runs a config
of any of these kinds; `run_preset` and every CLI verb go through it.

The learner defaults used by the campaign presets (T0 = 10, eta = 3e-5/N
for the chain, 2.5e-3/N for the SK runs) are deliberate and documented in
the README: the null control (size-1 tournament) bounds eta*N from above,
while a measurable late-time power law bounds it from below.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, analytic, ga, learner, mcmc, spin_systems
from .errors import DomainError
from .spin_systems import DisorderParams, ModelKind

ENV_OUTPUT_DIR = "THERMOGA_OUTPUT_DIR"
SNAPSHOT_POLICIES = ("post_mutation", "post_selection")
ORACLES = ("analytic_chain", "analytic_sk", "mcmc", "enumeration")

# spawn-key slots per replica
_KEY_DISORDER, _KEY_INIT, _KEY_ORACLE, _KEY_GEN_BASE = 0, 1, 2, 3


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    model: ModelKind
    n: int
    ga: ga.GAParams
    disorder: DisorderParams
    t0: float
    learning_rate: float
    generations: int
    replicas: int
    seed: int
    oracle: str | None = None        # None: the model's analytic oracle
    snapshot_policy: str = "post_mutation"
    sk_pair_convention: str = spin_systems.SK_PAIR_CONVENTION
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", ModelKind(self.model))
        if self.oracle is None:
            object.__setattr__(self, "oracle", "analytic_chain" if self.model is ModelKind.CHAIN
                               else "analytic_sk")
        if self.generations < 1 or self.replicas < 1:
            raise ValueError("generations and replicas must be at least 1")
        if self.t0 <= 0 or self.learning_rate < 0:
            raise ValueError("t0 must be positive and learning_rate nonnegative")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.snapshot_policy not in SNAPSHOT_POLICIES:
            raise ValueError(f"unknown snapshot policy {self.snapshot_policy!r}")
        if self.sk_pair_convention not in spin_systems.SK_CONVENTIONS:
            raise ValueError(f"unknown pair convention {self.sk_pair_convention!r}")
        if self.ga.genome_length != self.n:
            raise ValueError("ga.genome_length must equal n")
        if self.disorder.model is not self.model:
            raise ValueError("disorder.model must match the experiment model")
        if self.oracle == "enumeration" and self.n > spin_systems.LANDSCAPE_CAP:
            raise ValueError("enumeration oracle only works for n <= 20")
        if self.oracle == "analytic_chain" and self.model is not ModelKind.CHAIN:
            raise ValueError("analytic_chain oracle requires the chain model")
        if self.oracle == "analytic_sk" and self.model is not ModelKind.SK:
            raise ValueError("analytic_sk oracle requires the SK model")


@dataclass(frozen=True)
class McmcCurveConfig:
    """Internal-energy curve: Metropolis estimates against the exact form."""

    name: str
    n: int
    disorder: DisorderParams
    temperatures: tuple[float, ...]
    realizations: int
    options: mcmc.MCMCOptions
    seed: int
    output_dir: str | None = None

    def __post_init__(self):
        if self.n < 2 or self.realizations < 1 or not self.temperatures:
            raise ValueError("need n >= 2, realizations >= 1 and a temperature grid")
        if any(t <= 0 for t in self.temperatures):
            raise DomainError("temperatures must be positive")


@dataclass(frozen=True)
class OracleSuiteConfig:
    name: str
    seed: int
    output_dir: str | None = None


@dataclass
class RunSummary:
    config: ExperimentConfig
    times: np.ndarray
    temperature: np.ndarray          # (replicas_ok, generations+1)
    u_ga: np.ndarray
    u_gibbs: np.ndarray
    best_energy: np.ndarray
    temperature_mean: np.ndarray
    temperature_stderr: np.ndarray
    series_name: str                 # "residual" (chain) or "fitness" (sk)
    series_mean: np.ndarray
    series_stderr: np.ndarray
    ground_energies: list[float] | None
    fits: dict
    replica_failures: list[tuple[int, str]]
    output_dir: Path


# ---------------------------------------------------------------------------
# config serialization (flat INI, two levels)

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, ModelKind):
        return v.value
    return str(v)


def serialize_config(cfg) -> str:
    parser = configparser.ConfigParser()
    if isinstance(cfg, ExperimentConfig):
        parser["run"] = {
            "kind": "campaign",
            "name": cfg.name,
            "model": cfg.model.value,
            "n": _fmt(cfg.n),
            "generations": _fmt(cfg.generations),
            "replicas": _fmt(cfg.replicas),
            "seed": _fmt(cfg.seed),
            "t0": _fmt(cfg.t0),
            "learning_rate": _fmt(cfg.learning_rate),
            "oracle": cfg.oracle,
            "snapshot_policy": cfg.snapshot_policy,
            "sk_pair_convention": cfg.sk_pair_convention,
        }
        if cfg.output_dir is not None:
            parser["run"]["output_dir"] = str(cfg.output_dir)
        parser["ga"] = {
            "population_size": _fmt(cfg.ga.population_size),
            "tournament_size": _fmt(cfg.ga.tournament_size),
            "crossover_rate": _fmt(cfg.ga.crossover_rate),
            "mutation_rate": _fmt(cfg.ga.mutation_rate),
            "selection_mode": cfg.ga.selection_mode,
            "boltzmann_beta": _fmt(cfg.ga.boltzmann_beta),
        }
        parser["disorder"] = {"mean": _fmt(cfg.disorder.mean), "std": _fmt(cfg.disorder.std)}
    elif isinstance(cfg, McmcCurveConfig):
        parser["run"] = {
            "kind": "mcmc_curve",
            "name": cfg.name,
            "n": _fmt(cfg.n),
            "temperatures": ", ".join(repr(float(t)) for t in cfg.temperatures),
            "realizations": _fmt(cfg.realizations),
            "seed": _fmt(cfg.seed),
            "sweeps": _fmt(cfg.options.sweeps),
            "burn_in": _fmt(cfg.options.burn_in),
            "thinning": _fmt(cfg.options.thinning),
            "chains": _fmt(cfg.options.chains),
        }
        if cfg.output_dir is not None:
            parser["run"]["output_dir"] = str(cfg.output_dir)
        parser["disorder"] = {"mean": _fmt(cfg.disorder.mean), "std": _fmt(cfg.disorder.std)}
    elif isinstance(cfg, OracleSuiteConfig):
        parser["run"] = {"kind": "oracle_suite", "name": cfg.name, "seed": _fmt(cfg.seed)}
        if cfg.output_dir is not None:
            parser["run"]["output_dir"] = str(cfg.output_dir)
    else:
        raise TypeError(f"cannot serialize {type(cfg).__name__}")
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def parse_config(text: str):
    parser = configparser.ConfigParser()
    parser.read_string(text)
    run = parser["run"]
    kind = run.get("kind", "campaign")
    out = run.get("output_dir", None)
    if kind == "oracle_suite":
        return OracleSuiteConfig(name=run["name"], seed=run.getint("seed"), output_dir=out)
    if kind == "mcmc_curve":
        dis = parser["disorder"]
        return McmcCurveConfig(
            name=run["name"],
            n=run.getint("n"),
            disorder=DisorderParams(mean=dis.getfloat("mean"), std=dis.getfloat("std"),
                                    model=ModelKind.CHAIN),
            temperatures=tuple(float(x) for x in run["temperatures"].split(",")),
            realizations=run.getint("realizations"),
            options=mcmc.MCMCOptions(sweeps=run.getint("sweeps"), burn_in=run.getint("burn_in"),
                                     thinning=run.getint("thinning"), chains=run.getint("chains")),
            seed=run.getint("seed"),
            output_dir=out,
        )
    model = ModelKind(run["model"])
    gasec = parser["ga"]
    dis = parser["disorder"]
    return ExperimentConfig(
        name=run["name"],
        model=model,
        n=run.getint("n"),
        ga=ga.GAParams(
            population_size=gasec.getint("population_size"),
            genome_length=run.getint("n"),
            tournament_size=gasec.getint("tournament_size"),
            crossover_rate=gasec.getfloat("crossover_rate"),
            mutation_rate=gasec.getfloat("mutation_rate"),
            selection_mode=gasec.get("selection_mode"),
            boltzmann_beta=gasec.getfloat("boltzmann_beta"),
        ),
        disorder=DisorderParams(mean=dis.getfloat("mean"), std=dis.getfloat("std"), model=model),
        t0=run.getfloat("t0"),
        learning_rate=run.getfloat("learning_rate"),
        generations=run.getint("generations"),
        replicas=run.getint("replicas"),
        seed=run.getint("seed"),
        oracle=run.get("oracle"),
        snapshot_policy=run.get("snapshot_policy", "post_mutation"),
        sk_pair_convention=run.get("sk_pair_convention", spin_systems.SK_PAIR_CONVENTION),
        output_dir=out,
    )


def load_config(path):
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# output helpers

def resolve_output_dir(cfg, override=None) -> Path:
    """Precedence: THERMOGA_OUTPUT_DIR env var, explicit override, config, cwd."""
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env) / cfg.name
    if override is not None:
        return Path(override)
    if cfg.output_dir is not None:
        return Path(cfg.output_dir)
    return Path.cwd() / "thermoga_runs" / cfg.name


def write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> Path:
    """Tab-separated table, full double precision, LF endings."""
    rows = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for i in range(rows):
            fh.write("\t".join(_cell(col[i]) for col in columns) + "\n")
    return path


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# the campaign itself

def _build_disorder(cfg: ExperimentConfig, replica: int):
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, _KEY_DISORDER))
    if cfg.model is ModelKind.CHAIN:
        return spin_systems.sample_chain_disorder(cfg.n, cfg.disorder, seed)
    return spin_systems.sample_sk_disorder(cfg.n, cfg.disorder, seed, cfg.sk_pair_convention)


def _build_evaluator(cfg: ExperimentConfig, disorder):
    if cfg.model is ModelKind.CHAIN:
        return spin_systems.chain_evaluator(disorder)
    return spin_systems.sk_evaluator(disorder)


def _build_oracle(cfg: ExperimentConfig, disorder, replica: int) -> learner.EnergyOracle:
    if cfg.oracle == "analytic_chain":
        return learner.analytic_chain_oracle(cfg.n, cfg.disorder)
    if cfg.oracle == "analytic_sk":
        return learner.analytic_sk_oracle(cfg.n, cfg.disorder)
    if cfg.oracle == "enumeration":
        return learner.enumeration_oracle(disorder)
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, _KEY_ORACLE))
    opts = mcmc.MCMCOptions(sweeps=400, burn_in=100, thinning=3, chains=4)
    return learner.mcmc_oracle(disorder, opts, seed)


def _start_replica(cfg: ExperimentConfig, replica: int):
    """Disorder, oracle, learner, generation-0 population and U(T0) of one replica."""
    disorder = _build_disorder(cfg, replica)
    model = _build_evaluator(cfg, disorder)
    oracle = _build_oracle(cfg, disorder, replica)
    pop = ga.init_population(cfg.ga, model,
                             np.random.SeedSequence(entropy=cfg.seed,
                                                    spawn_key=(replica, _KEY_INIT)))
    state = learner.LearnerState(temperature=cfg.t0, learning_rate=cfg.learning_rate)
    u_gibbs = oracle.energy(state.temperature)
    ground = spin_systems.chain_ground_state(disorder)[0] if cfg.model is ModelKind.CHAIN else None
    return disorder, oracle, state, pop, u_gibbs, ground


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_replicas(cfg: ExperimentConfig):
    """Advance every replica in lockstep, one batched generation at a time.

    Replica r's members are row block r of one population; each generation
    draws from the replica's own `SeedSequence(seed, (r, 3 + t))`, so its
    trajectory does not depend on the other replicas.  The learner step and
    the oracle stay per replica.  A replica that raises, at set-up or at any
    later generation, is recorded and dropped from the batch, and the rest
    run on.
    """
    started, failures = [], []
    for r in range(cfg.replicas):
        try:
            started.append((r, *_start_replica(cfg, r)))
        except Exception as exc:   # noqa: BLE001 - replica isolation is the contract
            failures.append((r, _failure(exc)))
    if not started:
        raise RuntimeError(f"all {cfg.replicas} replicas failed: {failures}")
    ids, disorders, oracles, states, pops, u_gibbs_0, grounds = map(list, zip(*started))

    m, rows = cfg.ga.population_size, cfg.generations + 1
    temp, u_ga, u_gibbs, best = (np.empty((len(ids), rows)) for _ in range(4))
    temp[:, 0] = [state.temperature for state in states]
    u_ga[:, 0] = [ga.empirical_energy(p) for p in pops]
    u_gibbs[:, 0] = u_gibbs_0
    best[:, 0] = [float(p.energies.min()) for p in pops]

    live = list(range(len(ids)))
    pop = ga.Population(members=np.concatenate([p.members for p in pops]),
                        energies=np.concatenate([p.energies for p in pops]), generation=0)
    model = spin_systems.replica_evaluator(disorders)
    for t in range(1, rows):
        seeds = ga.BlockSeeds(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(ids[k], _KEY_GEN_BASE + t))
            for k in live)
        try:
            selected, pop = ga.step_generation(pop, cfg.ga, model, seeds, return_selected=True)
        except Exception as exc:   # noqa: BLE001 - the batch fails as one
            failures += [(ids[k], _failure(exc)) for k in live]
            live = []
            break
        measured = selected if cfg.snapshot_policy == "post_selection" else pop
        u_meas = measured.energies.reshape(-1, m).mean(axis=1)
        u_ga[live, t] = u_meas
        best[live, t] = pop.energies.reshape(-1, m).min(axis=1)
        kept = []
        for j, k in enumerate(live):
            try:
                states[k] = learner.learner_step(states[k], float(u_meas[j]),
                                                 float(u_gibbs[k, t - 1]))
                temp[k, t] = states[k].temperature
                u_gibbs[k, t] = oracles[k].energy(states[k].temperature)
                kept.append(j)
            except Exception as exc:   # noqa: BLE001 - replica isolation is the contract
                failures.append((ids[k], _failure(exc)))
        if len(kept) < len(live):
            live = [live[j] for j in kept]
            if not live:
                break
            block = (np.asarray(kept)[:, None] * m + np.arange(m)).ravel()
            pop = ga.Population(members=pop.members[block], energies=pop.energies[block],
                                generation=pop.generation)
            model = spin_systems.replica_evaluator([disorders[k] for k in live])

    failures.sort()
    if not live:
        raise RuntimeError(f"all {cfg.replicas} replicas failed: {failures}")
    return temp[live], u_ga[live], u_gibbs[live], best[live], [grounds[k] for k in live], failures


def _default_fit_window(times: np.ndarray) -> tuple[float, float]:
    """Last two decades of the time axis (the asymptotic regime)."""
    t_max = float(times[-1])
    return (max(1.0, t_max / 100.0), t_max)


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> RunSummary:
    """Run all replicas, average, fit, and write the raw output files."""
    out = resolve_output_dir(cfg, output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg))

    temp, u_ga, u_gibbs, best, grounds, failures = _run_replicas(cfg)

    times = np.arange(cfg.generations + 1, dtype=np.float64)
    t_mean, t_err = learner.disorder_averaged_trajectory(temp)

    if cfg.model is ModelKind.CHAIN:
        per_replica = []
        for k, g in enumerate(grounds):
            series = analysis.TimeSeries(times[1:], best[k, 1:])
            per_replica.append(analysis.residual_energy_series(series, g).values)
        series_name = "residual"
        s_mean, s_err = learner.disorder_averaged_trajectory(per_replica)
        series_times = times[1:]
    else:
        grounds = None
        series_name = "fitness"
        s_mean, s_err = learner.disorder_averaged_trajectory(-u_ga[:, 1:])
        series_times = times[1:]

    fits = {}
    window = _default_fit_window(times[1:])
    try:
        fits["temperature"] = analysis.fit_power_law(
            analysis.TimeSeries(times[1:], t_mean[1:]), window)
    except (DomainError, analysis.InsufficientDataError) as exc:
        fits["temperature"] = f"unavailable ({exc})"
    try:
        fits[series_name] = analysis.fit_power_law(
            analysis.TimeSeries(series_times, s_mean), window)
    except (DomainError, analysis.InsufficientDataError, ValueError) as exc:
        fits[series_name] = f"unavailable ({exc})"
    try:
        fits["temperature_crossover"] = analysis.detect_crossover(
            analysis.TimeSeries(times[1:], t_mean[1:]))
    except (DomainError, analysis.InsufficientDataError) as exc:
        fits["temperature_crossover"] = f"unavailable ({exc})"

    summary = RunSummary(
        config=cfg, times=times, temperature=temp, u_ga=u_ga, u_gibbs=u_gibbs,
        best_energy=best, temperature_mean=t_mean, temperature_stderr=t_err,
        series_name=series_name,
        series_mean=s_mean, series_stderr=s_err,
        ground_energies=grounds, fits=fits, replica_failures=failures, output_dir=out,
    )

    ok_replicas = [r for r in range(cfg.replicas) if r not in [f[0] for f in failures]]
    for row_idx, r in enumerate(ok_replicas):
        write_table(out / f"replica_{r:02d}.tsv",
                    ["t", "temperature", "u_ga", "u_gibbs", "best_energy"],
                    [times, temp[row_idx], u_ga[row_idx], u_gibbs[row_idx], best[row_idx]])
    if failures:
        with open(out / "failures.txt", "w", newline="\n") as fh:
            for r, msg in failures:
                fh.write(f"replica {r}: {msg}\n")
    return summary


def emit_plot_data(summary: RunSummary) -> list[Path]:
    """Figure-ready averaged files and the plain-text fit report."""
    out = summary.output_dir
    paths = [
        write_table(out / "temperature.tsv", ["t", "temperature_mean", "temperature_stderr"],
                    [summary.times, summary.temperature_mean, summary.temperature_stderr]),
        write_table(out / f"{summary.series_name}.tsv",
                    ["t", f"{summary.series_name}_mean", f"{summary.series_name}_stderr"],
                    [summary.times[1:], summary.series_mean, summary.series_stderr]),
    ]
    report = out / "fit_report.txt"
    with open(report, "w", newline="\n") as fh:
        for key in sorted(summary.fits):
            fit = summary.fits[key]
            if isinstance(fit, analysis.PowerLawFit):
                fh.write(f"{key}.exponent = {fit.exponent:.17g}\n")
                fh.write(f"{key}.amplitude = {fit.amplitude:.17g}\n")
                fh.write(f"{key}.window = {fit.window[0]:.17g} .. {fit.window[1]:.17g}\n")
                fh.write(f"{key}.r_squared = {fit.r_squared:.17g}\n")
            elif isinstance(fit, analysis.CrossoverFit):
                fh.write(f"{key}.t_break = {fit.t_break:.17g}\n")
                fh.write(f"{key}.exponent_early = {fit.exponent_early:.17g}\n")
                fh.write(f"{key}.exponent_late = {fit.exponent_late:.17g}\n")
            else:
                fh.write(f"{key} = {fit}\n")
    paths.append(report)
    return paths


def run_mcmc_curve(cfg: McmcCurveConfig, output_dir=None) -> list[Path]:
    """Disorder-averaged Metropolis energies against the exact chain curve."""
    out = resolve_output_dir(cfg, output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg))

    temps = np.asarray(cfg.temperatures)
    means = np.empty(temps.size)
    errs = np.empty(temps.size)
    disorders = [spin_systems.sample_chain_disorder(
                     cfg.n, cfg.disorder,
                     np.random.SeedSequence(entropy=cfg.seed, spawn_key=(d_idx, 0)))
                 for d_idx in range(cfg.realizations)]
    for ti, T in enumerate(temps):
        arr = np.array([
            mcmc.estimate_internal_energy(
                dis, float(T), cfg.options,
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(d_idx, 1 + ti)))[0]
            for d_idx, dis in enumerate(disorders)])
        means[ti] = arr.mean()
        errs[ti] = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0

    exact = np.array([cfg.n * analytic.chain_internal_energy(float(T), cfg.disorder)
                      for T in temps])
    return [
        write_table(out / "curve_mcmc.tsv", ["T", "U_mean", "U_stderr"], [temps, means, errs]),
        write_table(out / "curve_exact.tsv", ["T", "U_exact"], [temps, exact]),
    ]


# ---------------------------------------------------------------------------
# cross-oracle suite

def oracle_check(seed: int = 424242, output_dir=None) -> tuple[bool, list[str]]:
    """Small-size agreement checks between independent oracles."""
    lines = []
    ok = True

    def record(label, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'}  {label}{'  ' + detail if detail else ''}")

    chain_params = DisorderParams(0.0, 1.0, ModelKind.CHAIN)
    sk_params = DisorderParams(0.0, 1.0, ModelKind.SK)
    root = np.random.SeedSequence(seed)
    seeds = root.spawn(6)

    # exact chain ground state vs exhaustive enumeration
    worst = 0.0
    exact_all = True
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(20)):
        d = spin_systems.sample_chain_disorder(10, chain_params, child)
        e_gs, _ = spin_systems.chain_ground_state(d)
        e_min = float(np.min(spin_systems.enumerate_landscape(d)[1]))
        exact_all = exact_all and (e_gs == e_min)
        worst = max(worst, abs(e_gs - e_min))
    record("chain ground state == exhaustive minimum (20 instances, n=10)",
           exact_all, f"worst |diff| = {worst:.3g}")

    # Metropolis vs exact enumeration, both models
    opts = mcmc.MCMCOptions(sweeps=3000, burn_in=500, thinning=3, chains=6)
    d = spin_systems.sample_chain_disorder(10, chain_params, seeds[0])
    est, se = mcmc.estimate_internal_energy(d, 1.0, opts, seeds[1])
    exact_u = mcmc.exact_gibbs_expectation(d, 1.0)[0]
    record("chain Metropolis vs exact Gibbs (n=10, T=1)",
           abs(est - exact_u) < 4 * max(se, 1e-12), f"z = {abs(est - exact_u) / max(se, 1e-12):.2f}")
    dsk = spin_systems.sample_sk_disorder(10, sk_params, seeds[2])
    est, se = mcmc.estimate_internal_energy(dsk, 1.0, opts, seeds[3])
    exact_u = mcmc.exact_gibbs_expectation(dsk, 1.0)[0]
    record("SK Metropolis vs exact Gibbs (n=10, T=1)",
           abs(est - exact_u) < 4 * max(se, 1e-12), f"z = {abs(est - exact_u) / max(se, 1e-12):.2f}")

    # RS fixed point: paramagnetic root and the near-frozen limit
    rs = analytic.sk_rs_fixed_point(2.0, sk_params)
    record("RS q(T=2) = 0 at (J0, J) = (0, 1)", abs(rs.q) < 1e-10, f"q = {rs.q:.3e}")
    rs_cold = analytic.sk_rs_fixed_point(0.02, sk_params)
    record("RS q(T=0.02) >= 0.95", rs_cold.q >= 0.95, f"q = {rs_cold.q:.6f}")

    # chain thermodynamic identity U = -df/dbeta at T = 1
    h = 1e-5
    u_direct = analytic.chain_internal_energy(1.0, chain_params)
    f_hi = analytic.chain_free_energy_density(1.0 / (1.0 + h), chain_params)
    f_lo = analytic.chain_free_energy_density(1.0 / (1.0 - h), chain_params)
    u_fd = -(f_hi - f_lo) / (2 * h)
    record("chain U(T=1) matches -df/dbeta", abs(u_direct - u_fd) < 1e-6 * abs(u_fd),
           f"rel diff = {abs(u_direct - u_fd) / abs(u_fd):.2e}")

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "oracle_check.txt").write_text("\n".join(lines) + "\n")
    return ok, lines


# ---------------------------------------------------------------------------
# presets

_CHAIN_ETA_TIMES_N = 3e-5
_SK_ETA_TIMES_N = 2.5e-3
_T0 = 10.0
_GENERATIONS = 2000
_REPLICAS = 10
_POP = 100


def _chain_campaign(name, variant, seed, desk, sigma=2, p_c=0.1, p_m=0.001):
    n = 200 if desk else 2000
    return ExperimentConfig(
        name=f"{name}/{variant}" if variant else name,
        model=ModelKind.CHAIN,
        n=n,
        ga=ga.GAParams(population_size=_POP, genome_length=n, tournament_size=sigma,
                       crossover_rate=p_c, mutation_rate=p_m),
        disorder=DisorderParams(0.0, 1.0, ModelKind.CHAIN),
        t0=_T0,
        learning_rate=_CHAIN_ETA_TIMES_N / n,
        generations=_GENERATIONS,
        replicas=_REPLICAS,
        seed=seed,
    )


def _sk_campaign(name, variant, seed, desk, sigma=2, p_c=0.05, p_m=0.005):
    n = 100 if desk else 500
    return ExperimentConfig(
        name=f"{name}/{variant}" if variant else name,
        model=ModelKind.SK,
        n=n,
        ga=ga.GAParams(population_size=_POP, genome_length=n, tournament_size=sigma,
                       crossover_rate=p_c, mutation_rate=p_m),
        disorder=DisorderParams(0.0, 1.0, ModelKind.SK),
        t0=_T0,
        learning_rate=_SK_ETA_TIMES_N / n,
        generations=_GENERATIONS,
        replicas=_REPLICAS,
        seed=seed,
    )


def _preset_fg1(desk):
    return [("fg1", McmcCurveConfig(
        name="fg1",
        n=300 if desk else 3000,
        disorder=DisorderParams(0.0, 1.0, ModelKind.CHAIN),
        temperatures=(0.2, 0.3, 0.5, 0.7, 1.0, 1.3, 1.6, 2.0, 2.4, 3.0),
        realizations=4 if desk else 10,
        options=mcmc.MCMCOptions(sweeps=800, burn_in=200, thinning=3, chains=4) if desk
        else mcmc.MCMCOptions(sweeps=2500, burn_in=500, thinning=5, chains=10),
        seed=190,
    ))]


def _preset_oracles(desk):
    return [("oracle-small-n", OracleSuiteConfig(name="oracle-small-n", seed=424242))]


_PRESET_BUILDERS = {
    "fg1": _preset_fg1,
    "fg1D": lambda desk: [("fg1D", _chain_campaign("fg1D", "", 101, desk))],
    "fgNo": lambda desk: [("fgNo", _chain_campaign("fgNo", "", 102, desk, sigma=1))],
    "fgS": lambda desk: [(f"sigma{s}", _chain_campaign("fgS", f"sigma{s}", 103, desk, sigma=s))
                         for s in (2, 3, 4)],
    # union of the two reported mutation grids for the chain
    "fgM": lambda desk: [(f"pm{pm}", _chain_campaign("fgM", f"pm{pm}", 104, desk, p_m=pm))
                         for pm in (0.0001, 0.0005, 0.001, 0.005)],
    "fgC": lambda desk: [(f"pc{pc}", _chain_campaign("fgC", f"pc{pc}", 105, desk, p_c=pc))
                         for pc in (1.0, 0.5, 0.1)],
    "fgSSK": lambda desk: [(f"sigma{s}", _sk_campaign("fgSSK", f"sigma{s}", 106, desk, sigma=s))
                           for s in (2, 3, 4)],
    "fgMSK": lambda desk: [(f"pm{pm}", _sk_campaign("fgMSK", f"pm{pm}", 107, desk, p_m=pm))
                           for pm in (0.005, 0.001)],
    "fgCSK": lambda desk: [(f"pc{pc}", _sk_campaign("fgCSK", f"pc{pc}", 108, desk, p_c=pc))
                           for pc in (0.1, 0.05, 0.01)],
    "oracle-small-n": _preset_oracles,
}


def list_presets() -> list[str]:
    return list(_PRESET_BUILDERS)


def preset_configs(name: str, desk: bool = False):
    """(variant label, config) pairs for one preset."""
    if name not in _PRESET_BUILDERS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return _PRESET_BUILDERS[name](desk)


class RunResult(NamedTuple):
    """Where one run wrote its files, and whether its checks passed."""

    output_dir: Path
    passed: bool = True
    report: list[str] | None = None  # the oracle suite's PASS/FAIL lines


def run_config(cfg, output_dir=None) -> RunResult:
    """Run one config of any kind and write its files."""
    if isinstance(cfg, ExperimentConfig):
        summary = run_experiment(cfg, output_dir=output_dir)
        emit_plot_data(summary)
        return RunResult(summary.output_dir)
    if isinstance(cfg, McmcCurveConfig):
        return RunResult(run_mcmc_curve(cfg, output_dir=output_dir)[0].parent)
    out = resolve_output_dir(cfg, output_dir)
    passed, lines = oracle_check(cfg.seed, output_dir=out)
    return RunResult(out, passed, lines)


def run_preset(name: str, desk: bool = False, output_dir=None) -> list[RunResult]:
    """Run every variant of a preset, each into its own directory."""
    variants = preset_configs(name, desk)
    if output_dir is None:
        return [run_config(cfg) for _, cfg in variants]
    base = Path(output_dir)
    return [run_config(cfg, base / label if len(variants) > 1 else base)
            for label, cfg in variants]
