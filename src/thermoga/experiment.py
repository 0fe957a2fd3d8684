"""Campaign orchestration: configs, seeded disorder-averaged runs, exports.

A campaign runs R independent replicas.  Each replica draws its own
disorder and initial population and evolves for the configured number of
generations; then its temperature takes one learner step per generation
towards the mean energy of the offspring.  The learner's U(T) is the
model's quenched average, the chain quadrature or the SK replica-symmetric
energy, since the GA is judged on average-case performance; no config key
picks another.  A replica's random streams derive from the base seed and
the replica index: one for its disorder, one for its initial
population, and one generator, built once per run, from which the GA draws
`ga.DRAW_BLOCK` generations at a time.  So a campaign is a pure function
of its config.  The replicas advance in lockstep as the row blocks of one
population, one call of the generation kernel for them all, and each keeps
its own generator.  Draws come in whole blocks
whatever the run length and whichever replicas fail, so a replica's output
depends neither on R nor on the other replicas, and a shorter run's rows
are the first rows of a longer one.
A replica that fails at set-up never joins the batch, an exception from the
batch fails all of it, and a replica whose learner raises (its oracle at T0
included) is dropped after the run.  Each is listed in `failures.txt`, and
the disorder average is taken over the survivors.

A campaign config states each setting once: its system size `n` and its
`model` are read from `ga.genome_length` and `disorder.model`.  Config
files are flat two-level INI text (sections [run], [ga], [disorder]),
written and read through one table of each kind's keys; a key left out
takes its dataclass default, and a section or key the config's kind does
not define is an error.  Presets cover the standard figure-style
experiments for both models plus the MCMC-versus-exact internal-energy
curve.  Desk variants shrink the system size for fast runs on a laptop while
keeping every other parameter.  `run_config` runs a config of either kind and
`run_preset` goes through it.  The small-size cross-oracle suite,
`oracle_check`, has no config: it is a fixed set of checks at one seed.

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

# spawn-key slots per replica: disorder, initial population, and the one generator
# from which `ga.draw_generations` draws every block of generations; 2 is unused
_KEY_DISORDER, _KEY_INIT, _KEY_GA = 0, 1, 3


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign.  The system size and the model are those of `ga` and `disorder`."""

    name: str
    ga: ga.GAParams
    disorder: DisorderParams
    t0: float
    learning_rate: float
    generations: int
    replicas: int
    seed: int
    output_dir: str | None = None

    def __post_init__(self):
        if self.generations < 1 or self.replicas < 1:
            raise ValueError("generations and replicas must be at least 1")
        if not (learner.T_FLOOR <= self.t0 < np.inf and 0 <= self.learning_rate < np.inf):
            raise ValueError(f"t0 must be finite and at least learner.T_FLOOR = "
                             f"{learner.T_FLOOR}, and learning_rate finite and nonnegative")

    @property
    def n(self) -> int:
        return self.ga.genome_length

    @property
    def model(self) -> ModelKind:
        return self.disorder.model


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
        if not all(t > 0 for t in self.temperatures):
            raise DomainError("temperatures must be positive")


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

# the keys of each config kind by section, in file order, and how each value is read;
# a key left out takes the default of the dataclass it belongs to.  A [run] key is the
# config's attribute of that name, except an mcmc_curve's sampler keys, which are
# those of its `options`; a key of any other section is a field of the attribute
# named after the section (`cfg.ga`, `cfg.disorder`)
_SAMPLER = {"sweeps": int, "burn_in": int, "thinning": int, "chains": int}
_DISORDER = {"mean": float, "std": float}
_SCHEMAS = {
    "campaign": {
        "run": {"kind": str, "name": str, "model": ModelKind, "n": int, "generations": int,
                "replicas": int, "seed": int, "t0": float, "learning_rate": float,
                "output_dir": str},
        "ga": {"population_size": int, "tournament_size": int, "crossover_rate": float,
               "mutation_rate": float, "selection_mode": str, "boltzmann_beta": float},
        "disorder": _DISORDER,
    },
    "mcmc_curve": {
        "run": {"kind": str, "name": str, "n": int,
                "temperatures": lambda text: tuple(float(x) for x in text.split(",")),
                "realizations": int, "seed": int, **_SAMPLER, "output_dir": str},
        "disorder": _DISORDER,
    },
}
_KINDS = {ExperimentConfig: "campaign", McmcCurveConfig: "mcmc_curve"}


def _field_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, ModelKind):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(repr(float(t)) for t in value)
    return str(value)


def serialize_config(cfg) -> str:
    """The config file text of `cfg`: its kind's `_SCHEMAS` keys in order, a None value left out."""
    kind = _KINDS.get(type(cfg))
    if kind is None:
        raise TypeError(f"cannot serialize {type(cfg).__name__}")
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _SCHEMAS[kind].items():
        parser[section] = {}
        for key in keys:
            if key == "kind":
                value = kind
            elif section != "run":
                value = getattr(getattr(cfg, section), key)
            else:
                value = getattr(cfg.options if key in _SAMPLER else cfg, key)
            if value is not None:
                parser[section][key] = _field_text(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# the keys whose dataclass field has no default, in whichever kind and section
_REQUIRED = {"name", "seed", "model", "n", "generations", "replicas", "t0", "learning_rate",
             "population_size", "mean", "std", "temperatures", "realizations"}


def parse_config(text: str, source: str = "<string>"):
    """The config of the text of file `source`; a section or key its kind does not define is an error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:   # no section header, a duplicate key or section
        raise ValueError(str(exc)) from exc
    kind = parser.get("run", "kind", fallback="campaign")
    if kind not in _SCHEMAS:
        raise ValueError(f"unknown config kind {kind!r}; known: {', '.join(_SCHEMAS)}")
    schema = _SCHEMAS[kind]
    values = {section: {} for section in schema}   # the keys present, typed
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"unknown section [{section}] in a {kind} config")
        for key, raw in parser[section].items():
            if key not in schema[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}] of a {kind} config")
            values[section][key] = schema[section][key](raw)
    for section, keys in schema.items():
        for key in keys:
            if key in _REQUIRED and key not in values[section]:
                raise ValueError(f"missing required key {key!r} in [{section}]")
    run = values["run"]
    run.pop("kind", None)
    if kind == "mcmc_curve":
        options = {key: run.pop(key) for key in _SAMPLER if key in run}
        return McmcCurveConfig(
            **run, options=mcmc.MCMCOptions(**options),
            disorder=DisorderParams(**values["disorder"], model=ModelKind.CHAIN))
    n, model = run.pop("n"), run.pop("model")
    return ExperimentConfig(**run, ga=ga.GAParams(**values["ga"], genome_length=n),
                            disorder=DisorderParams(**values["disorder"], model=model))


def load_config(path):
    return parse_config(Path(path).read_text(), str(path))


# ---------------------------------------------------------------------------
# output helpers

def resolve_output_dir(name: str, configured=None, override=None) -> Path:
    """The directory of run `name`.  Precedence: THERMOGA_OUTPUT_DIR env var (plus
    `name`), explicit override, the configured directory, cwd (plus `name`)."""
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env) / name
    if override is not None:
        return Path(override)
    if configured is not None:
        return Path(configured)
    return Path.cwd() / "thermoga_runs" / name


def write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> Path:
    """Tab-separated table, full double precision, LF endings."""
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter="\t",
                   header="\t".join(header), comments="")
    return path


# ---------------------------------------------------------------------------
# the campaign itself

def _build_disorder(cfg: ExperimentConfig, replica: int):
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(replica, _KEY_DISORDER))
    if cfg.model is ModelKind.CHAIN:
        return spin_systems.sample_chain_disorder(cfg.n, cfg.disorder, seed)
    return spin_systems.sample_sk_disorder(cfg.n, cfg.disorder, seed)


def _build_evaluator(cfg: ExperimentConfig, disorder):
    if cfg.model is ModelKind.CHAIN:
        return spin_systems.chain_evaluator(disorder)
    return spin_systems.sk_evaluator(disorder)


def _build_oracle(cfg: ExperimentConfig) -> learner.EnergyOracle:
    """The model's quenched-average U(T): the learner's oracle is the same for every replica."""
    if cfg.model is ModelKind.CHAIN:
        return learner.analytic_chain_oracle(cfg.n, cfg.disorder)
    return learner.analytic_sk_oracle(cfg.n, cfg.disorder)


def _start_replica(cfg: ExperimentConfig, replica: int):
    """Disorder, generation-0 population, ground energy and GA generator of one replica."""
    disorder = _build_disorder(cfg, replica)
    model = _build_evaluator(cfg, disorder)
    pop = ga.init_population(cfg.ga, model,
                             np.random.SeedSequence(entropy=cfg.seed,
                                                    spawn_key=(replica, _KEY_INIT)))
    ground = spin_systems.chain_ground_state(disorder)[0] if cfg.model is ModelKind.CHAIN else None
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                       spawn_key=(replica, _KEY_GA)))
    return disorder, pop, ground, rng


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _each_replica(ids, work, failures):
    """The positions k of `ids` at which `work(k)` returned, and what it returned;
    a replica whose work raises is recorded in `failures` and left out."""
    done = []
    for k, r in enumerate(ids):
        try:
            done.append((k, work(k)))
        except Exception as exc:   # noqa: BLE001 - replica isolation is the contract
            failures.append((r, _failure(exc)))
    if not done:
        raise RuntimeError(f"all {len(failures)} replicas failed: {sorted(failures)}")
    return map(list, zip(*done))


def _run_replicas(cfg: ExperimentConfig):
    """Evolve every replica in lockstep, one batched generation at a time, then learn.

    Replica r owns a row block of the population and the generator
    `default_rng(SeedSequence(seed, (r, 3)))`; every started replica draws a
    block of `ga.DRAW_BLOCK` generations at each block start.  The GA loop
    records only the mean and best energies; each replica's schedule is then
    learned from its own.  Returns the surviving replica ids and their rows.
    """
    failures = []
    ids, started = _each_replica(range(cfg.replicas), lambda r: _start_replica(cfg, r), failures)
    disorders, pops, grounds, rngs = map(list, zip(*started))

    m, rows = cfg.ga.population_size, cfg.generations + 1
    u_ga, best = np.empty((len(ids), rows)), np.empty((len(ids), rows))
    pop = ga.Population(members=np.concatenate([p.members for p in pops]),
                        energies=np.concatenate([p.energies for p in pops]))
    model = spin_systems.replica_evaluator(disorders)
    for t in range(rows):
        if t:
            g = (t - 1) % ga.DRAW_BLOCK
            try:
                if g == 0:
                    block_draws = ga.draw_generations(rngs, cfg.ga)
                pop = ga.step_generation(pop, cfg.ga, model, block_draws[g])
            except Exception as exc:   # noqa: BLE001 - the batch fails as one
                failures += [(r, _failure(exc)) for r in ids]
                raise RuntimeError(f"all {len(failures)} replicas failed: {sorted(failures)}")
        energies = pop.energies.reshape(-1, m)
        u_ga[:, t] = energies.mean(axis=1)
        best[:, t] = energies.min(axis=1)

    kept, schedules = _each_replica(ids, lambda k: learner.learn_schedule(
        u_ga[k], cfg.t0, cfg.learning_rate, _build_oracle(cfg)), failures)
    temp, u_gibbs = (np.stack(column) for column in zip(*schedules))
    return ([ids[k] for k in kept], temp, u_ga[kept], u_gibbs, best[kept],
            [grounds[k] for k in kept], sorted(failures))


def _fit_or_reason(fit):
    """The fit's result, or why the data do not support it; any other error is a fault."""
    try:
        return fit()
    except (DomainError, analysis.InsufficientDataError) as exc:
        return f"unavailable ({exc})"


def _default_fit_window(times: np.ndarray) -> tuple[float, float]:
    """Last two decades of the time axis (the asymptotic regime)."""
    t_max = float(times[-1])
    return (max(1.0, t_max / 100.0), t_max)


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> RunSummary:
    """Run all replicas, average, fit, and write the raw output files."""
    out = resolve_output_dir(cfg.name, cfg.output_dir, output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(serialize_config(cfg))

    ids, temp, u_ga, u_gibbs, best, grounds, failures = _run_replicas(cfg)

    times = np.arange(cfg.generations + 1, dtype=np.float64)
    t_mean, t_err = learner.disorder_averaged_trajectory(temp)

    if cfg.model is ModelKind.CHAIN:
        per_replica = []
        for k, g in enumerate(grounds):
            series = analysis.TimeSeries(times[1:], best[k, 1:])
            per_replica.append(analysis.residual_energy_series(series, g).values)
        series_name = "residual"
        s_mean, s_err = learner.disorder_averaged_trajectory(per_replica)
    else:
        grounds = None
        series_name = "fitness"
        s_mean, s_err = learner.disorder_averaged_trajectory(-u_ga[:, 1:])

    window = _default_fit_window(times[1:])
    fits = {
        "temperature": _fit_or_reason(lambda: analysis.fit_power_law(
            analysis.TimeSeries(times[1:], t_mean[1:]), window)),
        series_name: _fit_or_reason(lambda: analysis.fit_power_law(
            analysis.TimeSeries(times[1:], s_mean), window)),
        "temperature_crossover": _fit_or_reason(lambda: analysis.detect_crossover(
            analysis.TimeSeries(times[1:], t_mean[1:]))),
    }

    summary = RunSummary(
        config=cfg, times=times, temperature=temp, u_ga=u_ga, u_gibbs=u_gibbs,
        best_energy=best, temperature_mean=t_mean, temperature_stderr=t_err,
        series_name=series_name,
        series_mean=s_mean, series_stderr=s_err,
        ground_energies=grounds, fits=fits, replica_failures=failures, output_dir=out,
    )

    for row_idx, r in enumerate(ids):
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
    """Disorder-averaged Metropolis energies against the exact chain curve.

    An open chain of n spins has n - 1 bonds, so its exact disorder-averaged
    energy is (n - 1) u(T) for the energy per bond u(T).
    """
    out = resolve_output_dir(cfg.name, cfg.output_dir, output_dir)
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

    exact = np.array([(cfg.n - 1) * analytic.chain_internal_energy(float(T), cfg.disorder)
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
        e_min = float(np.min(spin_systems.enumerate_landscape(d)))
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

_T0 = 10.0
_GENERATIONS = 2000
_REPLICAS = 10
_POP = 100


class _ModelPreset(NamedTuple):
    n: int
    desk_n: int
    eta_times_n: float
    p_c: float
    p_m: float


_MODEL_PRESETS = {
    ModelKind.CHAIN: _ModelPreset(n=2000, desk_n=200, eta_times_n=3e-5, p_c=0.1, p_m=0.001),
    ModelKind.SK: _ModelPreset(n=500, desk_n=100, eta_times_n=2.5e-3, p_c=0.05, p_m=0.005),
}


def _campaign(model, name, variant, seed, desk, sigma=2, p_c=None, p_m=None):
    """A figure campaign: the model's preset values, with one of sigma, p_c or p_m varied."""
    table = _MODEL_PRESETS[model]
    n = table.desk_n if desk else table.n
    return ExperimentConfig(
        name=f"{name}/{variant}" if variant else name,
        ga=ga.GAParams(population_size=_POP, genome_length=n, tournament_size=sigma,
                       crossover_rate=table.p_c if p_c is None else p_c,
                       mutation_rate=table.p_m if p_m is None else p_m),
        disorder=DisorderParams(0.0, 1.0, model),
        t0=_T0,
        learning_rate=table.eta_times_n / n,
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


_CHAIN, _SK = ModelKind.CHAIN, ModelKind.SK
_PRESET_BUILDERS = {
    "fg1": _preset_fg1,
    "fg1D": lambda desk: [("fg1D", _campaign(_CHAIN, "fg1D", "", 101, desk))],
    "fgNo": lambda desk: [("fgNo", _campaign(_CHAIN, "fgNo", "", 102, desk, sigma=1))],
    "fgS": lambda desk: [(f"sigma{s}", _campaign(_CHAIN, "fgS", f"sigma{s}", 103, desk, sigma=s))
                         for s in (2, 3, 4)],
    # union of the two reported mutation grids for the chain
    "fgM": lambda desk: [(f"pm{pm}", _campaign(_CHAIN, "fgM", f"pm{pm}", 104, desk, p_m=pm))
                         for pm in (0.0001, 0.0005, 0.001, 0.005)],
    "fgC": lambda desk: [(f"pc{pc}", _campaign(_CHAIN, "fgC", f"pc{pc}", 105, desk, p_c=pc))
                         for pc in (1.0, 0.5, 0.1)],
    "fgSSK": lambda desk: [(f"sigma{s}", _campaign(_SK, "fgSSK", f"sigma{s}", 106, desk, sigma=s))
                           for s in (2, 3, 4)],
    "fgMSK": lambda desk: [(f"pm{pm}", _campaign(_SK, "fgMSK", f"pm{pm}", 107, desk, p_m=pm))
                           for pm in (0.005, 0.001)],
    "fgCSK": lambda desk: [(f"pc{pc}", _campaign(_SK, "fgCSK", f"pc{pc}", 108, desk, p_c=pc))
                           for pc in (0.1, 0.05, 0.01)],
}


def list_presets() -> list[str]:
    return list(_PRESET_BUILDERS)


def preset_configs(name: str, desk: bool = False):
    """(variant label, config) pairs for one preset."""
    if name not in _PRESET_BUILDERS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    return _PRESET_BUILDERS[name](desk)


def run_config(cfg, output_dir=None) -> Path:
    """Run one config of either kind, write its files and return their directory."""
    if isinstance(cfg, ExperimentConfig):
        summary = run_experiment(cfg, output_dir=output_dir)
        emit_plot_data(summary)
        return summary.output_dir
    return run_mcmc_curve(cfg, output_dir=output_dir)[0].parent


def run_preset(name: str, desk: bool = False, output_dir=None) -> list[Path]:
    """Run every variant of a preset, each into its own directory."""
    variants = preset_configs(name, desk)
    if output_dir is None:
        return [run_config(cfg) for _, cfg in variants]
    base = Path(output_dir)
    return [run_config(cfg, base / label if len(variants) > 1 else base)
            for label, cfg in variants]
