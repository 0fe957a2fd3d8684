"""The three workloads: inputs made from a seed, one pass, and its checks.

A pass is one unit of timed work.  Its operations are the campaign replicas
or the (instance, T) Metropolis estimates; every operation that raises or
fails a check counts as failed.

Gate false-alarm probabilities (per check, on correct code):

- chain ground state: `run_experiment` itself passes every replica's
  best-energy series through `residual_energy_series`, which raises if it
  goes below the exact ground state; the raise fails the whole pass, so all
  its replicas count as failed.  Exact, no false alarms.
- chain ground-state density: E_gs/(N-1) against -E|J| from
  `chain_ground_state_density`; the sum of N-1 i.i.d. |J_i| is gated at
  GROUND_DENSITY_Z standard deviations, a two-sided normal tail of 7e-9.
- Metropolis against `exact_gibbs_expectation`: |est - exact| / se with se
  the between-chain standard error over `chains` independent chains, gated
  at the Student-t quantile whose two-sided tail is GIBBS_FALSE_ALARM = 1e-6.
  That rate assumes an unbiased estimate, which the chain at T = 0.5 is not
  (CHAIN_UNMIXED_T): its walkers start in the ground state and, within the
  sweeps of criterion 4, domain walls do not cross strong bonds, so the
  estimate misses part of the excitation energy and se does not cover it.
  More sweeps shrink se faster than the deficit, so no run length fixes it.
  There the gate is one-sided: E_gs <= est <= exact + z * se.  The lower
  side is exact (every sampled energy is >= E_gs); the upper side keeps a
  one-sided tail of GIBBS_FALSE_ALARM / 2, since missing excitations can
  only lower the estimate.
- finite schedules, computed fits and written files are exact checks.

SK energies are deliberately not gated on the replica-symmetric oracle: the
literal SK Hamiltonian the GA minimizes and the classic-scaling RS theory
differ by about sqrt(N)/2, which is why acceptance criterion 6 is red.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import stdtrit

import thermoga.analysis
import thermoga.analytic
import thermoga.experiment
import thermoga.mcmc
import thermoga.spin_systems
from thermoga.spin_systems import DisorderParams, ModelKind

GIBBS_FALSE_ALARM = 1e-6
CHAIN_UNMIXED_T = (0.5,)    # chain temperatures gated one-sided (see above)
GROUND_DENSITY_Z = 5.8

WORKLOADS = ("chain_campaign", "sk_campaign", "gibbs_small_n")

# pass sizes; "smoke" is the warm-up pass and the self-test size.  The full
# Metropolis options are those of acceptance criterion 4 (16 walkers, 1800
# sweeps, burn-in 300, thinning 3).  The smoke pass runs only at T = 2,
# where 600 sweeps equilibrate: at T = 0.5 short chain runs are biased
# (see the README), and the warm-up is not where that bias is measured.
GIBBS_TEMPERATURES = (0.5, 1.0, 2.0)
SIZES = {
    "chain_campaign": {"full": {"replicas": 4, "generations": 1500},
                       "smoke": {"replicas": 2, "generations": 120}},
    "sk_campaign": {"full": {"replicas": 3, "generations": 300},
                    "smoke": {"replicas": 2, "generations": 60}},
    "gibbs_small_n": {"full": {"temperatures": GIBBS_TEMPERATURES, "sweeps": 1800, "burn_in": 300},
                      "smoke": {"temperatures": (2.0,), "sweeps": 600, "burn_in": 100}},
}
GIBBS_N = 12
GIBBS_CHAINS, GIBBS_THINNING = 16, 3


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    work: float = 0.0               # replica-generations, or Metropolis proposals
    replicas: int = 0
    replica_failures: int = 0
    bytes_written: int = 0
    op_seconds: list = field(default_factory=list)
    z_scores: list = field(default_factory=list)    # Metropolis (est - exact) / se
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# inputs

def _preset(name: str, label: str):
    return dict(thermoga.experiment.preset_configs(name, desk=True))[label]


def build_inputs(workload: str, seed: int, size: str = "full"):
    """Inputs of one pass, a pure function of (workload, seed, size)."""
    s = SIZES[workload][size]
    if workload == "chain_campaign":
        base = _preset("fg1D", "fg1D")           # chain N=200, M=100, sigma=2, p_c=0.1, p_m=0.001
    elif workload == "sk_campaign":
        base = _preset("fgSSK", "sigma2")        # SK N=100, M=100, sigma=2, p_c=0.05, p_m=0.005
    else:
        return _gibbs_inputs(seed, s)
    return replace(base, name=workload, seed=seed, replicas=s["replicas"],
                   generations=s["generations"], output_dir=None)


@dataclass(frozen=True)
class GibbsCase:
    disorder: object
    temperature: float
    entropy: int
    spawn_key: tuple

    def seed(self) -> np.random.SeedSequence:
        # a fresh SeedSequence per call: spawning children advances its state
        return np.random.SeedSequence(self.entropy, spawn_key=self.spawn_key)


@dataclass(frozen=True)
class GibbsInputs:
    cases: tuple
    options: thermoga.mcmc.MCMCOptions


def _gibbs_inputs(seed: int, s: dict) -> GibbsInputs:
    cases = []
    for m_idx, kind in enumerate((ModelKind.CHAIN, ModelKind.SK)):
        params = DisorderParams(0.0, 1.0, kind)
        sample = (thermoga.spin_systems.sample_chain_disorder if kind is ModelKind.CHAIN
                  else thermoga.spin_systems.sample_sk_disorder)
        d = sample(GIBBS_N, params, np.random.SeedSequence(seed, spawn_key=(m_idx, 0)))
        for T in s["temperatures"]:
            key = (m_idx, 0, 1 + GIBBS_TEMPERATURES.index(T))
            cases.append(GibbsCase(d, T, seed, key))
    opts = thermoga.mcmc.MCMCOptions(sweeps=s["sweeps"], burn_in=s["burn_in"],
                                     thinning=GIBBS_THINNING, chains=GIBBS_CHAINS)
    return GibbsInputs(tuple(cases), opts)


# ---------------------------------------------------------------------------
# one pass

def run_pass(workload: str, inputs, work_dir: Path) -> PassResult:
    if workload == "gibbs_small_n":
        return _gibbs_pass(inputs)
    return _campaign_pass(inputs, work_dir)


def _campaign_pass(cfg, work_dir: Path) -> PassResult:
    res = PassResult(attempted=cfg.replicas, replicas=cfg.replicas)
    out = work_dir / cfg.name
    shutil.rmtree(out, ignore_errors=True)
    try:
        summary = thermoga.experiment.run_experiment(cfg, output_dir=out)
        paths = thermoga.experiment.emit_plot_data(summary)
    except Exception as exc:   # noqa: BLE001 - a failed pass is reported, not fatal
        res.failed = res.replica_failures = cfg.replicas
        res.problems.append(f"campaign raised {type(exc).__name__}: {exc}")
        return res
    res.replica_failures = len(summary.replica_failures)
    res.problems += [f"replica {r} failed: {msg}" for r, msg in summary.replica_failures]
    bad = {r for r, _ in summary.replica_failures}

    ok_ids = [r for r in range(cfg.replicas) if r not in bad]
    for row, r in enumerate(ok_ids):
        problem = _check_replica(summary, row)
        if problem:
            bad.add(r)
            res.problems.append(f"replica {r}: {problem}")
    pass_problem = _check_campaign_outputs(summary, paths, ok_ids)
    if pass_problem:
        bad = set(range(cfg.replicas))
        res.problems.append(pass_problem)
    res.failed = len(bad)
    res.work = float(cfg.replicas * cfg.generations)
    res.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return res


def _check_replica(summary, row: int) -> str | None:
    cfg = summary.config
    temp = summary.temperature[row]
    if not (np.all(np.isfinite(temp)) and np.all(temp > 0)):
        return "schedule T(t) is not finite and positive"
    for name in ("u_ga", "u_gibbs", "best_energy"):
        if not np.all(np.isfinite(getattr(summary, name)[row])):
            return f"{name} is not finite"
    if cfg.model is not ModelKind.CHAIN:
        return None
    ground = summary.ground_energies[row]
    bonds = cfg.n - 1
    mean_abs = -thermoga.analytic.chain_ground_state_density(cfg.disorder)
    sd_abs = math.sqrt(cfg.disorder.mean ** 2 + cfg.disorder.std ** 2 - mean_abs ** 2)
    z = (-ground / bonds - mean_abs) / (sd_abs / math.sqrt(bonds))
    if abs(z) > GROUND_DENSITY_Z:
        return f"ground-state density off the exact -E|J| by z = {z:.2f}"
    return None


def _check_campaign_outputs(summary, paths, ok_ids) -> str | None:
    for key in ("temperature", summary.series_name):
        fit = summary.fits.get(key)
        if not isinstance(fit, thermoga.analysis.PowerLawFit) or not math.isfinite(fit.exponent):
            return f"fit {key!r} not computed: {fit}"
    crossover = summary.fits.get("temperature_crossover")
    if not (crossover is None or isinstance(crossover, thermoga.analysis.CrossoverFit)):
        return f"crossover fit not computed: {crossover}"
    expected = list(paths) + [summary.output_dir / f"replica_{r:02d}.tsv" for r in ok_ids]
    missing = [p.name for p in expected if not (p.is_file() and p.stat().st_size > 0)]
    if missing:
        return f"output files missing or empty: {missing}"
    return None


def gibbs_z_max(chains: int) -> float:
    """Two-sided Student-t quantile for `chains - 1` degrees of freedom."""
    return float(stdtrit(chains - 1, 1.0 - GIBBS_FALSE_ALARM / 2))


def _gibbs_pass(inputs: GibbsInputs) -> PassResult:
    opts = inputs.options
    z_max = gibbs_z_max(opts.chains)
    res = PassResult(attempted=len(inputs.cases))
    for case in inputs.cases:
        d, T = case.disorder, case.temperature
        label = f"{type(d).__name__} n={d.n} T={T}"
        t0 = time.perf_counter()
        try:
            est, se = thermoga.mcmc.estimate_internal_energy(d, T, opts, case.seed())
            exact = thermoga.mcmc.exact_gibbs_expectation(d, T)[0]
        except Exception as exc:   # noqa: BLE001 - a failed estimate is counted, not fatal
            res.failed += 1
            res.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            res.op_seconds.append(time.perf_counter() - t0)
        res.work += opts.chains * opts.sweeps * d.n
        if se > 0:
            res.z_scores.append((est - exact) / se)
        low = exact - z_max * se
        if isinstance(d, thermoga.spin_systems.ChainDisorder) and T in CHAIN_UNMIXED_T:
            low = thermoga.spin_systems.chain_ground_state(d)[0]
        if not (math.isfinite(est) and se > 0 and low <= est <= exact + z_max * se):
            res.failed += 1
            res.problems.append(f"{label}: estimate {est} +- {se} vs exact {exact} "
                                f"(gate [{low:.6g}, exact + {z_max:.2f} se])")
    return res
