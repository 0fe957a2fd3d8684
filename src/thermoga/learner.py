"""Effective-temperature learning from population energies.

The population is approximated by a Gibbs distribution with a single
parameter T.  Matching the model's mean energy to the population's mean
energy drives the forward-Euler update

    T  <-  max(T_FLOOR, T - eta * T^2 * (U(T) - U_pop)),

one learner step per GA generation.  A population colder than the current
Gibbs model (U_pop < U(T)) therefore lowers T, and the update is stationary
exactly when the two energies agree.  The floor `T_FLOOR` keeps T positive
whatever the energies do, and no learner may start below it.

An `EnergyOracle` is nothing but the map T -> U(T); the builders below fix
everything else, the analytic ones through `analytic`'s one quadrature
rule and RS solver budget.

Both U(T) and U_pop are total (extensive) energies.  Oracles built from
per-spin densities multiply by the system size here, in one place; mixing a
density with a total is the one silent mistake this module is shaped to
prevent.

`match_temperature` inverts U(T) = U_pop directly by bisection and serves
as an instantaneous cross-check on the learned schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import analytic
from .errors import DimensionMismatchError, DomainError, UnbracketableError
from .mcmc import MCMCOptions, estimate_internal_energy, exact_gibbs_expectation
from .spin_systems import ChainDisorder, DisorderParams, SKDisorder

T_FLOOR = 1e-6   # the learned temperature never drops below this


@dataclass(frozen=True)
class LearnerState:
    temperature: float
    generation: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.temperature < T_FLOOR:
            raise ValueError(f"temperature must not undercut T_FLOOR = {T_FLOOR}")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.generation < 0:
            raise ValueError("generation counter must be nonnegative")


@dataclass(frozen=True)
class EnergyOracle:
    """Total Gibbs internal energy as a function of temperature."""

    evaluator: Callable[[float], float]

    def energy(self, T: float) -> float:
        return float(self.evaluator(T))


def learner_step(state: LearnerState, u_ga: float, u_model: float) -> LearnerState:
    """One forward-Euler update of the effective temperature.

    `u_model` is the oracle's U(T) at `state.temperature`.  The caller
    evaluates it, so a campaign that records U(T) for every generation
    anyway needs one oracle call per generation.
    """
    if not (math.isfinite(u_ga) and math.isfinite(u_model)):
        raise DomainError("population and model energies must be finite")
    t = state.temperature
    gap = u_model - u_ga
    t_new = max(T_FLOOR, t - state.learning_rate * t * t * gap)
    return replace(state, temperature=t_new, generation=state.generation + 1)


def match_temperature(u_ga: float, oracle: EnergyOracle,
                      bracket: tuple[float, float]) -> float:
    """Solve U(T*) = u_ga by bisection on a monotone-increasing bracket."""
    t_lo, t_hi = bracket
    if not 0 < t_lo < t_hi:
        raise DomainError("bracket must satisfy 0 < T_lo < T_hi")
    u_lo, u_hi = oracle.energy(t_lo), oracle.energy(t_hi)
    if u_lo > u_hi:
        raise DomainError("oracle is not increasing across the bracket")
    if not u_lo <= u_ga <= u_hi:
        raise UnbracketableError(
            f"u_ga = {u_ga} outside the bracket range [{u_lo}, {u_hi}]; the population "
            "sits below the model's ground state or above its infinite-T mean")
    while t_hi - t_lo > 1e-9:
        mid = 0.5 * (t_lo + t_hi)
        u_mid = oracle.energy(mid)
        if abs(u_mid - u_ga) <= 1e-9 * abs(u_ga):
            return mid
        if u_mid < u_ga:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def disorder_averaged_trajectory(runs) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and standard error across disorder realizations."""
    runs = [np.asarray(r, dtype=np.float64) for r in runs]
    if not runs:
        raise DimensionMismatchError("need at least one trajectory")
    length = runs[0].shape
    if any(r.shape != length for r in runs):
        raise DimensionMismatchError("trajectories must share a common length")
    stack = np.stack(runs)
    mean = stack.mean(axis=0)
    if len(runs) == 1:
        return mean, np.zeros_like(mean)
    stderr = stack.std(axis=0, ddof=1) / math.sqrt(len(runs))
    return mean, stderr


def analytic_chain_oracle(n: int, params: DisorderParams) -> EnergyOracle:
    """n times the quenched-average chain internal energy per spin."""

    def evaluate(T: float) -> float:
        return n * analytic.chain_internal_energy(T, params)

    return EnergyOracle(evaluator=evaluate)


def analytic_sk_oracle(n: int, params: DisorderParams) -> EnergyOracle:
    """n times the RS internal energy per spin, warm-starting (m, q) across calls."""
    warm = {"guess": None}

    def evaluate(T: float) -> float:
        rs = analytic.sk_rs_fixed_point(T, params, initial=warm["guess"])
        warm["guess"] = (rs.m, rs.q)
        return n * analytic.sk_internal_energy_density(T, params, rs)

    return EnergyOracle(evaluator=evaluate)


def enumeration_oracle(d: ChainDisorder | SKDisorder) -> EnergyOracle:
    """Exact per-instance internal energy by full enumeration (small n only)."""

    def evaluate(T: float) -> float:
        return exact_gibbs_expectation(d, T)[0]

    return EnergyOracle(evaluator=evaluate)


def mcmc_oracle(d: ChainDisorder | SKDisorder, opts: MCMCOptions, seed) -> EnergyOracle:
    """Per-instance Metropolis estimate; the fixed seed keeps runs reproducible."""

    def evaluate(T: float) -> float:
        return estimate_internal_energy(d, T, opts, seed)[0]

    return EnergyOracle(evaluator=evaluate)
