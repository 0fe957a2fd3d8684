"""Effective-temperature learning from population energies.

The population is approximated by a Gibbs distribution with a single
parameter T.  Matching the model's mean energy to the population's mean
energy drives the forward-Euler update

    T  <-  max(T_FLOOR, T - eta * T^2 * (U(T) - U_pop)),

one `learner_step` per GA generation.  A population colder than the
current Gibbs model (U_pop < U(T)) therefore lowers T, and the update is
stationary exactly when the two energies agree.  The floor `T_FLOOR` keeps T
positive whatever the energies do; a NaN update is an error, not the floor.

An `EnergyOracle` is nothing but the map T -> U(T); the builders below fix
everything else, the analytic ones through `analytic`'s one quadrature
rule and RS solver budget.  There are two, one per model, and both are
quenched averages: the chain's Gaussian quadrature and the SK
replica-symmetric energy.  Neither keeps state between calls, so U(T)
depends on T alone: the same T gives bitwise the same U(T), whatever was
asked before.

Both U(T) and U_pop are total (extensive) energies.  Oracles built from
per-spin densities multiply by the system size here, in one place; mixing a
density with a total is the one silent mistake this module is shaped to
prevent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytic
from .errors import DimensionMismatchError, DomainError
from .spin_systems import DisorderParams

T_FLOOR = 1e-6   # the learned temperature never drops below this


@dataclass(frozen=True)
class EnergyOracle:
    """Total Gibbs internal energy as a function of temperature; never NaN or infinite."""

    evaluator: Callable[[float], float]

    def energy(self, T: float) -> float:
        u = float(self.evaluator(T))
        if not math.isfinite(u):
            raise DomainError(f"U(T) = {u} at T = {T} is not finite")
        return u


def learner_step(t: float, eta: float, u_ga: float, u_model: float) -> float:
    """The temperature after one forward-Euler update from `t` at learning rate `eta`.

    `u_model` is the oracle's U(t).  The caller evaluates it, so a campaign
    that records U(T) for every generation anyway needs one oracle call per
    generation.
    """
    if not (math.isfinite(u_ga) and math.isfinite(u_model)):
        raise DomainError("population and model energies must be finite")
    t_next = t - eta * t * t * (u_model - u_ga)
    if math.isnan(t_next):
        raise DomainError(f"the learner step from T = {t} at eta = {eta} is NaN")
    return max(T_FLOOR, t_next)


def learn_schedule(u_ga, t0: float, eta: float,
                   oracle: EnergyOracle) -> tuple[np.ndarray, np.ndarray]:
    """T(t) and U(T(t)) along population energies u_ga(t): T(0) = t0, then one
    `learner_step` towards each later u_ga[t], with one oracle call per entry."""
    temperature, u_model = [t0], [oracle.energy(t0)]
    for u in u_ga[1:]:
        temperature.append(learner_step(temperature[-1], eta, float(u), u_model[-1]))
        u_model.append(oracle.energy(temperature[-1]))
    return np.array(temperature), np.array(u_model)


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
    """n times the replica-symmetric internal energy per spin."""

    def evaluate(T: float) -> float:
        rs = analytic.sk_rs_fixed_point(T, params)
        return n * analytic.sk_internal_energy_density(T, params, rs)

    return EnergyOracle(evaluator=evaluate)
