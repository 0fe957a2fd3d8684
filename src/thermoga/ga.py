"""Simple genetic algorithm over spin-string genomes.

One generation is selection -> single-point crossover -> per-site mutation.
Fitness is the negative energy, so tournament selection keeps the
minimum-energy member of each draw.  Tournament draws are without
replacement: the size-1 tournament is uniform resampling and the size-M
tournament deterministically copies the population's best member.

Every operator is a pure function of (population, parameters, seed) and
returns a new immutable Population with freshly cached energies, so
populations can be shared freely between workers.  Crossover and mutation
recompute energies only for the rows they changed.  Seeds are anything
`numpy.random.default_rng` accepts; `step_generation` additionally accepts
a `SeedSequence` and derives one child stream per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError

EnergyEvaluator = Callable[[np.ndarray], np.ndarray]

SELECTION_MODES = ("tournament", "boltzmann")


@dataclass(frozen=True)
class GAParams:
    population_size: int
    genome_length: int
    tournament_size: int = 2
    crossover_rate: float = 0.1
    mutation_rate: float = 0.001
    selection_mode: str = "tournament"
    boltzmann_beta: float = 0.0

    def __post_init__(self):
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population size must be even and at least 2")
        if self.genome_length < 1:
            raise ValueError("genome length must be positive")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament size must lie in [1, population size]")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection_mode!r}")
        if self.boltzmann_beta < 0:
            raise ValueError("boltzmann_beta must be nonnegative")


@dataclass(frozen=True)
class Population:
    """Immutable snapshot: spin rows, cached energies, generation counter."""

    members: np.ndarray
    energies: np.ndarray
    generation: int

    def __post_init__(self):
        members = np.asarray(self.members, dtype=np.int8)
        energies = np.asarray(self.energies, dtype=np.float64)
        if members.ndim != 2 or energies.shape != (members.shape[0],):
            raise DimensionMismatchError("need one cached energy per member row")
        if self.generation < 0:
            raise ValueError("generation counter must be nonnegative")
        members.setflags(write=False)
        energies.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "energies", energies)

    @property
    def size(self) -> int:
        return self.members.shape[0]


def init_population(params: GAParams, model: EnergyEvaluator, seed) -> Population:
    """Uniform random +-1 genomes with energies cached."""
    rng = np.random.default_rng(seed)
    members = (rng.integers(0, 2, size=(params.population_size, params.genome_length),
                            dtype=np.int8) * 2 - 1)
    return Population(members=members, energies=model(members), generation=0)


def tournament_select(pop: Population, params: GAParams, seed) -> Population:
    """Each output slot holds the best of `tournament_size` distinct members."""
    rng = np.random.default_rng(seed)
    m, k = pop.size, params.tournament_size
    if k == 1:
        winners = rng.integers(0, m, size=m)
    else:
        # k distinct indices per slot via random-key partial sort
        keys = rng.random((m, m))
        draws = np.argpartition(keys, k - 1, axis=1)[:, :k]
        winners = draws[np.arange(m), np.argmin(pop.energies[draws], axis=1)]
    return Population(members=pop.members[winners], energies=pop.energies[winners],
                      generation=pop.generation)


def boltzmann_weights(energies: np.ndarray, beta_s: float) -> np.ndarray:
    """Normalized weights proportional to exp(-beta_s * E), max-shifted."""
    x = -beta_s * np.asarray(energies, dtype=np.float64)
    x -= x.max()
    w = np.exp(x)
    return w / w.sum()


def boltzmann_select(pop: Population, beta_s: float, seed) -> Population:
    """M independent draws with probabilities exp(-beta_s E_a) / sum."""
    if beta_s < 0:
        raise ValueError("beta_s must be nonnegative")
    rng = np.random.default_rng(seed)
    idx = rng.choice(pop.size, size=pop.size, replace=True,
                     p=boltzmann_weights(pop.energies, beta_s))
    return Population(members=pop.members[idx], energies=pop.energies[idx],
                      generation=pop.generation)


def cross_pair(a: np.ndarray, b: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover: children swap tails from position `cut` on."""
    ca, cb = a.copy(), b.copy()
    ca[cut:], cb[cut:] = b[cut:], a[cut:]
    return ca, cb


def crossover(pop: Population, p_c: float, seed, model: EnergyEvaluator) -> Population:
    """Pair members by a random perfect matching; each pair crosses with prob p_c.

    Members of pairs that do not cross keep their original rows, so p_c = 0
    returns an identical population.
    """
    rng = np.random.default_rng(seed)
    m, n = pop.members.shape
    order = rng.permutation(m)
    do_cross = rng.random(m // 2) < p_c
    cuts = rng.integers(1, n, size=m // 2) if n > 1 else np.ones(m // 2, dtype=np.int64)
    members = pop.members.copy()
    touched = []
    for pair_idx in np.nonzero(do_cross)[0]:
        if n == 1:
            continue   # a single-site genome has no interior cut point
        i, j = order[2 * pair_idx], order[2 * pair_idx + 1]
        members[i], members[j] = cross_pair(pop.members[i], pop.members[j], int(cuts[pair_idx]))
        touched += [i, j]
    touched = np.array(touched, dtype=np.intp)
    # parents that agree past the cut produce children identical to themselves
    changed = touched[np.any(members[touched] != pop.members[touched], axis=1)]
    return _recached(pop, members, changed, model)


def mutate(pop: Population, p_m: float, seed, model: EnergyEvaluator) -> Population:
    """Flip every site independently with probability p_m; re-cache energies."""
    if p_m == 0.0:
        return pop
    rng = np.random.default_rng(seed)
    flips = rng.random(pop.members.shape) < p_m
    members = np.where(flips, -pop.members, pop.members).astype(np.int8)
    return _recached(pop, members, np.flatnonzero(flips.any(axis=1)), model)


def _recached(pop: Population, members: np.ndarray, rows: np.ndarray,
              model: EnergyEvaluator) -> Population:
    """New population whose cached energies are recomputed for `rows` only.

    Every other row is unchanged from `pop`, so its cached energy still holds.
    """
    energies = pop.energies
    if rows.size:
        energies = energies.copy()
        energies[rows] = model(members[rows])
    return Population(members=members, energies=energies, generation=pop.generation)


def step_generation(pop: Population, params: GAParams, model: EnergyEvaluator, seed) -> Population:
    """One full generation; the counter advances by exactly one."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_sel, s_cross, s_mut = ss.spawn(3)
    if params.selection_mode == "tournament":
        pop = tournament_select(pop, params, s_sel)
    else:
        pop = boltzmann_select(pop, params.boltzmann_beta, s_sel)
    pop = crossover(pop, params.crossover_rate, s_cross, model)
    pop = mutate(pop, params.mutation_rate, s_mut, model)
    return replace(pop, generation=pop.generation + 1)


def empirical_energy(pop: Population) -> float:
    """Population-average energy: the empirical counterpart of the Gibbs mean."""
    if pop.size == 0:
        raise ValueError("population is empty")
    return float(np.mean(pop.energies))
