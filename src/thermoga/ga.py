"""Simple genetic algorithm over spin-string genomes.

One generation is selection -> single-point crossover -> per-site mutation.
Fitness is the negative energy, so tournament selection keeps the
minimum-energy member of each draw.  A tournament draws a uniformly random
ordered tuple of distinct members and an energy tie goes to the candidate
drawn first, so tied members win equally often: the size-1 tournament is
uniform resampling and the size-M tournament copies a best member.
Mutation flips each site independently with probability p_m; it draws how
many sites of a block flip, Binomial(M*N, p_m), and then which, so its cost
grows with the flips rather than with the sites.

A population holds R independent replicas at once: replica r owns row
block r of one (R*M, N) spin array and block r of its energies, and each
operator acts on all R blocks with one set of array operations.  Every
operator takes `rngs`, one `numpy.random.Generator` per block, and draws
block r's randomness from `rngs[r]` alone, in block order, so a replica's
offspring do not depend on the other replicas in the batch.  Energies come
from a block-aware evaluator `model(members, blocks)`, told the block of
every row it scores.  `step_generation` draws selection, crossover and
mutation from each generator in that order and returns the offspring.

Populations are immutable; crossover and mutation return new ones whose
energies are recomputed only for the rows they changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError

EnergyEvaluator = Callable[[np.ndarray], np.ndarray]
BlockEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]

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
    """Immutable snapshot: spin rows and their cached energies."""

    members: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        members = np.asarray(self.members, dtype=np.int8)
        energies = np.asarray(self.energies, dtype=np.float64)
        if members.ndim != 2 or energies.shape != (members.shape[0],):
            raise DimensionMismatchError("need one cached energy per member row")
        members.setflags(write=False)
        energies.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "energies", energies)

    @property
    def size(self) -> int:
        return self.members.shape[0]


def init_population(params: GAParams, model: EnergyEvaluator, seed) -> Population:
    """Uniform random +-1 genomes with energies cached; `seed` is anything
    `numpy.random.default_rng` accepts, a `Generator` being drawn from."""
    rng = np.random.default_rng(seed)
    members = (rng.integers(0, 2, size=(params.population_size, params.genome_length),
                            dtype=np.int8) * 2 - 1)
    return Population(members=members, energies=model(members))


def _block_size(pop: Population, rngs) -> int:
    if not rngs or pop.size % len(rngs):
        raise DimensionMismatchError(f"{pop.size} rows do not split into {len(rngs)} blocks")
    return pop.size // len(rngs)


def _distinct_picks(draws: np.ndarray) -> np.ndarray:
    """Ordered tuples of distinct indices from raw draws, column c uniform on [0, m - c).

    Column c's draw x becomes the x-th index (from 0) that the row's c
    earlier picks left free: x plus the number of earlier picks p_j, sorted
    and numbered from j = 0, with p_j - j <= x.  Each tuple comes from
    exactly one row of raw draws, so uniform draws give a uniformly random
    ordered tuple.
    """
    picks = draws.copy()
    for c in range(1, draws.shape[1]):
        below = np.sort(picks[:, :c], axis=1) - np.arange(c)
        picks[:, c] += np.count_nonzero(below <= draws[:, c, None], axis=1)
    return picks


def tournament_select(pop: Population, params: GAParams, rngs) -> Population:
    """Each output slot holds the best of `tournament_size` distinct members of its block.

    A slot's candidates are a uniformly random ordered tuple of distinct
    members: column c draws `integers(0, m - c)` for every slot of a block
    and skips the earlier picks.  An energy tie goes to the candidate drawn
    first.
    """
    m, k = _block_size(pop, rngs), params.tournament_size
    draws = np.empty((pop.size, k), dtype=np.intp)
    for r, rng in enumerate(rngs):
        for c in range(k):
            draws[r * m:(r + 1) * m, c] = rng.integers(0, m - c, size=m)
    slots = np.arange(pop.size)
    candidates = _distinct_picks(draws) + (slots - slots % m)[:, None]
    winners = candidates[slots, np.argmin(pop.energies[candidates], axis=1)]
    return Population(members=pop.members[winners], energies=pop.energies[winners])


def boltzmann_weights(energies: np.ndarray, beta_s: float) -> np.ndarray:
    """Normalized weights proportional to exp(-beta_s * E), max-shifted."""
    x = -beta_s * np.asarray(energies, dtype=np.float64)
    x -= x.max()
    w = np.exp(x)
    return w / w.sum()


def boltzmann_select(pop: Population, beta_s: float, rngs) -> Population:
    """M independent draws per block with probabilities exp(-beta_s E_a) / sum."""
    if beta_s < 0:
        raise ValueError("beta_s must be nonnegative")
    m = _block_size(pop, rngs)
    idx = np.concatenate([
        rng.choice(m, size=m, replace=True,
                   p=boltzmann_weights(pop.energies[r * m:(r + 1) * m], beta_s)) + r * m
        for r, rng in enumerate(rngs)])
    return Population(members=pop.members[idx], energies=pop.energies[idx])


def crossover(pop: Population, p_c: float, rngs, model: BlockEvaluator) -> Population:
    """Pair the members of each block by a random perfect matching; each pair
    crosses with prob p_c, the children swapping tails from a uniform cut on.

    Members of pairs that do not cross keep their original rows, so p_c = 0
    returns an identical population.
    """
    m, n = _block_size(pop, rngs), pop.members.shape[1]
    nblocks = len(rngs)
    order = np.empty((nblocks, m), dtype=np.intp)
    uniforms = np.empty((nblocks, m // 2))
    cuts = np.ones((nblocks, m // 2), dtype=np.intp)
    for r, rng in enumerate(rngs):
        order[r] = rng.permutation(m)
        rng.random(out=uniforms[r])
        if n > 1:
            cuts[r] = rng.integers(1, n, size=m // 2)
    order += np.arange(0, nblocks * m, m)[:, None]
    # a single-site genome has no interior cut point
    block, pair = np.nonzero(uniforms < p_c) if n > 1 else (np.empty(0, np.intp),) * 2
    i, j = order[block, 2 * pair], order[block, 2 * pair + 1]
    a, b = pop.members[i], pop.members[j]
    tails = np.arange(n) >= cuts[block, pair][:, None]
    members = pop.members.copy()
    members[i] = np.where(tails, b, a)
    members[j] = np.where(tails, a, b)
    touched = np.stack([i, j], axis=1).ravel()
    # parents that agree past the cut produce children identical to themselves
    changed = touched[np.any(members[touched] != pop.members[touched], axis=1)]
    return _recached(pop, members, changed, model, m)


def mutate(pop: Population, p_m: float, rngs, model: BlockEvaluator) -> Population:
    """Flip every site independently with probability p_m; re-cache energies.

    Each block draws its flip count K ~ Binomial(M*N, p_m), then K distinct
    sites uniformly: the law of one Bernoulli(p_m) per site, in O(K) draws.
    """
    if p_m == 0.0:
        return pop
    m, n = _block_size(pop, rngs), pop.members.shape[1]
    block_sites = m * n
    sites = np.concatenate([
        rng.choice(block_sites, rng.binomial(block_sites, p_m), replace=False, shuffle=False)
        + r * block_sites
        for r, rng in enumerate(rngs)])
    members = pop.members.copy()
    flat = members.reshape(-1)
    flat[sites] = -flat[sites]
    return _recached(pop, members, np.unique(sites // n), model, m)


def _recached(pop: Population, members: np.ndarray, rows: np.ndarray,
              model: BlockEvaluator, m: int) -> Population:
    """New population whose cached energies are recomputed for `rows` only.

    Every other row is unchanged from `pop`, so its cached energy still holds.
    """
    energies = pop.energies
    if rows.size:
        energies = energies.copy()
        energies[rows] = model(members[rows], rows // m)
    return Population(members=members, energies=energies)


def step_generation(pop: Population, params: GAParams, model: BlockEvaluator,
                    rngs) -> Population:
    """One full generation of every block: selection, crossover, mutation."""
    if params.selection_mode == "tournament":
        selected = tournament_select(pop, params, rngs)
    else:
        selected = boltzmann_select(pop, params.boltzmann_beta, rngs)
    crossed = crossover(selected, params.crossover_rate, rngs, model)
    return mutate(crossed, params.mutation_rate, rngs, model)


def empirical_energy(pop: Population) -> float:
    """Population-average energy: the empirical counterpart of the Gibbs mean."""
    if pop.size == 0:
        raise ValueError("population is empty")
    return float(np.mean(pop.energies))
