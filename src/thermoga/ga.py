"""Simple genetic algorithm over spin-string genomes.

One generation is selection -> single-point crossover -> per-site mutation.
Fitness is the negative energy, so tournament selection keeps the
minimum-energy member of each draw.  Tournament draws are without
replacement: the size-1 tournament is uniform resampling and the size-M
tournament deterministically copies the population's best member.

A population may hold R independent replicas at once: replica r owns row
block r of one (R*M, N) spin array and block r of its energies, and each
operator acts on all R blocks with one set of array operations.  Random
draws stay per replica.  An operator takes one seed per block (`BlockSeeds`)
and makes, for each block in turn, exactly the draws it makes for a lone
population, so a replica's offspring do not depend on the other replicas
in the batch.  The energies of a batch come from a block-aware
evaluator `model(members, blocks)`, told the block of every row it scores.
A bare seed with a plain evaluator `model(members)` is a batch of one.

Every operator is a pure function of (population, parameters, seeds) and
returns a new immutable Population with freshly cached energies, so
populations can be shared freely between workers.  Crossover and mutation
recompute energies only for the rows they changed.  Seeds are anything
`numpy.random.default_rng` accepts; `step_generation` additionally accepts
a `SeedSequence` and derives one child stream per operator without
changing it.  It returns the offspring, the population after mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


class BlockSeeds(tuple):
    """One seed per replica block of a population: block r draws from seed r."""


def _batch(seed, model=None) -> tuple[BlockSeeds, BlockEvaluator | None]:
    """Per-block seeds and a block-aware evaluator; a bare seed is a batch of one."""
    if isinstance(seed, BlockSeeds):
        return seed, model
    return BlockSeeds([seed]), None if model is None else (lambda members, blocks: model(members))


def _block_size(pop: Population, seeds: BlockSeeds) -> int:
    if not seeds or pop.size % len(seeds):
        raise DimensionMismatchError(f"{pop.size} rows do not split into {len(seeds)} blocks")
    return pop.size // len(seeds)


def smallest_keys(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest keys of each row, in ascending key order.

    k masked argmins; `keys` is overwritten.  The candidate set is that of
    `np.argpartition(keys, k - 1)[:, :k]`, and for k <= 2 so is the order.
    """
    rows = np.arange(keys.shape[0])
    picks = np.empty((keys.shape[0], k), dtype=np.intp)
    for j in range(k):
        picks[:, j] = pick = keys.argmin(axis=1)
        keys[rows, pick] = np.inf
    return picks


def tournament_select(pop: Population, params: GAParams, seed) -> Population:
    """Each output slot holds the best of `tournament_size` distinct members of its block.

    A slot's candidates are the k smallest of M uniform keys, found by k
    masked argmins in ascending key order; an energy tie goes to the
    candidate with the smaller key.
    """
    seeds, _ = _batch(seed)
    m, k = _block_size(pop, seeds), params.tournament_size
    slots = np.arange(pop.size)
    offsets = slots - slots % m
    if k == 1:
        winners = np.concatenate([np.random.default_rng(s).integers(0, m, size=m)
                                  for s in seeds]) + offsets
    else:
        keys = np.empty((pop.size, m))
        for r, s in enumerate(seeds):
            np.random.default_rng(s).random(out=keys[r * m:(r + 1) * m])
        candidates = smallest_keys(keys, k) + offsets[:, None]
        winners = candidates[slots, np.argmin(pop.energies[candidates], axis=1)]
    return Population(members=pop.members[winners], energies=pop.energies[winners],
                      generation=pop.generation)


def boltzmann_weights(energies: np.ndarray, beta_s: float) -> np.ndarray:
    """Normalized weights proportional to exp(-beta_s * E), max-shifted."""
    x = -beta_s * np.asarray(energies, dtype=np.float64)
    x -= x.max()
    w = np.exp(x)
    return w / w.sum()


def boltzmann_select(pop: Population, beta_s: float, seed) -> Population:
    """M independent draws per block with probabilities exp(-beta_s E_a) / sum."""
    if beta_s < 0:
        raise ValueError("beta_s must be nonnegative")
    seeds, _ = _batch(seed)
    m = _block_size(pop, seeds)
    idx = np.concatenate([
        np.random.default_rng(s).choice(m, size=m, replace=True,
                                        p=boltzmann_weights(pop.energies[r * m:(r + 1) * m], beta_s))
        + r * m
        for r, s in enumerate(seeds)])
    return Population(members=pop.members[idx], energies=pop.energies[idx],
                      generation=pop.generation)


def cross_pair(a: np.ndarray, b: np.ndarray, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover: children swap tails from position `cut` on."""
    ca, cb = a.copy(), b.copy()
    ca[cut:], cb[cut:] = b[cut:], a[cut:]
    return ca, cb


def crossover(pop: Population, p_c: float, seed,
              model: EnergyEvaluator | BlockEvaluator) -> Population:
    """Pair the members of each block by a random perfect matching; each pair
    crosses with prob p_c.

    Members of pairs that do not cross keep their original rows, so p_c = 0
    returns an identical population.
    """
    seeds, model = _batch(seed, model)
    m, n = _block_size(pop, seeds), pop.members.shape[1]
    nblocks = len(seeds)
    order = np.empty((nblocks, m), dtype=np.intp)
    uniforms = np.empty((nblocks, m // 2))
    cuts = np.ones((nblocks, m // 2), dtype=np.intp)
    for r, s in enumerate(seeds):
        rng = np.random.default_rng(s)
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


def mutate(pop: Population, p_m: float, seed,
           model: EnergyEvaluator | BlockEvaluator) -> Population:
    """Flip every site independently with probability p_m; re-cache energies."""
    if p_m == 0.0:
        return pop
    seeds, model = _batch(seed, model)
    m = _block_size(pop, seeds)
    uniforms = np.empty(pop.members.shape)
    for r, s in enumerate(seeds):
        np.random.default_rng(s).random(out=uniforms[r * m:(r + 1) * m])
    flips = uniforms < p_m
    rows = np.flatnonzero(flips.any(axis=1))
    members = pop.members.copy()
    members[rows] = np.where(flips[rows], -members[rows], members[rows])
    return _recached(pop, members, rows, model, m)


def _recached(pop: Population, members: np.ndarray, rows: np.ndarray,
              model: BlockEvaluator, m: int) -> Population:
    """New population whose cached energies are recomputed for `rows` only.

    Every other row is unchanged from `pop`, so its cached energy still holds.
    """
    energies = pop.energies
    if rows.size:
        energies = energies.copy()
        energies[rows] = model(members[rows], rows // m)
    return Population(members=members, energies=energies, generation=pop.generation)


def _operator_seeds(seed) -> list[np.random.SeedSequence]:
    """Selection, crossover and mutation streams of one block.

    They are the children `spawn(3)` makes of a fresh `SeedSequence(seed)`,
    derived without spawning, so a `SeedSequence` passed in is left as it
    was and the same one gives the same offspring every time.
    """
    s = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(s.entropy, spawn_key=s.spawn_key + (i,), pool_size=s.pool_size)
            for i in range(3)]


def step_generation(pop: Population, params: GAParams,
                    model: EnergyEvaluator | BlockEvaluator, seed) -> Population:
    """One full generation of every block; the counter advances by exactly one."""
    seeds, model = _batch(seed, model)
    s_sel, s_cross, s_mut = (BlockSeeds(c) for c in zip(*map(_operator_seeds, seeds)))
    if params.selection_mode == "tournament":
        selected = tournament_select(pop, params, s_sel)
    else:
        selected = boltzmann_select(pop, params.boltzmann_beta, s_sel)
    crossed = crossover(selected, params.crossover_rate, s_cross, model)
    return replace(mutate(crossed, params.mutation_rate, s_mut, model),
                   generation=pop.generation + 1)


def empirical_energy(pop: Population) -> float:
    """Population-average energy: the empirical counterpart of the Gibbs mean."""
    if pop.size == 0:
        raise ValueError("population is empty")
    return float(np.mean(pop.energies))
