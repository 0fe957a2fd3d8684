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
`numpy.random.default_rng` accepts; a `Generator` is drawn from and so
advanced.  `step_generation` makes one generator per block (a `Generator`
is used as it is) and draws selection, crossover and mutation from it in
that order, so an int or `SeedSequence` gives the same offspring every call
and a `SeedSequence` is not spawned.  It returns the offspring, the
population after mutation.
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
    """One seed per replica block of a population: block r draws from seed r.

    A seed may be a `Generator`, which the block's draws then advance.
    """


def _batch(seed, model=None) -> tuple[BlockSeeds, BlockEvaluator | None]:
    """Per-block seeds and a block-aware evaluator; a bare seed is a batch of one."""
    if isinstance(seed, BlockSeeds):
        return seed, model
    return BlockSeeds([seed]), None if model is None else (lambda members, blocks: model(members))


def _block_size(pop: Population, seeds: BlockSeeds) -> int:
    if not seeds or pop.size % len(seeds):
        raise DimensionMismatchError(f"{pop.size} rows do not split into {len(seeds)} blocks")
    return pop.size // len(seeds)


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


def tournament_select(pop: Population, params: GAParams, seed) -> Population:
    """Each output slot holds the best of `tournament_size` distinct members of its block.

    A slot's candidates are a uniformly random ordered tuple of distinct
    members: column c draws `integers(0, m - c)` for every slot of a block
    and skips the earlier picks.  An energy tie goes to the candidate drawn
    first.
    """
    seeds, _ = _batch(seed)
    m, k = _block_size(pop, seeds), params.tournament_size
    draws = np.empty((pop.size, k), dtype=np.intp)
    for r, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        for c in range(k):
            draws[r * m:(r + 1) * m, c] = rng.integers(0, m - c, size=m)
    slots = np.arange(pop.size)
    candidates = _distinct_picks(draws) + (slots - slots % m)[:, None]
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
    """Flip every site independently with probability p_m; re-cache energies.

    Each block draws its flip count K ~ Binomial(M*N, p_m), then K distinct
    sites uniformly: the law of one Bernoulli(p_m) per site, in O(K) draws.
    """
    if p_m == 0.0:
        return pop
    seeds, model = _batch(seed, model)
    m, n = _block_size(pop, seeds), pop.members.shape[1]
    block_sites = m * n
    sites = np.concatenate([
        rng.choice(block_sites, rng.binomial(block_sites, p_m), replace=False, shuffle=False)
        + r * block_sites
        for r, rng in enumerate(map(np.random.default_rng, seeds))])
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
    return Population(members=members, energies=energies, generation=pop.generation)


def step_generation(pop: Population, params: GAParams,
                    model: EnergyEvaluator | BlockEvaluator, seed) -> Population:
    """One full generation of every block; the counter advances by exactly one.

    Block r's selection, crossover and mutation draw, in that order, from the
    one generator `default_rng(seed_r)`.
    """
    seeds, model = _batch(seed, model)
    rngs = BlockSeeds(map(np.random.default_rng, seeds))
    if params.selection_mode == "tournament":
        selected = tournament_select(pop, params, rngs)
    else:
        selected = boltzmann_select(pop, params.boltzmann_beta, rngs)
    crossed = crossover(selected, params.crossover_rate, rngs, model)
    return replace(mutate(crossed, params.mutation_rate, rngs, model),
                   generation=pop.generation + 1)


def empirical_energy(pop: Population) -> float:
    """Population-average energy: the empirical counterpart of the Gibbs mean."""
    if pop.size == 0:
        raise ValueError("population is empty")
    return float(np.mean(pop.energies))
