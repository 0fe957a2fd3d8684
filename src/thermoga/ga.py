"""Simple genetic algorithm over spin-string genomes.

One generation is selection -> single-point crossover -> per-site mutation.
Fitness is the negative energy, so tournament selection keeps the
minimum-energy member of each draw.  A tournament draws a uniformly random
ordered tuple of distinct members and an energy tie goes to the candidate
drawn first, so tied members win equally often: the size-1 tournament is
uniform resampling and the size-M tournament copies a best member.
Mutation flips each site independently with probability p_m.

A population holds R independent replicas at once: replica r owns row
block r of one (R*M, N) spin array and block r of its energies, and each
operator acts on all R blocks with one set of array operations.  Energies
come from a block-aware evaluator `model(members, blocks)`, told the block
of every row it scores.  Blocks never interact: tournaments and pairings
stay inside a block, flips are drawn per block, and each row is scored on
its own block's instance.  So a block's rows depend on its own draws alone,
and a caller may leave a block it no longer reads in the batch.

No GA draw depends on the population, so the random numbers are drawn
ahead of time: `draw_generations(rngs, params)` draws DRAW_BLOCK
generations for every block, block r from `rngs[r]` alone, and the
operators are pure functions of one generation's `Draws`.  Replica r
draws, in this order: its tournament candidates (one `integers` call per
tournament column), its pairings (one `permuted`), its crossover uniforms
and cut points, its mutated sites and its Boltzmann-selection uniforms.
Mutated sites are the ends of geometric gaps across the block's sites,
which is exactly one Bernoulli(p_m) per site, so the cost grows with the
flips rather than with the sites.  A replica's draws do not depend on the
other replicas in the batch.

Populations are immutable; crossover and mutation return new ones whose
energies are recomputed only for the rows they changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .spin_systems import gibbs_weights

EnergyEvaluator = Callable[[np.ndarray], np.ndarray]
BlockEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]

SELECTION_MODES = ("tournament", "boltzmann")

# generations drawn per call of `draw_generations`: the fixed cost of each
# generator call is paid once per block of generations, not once per generation
DRAW_BLOCK = 16


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
        if self.genome_length < 2:
            # both models need two spins, and a single-point cut needs an interior site
            raise ValueError("genome length must be at least 2")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament size must lie in [1, population size]")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection_mode!r}")
        if not 0.0 <= self.boltzmann_beta < math.inf:
            raise ValueError("boltzmann_beta must be finite and nonnegative")


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


@dataclass(frozen=True)
class Draws:
    """One generation's random numbers for R row blocks of M members.

    `selection` holds, per output slot, the block-local tournament
    candidates (R*M, sigma) or the Boltzmann uniforms (R*M,).  `order` is
    each block's pairing permutation (R, M); pair j of a block crosses when
    `cross[r, j] < p_c`, with cut point `cuts[r, j]` in [1, N).  The sites
    that mutate are `flips`, ascending flat indices into the (R*M, N) batch.
    """

    selection: np.ndarray
    order: np.ndarray
    cross: np.ndarray
    cuts: np.ndarray
    flips: np.ndarray


def init_population(params: GAParams, model: EnergyEvaluator, seed) -> Population:
    """Uniform random +-1 genomes with energies cached; `seed` is anything
    `numpy.random.default_rng` accepts, a `Generator` being drawn from."""
    rng = np.random.default_rng(seed)
    members = (rng.integers(0, 2, size=(params.population_size, params.genome_length),
                            dtype=np.int8) * 2 - 1)
    return Population(members=members, energies=model(members))


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


def _bernoulli_sites(rng: np.random.Generator, sites: int, p: float) -> np.ndarray:
    """Ascending indices in [0, sites), each present independently with probability p.

    The gaps between successive flips are Geometric(p) on {1, 2, ...}, drawn
    in chunks until they pass the last site; the gap that passes it is
    dropped.  A gap longer than `sites` ends the walk whatever its length,
    so each is clipped to sites + 1 before the sum: numpy returns gaps of
    2**63 - 1 below p of about 1e-19, which would overflow it.
    """
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    mean = sites * p
    # five standard deviations past the mean flip count: one chunk nearly always ends the walk
    chunk = int(mean + 5.0 * math.sqrt(mean)) + 2
    ends, last = [], -1
    while last < sites:
        steps = last + np.cumsum(np.minimum(rng.geometric(p, size=chunk), sites + 1))
        ends.append(steps)
        last = int(steps[-1])
    ends = np.concatenate(ends)
    return ends[:np.searchsorted(ends, sites)]


def draw_generations(rngs, params: GAParams) -> list[Draws]:
    """The next DRAW_BLOCK generations' draws of every block; block r draws from `rngs[r]`.

    What a block draws depends on the generators and `params` alone, never
    on the population, so a run of G generations uses a prefix of the draws
    of any longer run.
    """
    nblocks, g = len(rngs), DRAW_BLOCK
    m, n, k = params.population_size, params.genome_length, params.tournament_size
    tournament = params.selection_mode == "tournament"
    if tournament:
        raw = np.empty((nblocks, g * m, k), dtype=np.intp)
    else:
        uniforms = np.empty((nblocks, g * m))
    order = np.empty((nblocks, g, m), dtype=np.intp)
    cross = np.empty((nblocks, g, m // 2))
    cuts = np.empty((nblocks, g, m // 2), dtype=np.intp)
    flips = []
    for r, rng in enumerate(rngs):
        if tournament:
            for c in range(k):
                raw[r, :, c] = rng.integers(0, m - c, size=g * m)
        order[r] = rng.permuted(np.broadcast_to(np.arange(m), (g, m)), axis=1)
        rng.random(out=cross[r])
        cuts[r] = rng.integers(1, n, size=(g, m // 2))
        flips.append(_bernoulli_sites(rng, g * m * n, params.mutation_rate))
        if not tournament:
            rng.random(out=uniforms[r])
    if tournament:
        picks = _distinct_picks(raw.reshape(-1, k)).reshape(nblocks, g, m, k)
        selection = picks.transpose(1, 0, 2, 3).reshape(g, nblocks * m, k)
    else:
        selection = uniforms.reshape(nblocks, g, m).transpose(1, 0, 2).reshape(g, nblocks * m)

    # each block's flips, generation-major, renumbered into the batch and regrouped by generation
    gen, site = np.divmod(np.concatenate(flips), m * n)
    batch = np.repeat(np.arange(nblocks) * (m * n), [f.size for f in flips]) + site
    by_gen = np.argsort(gen, kind="stable")
    flips = np.split(batch[by_gen], np.searchsorted(gen[by_gen], np.arange(1, g)))
    return [Draws(selection=selection[i], order=order[:, i], cross=cross[:, i], cuts=cuts[:, i],
                  flips=flips[i])
            for i in range(g)]


def _block_size(pop: Population, draws: Draws) -> int:
    nblocks, m = draws.order.shape
    if pop.size != nblocks * m:
        raise DimensionMismatchError(f"{pop.size} rows are not {nblocks} blocks of {m}")
    return m


def tournament_select(pop: Population, draws: Draws) -> Population:
    """Each output slot holds the best of its drawn candidates, all of its own block.

    A slot's candidates are a uniformly random ordered tuple of distinct
    members of its block; an energy tie goes to the candidate drawn first.
    """
    m = _block_size(pop, draws)
    slots = np.arange(pop.size)
    candidates = draws.selection + (slots - slots % m)[:, None]
    winners = candidates[slots, np.argmin(pop.energies[candidates], axis=1)]
    return Population(members=pop.members[winners], energies=pop.energies[winners])


def boltzmann_select(pop: Population, beta_s: float, draws: Draws) -> Population:
    """M independent draws per block with probabilities `gibbs_weights` at T = 1/beta_s.

    Slot i of block r takes the member at which the block's normalized CDF
    first exceeds the slot's uniform: `cdf.searchsorted(u, side="right")`,
    the inverse CDF of `Generator.choice(p=...)`, counted row by row.
    """
    if beta_s < 0:
        raise ValueError("beta_s must be nonnegative")
    m = _block_size(pop, draws)
    T = 1.0 / beta_s if beta_s else math.inf
    cdf = np.cumsum(gibbs_weights(pop.energies.reshape(-1, m), T), axis=1)
    cdf /= cdf[:, -1:]
    u = draws.selection.reshape(-1, m)
    idx = np.count_nonzero(cdf[:, None, :] <= u[:, :, None], axis=2).ravel()
    idx += np.arange(0, pop.size, m).repeat(m)
    return Population(members=pop.members[idx], energies=pop.energies[idx])


def crossover(pop: Population, p_c: float, draws: Draws, model: BlockEvaluator) -> Population:
    """Pair the members of each block by its drawn perfect matching; each pair
    crosses with prob p_c, the children swapping tails from the drawn cut on.

    Members of pairs that do not cross keep their original rows, so p_c = 0
    returns an identical population.
    """
    m, n = _block_size(pop, draws), pop.members.shape[1]
    order = draws.order + np.arange(0, pop.size, m)[:, None]
    block, pair = np.nonzero(draws.cross < p_c)
    rows = np.stack([order[block, 2 * pair], order[block, 2 * pair + 1]])   # (2, pairs)
    parents = pop.members[rows]
    tails = np.arange(n) >= draws.cuts[block, pair][:, None]
    children = np.where(tails, parents[::-1], parents)
    members = pop.members.copy()
    members[rows] = children
    # parents that agree past the cut produce children identical to themselves
    changed = rows.T[np.any(children != parents, axis=2).T]
    return _recached(pop, members, changed, model, m)


def mutate(pop: Population, draws: Draws, model: BlockEvaluator) -> Population:
    """Flip the drawn sites of every block; re-cache energies.

    A generation without flips (always at p_m = 0) returns `pop` itself.
    """
    m, n = _block_size(pop, draws), pop.members.shape[1]
    if not draws.flips.size:
        return pop
    members = pop.members.copy()
    flat = members.reshape(-1)
    flat[draws.flips] = -flat[draws.flips]
    # the flips ascend, so keeping each row that differs from its predecessor lists each once
    rows = draws.flips // n
    first = np.empty(rows.size, dtype=bool)
    first[0] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    return _recached(pop, members, rows[first], model, m)


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
                    draws: Draws) -> Population:
    """One full generation of every block from its draws: selection, crossover, mutation."""
    if params.selection_mode == "tournament":
        selected = tournament_select(pop, draws)
    else:
        selected = boltzmann_select(pop, params.boltzmann_beta, draws)
    crossed = crossover(selected, params.crossover_rate, draws, model)
    return mutate(crossed, draws, model)

