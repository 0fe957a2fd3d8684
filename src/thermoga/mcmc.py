"""Metropolis single-spin-flip sampling and exact small-system expectations.

A sweep makes one single-site proposal per spin with the local energy
difference dH and acceptance min(1, exp(-dH/T)).  The chain proposes even
sites, then odd: the two sublattices do not interact, so each half-sweep is
one array operation yet identical to the same proposals made one at a time.
SK walks its sites in ascending order with an incrementally updated field
cache.  All walkers of an estimate advance together as one (walkers, N)
array, each drawing from its own generator, so its trajectory does not
depend on the walkers beside it.  Chains merge by a pure reduction (mean of
chain means, standard error from the between-chain variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError
from .spin_systems import (
    ChainDisorder,
    SKDisorder,
    chain_energies,
    chain_ground_state,
    enumerate_landscape,
    sk_energies,
)

_UNIFORM_DOUBLES = 1 << 15   # uniforms drawn per block, summed over walkers
_GROUND_INIT_MAX_T = 20.0


@dataclass(frozen=True)
class MCMCOptions:
    sweeps: int = 10_000
    burn_in: int = 1_000
    thinning: int = 10
    chains: int = 10

    def __post_init__(self):
        if min(self.sweeps, self.burn_in, self.thinning, self.chains) < 1:
            raise ValueError("all MCMC options must be positive")
        if self.burn_in >= self.sweeps:
            raise ValueError("burn_in must be smaller than sweeps")


def chain_flip_costs(s: np.ndarray, d: ChainDisorder) -> np.ndarray:
    """Flip costs 2 s_i (J_{i-1} s_{i-1} + J_i s_{i+1}) of one row or a (walkers, N) batch."""
    s = np.asarray(s, dtype=np.float64)
    f = np.zeros(s.shape)
    f[..., 1:] += d.bonds * s[..., :-1]
    f[..., :-1] += d.bonds * s[..., 1:]
    return 2.0 * s * f


def sk_flip_costs(s: np.ndarray, d: SKDisorder) -> np.ndarray:
    """Energy change 4 * d.energy_scale * s_k (C s)_k from flipping each site alone."""
    s = np.asarray(s, dtype=np.float64)
    return 4.0 * d.energy_scale * s * (d.couplings @ s)


def _chain_sweep(s: np.ndarray, d: ChainDisorder, T: float, u: np.ndarray) -> None:
    """Two half-sweeps of every walker; s and u are (walkers, N)."""
    for parity in (0, 1):
        costs = chain_flip_costs(s, d)[:, parity::2]
        sub = s[:, parity::2]
        np.negative(sub, out=sub, where=u[:, parity::2] < np.exp(-np.maximum(costs, 0.0) / T))


def _sk_sweep(s, h, d: SKDisorder, scale: float, T: float, u: np.ndarray) -> None:
    """One sweep of every walker; s and its fields h are (N, walkers), u is (walkers, N)."""
    cols, zero = d.couplings[:, :, None], np.zeros(s.shape[1])   # symmetric: row k = column k
    for k, uk in enumerate(u.T):
        sk = s[k]
        # exp(min(-dH, 0) / T) equals the chain's exp(-max(dH, 0) / T), one operation fewer
        delta = (2.0 * sk) * (uk < np.exp(np.minimum(-scale * sk * h[k], zero) / T))
        h -= cols[k] * delta
        sk -= delta


def _walk(s: np.ndarray, d, T: float, rngs, sweeps: int,
          samples: range = range(0)) -> np.ndarray | None:
    """Advance walkers `s` (walkers, N) in place; mean energies over the 0-based `samples`.

    Walker w draws from `rngs[w]` in blocks, the stream of one `rng.random(N)` per sweep.
    """
    walkers, n = s.shape
    sk = isinstance(d, SKDisorder)
    if sk:
        state = np.array(s.T, dtype=np.float64, order="C")   # walker-contiguous
        h = np.stack([d.couplings @ row for row in s.astype(np.float64)], axis=1)
        scale, rows = 4.0 * d.energy_scale, state.T   # dH of a flip = scale * s_k * h_k
    else:
        state = rows = s.astype(np.float64)
    block = max(1, _UNIFORM_DOUBLES // (walkers * n))
    u = np.empty((walkers, min(block, sweeps), n))
    totals = np.zeros(walkers)
    for start in range(0, sweeps, block):
        size = min(block, sweeps - start)
        for w, rng in enumerate(rngs):
            rng.random(out=u[w, :size])
        for t in range(size):
            with np.errstate(under="ignore"):   # an acceptance underflowing to 0 is exact
                if sk:
                    _sk_sweep(state, h, d, scale, T, u[:, t])
                else:
                    _chain_sweep(state, d, T, u[:, t])
            if start + t in samples:
                totals += sk_energies(rows, d) if sk else chain_energies(rows, d)
    s[...] = rows
    return totals / len(samples) if samples else None


def metropolis_sweep(s, d, T: float, seed) -> np.ndarray:
    """One Metropolis sweep (N single-site proposals); returns a new configuration."""
    if T <= 0:
        raise DomainError("temperature must be positive")
    out = np.array(s, dtype=np.int8)
    _walk(out[None, :], d, T, [np.random.default_rng(seed)], 1)
    out.setflags(write=False)
    return out


def estimate_internal_energy(d, T: float, opts: MCMCOptions, seed) -> tuple[float, float]:
    """Gibbs internal energy estimate: (mean over chains, between-chain std error).

    Each chain is a walker with its own generator spawned from `seed`,
    averaging its energy over the sweeps after burn-in, thinned.  Chain
    walkers at low temperature start from the exact ground state: that
    equilibrium is the ground state plus dilute local excitations, whereas a
    random start traps domain walls behind strong bonds for exponentially
    long.  Hot walkers (near-certain acceptance freezes the bond variables;
    the equilibrium is uniform) start at random, as do SK walkers.
    """
    if T <= 0:
        raise DomainError("temperature must be positive")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(child) for child in ss.spawn(opts.chains)]
    if isinstance(d, ChainDisorder) and T <= _GROUND_INIT_MAX_T:
        s = np.tile(chain_ground_state(d)[1], (opts.chains, 1))
    else:
        s = np.stack([rng.integers(0, 2, size=d.n, dtype=np.int8) * 2 - 1 for rng in rngs])
    means = _walk(s, d, T, rngs, opts.sweeps, range(opts.burn_in, opts.sweeps, opts.thinning))
    if opts.chains == 1:
        return float(means[0]), 0.0
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(opts.chains))


def exact_gibbs_expectation(d, T: float) -> tuple[float, float]:
    """Exact (U, Z) by full enumeration, log-sum-exp stabilized.

    Z can overflow to inf for very low temperatures; U stays finite.
    """
    if T <= 0:
        raise DomainError("temperature must be positive")
    _, energies = enumerate_landscape(d)
    beta = 1.0 / T
    logw = -beta * energies
    log_z = float(logsumexp(logw))
    w = np.exp(logw - log_z)
    return float(w @ energies), float(np.exp(log_z))
