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

from .errors import DimensionMismatchError, DomainError
from .spin_systems import (
    ChainDisorder,
    SKDisorder,
    chain_energies,
    chain_ground_state,
    enumerate_landscape,
    gibbs_weights,
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


def _chain_halves(padded: np.ndarray, d: ChainDisorder) -> list[tuple[np.ndarray, ...]]:
    """Views for the two half-sweeps of a zero-padded (walkers, N + 2) chain state.

    Site i sits in column i + 1.  Per parity: the sublattice, its left
    neighbours and their bonds, its right neighbours and their bonds.  The
    pad columns and pad bonds are 0, so an end site's missing neighbour adds
    exactly 0.0, as in `chain_flip_costs`.
    """
    n = padded.shape[1] - 2
    bonds = np.concatenate(([0.0], d.bonds, [0.0]))   # bonds[i] couples sites i - 1 and i
    halves = []
    for parity in (0, 1):
        stop = parity + 2 * len(range(parity, n, 2))
        halves.append((padded[:, parity + 1:stop + 1:2],
                       padded[:, parity:stop:2], bonds[parity:stop:2],
                       padded[:, parity + 2:stop + 2:2], bonds[parity + 1:stop + 1:2]))
    return halves


def _chain_sweep(halves, T: float, u: np.ndarray) -> None:
    """Two half-sweeps of every walker; u is (walkers, N).

    A half-sweep computes the flip costs of its own sublattice only, with the
    additions and products of `chain_flip_costs` in the same order, so every
    cost, and so every accept decision, is bit for bit that of the whole row.
    """
    for parity, (sub, left, j_left, right, j_right) in enumerate(halves):
        p = j_left * left
        p += j_right * right
        p *= -2.0 * sub                   # minus the flip cost
        np.minimum(p, 0.0, out=p)         # exp(min(-dH, 0) / T) = exp(-max(dH, 0) / T)
        p /= T
        np.exp(p, out=p)
        np.negative(sub, out=sub, where=u[:, parity::2] < p)


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
        padded = np.zeros((walkers, n + 2))
        rows = padded[:, 1:-1]
        rows[...] = s
        halves = _chain_halves(padded, d)
    block = max(1, _UNIFORM_DOUBLES // (walkers * n))
    u = np.empty((walkers, min(block, sweeps), n))
    totals = np.zeros(walkers)
    with np.errstate(under="ignore"):   # an acceptance underflowing to 0 is exact
        for start in range(0, sweeps, block):
            size = min(block, sweeps - start)
            for w, rng in enumerate(rngs):
                rng.random(out=u[w, :size])
            for t in range(size):
                if sk:
                    _sk_sweep(state, h, d, scale, T, u[:, t])
                else:
                    _chain_sweep(halves, T, u[:, t])
                if start + t in samples:
                    totals += sk_energies(rows, d) if sk else chain_energies(rows, d)
    s[...] = rows
    return totals / len(samples) if samples else None


def metropolis_sweep(s, d, T: float, seed) -> np.ndarray:
    """One Metropolis sweep (N single-site proposals); returns a new configuration."""
    if not T > 0:
        raise DomainError("temperature must be positive")
    out = np.array(s, dtype=np.int8)
    if out.shape != (d.n,):
        raise DimensionMismatchError(f"configuration shape {out.shape} is not ({d.n},)")
    _walk(out[None, :], d, T, [np.random.default_rng(seed)], 1)
    out.setflags(write=False)
    return out


def estimate_internal_energy(d, T: float, opts: MCMCOptions, seed) -> tuple[float, float]:
    """Gibbs internal energy estimate: (mean over chains, between-chain std error).

    Each chain is a walker with its own generator, child i of `seed`,
    averaging its energy over the sweeps after burn-in, thinned.  Chain
    walkers at low temperature start from the exact ground state: that
    equilibrium is the ground state plus dilute local excitations, whereas a
    random start traps domain walls behind strong bonds for exponentially
    long.  Hot walkers (near-certain acceptance freezes the bond variables;
    the equilibrium is uniform) start at random, as do SK walkers.
    """
    if not T > 0:
        raise DomainError("temperature must be positive")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # child i as `ss.spawn` gives it on a fresh `ss`; `ss` itself is not advanced
    children = (np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                       pool_size=ss.pool_size) for i in range(opts.chains))
    rngs = [np.random.default_rng(child) for child in children]
    if isinstance(d, ChainDisorder) and T <= _GROUND_INIT_MAX_T:
        s = np.tile(chain_ground_state(d)[1], (opts.chains, 1))
    else:
        s = np.stack([rng.integers(0, 2, size=d.n, dtype=np.int8) * 2 - 1 for rng in rngs])
    means = _walk(s, d, T, rngs, opts.sweeps, range(opts.burn_in, opts.sweeps, opts.thinning))
    if opts.chains == 1:
        return float(means[0]), 0.0
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(opts.chains))


def exact_gibbs_expectation(d, T: float) -> tuple[float, float]:
    """Exact (U, Z) by full enumeration, the Gibbs weights normalized by their own sum.

    Z overflows to inf (silently) at very low T; U holds down to the ground-state average.
    """
    if not T > 0:
        raise DomainError("temperature must be positive")
    energies = enumerate_landscape(d)
    w = gibbs_weights(energies, T)
    with np.errstate(over="ignore", under="ignore"):
        # a ground state weighs 1 before normalizing, so w.max() is 1 / sum(exp(-(E - E_min)/T))
        z = np.exp(-energies.min() / T) / w.max()
        return float(w @ energies), float(z)
