"""Spin configurations, quenched Gaussian disorder, and energy evaluation.

Two benchmark cost functions over spin strings s in {-1,+1}^N:

    chain:  H(s) = -sum_{i=1}^{N-1} J_i s_i s_{i+1}          (open chain)
    SK:     H(s) = -(1/N) sum_i sum_{j!=i} J_ij s_i s_j      (complete graph)

Chain bonds are i.i.d. Gaussian.  In the bond variables tau_i = s_i s_{i+1}
the chain decouples, so its ground state is exact: align every tau_i with
sgn(J_i), giving U_min = -sum_i |J_i|.

The SK double sum runs over ordered pairs, so each unordered pair enters
twice; an `SKDisorder` built with ``pair_convention="unordered"`` uses the
single-counted sum -(1/N) sum_{i<j} J_ij s_i s_j (exactly half the ordered
value) instead.  The convention is chosen once, on the disorder (through
`sample_sk_disorder`; a campaign always uses the pinned default), and
`SKDisorder.energy_scale` is the one place that turns it into a number;
energies, flip costs and enumeration all read it from there.  The
acceptance suite compares both conventions against the replica-symmetric
predictions; ``SK_PAIR_CONVENTION`` below is the pinned default.

`gibbs_weights` is the package's one normalizer of exp(-E/T), at any T in
(0, inf]: exact small-N averages, Boltzmann selection and the Holland schema
check all call it.

All types are immutable after construction and all operations are pure
functions of their arguments (sampling takes an explicit seed), so they are
safe to call from any number of concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateDisorderError,
    DimensionMismatchError,
    DomainError,
    InvalidSizeError,
    SizeCapError,
)

LANDSCAPE_CAP = 20          # exhaustive enumeration capped at 2^20 states
SK_PAIR_CONVENTION = "ordered"
SK_CONVENTIONS = ("ordered", "unordered")
_ENUM_CHUNK = 1 << 16


class ModelKind(str, Enum):
    CHAIN = "chain"
    SK = "sk"


@dataclass(frozen=True)
class DisorderParams:
    """Gaussian coupling statistics: mean J0, standard deviation J."""

    mean: float
    std: float
    model: ModelKind

    def __post_init__(self):
        object.__setattr__(self, "model", ModelKind(self.model))
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise DomainError("coupling mean and std must be finite")
        if self.std < 0:
            raise DegenerateDisorderError("coupling std must be nonnegative")
        if self.std == 0 and self.mean == 0:
            raise DegenerateDisorderError("all-zero couplings make every state a ground state")


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChainDisorder:
    """Open-chain bonds J_1..J_{N-1}."""

    bonds: np.ndarray
    params: DisorderParams

    def __post_init__(self):
        bonds = _frozen_array(self.bonds, np.float64)
        if bonds.ndim != 1 or bonds.size < 1:
            raise InvalidSizeError("a chain needs at least one bond (n >= 2)")
        object.__setattr__(self, "bonds", bonds)

    @property
    def n(self) -> int:
        return self.bonds.size + 1


@dataclass(frozen=True)
class SKDisorder:
    """Symmetric coupling matrix with zero diagonal, and how its pairs are counted."""

    couplings: np.ndarray
    params: DisorderParams
    pair_convention: str = SK_PAIR_CONVENTION

    def __post_init__(self):
        if self.pair_convention not in SK_CONVENTIONS:
            raise ValueError(f"unknown pair convention {self.pair_convention!r}")
        c = _frozen_array(self.couplings, np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 2:
            raise InvalidSizeError("couplings must be a square matrix of size n >= 2")
        if np.any(np.diagonal(c) != 0.0):
            raise ValueError("coupling matrix must have a zero diagonal")
        if not np.array_equal(c, c.T):
            raise ValueError("coupling matrix must be symmetric")
        object.__setattr__(self, "couplings", c)

    @property
    def n(self) -> int:
        return self.couplings.shape[0]

    @property
    def energy_scale(self) -> float:
        """H = -energy_scale * s.C.s: 1/N over ordered pairs, 0.5/N over unordered."""
        return 1.0 / self.n if self.pair_convention == "ordered" else 0.5 / self.n


def sample_chain_disorder(n: int, params: DisorderParams, seed) -> ChainDisorder:
    """Draw n-1 independent Gaussian bonds; deterministic given the seed."""
    if n < 2:
        raise InvalidSizeError(f"chain needs n >= 2 spins, got {n}")
    if params.model is not ModelKind.CHAIN:
        raise ValueError("params.model must be ModelKind.CHAIN")
    rng = np.random.default_rng(seed)
    bonds = rng.normal(params.mean, params.std, size=n - 1)
    return ChainDisorder(bonds=bonds, params=params)


def sample_sk_disorder(n: int, params: DisorderParams, seed,
                       pair_convention: str = SK_PAIR_CONVENTION) -> SKDisorder:
    """Draw the upper triangle i.i.d. Gaussian and mirror it below the diagonal."""
    if n < 2:
        raise InvalidSizeError(f"SK model needs n >= 2 spins, got {n}")
    if params.model is not ModelKind.SK:
        raise ValueError("params.model must be ModelKind.SK")
    rng = np.random.default_rng(seed)
    upper = np.triu_indices(n, k=1)
    c = np.zeros((n, n))
    c[upper] = rng.normal(params.mean, params.std, size=upper[0].size)
    c = c + c.T
    return SKDisorder(couplings=c, params=params, pair_convention=pair_convention)


def chain_energies(members: np.ndarray, d: ChainDisorder | np.ndarray) -> np.ndarray:
    """Energies of a batch of spin rows under the chain Hamiltonian.

    `d` is one chain, or an array of bonds with one row per spin row, so
    rows of different chains are scored in one call.  Summation is np.sum
    over ascending bond index; the ground-state oracle uses the same order
    so the two agree bit for bit.
    """
    bonds = d.bonds if isinstance(d, ChainDisorder) else d
    m = np.atleast_2d(members)
    n = bonds.shape[-1] + 1
    if m.shape[1] != n:
        raise DimensionMismatchError(f"configurations have {m.shape[1]} spins, disorder has {n}")
    pair = (m[:, :-1] * m[:, 1:]).astype(np.float64)
    return -np.sum(pair * bonds, axis=1)


def sk_energies(members: np.ndarray, d: SKDisorder) -> np.ndarray:
    """Energies of a batch of spin rows under the SK Hamiltonian."""
    m = np.atleast_2d(members).astype(np.float64)
    if m.shape[1] != d.n:
        raise DimensionMismatchError(f"configurations have {m.shape[1]} spins, disorder has {d.n}")
    h = m @ d.couplings          # local fields, one BLAS call for the whole batch
    h *= m
    quad = h.sum(axis=1)         # = 2 sum_{i<j} J_ij s_i s_j
    return -d.energy_scale * quad


def energy_chain(s, d: ChainDisorder) -> float:
    """H(s) = -sum_i J_i s_i s_{i+1}."""
    return float(chain_energies(np.asarray(s)[None, :], d)[0])


def chain_evaluator(d: ChainDisorder):
    """Vectorized energy evaluator for GA populations."""
    return lambda members: chain_energies(members, d)


def sk_evaluator(d: SKDisorder):
    return lambda members: sk_energies(members, d)


def replica_evaluator(disorders):
    """Block-aware evaluator for R instances: `f(members, blocks)` scores
    row i on `disorders[blocks[i]]`.

    Chain rows of every instance go through one call with per-row bonds.
    SK rows go through one BLAS call per instance, in their given order.
    """
    if all(isinstance(d, ChainDisorder) for d in disorders):
        bonds = np.stack([d.bonds for d in disorders])
        return lambda members, blocks: chain_energies(members, bonds[blocks])

    def evaluate(members, blocks):
        energies = np.empty(len(blocks))
        for b in np.unique(blocks):
            rows = blocks == b
            energies[rows] = sk_energies(members[rows], disorders[b])
        return energies

    return evaluate


def chain_ground_state(d: ChainDisorder) -> tuple[float, np.ndarray]:
    """Exact chain ground state.

    Energy is -sum|J_i|; the configuration is rebuilt by fixing s_1 = +1 and
    s_{i+1} = s_i * sgn(J_i), with sgn(0) taken as +1 so the result stays
    deterministic on the measure-zero event of a vanishing bond.
    """
    energy = -np.sum(np.abs(d.bonds))
    signs = np.where(d.bonds >= 0.0, 1, -1).astype(np.int8)
    config = np.empty(d.n, dtype=np.int8)
    config[0] = 1
    np.cumprod(signs, out=signs)
    config[1:] = signs
    config.setflags(write=False)
    return float(energy), config


def states_from_indices(indices: np.ndarray, n: int) -> np.ndarray:
    """Map 1-based state labels to spin rows.

    Label S encodes the configuration through the binary digits of S-1 with
    the most significant digit giving s_1 and digit 0 mapping to +1, so S=1
    is all +1 and S=2^n is all -1.
    """
    shifts = np.arange(n - 1, -1, -1)
    bits = ((indices - 1)[:, None] >> shifts) & 1
    return (1 - 2 * bits).astype(np.int8)


def enumerate_landscape(d: ChainDisorder | SKDisorder) -> np.ndarray:
    """Energies of all 2^n configurations; entry k is the state labelled k + 1.

    Labels follow the `states_from_indices` bijection.  Hard-capped at
    n = 20; evaluation is chunked so peak memory stays modest.
    """
    n = d.n
    if n > LANDSCAPE_CAP:
        raise SizeCapError(f"landscape enumeration capped at n = {LANDSCAPE_CAP}, got {n}")
    energy = chain_energies if isinstance(d, ChainDisorder) else sk_energies
    energies = np.empty(1 << n)
    for lo in range(0, energies.size, _ENUM_CHUNK):
        hi = min(lo + _ENUM_CHUNK, energies.size)
        energies[lo:hi] = energy(states_from_indices(np.arange(lo + 1, hi + 1), n), d)
    return energies


def gibbs_weights(energies, T: float) -> np.ndarray:
    """exp(-(E - E_min)/T) normalized by its own sum along the last axis, T in (0, inf].

    Each ground state weighs exp(0) = 1 before normalizing, so a tiny T splits
    the weight equally among the ground states and T = inf is uniform; neither warns.
    """
    e = np.asarray(energies, dtype=np.float64)
    with np.errstate(all="ignore"):
        w = np.exp((e.min(axis=-1, keepdims=True) - e) / T)
        return w / w.sum(axis=-1, keepdims=True)
