"""Closed-form and fixed-point thermodynamics for the two benchmark models.

Everything here integrates against the standard Gaussian measure

    Dx = dx exp(-x^2/2) / sqrt(2*pi).

Chain (infinite-size quenched averages, per spin):

    f(T)  =  int Dx log 2 cosh beta*(J0 + J*x)            (log Z per spin)
    U(T)  = -J0 int Dx tanh beta*(J0 + J*x)
            - beta*J^2 int Dx sech^2 beta*(J0 + J*x)      (= -df/dbeta)
    U_min/N = -E|J_i|  with the exact Gaussian mean absolute value.

Sherrington-Kirkpatrick, replica-symmetric order parameters:

    m = int Dz tanh beta*(J*z*sqrt(q) + J0*m)
    q = int Dz tanh^2 beta*(J*z*sqrt(q) + J0*m)
    U/N = -(J0/2) m^2 - (beta*J^2/2)(1 - q^2)

Quadrature strategy: a fixed Gauss-Hermite rule handles every integrand
whose features are wider than the node spacing.  At low temperature the
tanh/sech^2 factors develop a feature of width 1/(beta*a) around the sign
change, which no fixed rule in z can resolve, so for beta*a > 1 the
integrals are rewritten with u = beta*(a*z + b): the sgn part is exact in
terms of the Gaussian tail and the localized remainder is integrated on a
fixed Gauss-Legendre panel in u.  Both branches agree to ~1e-12 where they
meet, and the low-T limits (q -> 1, U -> -sqrt(2/pi) at (J0,J)=(0,1)) come
out exact by construction.

The Gauss-Hermite rule has 101 nodes, built once at import.  The RS
equations are solved by Anderson-accelerated fixed-point iteration to a
defect of `_RS_TOLERANCE` within `_RS_MAX_ITERATIONS` steps (see
`sk_rs_fixed_point`) from one start fixed by the temperature: (0, 0) in the
paramagnet, T > J and T > |J0|, where every SK preset solves, and
(0.5*sgn(J0), 0.5) elsewhere.  Every model needs exactly this one rule,
this one budget and this one start, so none of them is a parameter.

All functions are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import (
    ConvergenceError,
    DegenerateDisorderError,
    DomainError,
)
from .spin_systems import DisorderParams

_BETA_A_SPLIT = 1.0      # Gauss-Hermite below, u-substitution above
_U_PANEL_HALF = 20.0     # tanh(u)-sgn(u) and sech^2(u) are ~1e-17 by u=20
_U_PANEL_NODES = 400
_RS_TOLERANCE = 1e-12    # largest accepted defect of the RS equations
_RS_MAX_ITERATIONS = 100_000


def _gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Hermite rule for the measure Dx.

    Exact for polynomials up to degree 2n-1.
    """
    x, w = hermgauss(n)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


_GH_NODES, _GH_WEIGHTS = _gauss_hermite_rule(101)


def _gauss(f) -> float:
    """E[f(Z)] for Z standard normal, on the Gauss-Hermite rule."""
    return float(_GH_WEIGHTS @ f(_GH_NODES))


@functools.cache
def _u_panel():
    """Gauss-Legendre nodes/weights on (0, 20] for the localized u-integrals.

    Built on first use, never at import: only low temperatures need it, and
    the eigen-solve in `leggauss(400)` would otherwise add to every import.
    """
    x, w = leggauss(_U_PANEL_NODES)
    nodes = 0.5 * _U_PANEL_HALF * (x + 1.0)
    weights = 0.5 * _U_PANEL_HALF * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def erfcc(x: float) -> float:
    """Upper tail of the standard normal at a float x: int_x^inf dz exp(-z^2/2)/sqrt(2 pi)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / np.sqrt(2.0 * np.pi)


def _sech2(x):
    e = np.exp(-np.abs(x))
    s = 2.0 * e / (1.0 + e * e)
    return s * s


def _log2cosh(x):
    """log(2 cosh x) without overflow: |x| + log(1 + e^{-2|x|})."""
    a = np.abs(x)
    return a + np.log1p(np.exp(-2.0 * a))


def gaussian_mean_abs(mean: float, std: float) -> float:
    """E|X| for X ~ N(mean, std^2); reduces to |mean| at std = 0."""
    if std == 0.0:
        return abs(mean)
    r = mean / std
    return float(std * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * r * r) + mean * (1.0 - 2.0 * erfcc(r)))


def _u_substitution(beta: float, a: float, b: float):
    """Panel nodes u and weights, and the density phi(z) at z = (+-u/beta - b)/a,
    for integrals rewritten with u = beta*(a z + b)."""
    un, uw = _u_panel()
    return un, uw, _phi((un / beta - b) / a), _phi((-un / beta - b) / a)


def _expect_tanh(beta: float, a: float, b: float) -> float:
    """int Dz tanh(beta*(a z + b)) for a >= 0, robust for all beta."""
    if beta * a <= _BETA_A_SPLIT:
        return _gauss(lambda z: np.tanh(beta * (a * z + b)))
    un, uw, phi_p, phi_m = _u_substitution(beta, a, b)
    dev = np.tanh(un) - 1.0                     # tanh(u)-sgn(u) on u > 0
    base = 1.0 - 2.0 * erfcc(b / a)             # int Dz sgn(a z + b)
    corr = float(np.sum(uw * (phi_p * dev - phi_m * dev))) / (beta * a)
    return base + corr


def _expect_sech2(beta: float, a: float, b: float) -> float:
    """int Dz sech^2(beta*(a z + b)) for a >= 0, robust for all beta."""
    if beta * a <= _BETA_A_SPLIT:
        return _gauss(lambda z: _sech2(beta * (a * z + b)))
    un, uw, phi_p, phi_m = _u_substitution(beta, a, b)
    return float(np.sum(uw * (phi_p + phi_m) * _sech2(un))) / (beta * a)


def _expect_tanh2(beta: float, a: float, b: float) -> float:
    return 1.0 - _expect_sech2(beta, a, b)


def _expect_log2cosh(beta: float, a: float, b: float) -> float:
    """int Dz log 2 cosh(beta*(a z + b)), robust for all beta."""
    if beta * a <= _BETA_A_SPLIT:
        return _gauss(lambda z: _log2cosh(beta * (a * z + b)))
    # |v| part has the exact Gaussian mean-absolute form; the soft remainder
    # log(1+e^{-2|v|}) is localized and handled on the u-panel.
    un, uw, phi_p, phi_m = _u_substitution(beta, a, b)
    soft = np.log1p(np.exp(-2.0 * un))
    corr = float(np.sum(uw * (phi_p + phi_m) * soft)) / (beta * a)
    return beta * a * gaussian_mean_abs(b / a, 1.0) + corr


def chain_free_energy_density(T: float, params: DisorderParams) -> float:
    """log Z per spin of the chain: int Dx log 2 cosh beta*(J0 + J x)."""
    if not T > 0:
        raise DomainError("temperature must be positive")
    return _expect_log2cosh(1.0 / T, params.std, params.mean)


def chain_internal_energy(T: float, params: DisorderParams) -> float:
    """Chain internal energy per spin at temperature T (equals -df/dbeta)."""
    if not T > 0:
        raise DomainError("temperature must be positive")
    beta = 1.0 / T
    j0, j = params.mean, params.std
    term1 = -j0 * _expect_tanh(beta, j, j0) if j0 != 0.0 else 0.0
    term2 = -beta * j * j * _expect_sech2(beta, j, j0) if j != 0.0 else 0.0
    return term1 + term2


def chain_ground_state_density(params: DisorderParams) -> float:
    """Ground-state energy per spin: -E|J_i| for Gaussian bonds."""
    if params.std == 0.0 and params.mean == 0.0:
        raise DegenerateDisorderError("J0 = J = 0 has no meaningful ground state")
    return -gaussian_mean_abs(params.mean, params.std)


@dataclass(frozen=True)
class RSOrderParams:
    """Replica-symmetric (m, q) with the temperature they were solved at."""

    m: float
    q: float
    temperature: float
    residual: float
    iterations: int

    def __post_init__(self):
        if not self.temperature > 0:
            raise DomainError("temperature must be positive")
        if abs(self.m) > 1 + 1e-12 or not -1e-12 <= self.q <= 1 + 1e-12:
            raise ValueError("order parameters out of range: |m| <= 1, 0 <= q <= 1")
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def _clip(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def sk_rs_fixed_point(T: float, params: DisorderParams) -> RSOrderParams:
    """Solve the RS equations of state by Anderson-accelerated iteration.

    Every solve starts from one point fixed by (T, params) alone, so the
    result is a function of T.  In the paramagnet, T > J and T > |J0|, the
    start is (0, 0), which is the only root there, so the solve ends after
    one iteration; every SK preset learns its temperatures there.  Elsewhere
    the start is (0.5*sgn(J0), 0.5), away from the roots m = 0 and q = 0
    that solve the equations at every temperature and are unstable below
    the transition.

    The plain map x = (m, q) -> G(x) = (E tanh, E tanh^2) is mixed with the
    previous step (Anderson acceleration of depth 1, Walker & Ni 2011, SIAM
    J. Numer. Anal. 49, 1715).  With residuals f_k = G(x_k) - x_k and
    df = f_k - f_{k-1},

        x_{k+1} = G(x_k) - gamma (G(x_k) - G(x_{k-1})),   gamma = df.f_k / df.df,

    which on a one-dimensional map is the secant method.  Iterates are clipped
    to |m| <= 1, 0 <= q <= 1, and a mixed step that would flip the sign of m
    falls back to the plain step G(x_k), so the iteration cannot jump to the
    mirror root -m.

    Like the secant method, the mixing can converge onto a root that plain
    iteration is repelled from.  The one such root it meets is m = 0 when
    J0 > 0 and beta J0 (1 - q) > 1 (the ferromagnetic instability), near the
    point J0 = J = T.  Reaching it, the solver restarts from m = 0.5 with
    plain iteration, which converges only onto stable roots.
    """
    if not T > 0:
        raise DomainError("temperature must be positive")
    beta = 1.0 / T
    j0, j = params.mean, params.std
    if T > j and T > abs(j0):
        m, q = 0.0, 0.0
    else:
        m, q = 0.5 * float(np.sign(j0)), 0.5
    prev = None
    mixing = True
    defect = math.inf
    for it in range(1, _RS_MAX_ITERATIONS + 1):
        a = j * math.sqrt(q)
        b = j0 * m
        gm = _expect_tanh(beta, a, b)
        gq = _expect_tanh2(beta, a, b)
        fm, fq = gm - m, gq - q
        defect = max(abs(fm), abs(fq))
        if defect <= _RS_TOLERANCE:
            unstable = (j0 > 0.0 and abs(m) <= math.sqrt(_RS_TOLERANCE)
                        and beta * j0 * (1.0 - q) > 1.0)
            if not (mixing and unstable):
                return RSOrderParams(m=m, q=q, temperature=T, residual=defect, iterations=it)
            m, mixing = 0.5, False
            continue
        m_next, q_next = gm, gq
        if mixing and prev is not None:
            dfm, dfq = fm - prev[0], fq - prev[1]
            den = dfm * dfm + dfq * dfq
            if den > 0.0:
                gamma = (dfm * fm + dfq * fq) / den
                m_mix = gm - gamma * (gm - prev[2])
                if m_mix * gm >= 0.0:
                    m_next, q_next = m_mix, gq - gamma * (gq - prev[3])
        prev = (fm, fq, gm, gq)
        m, q = _clip(m_next, -1.0, 1.0), _clip(q_next, 0.0, 1.0)
    raise ConvergenceError(
        f"RS fixed point did not converge within {_RS_MAX_ITERATIONS} iterations "
        f"(last defect {defect:.3e})",
        m=m, q=q, residual=defect, iterations=_RS_MAX_ITERATIONS,
    )


def sk_internal_energy_density(params: DisorderParams, rs: RSOrderParams) -> float:
    """U/N = -(J0/2) m^2 - (beta J^2 / 2)(1 - q^2) at beta = 1/`rs.temperature`."""
    beta = 1.0 / rs.temperature
    j0, j = params.mean, params.std
    return -0.5 * j0 * rs.m**2 - 0.5 * beta * j * j * (1.0 - rs.q**2)


def sk_zero_temperature_magnetization(a: float) -> float:
    """Largest nonnegative root of m = 1 - 2 erfcc((J0/J) m) with a = sqrt(2/pi) J0/J.

    The trivial root m = 0 is the only one for a <= 1; above the critical
    point a = 1 the nontrivial root is found by bisection on (0, 1].
    """
    if a < 0:
        raise DomainError("a must be nonnegative")
    if a <= 1.0:
        return 0.0
    c = a * math.sqrt(math.pi / 2.0)    # = J0/J

    def g(m):
        return m - (1.0 - 2.0 * erfcc(c * m))

    lo, hi = 1e-12, 1.0
    if g(lo) >= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
