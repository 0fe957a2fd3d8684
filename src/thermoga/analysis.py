"""Post-processing: residual energy, power-law fits, and schema-flow checks.

Power-law exponents come from ordinary least squares on log-log data over an
explicit window; `detect_crossover` compares the best two-segment fit against
the single-segment one and only reports a break when the split removes at
least 20% of the squared residual AND the two exponents differ by at least
0.05.  Both thresholds are deliberate, documented choices: exponent changes
in the data this package produces are gradual, and weaker gates flag noise.

`holland_residual` checks the master-equation identity for the growth rate
of a schema's probability under a Gibbs distribution whose inverse
temperature grows as beta_t = t (linear) or beta_t = t^xi (power): the
derivative dP(H,t)/dt, evaluated analytically per configuration, must equal
dbeta_t/dt * (f(H,t) - P(H,t) f(J,t)) with f the fitness averages.  The
identity is exact; the returned number is pure floating-point defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    OracleInconsistencyError,
    SizeCapError,
)
from .spin_systems import gibbs_weights

_GROUND_SLACK = 1e-9
_MIN_FIT_POINTS = 10
_MIN_CROSSOVER_POINTS = 40
_SSR_IMPROVEMENT = 0.20
_EXPONENT_GAP = 0.05
_HOLLAND_CAP = 1 << 15


@dataclass(frozen=True)
class TimeSeries:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=np.float64)
        v = np.array(self.values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise DomainError("times and values must be matching nonempty 1-D arrays")
        if t[0] <= 0 or np.any(np.diff(t) <= 0):
            raise DomainError("times must be positive and strictly increasing")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PowerLawFit:
    """value ~ amplitude * t^(-exponent) over the window, by log-log OLS."""

    exponent: float
    amplitude: float
    window: tuple[float, float]
    r_squared: float


@dataclass(frozen=True)
class CrossoverFit:
    t_break: float
    exponent_early: float
    exponent_late: float


def residual_energy_series(best_energy: TimeSeries, ground_energy: float) -> TimeSeries:
    """Energy above the exact ground state, clamped at zero.

    A value below the ground state (beyond float slack) can only mean the
    ground-state oracle and the trajectory disagree, which is a bug worth
    stopping for.
    """
    low = float(np.min(best_energy.values))
    if low < ground_energy - _GROUND_SLACK:
        raise OracleInconsistencyError(
            f"trajectory reaches {low}, below the exact ground energy {ground_energy}")
    return TimeSeries(best_energy.times, np.maximum(best_energy.values - ground_energy, 0.0))


def _window_mask(series: TimeSeries, window):
    if window is None:
        window = (float(series.times[0]), float(series.times[-1]))
    lo, hi = window
    return (series.times >= lo) & (series.times <= hi), (float(lo), float(hi))


def fit_power_law(series: TimeSeries, window: tuple[float, float] | None = None) -> PowerLawFit:
    """OLS on (log t, log value); the exponent is the negated slope."""
    mask, window = _window_mask(series, window)
    if int(mask.sum()) < _MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"need at least {_MIN_FIT_POINTS} points in the window, got {int(mask.sum())}")
    vals = series.values[mask]
    if np.any(vals <= 0):
        raise DomainError("power-law fit needs strictly positive values")
    x = np.log(series.times[mask])
    y = np.log(vals)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else max(0.0, 1.0 - float(resid @ resid) / sst)
    return PowerLawFit(exponent=-slope, amplitude=math.exp(intercept),
                       window=window, r_squared=r2)


def _segment_stats(cx, cy, cxx, cxy, cyy, i, j):
    """OLS slope and SSE on the half-open index range [i, j) from prefix sums."""
    n = j - i
    sx = cx[j] - cx[i]
    sy = cy[j] - cy[i]
    sxx = cxx[j] - cxx[i] - sx * sx / n
    sxy = cxy[j] - cxy[i] - sx * sy / n
    syy = cyy[j] - cyy[i] - sy * sy / n
    slope = sxy / sxx
    return slope, max(syy - slope * sxy, 0.0)


def detect_crossover(series: TimeSeries) -> CrossoverFit | None:
    """Best two-segment log-log fit versus one segment; None when not warranted."""
    n = series.times.size
    if n < _MIN_CROSSOVER_POINTS:
        raise InsufficientDataError(
            f"need at least {_MIN_CROSSOVER_POINTS} points, got {n}")
    if np.any(series.values <= 0):
        raise DomainError("crossover detection needs strictly positive values")
    x = np.log(series.times)
    y = np.log(series.values)
    zero = np.zeros(1)
    cx, cy = np.concatenate([zero, np.cumsum(x)]), np.concatenate([zero, np.cumsum(y)])
    cxx = np.concatenate([zero, np.cumsum(x * x)])
    cxy = np.concatenate([zero, np.cumsum(x * y)])
    cyy = np.concatenate([zero, np.cumsum(y * y)])

    _, sse_single = _segment_stats(cx, cy, cxx, cxy, cyy, 0, n)
    best = None
    for k in range(_MIN_FIT_POINTS, n - _MIN_FIT_POINTS + 1):
        s_early, sse_a = _segment_stats(cx, cy, cxx, cxy, cyy, 0, k)
        s_late, sse_b = _segment_stats(cx, cy, cxx, cxy, cyy, k, n)
        total = sse_a + sse_b
        if best is None or total < best[0]:
            best = (total, k, -s_early, -s_late)
    total, k, xi_early, xi_late = best
    if total > (1.0 - _SSR_IMPROVEMENT) * sse_single:
        return None
    if abs(xi_late - xi_early) < _EXPONENT_GAP:
        return None
    t_break = math.sqrt(series.times[k - 1] * series.times[k])
    return CrossoverFit(t_break=float(t_break), exponent_early=float(xi_early),
                        exponent_late=float(xi_late))


@dataclass(frozen=True)
class HollandSystem:
    """Finite configuration space with fitness values and a schema subset."""

    fitness: np.ndarray
    schema_members: np.ndarray

    def __post_init__(self):
        g = np.array(self.fitness, dtype=np.float64)
        h = np.unique(np.array(self.schema_members, dtype=np.int64))
        if g.ndim != 1 or g.size < 2:
            raise DomainError("need at least two configurations")
        if g.size > _HOLLAND_CAP:
            raise SizeCapError(f"schema check capped at {_HOLLAND_CAP} configurations")
        if h.size == 0 or h.size >= g.size:
            raise DomainError("schema must be a nonempty strict subset")
        if h.min() < 0 or h.max() >= g.size:
            raise DomainError("schema indices out of range")
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "fitness", g)
        object.__setattr__(self, "schema_members", h)


def _schedule_beta_rate(t: float, schedule: str, xi: float | None):
    if t <= 0:
        raise DomainError("t must be positive")
    if schedule == "linear":
        return t, 1.0
    if schedule == "power":
        if xi is None:
            raise DomainError("power schedule needs an exponent xi")
        return t**xi, xi * t ** (xi - 1.0)
    raise DomainError(f"unknown schedule {schedule!r}")


def holland_distribution(sys: HollandSystem, t: float, schedule: str = "linear",
                         xi: float | None = None) -> np.ndarray:
    """p_i(t) = exp(beta_t g_i) / sum_j exp(beta_t g_j): `gibbs_weights` of -g at T = 1/beta_t."""
    beta_t, _ = _schedule_beta_rate(t, schedule, xi)
    return gibbs_weights(-sys.fitness, 1.0 / beta_t if beta_t else math.inf)


def holland_residual(sys: HollandSystem, t: float, schedule: str = "linear",
                     xi: float | None = None) -> float:
    """|dP(H,t)/dt - dbeta/dt * (f(H,t) - P(H,t) f(J,t))|.

    The derivative side is accumulated per configuration from the closed form
    dp_i/dt = dbeta/dt * p_i (g_i - sum_j g_j p_j); the flow side uses the
    aggregate schema quantities.  Algebraically the two coincide, so the
    returned value measures only floating-point defect.
    """
    _, rate = _schedule_beta_rate(t, schedule, xi)
    p = holland_distribution(sys, t, schedule, xi)
    g = sys.fitness
    h = sys.schema_members
    f_all = float(p @ g)
    dp_dt = rate * float(np.sum(p[h] * g[h] - p[h] * f_all))
    p_schema = float(np.sum(p[h]))
    f_schema = float(np.sum(p[h] * g[h]))
    flow = rate * (f_schema - p_schema * f_all)
    return abs(dp_dt - flow)
