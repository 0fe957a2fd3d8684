"""Paths, process environment and summary statistics shared by the scripts.

Nothing here imports numpy: `prepare_environment` must run before the first
numpy import so that the BLAS thread cap takes effect.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermoga"
WORK_DIR = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# counts that must repeat exactly between passes and runs with one seed
COUNT_METRICS = (
    "spin_systems.energy_calls", "spin_systems.energy_rows", "ga.rows_changed",
    "ga.energy_useful_ratio", "learner.steps", "learner.oracle_calls",
    "learner.oracle_calls_per_step", "analytic.rs_solves",
    "analytic.rs_iterations_per_solve", "analytic.chain_u_calls", "mcmc.estimate_calls",
    "mcmc.proposals", "analysis.fit_calls", "experiment.bytes_written",
    "experiment.replicas", "experiment.replica_failures",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_environment() -> bool:
    """Cap BLAS threads at nproc and put `src` on the import path.

    Returns False when the package sources are missing, in which case the
    caller exits without printing a result.
    """
    if not (PACKAGE / "__init__.py").is_file():
        return False
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)
    # every output directory is chosen by the benchmark, never by the environment
    os.environ.pop("THERMOGA_OUTPUT_DIR", None)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return True


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summarize(values) -> dict:
    """Median, quartiles, the highest percentile with >= 10 samples beyond it, count.

    With n samples the (n-10)-th smallest value has exactly ten above it; it
    is reported with its percentile rank.  Below 11 samples there is none.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    else:
        out.update(q1=out["median"], q3=out["median"])
    if n > 10:
        out["p_high"] = xs[n - 11]
        out["p_high_rank"] = round(100.0 * (n - 10) / n, 1)
    else:
        out["p_high"] = None
        out["p_high_rank"] = None
    return out
