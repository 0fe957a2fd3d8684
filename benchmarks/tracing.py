"""Spans and counters recorded from outside the package.

The tracer wraps public functions of `thermoga` at the names their callers
look them up by, so the package itself carries no instrumentation:

- `experiment` calls `ga.*`, `learner.*` and `analysis.*` through module
  attributes, so patching the attribute on the imported module is enough;
- the energy evaluators built by `spin_systems` call `chain_energies` and
  `sk_energies` through that module's globals;
- `mcmc` imports the energy functions by name, so its own globals are
  patched as well;
- `EnergyOracle.energy` is a method and is patched on the class.

Each wrapped call opens a span with a parent (the innermost open span).  A
span's self time is its duration minus the time covered by its children.
Counts are taken at the same boundaries, so ratios such as rows changed per
row recomputed are measured where the work happens.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import thermoga.analysis
import thermoga.analytic
import thermoga.experiment
import thermoga.ga
import thermoga.learner
import thermoga.mcmc
import thermoga.spin_systems

SPAN_CAP = 50_000   # spans kept in full per pass; per-name totals are always kept


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "child_s", "child_rows")

    def __init__(self, span_id, parent, name, start):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.child_rows = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory spans, per-name self times and named counters for one pass."""

    def __init__(self, trace_id=0):
        self.trace_id = trace_id
        self.stack: list[Span] = []
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0

    def wrap(self, name, fn, hook=None):
        """Return `fn` wrapped in a span; `hook(tracer, span, args, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self._next_id += 1
            span = Span(self._next_id, parent.span_id if parent else None, name,
                        time.perf_counter())
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.self_s[name] += span.self_s
                self.calls[name] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.trace_id, span.span_id, span.parent, name,
                                       span.start, span.end, span.self_s))
            if hook is not None:
                hook(self, span, args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counting hooks, one per boundary

def _energy_hook(tracer, span, args, result):
    members = np.atleast_2d(args[0])
    rows, n = members.shape
    tracer.counts["energy_rows"] += rows
    # flops computed from array sizes: chain 3(N-1) per row (two products and a
    # sum per bond); SK 2N^2 + 2N per row (the quadratic form s.C.s)
    per_row = 3 * (n - 1) if span.name == "spin_systems.chain_energies" else 2 * n * n + 2 * n
    tracer.counts["energy_flops"] += rows * per_row
    if tracer.stack:
        tracer.stack[-1].child_rows += rows


def _changed_rows_hook(tracer, span, args, result):
    before = args[0].members
    tracer.counts["rows_changed"] += int(np.count_nonzero(np.any(result.members != before, axis=1)))
    tracer.counts["rows_recomputed"] += span.child_rows


def _rs_hook(tracer, span, args, result):
    tracer.counts["rs_iterations"] += result.iterations


def _estimate_hook(tracer, span, args, result):
    d, opts = args[0], args[2]   # the benchmark passes (d, T, opts, seed) positionally
    proposals = opts.chains * opts.sweeps * d.n
    model = "chain" if isinstance(d, thermoga.spin_systems.ChainDisorder) else "sk"
    tracer.counts[f"{model}_proposals"] += proposals
    tracer.counts[f"{model}_estimate_s"] += span.self_s


# (module, attribute, span name, hook); methods are patched on their class
TARGETS = [
    (thermoga.ga, "tournament_select", "ga.select", None),
    (thermoga.ga, "boltzmann_select", "ga.select", None),
    (thermoga.ga, "crossover", "ga.crossover", _changed_rows_hook),
    (thermoga.ga, "mutate", "ga.mutate", _changed_rows_hook),
    (thermoga.spin_systems, "chain_energies", "spin_systems.chain_energies", _energy_hook),
    (thermoga.spin_systems, "sk_energies", "spin_systems.sk_energies", _energy_hook),
    (thermoga.mcmc, "chain_energies", "spin_systems.chain_energies", _energy_hook),
    (thermoga.mcmc, "sk_energies", "spin_systems.sk_energies", _energy_hook),
    (thermoga.mcmc, "estimate_internal_energy", "mcmc.estimate", _estimate_hook),
    (thermoga.mcmc, "exact_gibbs_expectation", "mcmc.exact", None),
    (thermoga.learner, "learner_step", "learner.step", None),
    (thermoga.learner.EnergyOracle, "energy", "learner.oracle", None),
    (thermoga.analytic, "sk_rs_fixed_point", "analytic.rs", _rs_hook),
    (thermoga.analytic, "chain_internal_energy", "analytic.chain_u", None),
    (thermoga.analysis, "fit_power_law", "analysis.fit", None),
    (thermoga.analysis, "detect_crossover", "analysis.fit", None),
    (thermoga.experiment, "write_table", "experiment.io", None),
    (thermoga.experiment, "emit_plot_data", "experiment.emit", None),
    (thermoga.experiment, "run_experiment", "experiment.run", None),
]


@contextmanager
def patched(targets):
    """Replace each (owner, attribute) by a substitute; restore on exit.

    `targets` is a list of (owner, attribute, substitute factory), where the
    factory receives the original callable and returns its replacement.
    """
    saved = []
    try:
        for owner, attr, factory in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def tracing(tracer: Tracer):
    """Route every public boundary listed in TARGETS through `tracer`."""
    targets = [(owner, attr, lambda fn, name=name, hook=hook: tracer.wrap(name, fn, hook))
               for owner, attr, name, hook in TARGETS]
    with patched(targets):
        yield tracer


def layer_metrics(tr: Tracer, replicas: int, replica_failures: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    s, c, k = tr.self_s, tr.calls, tr.counts
    energy_calls = c["spin_systems.chain_energies"] + c["spin_systems.sk_energies"]
    energy_s = s["spin_systems.chain_energies"] + s["spin_systems.sk_energies"]
    steps = c["learner.step"]
    solves = c["analytic.rs"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "ga.select_s": s["ga.select"],
        "ga.crossover_self_s": s["ga.crossover"],
        "ga.mutate_self_s": s["ga.mutate"],
        "spin_systems.energy_calls": energy_calls,
        "spin_systems.energy_rows": int(k["energy_rows"]),
        "spin_systems.energy_s": energy_s,
        "spin_systems.energy_us_per_row": ratio(energy_s, k["energy_rows"], 1e6),
        "spin_systems.energy_flops_per_s": ratio(k["energy_flops"], energy_s),
        "ga.rows_changed": int(k["rows_changed"]),
        "ga.energy_useful_ratio": ratio(k["rows_changed"], k["rows_recomputed"]),
        "learner.steps": steps,
        "learner.oracle_calls": c["learner.oracle"],
        "learner.oracle_calls_per_step": ratio(c["learner.oracle"], steps),
        "learner.oracle_s": s["learner.oracle"],
        "analytic.rs_solves": solves,
        "analytic.rs_iterations_per_solve": ratio(k["rs_iterations"], solves),
        "analytic.rs_s": s["analytic.rs"],
        "analytic.chain_u_calls": c["analytic.chain_u"],
        "analytic.chain_u_s": s["analytic.chain_u"],
        "mcmc.estimate_calls": c["mcmc.estimate"],
        "mcmc.proposals": int(k["chain_proposals"] + k["sk_proposals"]),
        "mcmc.chain_ns_per_proposal": ratio(k["chain_estimate_s"], k["chain_proposals"], 1e9),
        "mcmc.sk_ns_per_proposal": ratio(k["sk_estimate_s"], k["sk_proposals"], 1e9),
        "mcmc.estimate_s": s["mcmc.estimate"],
        "mcmc.exact_s": s["mcmc.exact"],
        "analysis.fit_calls": c["analysis.fit"],
        "analysis.fit_s": s["analysis.fit"],
        "experiment.io_s": s["experiment.io"] + s["experiment.emit"],
        "experiment.bytes_written": bytes_written,
        "experiment.self_s": s["experiment.run"],
        "experiment.replicas": replicas,
        "experiment.replica_failures": replica_failures,
    }
