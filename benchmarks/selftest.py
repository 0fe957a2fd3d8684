"""Self-test of the benchmark at smoke size.

    python3 benchmarks/selftest.py

1. Every workload, untraced and traced, completes with error_rate 0.
2. Two traced runs with the same seed report exactly equal counts.
3. A replica made to fail (by wrapping `ga.init_population`, a public
   function the campaign calls) and a Metropolis estimate pushed off its
   exact value (by wrapping `mcmc.estimate_internal_energy`) each let the
   run complete with error_rate > 0 and correct = false.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import sys

import common

SEED = 1


def _smoke(run, workload, trace):
    return run.measure(workload, SEED, seconds=0, trace=trace, size="smoke", setup_repeats=1)


def _failing_second_replica(fn):
    calls = {"n": 0}

    def init_population(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("injected replica failure")
        return fn(*args, **kwargs)

    return init_population


def _biased_first_estimate(fn):
    calls = {"n": 0}

    def estimate_internal_energy(*args, **kwargs):
        calls["n"] += 1
        est, se = fn(*args, **kwargs)
        return (est + 1000.0 * se if calls["n"] == 1 else est), se

    return estimate_internal_energy


def main() -> int:
    if not common.prepare_environment():
        print(f"thermoga sources not found under {common.PACKAGE}", file=sys.stderr)
        return 2
    import thermoga.ga
    import thermoga.mcmc

    import run
    import tracing
    import workloads

    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        result, record = _smoke(run, workload, trace=0)
        expect(result["correct"] and result["failed"] == 0 and record["error_rate"] == 0,
               f"{workload}: untraced smoke run, error_rate 0 "
               f"({result['failed']}/{result['attempted']}) {record['problems'][:3]}")
        first, _ = _smoke(run, workload, trace=1)
        second, _ = _smoke(run, workload, trace=1)
        expect(first["correct"] and second["correct"],
               f"{workload}: traced smoke runs correct")
        differ = [k for k in common.COUNT_METRICS
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differ, f"{workload}: two traced runs give equal counts {differ}")

    injections = [
        ("chain_campaign", thermoga.ga, "init_population", _failing_second_replica),
        ("gibbs_small_n", thermoga.mcmc, "estimate_internal_energy", _biased_first_estimate),
    ]
    for workload, owner, attr, factory in injections:
        with tracing.patched([(owner, attr, factory)]):
            result, record = _smoke(run, workload, trace=0)
        expect(record["error_rate"] > 0 and not result["correct"],
               f"{workload}: injected fault in {attr} gives error_rate "
               f"{record['error_rate']:.3f} > 0 and correct = false")

    print(f"self-test: {'passed' if not failures else f'{len(failures)} failed'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
