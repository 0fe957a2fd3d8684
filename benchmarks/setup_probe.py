"""Set-up of one workload in a fresh interpreter: import, inputs, lazy init.

Run by `run.py` as `python3 benchmarks/setup_probe.py <workload> <seed>`;
its wall time, measured by the caller, is one `setup_s` sample.  Lazy init
is everything the first unit of work needs: for a campaign the first
replica's disorder, energy evaluator, oracle value at T0 and initial
population; for `gibbs_small_n` one Metropolis sweep and one exact
enumeration of the first instance.
"""

import sys

import common

if __name__ == "__main__":
    if not common.prepare_environment():
        sys.exit(2)
    import numpy as np

    import thermoga as tg
    import workloads

    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = workloads.build_inputs(workload, seed)
    if workload == "gibbs_small_n":
        case = inputs.cases[0]
        tg.metropolis_sweep(np.ones(case.disorder.n, dtype=np.int8), case.disorder,
                            case.temperature, seed)
        tg.exact_gibbs_expectation(case.disorder, case.temperature)
    else:
        cfg = inputs
        if cfg.model is tg.ModelKind.CHAIN:
            d = tg.sample_chain_disorder(cfg.n, cfg.disorder, seed)
            model, oracle = tg.chain_evaluator(d), tg.analytic_chain_oracle(cfg.n, cfg.disorder)
        else:
            d = tg.sample_sk_disorder(cfg.n, cfg.disorder, seed)
            model, oracle = tg.sk_evaluator(d), tg.analytic_sk_oracle(cfg.n, cfg.disorder)
        oracle.energy(cfg.t0)
        tg.init_population(cfg.ga, model, seed)
