"""thermoga benchmark: one workload, timed for a fixed number of seconds.

    python3 benchmarks/run.py --workload chain_campaign --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  The inputs are made from --seed, each
pass runs them through the package's public API, every pass is checked
against the exact references the package has, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json
(medians over passes; set-up from fresh interpreters).  With --trace 1 the
run alternates untraced and traced passes and reports the per-layer
metrics: counts from the traced passes (which must repeat exactly), self
times as medians, and the tracing overhead.  --record DIR also writes the
full results record (provenance, every sample, spans) as JSON into DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PASSES = 3          # untraced; a traced run needs two (untraced, traced) rounds
MIN_TRACED_ROUNDS = 2
MAX_PROBLEMS_KEPT = 50


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="directory that receives the full results record")
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of `setup_probe.py` in fresh interpreters."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       cwd=common.ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def _timed_pass(workload, inputs, work_dir, tracer=None):
    import tracing
    import workloads

    w0, c0 = time.perf_counter(), time.process_time()
    if tracer is None:
        res = workloads.run_pass(workload, inputs, work_dir)
    else:
        with tracing.tracing(tracer):
            res = workloads.run_pass(workload, inputs, work_dir)
    return res, time.perf_counter() - w0, time.process_time() - c0


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
            setup_repeats: int = SETUP_REPEATS):
    """Run one benchmark measurement; returns (result line, full record)."""
    import provenance
    import tracing
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    spec = common.load_spec()
    work_dir = common.WORK_DIR / f"{workload}-{os.getpid()}"
    record = {"provenance": provenance.collect(workload, seed), "trace": trace,
              "seconds": seconds, "size": size, "passes": [], "problems": []}
    attempted = failed = 0

    def account(res, wall, cpu, kind):
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed
        record["passes"].append({"kind": kind, "wall_s": wall, "cpu_s": cpu, "work": res.work,
                                 "attempted": res.attempted, "failed": res.failed,
                                 "op_seconds": res.op_seconds,
                                 "z_scores": res.z_scores})
        room = MAX_PROBLEMS_KEPT - len(record["problems"])
        record["problems"] += res.problems[:max(room, 0)]

    try:
        setup = measure_setup(workload, seed, setup_repeats) if not trace else []
        inputs = workloads.build_inputs(workload, seed, size)
        # warm-up: a smoke-size pass fills caches and finishes lazy set-up
        account(*_timed_pass(workload, workloads.build_inputs(workload, seed, "smoke"),
                             work_dir), kind="warmup")

        plain, traced, layers, spans = [], [], [], []
        start = time.perf_counter()
        while True:
            res, wall, cpu = _timed_pass(workload, inputs, work_dir)
            account(res, wall, cpu, kind="plain")
            plain.append((res, wall, cpu))
            if trace:
                tracer = tracing.Tracer(trace_id=len(traced))
                res, wall, cpu = _timed_pass(workload, inputs, work_dir, tracer)
                account(res, wall, cpu, kind="traced")
                traced.append(wall)
                layers.append(tracing.layer_metrics(tracer, res.replicas, res.replica_failures,
                                                    res.bytes_written))
                spans = tracer.spans
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(plain)
            if (len(plain) >= (MIN_TRACED_ROUNDS if trace else MIN_PASSES)
                    and elapsed + per_round > seconds):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()   # only if no other run still uses it
        except OSError:
            pass

    correct = failed == 0
    walls = [w for _, w, _ in plain]
    if trace:
        values, consistent = _layer_values(layers, common.COUNT_METRICS)
        correct = correct and consistent
        if not consistent:
            record["problems"].append("per-layer counts differ between traced passes")
        # paired within a round, so a change in machine load between rounds cancels
        values["trace.overhead_s"] = statistics.median(t - w for t, w in zip(traced, walls))
        wanted = spec["per_layer"]
        record["layers"] = layers
        record["spans"] = spans
        record["summary"] = {"wall_s": common.summarize(walls),
                             "traced_wall_s": common.summarize(traced)}
    else:
        samples = {
            "wall_s": walls,
            "cpu_s": [c for _, _, c in plain],
            "work_per_s": [r.work / w for r, w, _ in plain],
            "setup_s": setup,
        }
        record["summary"] = {k: common.summarize(v) for k, v in samples.items()}
        ops = [s for r, _, _ in plain for s in r.op_seconds]
        if ops:
            record["summary"]["operation_s"] = common.summarize(ops)
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["success_rate"] = 1.0 - failed / attempted
        wanted = spec["end_to_end"]
    record["error_rate"] = failed / attempted
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    record["result"] = result
    return result, record


def _layer_values(layers: list[dict], count_names) -> tuple[dict, bool]:
    """Counts from the first traced pass (checked equal in all); times as medians."""
    first = layers[0]
    consistent = all(layer[k] == first[k] for layer in layers for k in count_names)
    values = {k: (first[k] if k in count_names else statistics.median(l[k] for l in layers))
              for k in first}
    return values, consistent


def report(result: dict, record: dict, out=sys.stdout) -> None:
    """Human-readable lines; the result JSON is printed last by the caller."""
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}", file=out)
    for name, s in record["summary"].items():
        high = (f"p{s['p_high_rank']:g}={s['p_high']:.6g}" if s["p_high"] is not None
                else "p_high=n/a (<11 samples)")
        print(f"sample {name}: median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"{high} n={s['n']}", file=out)
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}", file=out)
    print(f"error_rate = {record['error_rate']:.6g} ({result['failed']}/{result['attempted']})",
          file=out)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=out)


def write_record(record: dict, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    p = record["provenance"]
    path = directory / (f"{p['workload']}_seed{p['seed']}_trace{record['trace']}_"
                        f"{time.time_ns()}.json")
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.prepare_environment():
        print(f"thermoga sources not found under {common.PACKAGE}", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    report(result, record)
    if args.record is not None:
        print(f"record: {write_record(record, args.record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
