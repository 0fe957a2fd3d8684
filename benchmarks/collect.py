"""Run the benchmark over several seeds and keep every results record.

    python3 benchmarks/collect.py --out benchmarks/results/base --seeds 1-10
    python3 benchmarks/collect.py --out benchmarks/results/base-confirm --seeds 1001-1010

Each (workload, seed) run is a separate `run.py` process, as the benchmark
is meant to be run.  Afterwards the run-to-run spread of every end-to-end
metric is printed: the distance between the quartiles of the per-run
medians as a share of their median, next to the metric's bound.  A spread
at or above a third of the bound is flagged.

Seeds 1-10 are the development seeds.  A gain claimed on them is confirmed
on seeds 1001-1010, which no change should have been tuned on.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(out)]
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results: dict, spec: dict) -> list[str]:
    lines = []
    for workload, runs in results.items():
        for m in spec["end_to_end"]:
            s = common.summarize(r["metrics"][m["name"]]["value"] for r in runs)
            med = s["median"]
            spread = (s["q3"] - s["q1"]) / abs(med) if med else 0.0
            flag = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
            lines.append(f"{workload:15s} {m['name']:13s} median={med:<12.6g} "
                         f"iqr/median={spread:.4f} bound={m['bound']}{flag}")
        bad = sum(not r["correct"] for r in runs)
        lines.append(f"{workload:15s} runs={len(runs)} incorrect={bad}")
    return lines


def main(argv=None) -> int:
    spec = common.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results: dict[str, list] = {}
    for workload in names:
        for seed in parse_seeds(args.seeds):
            res = run_one(workload, seed, spec["run_seconds"], args.trace, args.out)
            results.setdefault(workload, []).append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
    if args.trace == 0:
        print("\n".join(spread_table(results, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
