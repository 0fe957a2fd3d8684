"""Compare two sets of results records: a parent (A) and a change (B).

    python3 benchmarks/compare.py benchmarks/results/parent benchmarks/results/change

Each argument is a directory of records written by `run.py --record` (or
by `collect.py`).  For every workload and metric the table gives each
side's median and quartiles over runs, the fraction of pairs B won (runs
paired in seed order; ties count for neither side), and a verdict:

- improved: B wins at least 9/10 of the pairs and the medians differ, in
  B's favour, by more than A's interquartile range;
- worse: B's median is worse than A's by more than the metric's bound;
- unresolved: A's own spread (IQR / median) is wider than the bound and B
  did not beat every run of A; or, for a per-layer time (no bound), neither
  side won 9/10 of the pairs by more than A's IQR;
- unchanged: none of the above.

Per-layer counts repeat exactly on one seed, so they are compared exactly:
"equal" or "changed".

The two sets must be comparable: every record made with the same
`--seconds` and pass size, and, per workload, the same seeds on both sides,
each once.  Otherwise nothing is compared and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import common

WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} sorted by seed, then by file name (time)."""
    groups: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["provenance"]["workload"], rec["trace"])
        groups.setdefault(key, []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: r["provenance"]["seed"])
    return groups


def verdict(a: list, b: list, better: str, bound, is_count: bool) -> tuple[str, float]:
    pairs = list(zip(a, b))
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    if is_count:
        return ("equal" if a == b else "changed"), wins
    sa = common.summarize(a)
    med_a, iqr_a = sa["median"], sa["q3"] - sa["q1"]
    gain = sign * (statistics.median(b) - med_a)
    if wins >= WIN_SHARE and gain > iqr_a:
        return "improved", wins
    if bound is None:
        return ("worse" if losses >= WIN_SHARE and -gain > iqr_a else "unresolved"), wins
    b_beats_all = all(sign * (y - x) > 0 for x in a for y in b)
    if med_a and iqr_a / abs(med_a) > bound and not b_beats_all:
        return "unresolved", wins
    if med_a and -gain > bound * abs(med_a):
        return "worse", wins
    return "unchanged", wins


def mismatches(side_a: dict, side_b: dict) -> list[str]:
    """Reasons the two sets cannot be paired run for run; empty when they can."""
    problems = []
    runs = {(r["seconds"], r["size"]) for side in (side_a, side_b)
            for recs in side.values() for r in recs}
    if len(runs) > 1:
        problems.append(f"records differ in (seconds, size): {sorted(runs)}")
    for key in sorted(set(side_a) & set(side_b)):
        seeds_a = [r["provenance"]["seed"] for r in side_a[key]]
        seeds_b = [r["provenance"]["seed"] for r in side_b[key]]
        if seeds_a != seeds_b or len(set(seeds_a)) != len(seeds_a):
            problems.append(f"{key[0]} trace={key[1]}: seeds {seeds_a} vs {seeds_b} "
                            "do not match one to one")
    return problems


def compare(side_a: dict, side_b: dict) -> list[str]:
    spec = common.load_spec()
    lines = []
    for key in sorted(set(side_a) & set(side_b)):
        workload, trace = key
        ra, rb = side_a[key], side_b[key]
        n = len(ra)
        lines.append(f"== {workload} trace={trace}: {n} pairs")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            a = [r["result"]["metrics"][name]["value"] for r in ra]
            b = [r["result"]["metrics"][name]["value"] for r in rb]
            is_count = name in common.COUNT_METRICS
            v, wins = verdict(a, b, m["better"], m.get("bound"), is_count)
            sa, sb = common.summarize(a), common.summarize(b)
            lines.append(f"{name:36s} A {sa['median']:<11.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]  "
                         f"B {sb['median']:<11.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]  "
                         f"B won {wins:.2f}  {v}")
        fa = sum(r["result"]["failed"] for r in ra)
        fb = sum(r["result"]["failed"] for r in rb)
        lines.append(f"{'failed operations':36s} A {fa}  B {fb}"
                     f"{'  <-- more failures in B' if fb > fa else ''}")
    for key in sorted(set(side_a) ^ set(side_b)):
        lines.append(f"== {key[0]} trace={key[1]}: only on one side, not compared")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    side_a, side_b = load(args.parent), load(args.change)
    problems = mismatches(side_a, side_b)
    if problems:
        print("\n".join(["not comparable:"] + problems), file=sys.stderr)
        return 1
    print("\n".join(compare(side_a, side_b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
