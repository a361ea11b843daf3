#!/usr/bin/env python3
"""Compares two sets of benchmark runs (bench/suite/README.md, "Compare").

    python3 bench/suite/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines `run_suite.py --out` appends, one per
workload run.  The i-th parent run of a workload pairs with its i-th change
run; a comparison needs at least MIN_PAIRS pairs per workload, with the
same seed and replications per pair and alternating order (which side
started first flips from pair to pair).

For every end-to-end metric of every workload, using BENCHMARK.json's
direction and bound:

  win         the change is better in at least 9/10 of the pairs (ties
              count for neither) and the medians differ by more than the
              parent's interquartile range;
  worse       the mirror of a win, by no more than the bound: a slowdown
              the pairs show clearly but the bound tolerates;
  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  none of the above, and either side's interquartile range
              exceeds the bound, unless every change run is better than
              every parent run;
  unchanged   otherwise.

Deterministic counts are compared exactly, pair by pair; a count that moves
in its worse direction (per_layer "better") is a regression too.  Exits 1
on any regression, 2 when the runs cannot be compared.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def judge(parent, change, metric):
    """Verdict of one end-to-end metric over paired values."""
    better, bound = metric["better"], metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    wins = sum(is_better(c, p, better) for p, c in zip(parent, change))
    losses = sum(is_better(p, c, better) for p, c in zip(parent, change))
    worse_by = (c_med - p_med) / abs(p_med)
    if better == "higher":
        worse_by = -worse_by
    clear = abs(c_med - p_med) > p_q3 - p_q1
    if worse_by < 0 and wins >= WIN_SHARE * len(parent) and clear:
        verdict = "win"
    elif worse_by > 0 and losses >= WIN_SHARE * len(parent) and clear:
        verdict = "regression" if worse_by > bound else "worse"
    elif all(is_better(c, p, better) for c in change for p in parent):
        verdict = "better"  # no regression, but not a win by the rule above
    elif spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3), "wins": wins,
            "worse_by": worse_by, "spread": spread}


def check_pairs(workload, parents, changes):
    """Returns the list of problems that make the pairing invalid."""
    problems = []
    if len(parents) != len(changes):
        problems.append(f"{len(parents)} parent vs {len(changes)} change runs")
    pairs = list(zip(parents, changes))
    if len(pairs) < MIN_PAIRS:
        problems.append(f"{len(pairs)} pairs, need at least {MIN_PAIRS}")
    for i, (p, c) in enumerate(pairs):
        for key in ("seed", "runs", "trace"):
            if p[key] != c[key]:
                problems.append(f"pair {i}: {key} {p[key]} vs {c[key]}")
    firsts = [p["started"] < c["started"] for p, c in pairs]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        problems.append("pairs do not alternate which side runs first")
    return [f"{workload}: {p}" for p in problems]


def compare_counts(parents, changes, directions):
    """Exact per-pair comparison of the deterministic counts."""
    moved = {}
    for p, c in zip(parents, changes):
        if p["digest"] != c["digest"]:
            moved.setdefault("schedule digest", []).append(
                f"{p['digest']} -> {c['digest']}")
        for name in sorted(set(p["counts"]) | set(c["counts"])):
            a, b = p["counts"].get(name), c["counts"].get(name)
            if a != b:
                moved.setdefault(name, []).append((a, b))
    regressions = []
    for name, changes_seen in moved.items():
        better = directions.get(name)
        if better and any(a is not None and b is not None
                          and is_better(a, b, better)
                          for a, b in changes_seen):
            regressions.append(name)
    return moved, regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["per_layer"]}
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)

    problems, regressions, worse_within = [], [], []
    for workload in (w["name"] for w in spec["workloads"]):
        parents = parent_runs.get(workload, [])
        changes = change_runs.get(workload, [])
        if not parents and not changes:
            continue
        bad = check_pairs(workload, parents, changes)
        if bad:
            problems += bad
            continue
        n = len(parents)
        print(f"== {workload}: {n} pairs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict = judge([r["end_to_end"][name][0] for r in parents],
                            [r["end_to_end"][name][0] for r in changes],
                            metric)
            print(f"  {name:14s} {verdict['verdict']:10s} "
                  f"parent {verdict['parent'][1]:.6g} "
                  f"[{verdict['parent'][0]:.6g}, {verdict['parent'][2]:.6g}]  "
                  f"change {verdict['change'][1]:.6g} "
                  f"[{verdict['change'][0]:.6g}, {verdict['change'][2]:.6g}]  "
                  f"worse by {100 * verdict['worse_by']:+.2f}% "
                  f"(bound {100 * metric['bound']:.0f}%), "
                  f"wins {verdict['wins']}/{n}, "
                  f"spread {100 * verdict['spread']:.2f}%")
            if verdict["verdict"] == "regression":
                regressions.append(f"{workload} {name}")
            elif verdict["verdict"] == "worse":
                worse_within.append(f"{workload} {name}")
        moved, worse = compare_counts(parents, changes, directions)
        for name, values in moved.items():
            print(f"  count {name}: {values[:3]}"
                  f"{' ...' if len(values) > 3 else ''}")
        regressions += [f"{workload} count {name}" for name in worse]

    for p in problems:
        print(f"cannot compare: {p}", file=sys.stderr)
    if worse_within:
        print("worse, within the bound: " + ", ".join(worse_within))
    if regressions:
        print("regressions: " + ", ".join(regressions))
    if problems:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
