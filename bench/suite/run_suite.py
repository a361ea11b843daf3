#!/usr/bin/env python3
"""Runs the pqra benchmark suite (bench/suite/README.md).

    python3 bench/suite/run_suite.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--build DIR] [--runs N] [--out FILE]

Builds bench/suite as a Release + LTO tree (default build-bench-suite in
the checkout), refuses a tree that pqra_lint does not pass, runs each
workload in its own pqra_bench process and checks its outputs:

  * every replication's spec verdict is ok and apsp_async converges;
  * the schedule digest is equal across reps, traced and untraced, and at
    --seed 1 with default sizes equal to the one pinned in digests.json;
  * every workload's first replications match experiment_cli's output for
    the same configuration and seed.

It prints every metric by name with its unit and sample count, and as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"},
the metrics being BENCHMARK.json's end_to_end ones, or its per_layer ones
with --trace 1.  It exits 1 when any check fails.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = SUITE / "digests.json"
DEFAULT_BUILD = ROOT / "build-bench-suite"

# experiment_cli invocations equal to the replications pqra_bench runs
# (README.md, "Workloads").  store_durable_churn's durable replicas add no
# events, so its replications match app=store under the same churn.
STORE_ARGS = ["app=store", "theta=0.8", "servers=32", "replicas=3", "k=2",
              "vnodes=16", "clients=64"]
CLI_ARGS = {
    "apsp_async": ["app=apsp", "graph=chain", "size=32", "quorum=prob", "k=4",
                   "servers=32", "monotone=1", "sync=0", "cap=20000"],
    "store_zipf": STORE_ARGS + ["keys=100000", "ops=400"],
    "store_durable_churn": STORE_ARGS + ["keys=10000", "ops=300",
                                         "churn=0.2", "horizon=2000"],
}
APSP_LINE = re.compile(r"run (\d+): ok +rounds=(\d+) pseudocycles=(\d+) "
                       r"msgs=(\d+) retries=(\d+)")
STORE_LINE = re.compile(r"run (\d+): ok +ops=(\d+) keys-touched=(\d+) "
                        r"fingerprint=(\d+)")
CLI_LINE = {"apsp_async": APSP_LINE, "store_zipf": STORE_LINE,
            "store_durable_churn": STORE_LINE}
STORE_FIELDS = ("ops", "keys_touched", "fingerprint")
CLI_FIELDS = {"apsp_async": ("rounds", "pseudocycles", "msgs", "retries"),
              "store_zipf": STORE_FIELDS,
              "store_durable_churn": STORE_FIELDS}

# Printed end-to-end metrics that BENCHMARK.json does not declare.
INFORMATIONAL_UNITS = {"ops_per_s": "1/s", "run_ms_p50": "ms",
                       "run_ms_p75": "ms"}


class GateError(Exception):
    """A correctness gate failed; the message says which."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, **kwargs):
    """Runs cmd with its output on stderr; our stdout carries results."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False, **kwargs).returncode


def read_cache(build):
    cache = {}
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"([A-Za-z0-9_]+):[A-Z]+=(.*)$", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def ensure_build(build_arg):
    """Configures (default tree only) and builds; returns the build dir."""
    build = Path(build_arg).resolve() if build_arg else DEFAULT_BUILD
    if not (build / "CMakeCache.txt").exists():
        if build_arg:
            raise SystemExit(f"run_suite: {build} is not a configured tree")
        cmd = ["cmake", "-S", str(SUITE), "-B", str(build),
               "-DCMAKE_BUILD_TYPE=Release", "-DPQRA_LTO=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd) != 0:
            raise SystemExit("run_suite: configuring bench/suite failed")
    cache = read_cache(build)
    home = Path(cache.get("CMAKE_HOME_DIRECTORY", "")).resolve()
    if home != SUITE:
        raise SystemExit(f"run_suite: {build} is not a bench/suite tree "
                         f"(configured from {home})")
    if (cache.get("CMAKE_BUILD_TYPE") != "Release"
            or cache.get("PQRA_LTO") not in ("ON", "TRUE", "1")):
        raise SystemExit(f"run_suite: {build} is not a Release + LTO tree "
                         "(needs -DCMAKE_BUILD_TYPE=Release -DPQRA_LTO=ON)")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", str(build), "-j", jobs]) != 0:
        raise SystemExit("run_suite: build failed")
    return build


def lint_gate(build):
    lint = build / "pqra_lint" / "pqra_lint"
    cmd = [str(lint), "--config", ".pqra-lint.toml",
           "--cache", str(build / "pqra_lint.cache"),
           "src", "bench", "examples", "tools"]
    if run_logged(cmd, cwd=ROOT) != 0:
        raise SystemExit("run_suite: pqra_lint found violations; "
                         "refusing to bench")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values, p):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(p / 100 * (len(ordered) - 1))))
    return ordered[idx]


def ratio(num, den):
    return num / den if den else 0.0


def phase_s(rep, phase):
    """Host seconds of one phase (0 setup, 1 simulate, 2 check) in a rep."""
    return sum(t[phase] for t in rep["times"])


def rep_total(rep):
    return rep["shared_setup_s"] + sum(sum(t) for t in rep["times"])


def run_ms(rep):
    return [1e3 * sum(t) for t in rep["times"]]


def fastest_rep(reps):
    """The reps folded into one: every replication's phase times, and the
    shared set-up, are their fastest over the reps.  Reps repeat identical
    work, and a co-tenant only ever adds time, so this keeps each
    replication's undisturbed time however the disturbances fall."""
    return dict(reps[0],
                shared_setup_s=min(r["shared_setup_s"] for r in reps),
                times=[[min(r["times"][i][p] for r in reps)
                        for p in range(3)]
                       for i in range(len(reps[0]["times"]))])


def end_to_end(data):
    """Metric -> (value, q1, q3, samples).  The value comes from the fastest
    rep; q1/q3 are the quartiles of the same metric over the single reps;
    samples counts reps, or replications for the run_ms percentiles."""
    reps = data["untraced"]
    folded = fastest_rep(reps)
    metrics = {
        "setup_s": lambda r: r["shared_setup_s"] + phase_s(r, 0),
        "events_per_s": lambda r: r["events"] / rep_total(r),
        # ops_per_s and the run_ms percentiles are printed, but are not
        # BENCHMARK.json metrics (README.md, "End-to-end metrics").
        "ops_per_s": lambda r: r["ops"] / rep_total(r),
        "run_ms_p50": lambda r: percentile(run_ms(r), 50),
        "run_ms_p75": lambda r: percentile(run_ms(r), 75),
    }
    out = {}
    for name, fn in metrics.items():
        q1, _, q3 = quartiles([fn(r) for r in reps])
        samples = len(folded["times"]) if name.startswith("run_ms") else len(reps)
        out[name] = (fn(folded), q1, q3, samples)
    out["peak_rss_mb"] = (data["peak_rss_mb"],) * 3 + (data["runs"],)
    return out


def per_layer(data):
    """Metric -> (value, q1, q3, samples).  Counts come from the untraced
    reps (plus the decorator-only tallies of the traced ones); times from the
    traced reps."""
    untraced, traced = data["untraced"], data["traced"]
    counts = dict(traced[0]["counts"])
    counts.update(untraced[0]["counts"])
    c = lambda name: counts.get(name, 0.0)  # noqa: E731

    def over(reps, fn):
        vals = [fn(r) for r in reps]
        q1, med, q3 = quartiles(vals)
        return med, q1, q3, len(vals)

    def self_s(layer):
        return over(traced, lambda r: r["layers"][layer]["self_s"])

    def exact(value):
        return (value, value, value, 1)

    untraced_sim = statistics.median(phase_s(r, 1) for r in untraced)
    return {
        "sim.events": exact(c("sim.events")),
        "sim.queue_high_water": exact(c("sim.queue_high_water")),
        "sim.queue_resizes": exact(c("sim.queue_resizes")),
        "sim.arena_heap_allocs": exact(c("sim.arena_heap_allocs")),
        "sim.self_s": self_s("phase.simulate"),
        "sim.ns_per_event": over(traced, lambda r: ratio(
            r["layers"]["phase.simulate"]["self_s"] * 1e9, r["events"])),
        "sim.deliver_s": over(traced, lambda r: r["deliver_s"]),
        "sim.timer_fires": exact(c("sim.timer_fires")),
        "net.messages": exact(c("net.messages")),
        "net.payload_bytes": exact(c("net.payload_bytes")),
        "net.msgs_per_op": exact(ratio(c("net.messages"),
                                       c("core.client.ops"))),
        "net.send_calls": exact(c("net.send_calls")),
        "net.send_s": self_s("net.send"),
        "net.dropped": exact(c("net.dropped")),
        "quorum.picks": exact(c("quorum.picks")),
        "quorum.pick_s": self_s("quorum.pick"),
        "core.client.issue_s": self_s("core.client.issue"),
        "core.client.recv_s": self_s("core.client.recv"),
        "core.client.ops": exact(c("core.client.ops")),
        "core.client.retries": exact(c("core.client.retries")),
        "core.client.retry_ratio": exact(ratio(c("core.client.retries"),
                                               c("core.client.ops"))),
        "core.client.cache_hits": exact(c("core.client.cache_hits")),
        "core.server.requests": exact(c("core.server.requests")),
        "core.server.recv_s": self_s("core.server.recv"),
        "core.server.apply_ratio": exact(ratio(
            c("core.server.ts_advances"), c("core.server.write_requests"))),
        "core.keyspace.keys_created": exact(c("core.keyspace.keys_created")),
        "spec.records": exact(c("spec.records")),
        "spec.keys_checked": exact(c("spec.keys_checked")),
        "spec.check_s": self_s("phase.check"),
        "spec.ns_per_record": over(traced, lambda r: ratio(
            r["layers"]["phase.check"]["self_s"] * 1e9, c("spec.records"))),
        "storage.appends": exact(c("storage.appends")),
        "storage.append_bytes": exact(c("storage.append_bytes")),
        "storage.syncs": exact(c("storage.syncs")),
        "storage.syncs_per_put": exact(ratio(c("storage.syncs"),
                                             c("core.client.puts"))),
        "storage.snapshots": exact(c("storage.snapshots")),
        "storage.snapshot_bytes": exact(c("storage.snapshot_bytes")),
        "storage.recoveries": exact(c("storage.recoveries")),
        "storage.replayed_records": exact(c("storage.replayed_records")),
        "storage.apply_s": self_s("storage.apply"),
        "storage.backend_s": self_s("storage.backend"),
        "storage.recover_s": self_s("storage.recover"),
        "iter.rounds": exact(c("iter.rounds")),
        "iter.pseudocycles": exact(c("iter.pseudocycles")),
        "apps.apply_calls": exact(c("apps.apply_calls")),
        "apps.apply_s": self_s("apps.apply"),
        "obs.spans": over(traced, lambda r: r["spans"]),
        "obs.trace_overhead_frac": over(traced, lambda r: ratio(
            phase_s(r, 1), untraced_sim) - 1.0),
    }


def check_reps(data, pinned):
    """Gates on the bench output itself; raises GateError."""
    reps = data["untraced"] + data["traced"]
    for rep in reps:
        if rep["failures"]:
            raise GateError("; ".join(rep["failures"][:3]))
        if rep["span_overflow"]:
            raise GateError(f"span buffer overflowed by "
                            f"{rep['span_overflow']} spans")
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        raise GateError(f"schedule digest differs across reps or between "
                        f"traced and untraced runs: {sorted(digests)}")
    first = data["untraced"][0]["counts"]
    for rep in reps:
        for name, value in rep["counts"].items():
            if name in first and first[name] != value:
                raise GateError(f"deterministic count {name} differs across "
                                f"reps: {first[name]} vs {value}")
    if pinned is not None and data["untraced"][0]["digest"] != pinned:
        raise GateError(f"seed-1 schedule digest "
                        f"{data['untraced'][0]['digest']} != pinned {pinned}")


def cli_gate(build, workload, seed, head):
    """Compares the first replications with experiment_cli's stdout."""
    runs = len(head)
    cmd = [str(build / "pqra_examples" / "experiment_cli"), *CLI_ARGS[workload],
           f"runs={runs}", f"seed={seed}", "jobs=1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=120)
    if proc.returncode != 0:
        raise GateError(f"experiment_cli exited {proc.returncode}")
    rows = {}
    for m in CLI_LINE[workload].finditer(proc.stdout):
        rows[int(m.group(1))] = [int(g) for g in m.groups()[1:]]
    for r, fields in enumerate(head):
        mine = [int(fields[f]) for f in CLI_FIELDS[workload]]
        if rows.get(r) != mine:
            raise GateError(f"run {r} differs from experiment_cli: "
                            f"{dict(zip(CLI_FIELDS[workload], mine))} vs "
                            f"{rows.get(r)}")


def run_workload(build, workload, args):
    spans_dir = build / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_out = spans_dir / f"{workload}.jsonl"
    cmd = [str(build / "pqra_bench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.runs:
        cmd += ["--runs", str(args.runs)]
    if args.trace:
        cmd += ["--spans-out", str(spans_out)]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=max(150, 3 * args.seconds))
    if proc.returncode != 0:
        log(proc.stderr)
        raise GateError(f"pqra_bench exited {proc.returncode}")
    data = json.loads(proc.stdout)

    pinned = None
    if args.seed == 1 and not args.runs:
        pinned = json.loads(DIGESTS.read_text())[workload]
    check_reps(data, pinned)
    cli_gate(build, workload, args.seed, data["untraced"][0]["head"])

    rep = data["untraced"][0]
    result = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "started": started, "runs": data["runs"],
        "reps": len(data["untraced"]), "traced_reps": len(data["traced"]),
        "digest": rep["digest"], "attempted": rep["attempted"],
        "failed": rep["failed"], "counts": rep["counts"],
        "end_to_end": end_to_end(data),
    }
    if args.trace:
        result["per_layer"] = per_layer(data)
        result["spans_out"] = str(spans_out)
        result["layers"] = layer_table(data)
    return result


def layer_table(data):
    """Span name -> median self/total seconds over the traced reps."""
    table = {}
    for name in data["traced"][0]["layers"]:
        table[name] = {
            key: statistics.median(r["layers"][name][key]
                                   for r in data["traced"])
            for key in ("self_s", "total_s", "calls")
        }
    return table


def fmt(value):
    return f"{value:.6g}"


def print_result(result, units):
    w = result["workload"]
    section = "per_layer" if "per_layer" in result else "end_to_end"
    print(f"== {w}  seed={result['seed']}  runs/rep={result['runs']}  "
          f"reps={result['reps']}+{result['traced_reps']} traced  "
          f"digest={result['digest']}")
    for name, (value, q1, q3, n) in result[section].items():
        declared = name in units
        unit = units.get(name) or INFORMATIONAL_UNITS[name]
        print(f"  {name:28s} {fmt(value):>12s} {unit:7s} "
              f"[q1 {fmt(q1)}, q3 {fmt(q3)}; n={n}]"
              f"{'' if declared else '  (informational)'}")
    if "layers" in result:
        sim_total = result["layers"]["phase.simulate"]["total_s"]
        print(f"  span self time, share of traced simulate "
              f"({fmt(sim_total)} s):")
        for name, row in result["layers"].items():
            if row["calls"] and not name.startswith("phase."):
                print(f"    {name:24s} {fmt(row['self_s']):>10s} s "
                      f"{100 * ratio(row['self_s'], sim_total):6.1f}%  "
                      f"calls={int(row['calls'])}")
        print(f"    {'sim.self (event loop)':24s} "
              f"{fmt(result['layers']['phase.simulate']['self_s']):>10s} s "
              f"{100 * ratio(result['layers']['phase.simulate']['self_s'], sim_total):6.1f}%")
        print(f"  spans: {result['spans_out']}")


def main():
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--build", help="existing Release + LTO bench/suite "
                        "tree (default: build-bench-suite, built on demand)")
    parser.add_argument("--runs", type=int, default=0,
                        help="replications per rep (default: the workload's "
                        "own; other sizes skip the pinned-digest check)")
    parser.add_argument("--out", help="append one JSON line per workload "
                        "(input of compare.py)")
    args = parser.parse_args()

    build = ensure_build(args.build)
    lint_gate(build)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    workloads = names if args.workload == "all" else [args.workload]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        try:
            result = run_workload(build, workload, args)
        except (GateError, subprocess.TimeoutExpired) as err:
            log(f"run_suite: {workload}: FAILED: {err}")
            correct = False
            continue
        print_result(result, units)
        attempted += result["attempted"]
        failed += result["failed"]
        values = {name: {"value": result[section][name][0], "unit": unit}
                  for name, unit in units.items()}
        metrics[workload] = values
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps(result) + "\n")

    if len(workloads) == 1:
        metrics = metrics.get(workloads[0], {})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
