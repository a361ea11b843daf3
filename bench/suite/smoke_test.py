#!/usr/bin/env python3
"""bench_suite_smoke: runs every workload at a tiny size, untraced and
traced, through run_suite.py and checks that each run passes its gates and
prints exactly the metrics BENCHMARK.json declares, each with its unit.

    python3 bench/suite/smoke_test.py --build BUILD
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build", required=True)
    args = parser.parse_args()
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(SUITE / "run_suite.py"),
                   "--build", args.build, "--workload", workload,
                   "--seed", "1", "--seconds", "0", "--trace", str(trace),
                   "--runs", "2"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{what}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            got = result["metrics"]
            if set(got) != set(expected):
                failures.append(f"{what}: metrics {sorted(set(got) ^ set(expected))} "
                                "differ from BENCHMARK.json")
            for name, unit in expected.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit or not isinstance(
                        entry.get("value"), (int, float)):
                    failures.append(f"{what}: {name} = {entry}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{what}: {result}")
            print(f"ok {what}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
