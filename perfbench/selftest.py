#!/usr/bin/env python3
"""Fast self-test of the benchmark, run from the root of a checkout.

    python3 perfbench/selftest.py

Runs all workloads at tiny sizes, untraced and then traced, and checks that
every metric BENCHMARK.json names is reported with its unit and a finite value
(end-to-end ones for each workload, per-layer ones once), and that no operation
failed (failed_frac is 0). It sets no timing bound.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--tiny"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            problems.append(f"trace {trace}: exit {done.returncode}: {done.stderr.strip()}")
            continue
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
            continue
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(
                f"trace {trace}: {result['failed']} of {result['attempted']} operations failed")
        # Untraced metrics come per workload; the traced run reports each layer once.
        prefixes = [f"{w}." for w in workloads] if trace == 0 else [""]
        expected = {f"{p}{m['name']}": m["unit"] for p in prefixes for m in spec[kind]}
        got = result["metrics"]
        for name in sorted(expected.keys() - got.keys()):
            problems.append(f"trace {trace}: missing {name}")
        for name in sorted(got.keys() - expected.keys()):
            problems.append(f"trace {trace}: unexpected {name}")
        for name in sorted(expected.keys() & got.keys()):
            value, unit = got[name]["value"], got[name]["unit"]
            if unit != expected[name]:
                problems.append(f"trace {trace}: {name} has unit {unit}, not {expected[name]}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"trace {trace}: {name} = {value!r}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
