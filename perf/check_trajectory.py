#!/usr/bin/env python3
"""Checks that every line of a performance trajectory file is well formed.

    python3 perf/check_trajectory.py perf/trajectory.jsonl

Each line must be one JSON object with a `commit`, a `host` fingerprint
(`cores`, `cpu_model`, `ram_gb`) and a non-empty `workloads` map; each
workload needs a positive `pairs` count and, for every end-to-end
metric BENCHMARK.json declares, numeric `median`, `q1` and `q3`.
Exits nonzero at the first line that does not.
"""

import json
import os
import sys


def fail(lineno, message):
    sys.exit(f"{sys.argv[1]}:{lineno}: {message}")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = [m["name"] for m in json.load(f)["end_to_end"]]
    count = 0
    with open(sys.argv[1]) as f:
        for lineno, line in enumerate(f, 1):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"not JSON: {e}")
            if not isinstance(entry, dict):
                fail(lineno, "not a JSON object")
            if not isinstance(entry.get("commit"), str):
                fail(lineno, "no commit")
            host = entry.get("host")
            if not isinstance(host, dict) or any(k not in host for k in ("cores", "cpu_model", "ram_gb")):
                fail(lineno, "no host fingerprint (cores, cpu_model, ram_gb)")
            workloads = entry.get("workloads")
            if not isinstance(workloads, dict) or not workloads:
                fail(lineno, "no workloads")
            for name, w in workloads.items():
                if not isinstance(w.get("pairs"), int) or w["pairs"] < 1:
                    fail(lineno, f"{name}: no pair count")
                for m in metrics:
                    q = w.get("metrics", {}).get(m)
                    if not isinstance(q, dict) or any(
                        not isinstance(q.get(k), (int, float)) for k in ("median", "q1", "q3")
                    ):
                        fail(lineno, f"{name}: {m} lacks median and quartiles")
            count += 1
    if count == 0:
        sys.exit(f"{sys.argv[1]}: empty")
    print(f"{sys.argv[1]}: {count} line(s) well formed")


if __name__ == "__main__":
    main()
