#!/usr/bin/env python3
"""Runs the benchmark on two checkouts in alternating pairs and compares them.

    python3 perf/paired.py --base <dir> --change <dir> --pairs <n> --seed <s>
                           --seconds <t> [--workload <name> ...] [--workers <k>]
                           [--trajectory perf/trajectory.jsonl]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, one
right after the other; the side that goes first alternates from pair to
pair. Each checkout builds into its own `.bench_build` unless
`--base-target`/`--change-target` name other cargo target directories.
The script prints, per workload and end-to-end metric, both sides'
medians and quartiles and how many pairs the change won, and fails if
the two sides' state digests differ or a run reports failed
operations. With `--trajectory` it appends one summary line per side
to that file (see perf/README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["acoustic_l4x4", "acoustic_l4x16_narrow", "elastic_l3_batched"]


def end_to_end(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(root, target, workload, seed, seconds, workers):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if workers:
        cmd += ["--workers", str(workers)]
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target or os.path.join(root, ".bench_build")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"paired: {workload} failed in {root}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return record, result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(label, commit, runs, metrics, seed, seconds):
    first = next(iter(runs.values()))[0][0]
    host = {k: v for k, v in first["host"].items() if k not in ("commit", "source_sha256")}
    return {
        "label": label,
        "commit": commit,
        "source_sha256": first["host"]["source_sha256"],
        "host": host,
        "seed": seed,
        "run_seconds": seconds,
        "workloads": {
            w: {
                "pairs": len(rs),
                "digest": rs[0][0]["digest"],
                "metrics": {
                    m["name"]: quartiles([res["metrics"][m["name"]]["value"] for _, res in rs])
                    for m in metrics
                },
            }
            for w, rs in runs.items()
        },
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--base-target")
    p.add_argument("--change-target")
    p.add_argument("--base-commit", default="unknown")
    p.add_argument("--change-commit", default="unknown")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workers", type=int)
    p.add_argument("--trajectory")
    args = p.parse_args()
    if args.pairs < 2:
        sys.exit("paired: --pairs must be at least 2")
    workloads = args.workload or WORKLOADS
    metrics = end_to_end(args.change)
    sides = {
        "base": (args.base, args.base_target),
        "change": (args.change, args.change_target),
    }
    runs = {s: {w: [] for w in workloads} for s in sides}
    for i in range(args.pairs):
        for w in workloads:
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for s in order:
                root, target = sides[s]
                record, result = run_once(root, target, w, args.seed, args.seconds, args.workers)
                if result["failed"]:
                    sys.exit(f"paired: {w} on {s} reported {result['failed']} failed operations")
                runs[s][w].append((record, result))
                step = result["metrics"]["step_s"]["value"]
                print(f"pair {i + 1} {w} {s}: step_s {step:.4f}", file=sys.stderr)

    ok = True
    for w in workloads:
        base, change = runs["base"][w], runs["change"][w]
        digests = {r["digest"] for r, _ in base + change}
        print(f"{w}: {args.pairs} pairs, digests {'identical' if len(digests) == 1 else digests}")
        ok &= len(digests) == 1
        for m in metrics:
            name = m["name"]
            b = [res["metrics"][name]["value"] for _, res in base]
            c = [res["metrics"][name]["value"] for _, res in change]
            better = (lambda x, y: x < y) if m["better"] == "lower" else (lambda x, y: x > y)
            wins = sum(better(y, x) for x, y in zip(b, c))
            qb, qc = quartiles(b), quartiles(c)
            print(f"  {name:12} base {qb['median']:.6g} [{qb['q1']:.6g}, {qb['q3']:.6g}]"
                  f"  change {qc['median']:.6g} [{qc['q1']:.6g}, {qc['q3']:.6g}]"
                  f"  change better in {wins}/{args.pairs}")

    if args.trajectory:
        with open(args.trajectory, "a") as f:
            for s, commit in (("base", args.base_commit), ("change", args.change_commit)):
                line = summary(s, commit, runs[s], metrics, args.seed, args.seconds)
                f.write(json.dumps(line) + "\n")
    if not ok:
        sys.exit("paired: the two checkouts' state digests differ")


if __name__ == "__main__":
    main()
