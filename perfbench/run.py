#!/usr/bin/env python3
"""Builds and runs the Wave-PIM benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--workers <k>]

Run it from the repository root. It builds the `perfbench` package with
cargo (release, offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when
that is unset, then runs the workload in a fresh process with the worker
pool pinned to the cores this process may use (or to `--workers`). Its
standard output ends with two JSON lines: the run record, stamped with a
host fingerprint, and then the result. See perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ["acoustic_l4x4", "acoustic_l4x16_narrow", "elastic_l3_batched"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs `cmd` to completion in a process group of its own; if it
    outlives `timeout`, kills the whole group (the benchmark binary runs
    its set-up processes as children) and waits for it."""
    try:
        proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest(root):
    """SHA-256 over the workspace and benchmark sources, standing in for
    the commit id when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "perfbench"]:
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files) if f != "Cargo.lock"]
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def capture(cmd):
    """The stripped standard output of `cmd`, or "unknown" if it fails."""
    try:
        proc = subprocess.run(cmd, timeout=60, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(root, workers):
    mem_kb = first_line("/proc/meminfo", "MemTotal").split()[0]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ram_gb": round(int(mem_kb) / 2**20, 1) if mem_kb.isdigit() else "unknown",
        "rustc": capture(["rustc", "--version"]),
        "workers": workers,
        "commit": capture(["git", "-C", root, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(root),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.workers < 1:
        fail("--seed must be >= 0, --seconds > 0 and --workers >= 1")

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(root, "crates")):
        fail("run from the repository root: no crates/ directory here")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    env["RAYON_NUM_THREADS"] = str(args.workers)
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    proc = run(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        record, _ = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the benchmark binary printed no record and result")

    record["record"]["workload"] = args.workload
    record["record"]["host"] = fingerprint(root, args.workers)
    print(json.dumps(record))
    print(lines[-1])


if __name__ == "__main__":
    main()
