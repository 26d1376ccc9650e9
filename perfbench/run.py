#!/usr/bin/env python3
"""Build the GNN-RDM wall-clock benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train-dense, train-sparse-pipelined, serve-full-cached. The
build goes to $CARGO_TARGET_DIR (default .bench_build at the repository
root); build output goes to stderr. The last line of stdout is the run's
JSON result. The exit code is the build's on a failed build, otherwise the
benchmark binary's.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["train-dense", "train-sparse-pipelined", "serve-full-cached"]
# Every run of the binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def commit():
    """HEAD of the repository, when the root is a git work tree's top."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none"
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """SHA-256 over the benchmarked sources, naming the code when git cannot."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for base in ["crates", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT) for f in filenames]
    for rel in sorted(files):
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path) and rel.endswith((".rs", ".toml", ".lock", ".py")):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description="GNN-RDM wall-clock benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    os.chdir(ROOT)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the benchmark ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
