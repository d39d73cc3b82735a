#!/usr/bin/env python3
"""Build and run the one-thread, in-process /v1 wire-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload news_search --seed 1 --seconds 18 \
        --trace 0

Every run configures and builds perfbench/ (which compiles the engine from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; only the first run compiles everything. Build output
goes to stderr. The benchmark's own stdout is passed through unchanged: its
last line is the JSON result. The exit code is non-zero when the build
fails, an output check fails, or the run does not finish in time.

Extra flag: --scale small runs a reduced world (used by selftest.py).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("news_search", "entity_search", "ingest_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure and build incrementally. Returns the binary path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "wirebench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out_dir, "wirebench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources, for provenance when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--work-dir", work_dir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
