#!/usr/bin/env python3
"""Determinism test of the wire-path benchmark.

Runs every workload twice at the small scale, untraced and traced, and
checks that for one seed the result digest and every count-type per-layer
metric repeat exactly, that every run is correct with no failed operation,
and that each mode prints exactly its metric set from BENCHMARK.json.

    python3 perfbench/selftest.py

Exit code 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
# Per-layer metrics derived from counts alone. The rest are timings, and
# net.response_bytes, whose bodies carry each request's own timings.
EXACT = ("embed.lcag_cache_hit_ratio", "embed.sketch_hit_ratio",
         "setup.snapshot_bytes")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "2", "--trace",
           str(trace), "--scale", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    detail = next(json.loads(l[len("detail: "):]) for l in lines
                  if l.startswith("detail: "))
    return detail, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs = [run(workload, trace) for _ in range(2)]
            digests = {detail["digest"] for detail, _ in runs}
            if len(digests) != 1:
                problems.append(f"{workload} trace={trace}: digests differ "
                                f"{sorted(digests)}")
            print(f"{workload} trace={trace}: digest {sorted(digests)}")
            for _, result in runs:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{workload} trace={trace}: incorrect run")
                if set(result["metrics"]) != expected[trace]:
                    problems.append(f"{workload} trace={trace}: metric set "
                                    f"{sorted(result['metrics'])}")
            if trace == 1:
                (_, a), (_, b) = runs
                for name, metric in a["metrics"].items():
                    exact = metric["unit"] == "count" or name in EXACT
                    if exact and metric["value"] != b["metrics"][name]["value"]:
                        problems.append(
                            f"{workload}: {name} {metric['value']} != "
                            f"{b['metrics'][name]['value']}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
