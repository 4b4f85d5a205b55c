#!/usr/bin/env python3
"""Builds and runs the kernelcv benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The untraced run (--trace 0) measures the
end-to-end metrics with a build without the `metrics` feature. The traced
run (--trace 1) spends half the time in that build and half in a
`--features metrics` build, and reports every per-layer metric plus
trace.overhead_frac, the share of ops_per_s that tracing costs. The last
line of standard output is one JSON object with keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper", "bigdata", "streams"]
RUN_TIMEOUT_S = 150


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(traced):
    """Builds one flavour into its own target directory; returns the binary."""
    flavour = "traced" if traced else "plain"
    target = os.path.join(target_dir(), flavour)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target]
    if traced:
        cmd += ["--features", "metrics"]
    # Cargo's own output goes to stderr; stdout carries only results.
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "perfbench")


def measure(binary, workload, seed, seconds, tiny, spans=None):
    """Runs one measurement; returns its parsed result line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, tiny):
    plain = build(traced=False)
    if not trace:
        return measure(plain, workload, seed, seconds, tiny)
    traced = build(traced=True)
    half = seconds / 2
    untraced = measure(plain, workload, seed, half, tiny)
    spans = os.path.join(target_dir(), "spans", f"{workload}-seed{seed}.jsonl")
    result = measure(traced, workload, seed, half, tiny, spans)
    print(f"# spans written to {spans}")
    slowdown = result["metrics"]["ops_per_s"]["value"] / untraced["metrics"]["ops_per_s"]["value"]
    layers = {k: v for k, v in result["metrics"].items()
              if k not in untraced["metrics"]}
    layers["trace.overhead_frac"] = {"value": 1.0 - slowdown, "unit": "ratio"}
    return {
        "correct": untraced["correct"] and result["correct"],
        "attempted": untraced["attempted"] + result["attempted"],
        "failed": untraced["failed"] + result["failed"],
        "metrics": layers,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one cycle: a smoke run, not a measurement")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(HERE, "..", "crates")):
        sys.exit("perfbench: run from a checkout of the repository (no crates/ beside perfbench/)")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, args.tiny)
                   for w in workloads}
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as err:
        sys.exit(f"perfbench: {err}")
    for workload, result in results.items():
        if len(results) > 1:
            print(f"# {workload}: " + ", ".join(
                f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()))
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
