#!/usr/bin/env python3
"""The DexLego reveal-pipeline benchmark.

Builds the perfbench harness from this checkout's sources, runs one workload
and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

one per workload (--workload all, the default, runs the three in turn).
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The revealed output is checked on every run:
each pass must reproduce the warm-up pass's per-app DEX fingerprints, the
traced and run_job passes too, and on the default seed the digest and verified count must
equal the pins in perfbench/reference.json. A mismatch exits 1.

Usage (from the repository root):
    python3 perfbench/run.py --workload market_cold --seed 0 --seconds 20 --trace 0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DEFAULT_SEED = 0
WORKLOADS = ("market_cold", "force_guarded", "service_update")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True, timeout=840)
    return BUILD / "perfbench"


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in specs:
        summary.check_name(metric["name"])
    return {m["name"]: m["unit"] for m in specs}


def run_workload(binary, workload, args, units):
    """Runs one workload; returns its result object and any output problems."""
    scratch = BUILD / f"scratch-{os.getpid()}"
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", str(scratch)],
            stdout=subprocess.PIPE, check=True, timeout=170, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw = json.loads(proc.stdout)

    problems = summary.output_problems(raw)
    reference = raw["reference"]
    digest = summary.output_digest(reference["fingerprints"])
    log(f"{workload} seed {args.seed}: output_digest {digest}, "
        f"verified {reference['verified']}/{raw['jobs']}")
    if args.seed == DEFAULT_SEED:
        pin = json.loads((HERE / "reference.json").read_text())["pins"][workload]
        if digest != pin["output_digest"]:
            problems.append(f"output_digest {digest}, pinned {pin['output_digest']}")
        if reference["verified"] != pin["verified"]:
            problems.append(f"verified {reference['verified']}, pinned {pin['verified']}")
    for problem in problems:
        log("MISMATCH:", problem)

    values = summary.per_layer(raw) if args.trace else summary.end_to_end(raw)
    if set(values) != set(units):
        raise SystemExit(f"metric set differs from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    if args.trace:
        shares = summary.stage_shares(raw)
        log("stage shares of traced job wall: " + ", ".join(
            f"{stage} {share:.3f}" for stage, share in shares.items()))
    for name, value in values.items():
        log(f"  {name:28s} {value:14.6g} {units[name]}")

    passes = (raw["passes"] + raw["latency_passes"] + raw.get("service_passes", [])
              + raw.get("traced", []) + raw.get("serial", []))
    result = {
        "correct": not problems,
        "attempted": sum(p["jobs"] if "jobs" in p else len(p["job_ms"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units = metric_specs(args.trace)
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    mismatch = False
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, problems = run_workload(binary, workload, args, units)
        mismatch |= bool(problems)
        print(json.dumps(result), flush=True)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
