#!/usr/bin/env python3
"""Build the LEED benchmark from source and run one workload (or all).

    python3 leedbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0
    python3 leedbench/run.py --workload all      # every workload, untraced and traced
    python3 leedbench/run.py --selftest          # checker and determinism tests

The build goes to $CARGO_TARGET_DIR/leedbench (default .bench_build/leedbench)
inside the checkout; trace runs write their spans next to it under spans/.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A failed build, result
check, layer-exercise guard or determinism check exits nonzero without it.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "leedbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"leedbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "leedbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"LEED sources not found under {ROOT / 'src'}")
    out = build_dir()
    try:
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target", target],
                       stdout=sys.stderr, check=True)
    except subprocess.CalledProcessError:
        fail("build failed")
    return out / target


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def recorded_fingerprints():
    table = {}
    for line in (BENCH_DIR / "fingerprints.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, digest = line.split()
            table[name] = digest
    return table


def run_one(exe, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None)."""
    span_dir = build_dir() / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--span-dir={span_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"leedbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        return proc.returncode or 1, None
    *report, last = lines
    print("\n".join(report))
    result = json.loads(last)

    names = list(result["metrics"])
    if names != declared_metrics(trace == 1):
        print("leedbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1, None

    # Calibration fingerprint: a changed model constant moves sim_* metrics
    # without any design change; say so beside the numbers.
    digest = next(l.split()[1] for l in report if l.startswith("fingerprint:"))
    recorded = recorded_fingerprints().get(workload)
    if recorded != digest:
        print(f"CALIBRATION CHANGED: {workload} model configuration hashes to {digest}, "
              f"leedbench/fingerprints.txt records {recorded}; sim_* differences "
              f"against runs of the recorded configuration are not design gains")
    return 0, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([str(build("leedbench_selftest"))]).returncode)

    exe = build("leedbench")
    if args.workload != "all":
        code, result = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
        if code != 0:
            sys.exit(code)
        print(json.dumps(result))
        return

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        for trace in (0, 1):
            print(f"##### {name} (trace {trace})")
            code, result = run_one(exe, name, args.seed, args.seconds, trace)
            if code != 0:
                sys.exit(code)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
