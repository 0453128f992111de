#!/usr/bin/env python3
"""Alternating-pair A/B of leedbench between two source trees.

    tools/bench_ab.py PARENT_TREE CHANGE_TREE --workload W --pairs N [--seed S]
        [--build-dir .bench_ab] [--trajectory FILE] [--parent-commit REV]

Runs N pairs of `leedbench/run.py --workload W --seed s --seconds T
--trace 0`, one run at a time, with T the change tree's BENCHMARK.json
run_seconds: pair i runs seed S + i on both trees, the parent first in
even pairs and the change first in odd ones, so drift on a shared host
falls on both sides alike. Each tree's run.py builds its leedbench
(Release) into its own target directory under --build-dir on the first
run; the host metrics are measured inside the benchmark process, so the
build is not part of them.

For every end-to-end metric of the change tree's BENCHMARK.json it prints
the median and quartiles per side, how many pairs the change won (strictly
better in the metric's direction), and a verdict:

  * sim_* metrics must be equal in every pair (the same seed simulates the
    same run); any difference is flagged and the tool exits 1;
  * a host metric counts as moved only when there are at least 10 pairs,
    one side wins at least 9 in 10 of them, and the medians lie further
    apart than the parent's interquartile range; otherwise it is
    "unresolved" at this spread.

With --trajectory FILE the workload's record is merged into FILE in the
format of bench/trajectory/leedbench.json (a record for another parent
commit is replaced, not merged).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_spec(tree):
    """The tree's run length and its end-to-end metrics by name."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m for m in spec["end_to_end"]}


def run(tree, target_dir, workload, seed, seconds):
    """One benchmark run; returns its result dict, or None if it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = [sys.executable, str(tree / "leedbench" / "run.py"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", "--trace=0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench_ab: {tree} seed {seed} failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better(spec, a, b):
    """True when value a is strictly better than value b."""
    return a > b if spec["better"] == "higher" else a < b


def verdict(spec, parent, change, change_wins, pairs):
    if spec["name"].startswith("sim_"):
        return "identical" if parent == change else "DIFFERS"
    p, c = quartiles(parent), quartiles(change)
    apart = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    if pairs >= 10 and apart:
        if change_wins >= 0.9 * pairs and better(spec, c["median"], p["median"]):
            return "change better"
        if pairs - change_wins >= 0.9 * pairs and better(spec, p["median"], c["median"]):
            return "change worse"
    return "unresolved"


def git_head(tree):
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_tree", type=Path)
    ap.add_argument("change_tree", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=501)
    ap.add_argument("--build-dir", type=Path, default=Path(".bench_ab"))
    ap.add_argument("--trajectory", type=Path)
    ap.add_argument("--parent-commit")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles; a host metric "
                 "moves only over at least 10 pairs")

    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    targets = {side: (args.build_dir / side).resolve() for side in trees}
    seconds, specs = benchmark_spec(trees["change"])
    results = {"parent": [], "change": []}
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run(trees[side], targets[side], args.workload, seed, seconds)
            if result is None:
                sys.exit(1)
            results[side].append(result)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    record = {
        "seeds": seeds,
        "pairs": args.pairs,
        "attempted": {s: sum(r["attempted"] for r in results[s]) for s in trees},
        "failed": {s: sum(r["failed"] for r in results[s]) for s in trees},
        "correct": all(r["correct"] for s in trees for r in results[s]),
        "sim_identical_per_seed": True,
        "metrics": {},
    }
    print(f"{args.workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"{seconds} s runs")
    print(f"{'metric':<20} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change':>8} {'wins':>6}  verdict")
    for name, spec in specs.items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum(better(spec, c, p) for p, c in zip(parent, change))
        p, c = quartiles(parent), quartiles(change)
        v = verdict(spec, parent, change, wins, args.pairs)
        if v == "DIFFERS":
            record["sim_identical_per_seed"] = False
        shift = (c["median"] / p["median"] - 1) * 100 if p["median"] else 0.0
        print(f"{name:<20} {p['median']:>12.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
              f"{c['median']:>12.4f} [{c['q1']:.4f}, {c['q3']:.4f}] {shift:>+7.1f}% "
              f"{wins:>3}/{args.pairs}  {v}")
        record["metrics"][name] = {"unit": spec["unit"], "better": spec["better"],
                                   "parent": p, "change": c, "change_wins": wins}
    print(f"attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {record['correct']}")

    if args.trajectory:
        parent_commit = args.parent_commit or git_head(trees["parent"])
        data = {}
        if args.trajectory.is_file():
            data = json.loads(args.trajectory.read_text())
        if data.get("parent_commit") != parent_commit:
            data = {}
        data.setdefault("about", "leedbench end-to-end metrics, parent commit vs the change "
                        "that added this file: median and quartiles over alternating pairs "
                        "(parent and change run back to back on one seed, which side goes "
                        "first alternating). sim_* values are identical per seed on both "
                        "sides; host_* and setup_s are host measurements.")
        data["command"] = (f"python3 leedbench/run.py --workload <w> --seed <s> "
                           f"--seconds {seconds} --trace 0")
        data.setdefault("host", "4-vCPU Intel Xeon VM (shared), Release build, "
                        "one run at a time")
        data["parent_commit"] = parent_commit
        data.setdefault("workloads", {})[args.workload] = record
        args.trajectory.write_text(json.dumps(data, indent=1) + "\n")

    if not record["sim_identical_per_seed"]:
        print("bench_ab: sim_* values differ between the trees", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
