#!/usr/bin/env python3
"""Deterministic CI gates, one subcommand each.

    tools/gates.py NAME BUILD_DIR [SEED]

NAME is one of replay, fault (takes SEED), smoke, check, sweep, ycsbe,
perf or offload. A gate runs its producer (leedsim or a bench binary from
BUILD_DIR) in BUILD_DIR/gates/NAME[-SEED]/, requires the producer's exit
code, then applies its predicates to the JSON the producer wrote. It fails
when a producer exits with an unexpected code, when a JSON file is missing,
empty or has no counters, or when a predicate does not hold, so no gate can
pass vacuously.

ctest registers every gate but perf and offload with label `gate`
(`ctest -L gate`). perf compares wall clocks and needs an idle machine;
offload takes about two minutes; CI runs both as their own jobs.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


class GateFailure(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise GateFailure(msg)


def run(cmd, expect=0, json_dir=None):
    """Runs a producer; its exit code must be exactly `expect`."""
    env = dict(os.environ)
    if json_dir:
        Path(json_dir).mkdir(exist_ok=True)
        env["LEED_BENCH_JSON_DIR"] = json_dir
    print("+", " ".join(str(c) for c in cmd), flush=True)
    try:
        rc = subprocess.run([str(c) for c in cmd], env=env).returncode
    except OSError as e:
        raise GateFailure(f"cannot run {cmd[0]}: {e}")
    require(rc == expect, f"{Path(cmd[0]).name} exited {rc}, expected {expect}")


def load(path):
    """A producer's JSON output: it must exist and be a non-empty object."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise GateFailure(f"{path} was not written")
    except json.JSONDecodeError as e:
        raise GateFailure(f"{path} is not JSON ({e})")
    require(isinstance(data, dict) and data, f"{path} is empty")
    return data


def load_metrics(path):
    m = load(path)
    require(m.get("counters"), f"{path} has no counters")
    return m


# --- gates ------------------------------------------------------------------


def gate_replay(build):
    # Every case twice with one binary; tools/replay_gate.sh holds the cases.
    run([Path(__file__).with_name("replay_gate.sh"), build / "tools/leedsim"])


def gate_fault(build, seed):
    # Device errors, latency spikes, drops and duplicates, but no crash
    # clauses: with checkpoints bounding the recovery window this plan must
    # leave the cluster serving, not just surviving.
    run([build / "tools/leedsim", "--nodes=3", "--keys=2000",
         "--duration-ms=200", f"--seed={seed}",
         "--fault-plan=dev:read_err=0.002,write_err=0.001,spike_p=0.01,"
         "spike_x=6;net:drop=0.002,dup=0.001",
         "--metrics-out=fault-metrics.json"])
    m = load_metrics("fault-metrics.json")
    c = m["counters"]
    # Faults actually fired...
    injected = (c.get("faults.dev_read_errors", 0)
                + c.get("faults.dev_write_errors", 0)
                + c.get("faults.dev_latency_spikes", 0)
                + c.get("faults.net_drops_injected", 0)
                + c.get("faults.net_dups", 0))
    require(injected > 0, "no faults injected by the plan")
    # ...and the cluster kept serving through them.
    require(c.get("cluster.completed", 0) > 0,
            "cluster served nothing under faults")
    require(m["gauges"]["cluster.throughput_qps"] > 0,
            "throughput collapsed to zero under the smoke plan")
    print(f"OK: {injected} injected faults, "
          f"{c['cluster.completed']} completed ops")


def gate_smoke(build):
    run([build / "tools/leedsim", "--nodes=3", "--keys=2000",
         "--duration-ms=100", "--metrics-out=metrics.json",
         "--trace-out=trace.json"])
    m = load_metrics("metrics.json")
    c = m["counters"]
    # The snapshot covers every layer of the hierarchy.
    for name in [
        "node0.client_requests",
        "node0.engine.executed",
        "node0.engine.ssd0.read_ops",
        "node0.engine.store0.ssd_reads",
        "net.msgs_sent",
        "client0.sched.sent",
        "cluster.completed",
    ]:
        require(c.get(name, 0) > 0, f"{name} should be > 0")
    # Conservation: the fabric cannot deliver more than was sent, and the
    # engines cannot complete more requests than were submitted.
    require(c["net.msgs_delivered"] <= c["net.msgs_sent"], "delivered <= sent")
    for n in range(3):
        sub = c[f"node{n}.engine.submitted"]
        comp = c[f"node{n}.engine.completed"]
        require(comp <= sub, f"node{n} completed <= submitted")
    require(m["gauges"]["cluster.throughput_qps"] > 0,
            "cluster throughput gauge set")
    t = load("trace.json")
    require(len(t["events"]) > 0, "trace recorded events")
    print(f"OK: {len(c)} counters, {len(t['events'])} trace events")


def gate_check(build):
    leedsim = build / "tools/leedsim"
    dump = "--check-dump-dir=check-dumps"
    # Every seed's client history must check linearizable (exit 1 =
    # violation, 4 = inconclusive; a violation dumps a minimized
    # sub-history under check-dumps/). --offload serves index-hit reads
    # without the CPU queue, so a hole in its eligibility filter shows up
    # as a violation; the YCSB-E mix checks multi-item scan observations.
    for pre, post in [([], []), ([], ["--offload"]),
                      (["--workload=ycsbe"], [])]:
        for plan in ["crash", "partition"]:
            run([leedsim, *pre, "--check=linearizability", "--seeds=8",
                 f"--check-plan={plan}", *post, dump])

    # The ssdkill plan kills one SSD permanently, crashes its node and
    # rejoins it with a blank replacement, mid-traffic. The exit code also
    # encodes data loss (copies_abandoned without --allow-data-loss fails
    # the run); clients must have kept getting answers, and the error
    # window must have closed.
    run([leedsim, "--check=linearizability", "--seeds=8",
         "--check-plan=ssdkill", dump], json_dir="bench-json")
    r = load("bench-json/BENCH_availability.json")
    require(r["seeds"] == 8, "sweep did not run all seeds")
    require(r["data_loss_seeds"] == 0, "copies were abandoned (data loss)")
    require(r["unrecovered_seeds"] == 0,
            "some seed never recovered after the SSD death")
    require(r["min_availability"] > 0.0,
            "a seed served nothing during the failure window")
    for row in r["per_seed"]:
        require(row["probes"] > 0, f"seed {row['seed']} probed nothing")
        require(row["recovery_ms"] >= 0, f"seed {row['seed']} never recovered")
    print(f"availability gate OK: min_avail={r['min_availability']:.3f} "
          f"max_recovery={r['max_recovery_ms']:.1f}ms over {r['seeds']} seeds")

    # Mutation legs: with CRRS dirty-bit handling disabled, or dirty-window
    # parking disabled for scans, the sweep MUST report a violation (exit
    # code exactly 1). If it passes clean, the checker is blind and the
    # sweeps above are vacuous.
    run([leedsim, "--check=linearizability", "--seeds=4", "--check-plan=none",
         "--unsafe-dirty-reads"], expect=1)
    print("mutation smoke OK: dirty-read build convicted")
    run([leedsim, "--workload=ycsbe", "--check=linearizability", "--seeds=4",
         "--check-plan=none", "--unsafe-torn-scans"], expect=1)
    print("mutation smoke OK: torn-scan build convicted")


def gate_sweep(build):
    # A parallel nemesis sweep of full cluster simulations; under TSan any
    # shared-state slip between seed workers is a hard failure.
    run([build / "tools/leedsim", "--check=linearizability", "--seeds=4",
         "--check-plan=crash", "--jobs=2"])


def gate_ycsbe(build):
    # The headline run must complete ops, return scan items, and see no
    # errors.
    run([build / "bench/bench_ycsbe"], json_dir="bench-json")
    r = load("bench-json/BENCH_ycsbe.json")
    require(r["completed"] > 0, "no ops completed")
    require(r["errors"] == 0, f"{r['errors']} errored ops")
    require(r["scan_items"] > 0, "scans returned no items")
    require(r["scan_items"] >= r["completed"],
            "scan yield below one item per op on a 95% scan mix")
    print(f"ycsbe gate OK: {r['completed']} ops, "
          f"{r['scan_items']} scan items, "
          f"{r['throughput_qps']:.0f} qps")


def gate_perf(build):
    # bench_sim_core races the current loop against a verbatim copy of the
    # pre-overhaul loop compiled into the same binary, so each gated number
    # is a same-machine ratio. Thresholds leave about 2x headroom below the
    # ratios in docs/BENCHMARKS.md.
    run([build / "bench/bench_sim_core"], json_dir="bench-json")
    cases = {c["name"]: c
             for c in load("bench-json/BENCH_simcore.json")["cases"]}
    churn = cases["schedule_cancel_churn"]
    require(churn["speedup"] >= 1.5,
            f"schedule_cancel_churn speedup {churn['speedup']:.2f} < 1.5")
    # The seed-parallel sweep at --jobs=4 must beat its own jobs=1 leg by
    # >= 1.5x on a 4-core machine (docs/PARALLEL_SIM.md).
    scaling = cases["parallel_scaling_jobs4"]
    require(scaling["speedup"] >= 1.5,
            f"parallel_scaling_jobs4 {scaling['speedup']:.2f}x < 1.5x "
            "over its jobs=1 leg")
    # No case may fall meaningfully behind its baseline leg.
    for name, c in cases.items():
        require(c["speedup"] >= 0.75,
                f"{name} slower than its baseline leg "
                f"({c['speedup']:.2f} < 0.75)")
        require(c["events_per_sec"] > 0, f"{name} measured zero rate")
    for name, c in sorted(cases.items()):
        print(f"{name:28s} {c['events_per_sec']/1e6:8.2f}M/s "
              f"{c['speedup']:5.2f}x")
    print("perf gate OK")


def gate_offload(build):
    # The bench exits nonzero unless the offload variant wins >= 1.3x
    # requests/Joule at read >= 95% (Zipf 0.99) and the advantage shrinks
    # monotonically as the PUT ratio grows (docs/BENCHMARKS.md).
    run([build / "bench/bench_ablation_offload"], json_dir="bench-json")
    require(load("bench-json/BENCH_ablation_offload.json").get("cells"),
            "ablation wrote no cells")
    print("offload gate OK")


GATES = {name[len("gate_"):]: fn
         for name, fn in globals().items() if name.startswith("gate_")}


def main(argv):
    name, args = argv[1] if len(argv) > 1 else "", argv[3:]
    if (name not in GATES or GATES[name].__code__.co_argcount != 1 + len(args)
            or not Path(argv[2]).is_dir()):
        sys.exit(f"usage: {argv[0]} {{{','.join(GATES)}}} BUILD_DIR [SEED]")
    build = Path(argv[2]).resolve()
    out = build / "gates" / "-".join([name, *args])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    os.chdir(out)
    try:
        GATES[name](build, *args)
    except GateFailure as e:
        sys.exit(f"{name} gate: {e}")
    except (KeyError, TypeError) as e:
        sys.exit(f"{name} gate: malformed output ({e!r})")


if __name__ == "__main__":
    main(sys.argv)
