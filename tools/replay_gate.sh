#!/usr/bin/env bash
# Bit-exact replay gate for leedsim.
#
#   tools/replay_gate.sh BIN               run every case twice with BIN
#   tools/replay_gate.sh BIN PARENT_BIN    run every case with BIN and with
#                                          PARENT_BIN (the refactoring oracle)
#
# Each case's metrics, trace or history files from the two runs must be
# byte-identical, and so must the checked sweeps' --verbose reports.
# Independent of the mode, BIN must also be jobs-independent (--jobs 1 vs
# 4), react to its seed, and actually fire the fault plan, offload fast
# path, device death and scans the cases rely on, so no case passes
# vacuously. Outputs are kept under ./replay-gate/.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BIN [PARENT_BIN]" >&2
  exit 2
fi
BIN=$1
OTHER=${2:-$1}
OUT=replay-gate
rm -rf "$OUT"
mkdir -p "$OUT"

# snap NAME ARGS...: metrics + trace of one cluster run, compared across
# the two binaries.
snap() {
  local name=$1
  shift
  "$BIN" "$@" --metrics-out="$OUT/$name.a.metrics.json" \
    --trace-out="$OUT/$name.a.trace.json" >"$OUT/$name.a.log"
  "$OTHER" "$@" --metrics-out="$OUT/$name.b.metrics.json" \
    --trace-out="$OUT/$name.b.trace.json" >"$OUT/$name.b.log"
  cmp "$OUT/$name.a.metrics.json" "$OUT/$name.b.metrics.json"
  cmp "$OUT/$name.a.trace.json" "$OUT/$name.b.trace.json"
  echo "ok: $name metrics and trace byte-identical"
}

# hist NAME ARGS...: the client history dump of a checked sweep, and its
# --verbose report: each seed's verdict, step count and violation lines.
hist() {
  local name=$1
  shift
  "$BIN" "$@" --verbose --history-out="$OUT/$name.a.history" \
    >"$OUT/$name.a.log"
  "$OTHER" "$@" --verbose --history-out="$OUT/$name.b.history" \
    >"$OUT/$name.b.log"
  cmp "$OUT/$name.a.history" "$OUT/$name.b.history"
  cmp "$OUT/$name.a.log" "$OUT/$name.b.log"
  echo "ok: $name history and checker report byte-identical"
}

# counter_at_least FILE PATTERN MIN: the summed counters whose names end in
# PATTERN must reach MIN, or the case never exercised what it gates.
counter_at_least() {
  python3 - "$@" <<'EOF'
import json, sys
path, suffix, least = sys.argv[1], sys.argv[2], int(sys.argv[3])
counters = json.load(open(path))["counters"]
total = sum(v for k, v in counters.items() if k == suffix or k.endswith("." + suffix))
if total < least:
    sys.exit(f"{path}: {suffix} = {total}, expected >= {least}; case is vacuous")
print(f"ok: {suffix} = {total}")
EOF
}

CLUSTER=(--nodes=3 --keys=2000 --seed=12345)

snap plain "${CLUSTER[@]}" --duration-ms=100
# CRRS ships dirty-key reads to the tail (node.cc ShipRead).
counter_at_least "$OUT/plain.a.metrics.json" reads_shipped 1

# A (seed, FaultPlan) pair replays bit-exactly: partitions, a node crash
# with restart+recovery, and probabilistic drops draw from the run's Rng
# tree, never from ambient entropy.
snap fault-plan "${CLUSTER[@]}" --duration-ms=200 \
  --fault-plan='part:a=0,b=1,at_ms=20,heal_ms=60;crash:node=2,at_ms=50,restart_ms=120;net:drop=0.001'
# nacks_sent: requests routed on a stale view fail the placement check.
for c in faults.node_crashes faults.node_restarts faults.net_partition_drops \
    nacks_sent; do
  counter_at_least "$OUT/fault-plan.a.metrics.json" "$c" 1
done

# The host-bypass GET fast path (DESIGN.md §10) reroutes index-hit reads
# around the CPU queue and takes tokens from a different call site.
snap offload "${CLUSTER[@]}" --duration-ms=100 --offload
counter_at_least "$OUT/offload.a.metrics.json" engine.offload.fast_hits 1

# A dead SSD reroutes hard-failed IOs, the engine health latch,
# StoreFailedMsg, a vnode-granular failover and the clients' backoff clocks.
snap device-death "${CLUSTER[@]}" --duration-ms=200 \
  --fault-plan='dev:dead_after_ms=40,node=1,ssd=0;net:drop=0.001'
counter_at_least "$OUT/device-death.a.metrics.json" faults.dev.dead 1

# The baseline stacks (KVell, FAWN) run the same clients, flow scheduler
# and control plane over their own storage engines.
for system in kvell fawn; do
  snap "$system" "${CLUSTER[@]}" --duration-ms=100 --system="$system"
  counter_at_least "$OUT/$system.a.metrics.json" sched.sent 1
done

# The checked history of a crash sweep; jobs=1 serial is the oracle for
# the seed-parallel sweep driver.
SWEEP=(--check=linearizability --seeds=4 --seed=12345 --check-plan=crash)
hist sweep "${SWEEP[@]}" --jobs=1
"$BIN" "${SWEEP[@]}" --jobs=4 --verbose \
  --history-out="$OUT/sweep.jobs4.history" >"$OUT/sweep.jobs4.log"
cmp "$OUT/sweep.a.history" "$OUT/sweep.jobs4.history"
cmp "$OUT/sweep.a.log" "$OUT/sweep.jobs4.log"
echo "ok: sweep history and checker report independent of --jobs"

# SCANs add multi-item observations, budgeted fetch steps and dirty-window
# parking to the history.
hist ycsbe --workload=ycsbe --check=linearizability --seeds=2 --seed=12345 \
  --check-plan=crash
if ! grep -q " scan " "$OUT/ycsbe.a.history"; then
  echo "ycsbe history contains no scan ops; case is vacuous" >&2
  exit 1
fi

hist history --check=linearizability --seeds=1 --seed=12345 --check-plan=crash

# The seed must reach the simulation.
"$BIN" --nodes=3 --keys=2000 --seed=99999 --duration-ms=100 \
  --metrics-out="$OUT/other-seed.metrics.json" >"$OUT/other-seed.log"
if cmp -s "$OUT/plain.a.metrics.json" "$OUT/other-seed.metrics.json"; then
  echo "a different seed produced identical metrics; seed is not reaching the simulation" >&2
  exit 1
fi
echo "ok: a different seed differs"

echo "replay gate OK"
