#!/usr/bin/env bash
# Host CPU profile of one leedbench workload, folded per file and function;
# with --heap, its live heap at the peak, folded per allocation site.
#
#   tools/hostprof/profile.sh [--heap] <source tree> <build dir> <workload> <seed> <seconds> [out.json]
#
# Builds leedbench from <source tree> with frame pointers and debug info
# (through CMAKE_CXX_FLAGS, so the LEED libraries get them too), builds
# the SIGPROF sampler (--heap: the heapsites allocation census), runs the
# workload untraced with it preloaded, and folds its output with fold.py
# into out.json (default <build dir>/BENCH_hostprofile.json, --heap:
# BENCH_heapsites.json). <source tree> may be any checkout, so a parent
# commit can be profiled the same way.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
tool=sampler prefix=hostprof report=BENCH_hostprofile.json
if [ "${1:-}" = --heap ]; then
  tool=heapsites prefix=heapsites report=BENCH_heapsites.json
  shift
fi
[ $# -ge 5 ] || { sed -n '2,13p' "$0"; exit 2; }
src=$(cd "$1" && pwd)
mkdir -p "$2"
build=$(cd "$2" && pwd)
workload=$3 seed=$4 seconds=$5
out=${6:-$build/$report}

g++ -O2 -fno-omit-frame-pointer -shared -fPIC -o "$build/lib$tool.so" "$here/$tool.cc"
cmake -S "$src/leedbench" -B "$build/leedbench" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" >/dev/null
cmake --build "$build/leedbench" -j 4 --target leedbench >/dev/null

mkdir -p "$build/spans"
rm -f "$build"/$prefix.*.txt
(cd "$build" && LD_PRELOAD="$build/lib$tool.so" ./leedbench/leedbench \
  --workload="$workload" --seed="$seed" --seconds="$seconds" --trace=0 \
  --span-dir="$build/spans" | tail -n 1)
python3 "$here/fold.py" "$build"/$prefix.*.txt --out "$out"
