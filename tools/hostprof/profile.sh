#!/usr/bin/env bash
# Host CPU profile of one leedbench workload, folded per file and function.
#
#   tools/hostprof/profile.sh <source tree> <build dir> <workload> <seed> <seconds> [out.json]
#
# Builds leedbench from <source tree> with frame pointers and debug info
# (through CMAKE_CXX_FLAGS, so the LEED libraries get them too), builds
# the SIGPROF sampler, runs the workload untraced with the sampler
# preloaded, and folds the samples with fold.py into out.json (default <build dir>/BENCH_hostprofile.json). <source tree> may
# be any checkout, so a parent commit can be profiled the same way.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
[ $# -ge 5 ] || { sed -n '2,11p' "$0"; exit 2; }
src=$(cd "$1" && pwd)
mkdir -p "$2"
build=$(cd "$2" && pwd)
workload=$3 seed=$4 seconds=$5
out=${6:-$build/BENCH_hostprofile.json}

g++ -O2 -shared -fPIC -o "$build/libhostprof.so" "$here/sampler.cc"
cmake -S "$src/leedbench" -B "$build/leedbench" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" >/dev/null
cmake --build "$build/leedbench" -j 4 --target leedbench >/dev/null

mkdir -p "$build/spans"
rm -f "$build"/hostprof.*.txt
(cd "$build" && LD_PRELOAD="$build/libhostprof.so" ./leedbench/leedbench \
  --workload="$workload" --seed="$seed" --seconds="$seconds" --trace=0 \
  --span-dir="$build/spans" | tail -n 1)
python3 "$here/fold.py" "$build"/hostprof.*.txt --out "$out"
