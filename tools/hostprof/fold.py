#!/usr/bin/env python3
"""Fold hostprof samples into per-file and per-function host CPU shares.

    python3 tools/hostprof/fold.py hostprof.<pid>.txt [more files...] \
        [--out BENCH_hostprofile.json] [--top 25]

Input is what tools/hostprof/sampler.cc writes: the profiled process's
memory map and one stack per sample (interrupted PC first, callers after).
Addresses are symbolized with addr2line, inline frames included. Each
sample's self time goes to the innermost frame that lies in this
repository's sources (src/ or leedbench/): frames in libc, libstdc++ and
system headers (malloc, memcpy, std::vector internals) are charged to their
first caller here. The share of samples whose program counter was in libc
itself is reported separately.

Prints the top files, directories and functions, and writes all shares as
JSON (default BENCH_hostprofile.json).
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys

REPO_PATH = re.compile(r"(?:^|/)((?:src|leedbench)/.*)$")
ADDRESS = re.compile(r"0x[0-9a-f]+")


def parse(paths):
    """Returns ([(mappings, samples)] per input file, total CPU seconds)."""
    runs = []
    cpu_s = 0.0
    for path in paths:
        maps, samples = [], []
        with open(path) as f:
            for line in f:
                if line.startswith("# hostprof"):
                    m = re.search(r"cpu_s=([0-9.]+)", line)
                    cpu_s += float(m.group(1)) if m else 0.0
                elif line.startswith("M "):
                    parts = line[2:].split(None, 5)
                    if len(parts) < 6 or "x" not in parts[1]:
                        continue
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
                elif line.startswith("S"):
                    samples.append([int(a, 16) for a in line.split()[1:]])
        maps.sort()
        runs.append((maps, samples))
    return runs, cpu_s


def elf_is_exec(path, cache={}):
    """True for a non-PIE executable (addresses are link-time addresses)."""
    if path not in cache:
        try:
            with open(path, "rb") as f:
                head = f.read(18)
            cache[path] = len(head) == 18 and head[16] == 2  # ET_EXEC
        except OSError:
            cache[path] = False
    return cache[path]


def locate(maps, addr):
    lo, hi = 0, len(maps)
    while lo < hi:
        mid = (lo + hi) // 2
        if maps[mid][0] <= addr:
            lo = mid + 1
        else:
            hi = mid
    if lo and maps[lo - 1][0] <= addr < maps[lo - 1][1]:
        start, _, offset, path = maps[lo - 1]
        return path, addr if elf_is_exec(path) else addr - start + offset
    return None, None


def symbolize(module, offsets):
    """{offset: [(function, file), ...] innermost inline frame first}."""
    out = {}
    offsets = sorted(offsets)
    for i in range(0, len(offsets), 4000):
        chunk = offsets[i:i + 4000]
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", module] + [hex(o) for o in chunk],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        current = None
        lines = iter(proc.stdout.splitlines())
        for line in lines:
            if ADDRESS.fullmatch(line):  # -a: each group starts with its address
                current = int(line, 16)
                out[current] = []
            elif current is not None:
                out[current].append((line, next(lines, "").split(":")[0]))
    return out


def fold(runs):
    # Symbolize every distinct (module, offset) once. Return addresses
    # (every frame but the first) point after the call: look up addr - 1.
    wanted = collections.defaultdict(set)
    resolved = []
    for maps, samples in runs:
        for stack in samples:
            frames = []
            for depth, addr in enumerate(stack):
                module, off = locate(maps, addr if depth == 0 else addr - 1)
                frames.append((module, off))
                if module is not None:
                    wanted[module].add(off)
            resolved.append(frames)
    symbols = {m: symbolize(m, offs) for m, offs in wanted.items()}

    by_file = collections.Counter()
    by_func = collections.Counter()
    by_dir = collections.Counter()
    libc_leaf = 0
    for frames in resolved:
        leaf_module = frames[0][0] or ""
        if "/libc." in leaf_module or leaf_module.endswith("libc.so.6"):
            libc_leaf += 1
        owner = None
        for module, off in frames:
            if module is None:
                continue
            for func, src in symbols[module].get(off, []):
                m = REPO_PATH.search(os.path.normpath(src))
                if m:
                    owner = (m.group(1), func)
                    break
            if owner:
                break
        if owner is None:
            owner = ("[outside the repo]", "[outside the repo]")
        by_file[owner[0]] += 1
        by_func[owner[1]] += 1
        by_dir[owner[0].rsplit("/", 1)[0] if "/" in owner[0] else owner[0]] += 1
    return len(resolved), by_file, by_func, by_dir, libc_leaf


def shares(counter, total):
    return {k: round(v / total, 5) for k, v in counter.most_common()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("inputs", nargs="+", help="hostprof.<pid>.txt files")
    ap.add_argument("--out", default="BENCH_hostprofile.json")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    runs, cpu_s = parse(args.inputs)
    total, by_file, by_func, by_dir, libc_leaf = fold(runs)
    if total == 0:
        sys.exit("hostprof: no samples")
    print(f"{total} samples over {cpu_s:.1f} s CPU; "
          f"program counter in libc: {100 * libc_leaf / total:.1f}%")
    for title, counter in (("source file", by_file), ("directory", by_dir),
                           ("function", by_func)):
        print(f"\nself time by {title} (libc charged to its first caller):")
        for name, n in counter.most_common(args.top):
            print(f"  {100 * n / total:6.2f}%  {name}")
    report = {
        "samples": total,
        "cpu_s": round(cpu_s, 3),
        "libc_leaf_share": round(libc_leaf / total, 5),
        "by_file": shares(by_file, total),
        "by_dir": shares(by_dir, total),
        "by_function": dict(list(shares(by_func, total).items())[:200]),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
