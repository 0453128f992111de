#!/usr/bin/env python3
"""Fold hostprof samples into per-file and per-function host CPU shares,
or a heapsites census into live heap bytes by allocation site.

    python3 tools/hostprof/fold.py hostprof.<pid>.txt [more files...] \
        [--out BENCH_hostprofile.json] [--top 25] [--callers NAME]
    python3 tools/hostprof/fold.py heapsites.<pid>.txt [--out BENCH_heapsites.json]

Input is what tools/hostprof/sampler.cc writes: the profiled process's
memory map and one stack per sample (interrupted PC first, callers after).
Or what tools/hostprof/heapsites.cc writes: the same map and one stack per
allocation site (return addresses only), each weighted by the bytes it held
live at the sampled heap peak; every share below is then a share of those
bytes, and sizes print in MB. Files of one kind only per call.
Addresses are symbolized with addr2line, inline frames included. Each
sample's self time goes to the innermost frame that lies in this
repository's sources (src/ or leedbench/): frames in libc, libstdc++ and
system headers (malloc, memcpy, std::vector internals) are charged to their
first caller here. The share of samples whose program counter was in libc
itself is reported separately.

Inclusive time counts, for every function, the samples with that function
anywhere on the stack (once per sample), libc and std:: frames included.
--callers NAME splits the samples that pass through a function whose name
contains NAME (say malloc, memcpy or operator new) by the function that
called it and by the first repository function above it, which shows
where the libc time that self time hides comes from.

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
    """Returns ([(mappings, samples)] per input file, total CPU seconds),
    a sample being (weight, stack, whether stack[0] is a program counter)."""
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
                    samples.append((1, [int(a, 16) for a in line.split()[1:]], True))
                elif line.startswith("H "):
                    fields = line.split()
                    samples.append((int(fields[1]), [int(a, 16) for a in fields[2:]], False))
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
    """Returns every sample as (weight, stack), the stack [(function, file)]
    innermost first with inline frames expanded, plus the weight of the
    samples whose PC was in libc."""
    # Symbolize every distinct (module, offset) once. Return addresses
    # (every frame but a CPU sample's first) point after the call: look up
    # addr - 1.
    wanted = collections.defaultdict(set)
    resolved = []
    for maps, samples in runs:
        for weight, stack, pc_first in samples:
            frames = []
            for depth, addr in enumerate(stack):
                module, off = locate(maps, addr if depth == 0 and pc_first else addr - 1)
                frames.append((module, off))
                if module is not None:
                    wanted[module].add(off)
            resolved.append((weight, frames, pc_first))
    symbols = {m: symbolize(m, offs) for m, offs in wanted.items()}

    stacks = []
    libc_leaf = 0
    for weight, frames, pc_first in resolved:
        leaf_module = (frames[0][0] if frames else None) or ""
        if pc_first and ("/libc." in leaf_module or leaf_module.endswith("libc.so.6")):
            libc_leaf += weight
        stack = []
        for module, off in frames:
            if module is None:
                continue
            for func, src in symbols[module].get(off, []):
                m = REPO_PATH.search(os.path.normpath(src))
                stack.append((func, m.group(1) if m else None))
        stacks.append((weight, stack))
    return stacks, libc_leaf


def self_time(stacks):
    """Per file, function and directory: samples whose innermost repository
    frame is there."""
    by_file = collections.Counter()
    by_func = collections.Counter()
    by_dir = collections.Counter()
    for weight, stack in stacks:
        owner = next(((src, func) for func, src in stack if src),
                     ("[outside the repo]", "[outside the repo]"))
        by_file[owner[0]] += weight
        by_func[owner[1]] += weight
        by_dir[owner[0].rsplit("/", 1)[0] if "/" in owner[0] else owner[0]] += weight
    return by_file, by_func, by_dir


def inclusive_time(stacks):
    """Per function: samples with the function anywhere on the stack."""
    counter = collections.Counter()
    for weight, stack in stacks:
        for func in {func for func, _ in stack}:
            counter[func] += weight
    return counter


def callers(stacks, name):
    """For samples through a function whose name contains `name`: who called
    its outermost matching frame, and the first repository function above."""
    direct = collections.Counter()
    repo = collections.Counter()
    for weight, stack in stacks:
        hits = [i for i, (func, _) in enumerate(stack) if name in func]
        if not hits:
            continue
        above = stack[hits[-1] + 1:]
        direct[above[0][0] if above else "[stack top]"] += weight
        repo[next((f"{func} ({src})" for func, src in above if src),
                  "[outside the repo]")] += weight
    return direct, repo


def shares(counter, total):
    return {k: round(v / total, 5) for k, v in counter.most_common()}


def print_top(title, counter, total, top, heap=False):
    print(f"\n{title}:")
    for name, n in counter.most_common(top):
        size = f"{n / 2**20:8.1f} MB  " if heap else ""
        print(f"  {100 * n / total:6.2f}%  {size}{name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("inputs", nargs="+", help="hostprof.<pid>.txt or heapsites.<pid>.txt files")
    ap.add_argument("--out", default="BENCH_hostprofile.json")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--callers", metavar="NAME",
                    help="split the samples through functions named *NAME* by caller")
    args = ap.parse_args()

    runs, cpu_s = parse(args.inputs)
    heap = any(not pc_first for _, samples in runs for _, _, pc_first in samples)
    stacks, libc_leaf = fold(runs)
    total = sum(weight for weight, _ in stacks)
    if total == 0:
        sys.exit("hostprof: no samples")
    by_file, by_func, by_dir = self_time(stacks)
    inclusive = inclusive_time(stacks)
    if heap:
        print(f"{total / 2**20:.1f} MB live at the sampled heap peak, "
              f"{len(stacks)} allocation stacks")
        own, all_of = "live bytes by allocation site", "live bytes under function"
    else:
        print(f"{total} samples over {cpu_s:.1f} s CPU; "
              f"program counter in libc: {100 * libc_leaf / total:.1f}%")
        own, all_of = "self time", "inclusive time by function"
    for title, counter in (("source file", by_file), ("directory", by_dir),
                           ("function", by_func)):
        print_top(f"{own} by {title} (libc charged to its first caller)",
                  counter, total, args.top, heap)
    print_top(all_of, inclusive, total, args.top, heap)
    report = {"samples": len(stacks)}
    if heap:
        report["live_bytes"] = total
    else:
        report["cpu_s"] = round(cpu_s, 3)
        report["libc_leaf_share"] = round(libc_leaf / total, 5)
    report.update({
        "by_file": shares(by_file, total),
        "by_dir": shares(by_dir, total),
        "by_function": dict(list(shares(by_func, total).items())[:200]),
        "inclusive_by_function": dict(list(shares(inclusive, total).items())[:200]),
    })
    if args.callers:
        direct, repo = callers(stacks, args.callers)
        through = sum(direct.values())
        print(f"\n{100 * through / total:.2f}% of the total passes through *{args.callers}*")
        print_top(f"its share by caller of *{args.callers}*", direct, total, args.top, heap)
        print_top(f"its share by first repository caller", repo, total, args.top, heap)
        report["callers"] = {
            "name": args.callers,
            "share": round(through / total, 5),
            "by_caller": shares(direct, total),
            "by_repo_caller": shares(repo, total),
        }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
