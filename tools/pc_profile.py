#!/usr/bin/env python3
"""Symbolise a tools/pc_sampler.c sample file into a flat profile.

    python3 tools/pc_profile.py pc_samples.txt [--top 25] [--filter RE]

Each sampled PC is resolved with `addr2line -f -i -C`, which lists the
inline chain from the innermost inlined function out to the function
that was actually compiled.  Every sample is charged twice: to its
innermost function ("inner" table: where the time is spent at source
level, inlined helpers included) and to its enclosing compiled
function ("outer" table: what a non-inlining profiler would report).
--lines adds a third table by innermost source line.  Build with
debug info (the default RelWithDebInfo) for useful names.
"""

import argparse
import collections
import re
import subprocess
import sys

MAP_RE = re.compile(r"^map ([0-9a-f]+)-([0-9a-f]+) (\S+) ([0-9a-f]+) \S+ \d+\s*(.*)$")


def read_samples(path):
    maps, pcs = [], []
    with open(path) as f:
        for line in f:
            m = MAP_RE.match(line)
            if m:
                start, end, perms, off, name = m.groups()
                if "x" in perms and name.startswith("/"):
                    maps.append((int(start, 16), int(end, 16), int(off, 16), name))
            elif line.strip() and not line.startswith("map "):
                pcs.append(int(line, 16))
    return maps, pcs


def is_fixed_address(path):
    """True for a non-PIE executable (ELF type ET_EXEC): PCs are file addresses."""
    with open(path, "rb") as f:
        header = f.read(18)
    return header[16] == 2


def locate(maps, pc):
    for start, end, off, name in maps:
        if start <= pc < end:
            return name, pc - start + off
    return None, None


def symbolise(module, addrs):
    """Map each address in @addrs to its inline chain, innermost first,
    as (function, file:line) pairs."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", module],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True).stdout.splitlines()
    chains, cur = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            chains[cur] = []
            i += 1
            continue
        where = out[i + 1].split(" (discriminator")[0]
        chains[cur].append((out[i], where.rsplit("/", 1)[-1]))
        i += 2
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--filter", help="only report functions matching this regex")
    ap.add_argument("--lines", action="store_true",
                    help="also report the hottest source lines")
    args = ap.parse_args()

    maps, pcs = read_samples(args.samples)
    if not pcs:
        sys.exit("no samples")
    per_module = collections.defaultdict(collections.Counter)
    unknown = 0
    for pc in pcs:
        module, addr = locate(maps, pc)
        if module is None:
            unknown += 1
            continue
        if is_fixed_address(module):
            addr = pc
        per_module[module][addr] += 1

    inner, outer = collections.Counter(), collections.Counter()
    lines = collections.Counter()
    for module, counts in per_module.items():
        chains = symbolise(module, sorted(counts))
        for addr, n in counts.items():
            chain = chains.get(addr) or [
                (f"?? ({module.rsplit('/', 1)[-1]})", "??:0")]
            inner[chain[0][0]] += n
            outer[chain[-1][0]] += n
            lines[f"{chain[0][1]}  {chain[0][0]}"] += n

    total = len(pcs)
    print(f"{total} samples ({unknown} outside any mapped file)")
    flt = re.compile(args.filter) if args.filter else None
    tables = [("inner (innermost inlined function)", inner),
              ("outer (enclosing compiled function)", outer)]
    if args.lines:
        tables.append(("lines (innermost source line)", lines))
    for title, table in tables:
        print(f"\n{title}")
        shown = 0
        for name, n in table.most_common():
            if flt and not flt.search(name):
                continue
            print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name[:150]}")
            shown += 1
            if shown >= args.top:
                break


if __name__ == "__main__":
    main()
