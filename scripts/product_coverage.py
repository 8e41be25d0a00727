#!/usr/bin/env python3
"""List the src/ functions that no product run executed.

    python3 scripts/product_coverage.py --root REPO TREE [TREE ...]

Runs `gcov --json-format --stdout --demangled-names` on every .gcno file
under each build TREE and sums the execution counts per (source file,
start line), so the instantiations of a template and a source compiled
into several trees count as one function.  Prints every function under
REPO/src/ whose sum is zero, with its line span, and exits 1 when a src/
.cpp has no executed function at all.  The per-ISA matching kernels
(core/match_vector_<isa>.cpp) are exempt from that verdict: a host runs
only the kernel of its own instruction set.

scripts/product_coverage.sh builds the trees and drives the products.
Standard library only.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ISA_KERNEL = re.compile(r"^src/core/match_vector_[a-z0-9]+\.cpp$")


def gcov_records(gcno):
    """The JSON records gcov prints for one notes file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names", gcno],
        cwd=os.path.dirname(gcno), capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()
            if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, help="repository root")
    ap.add_argument("trees", nargs="+", help="instrumented build trees")
    args = ap.parse_args()
    root = os.path.realpath(args.root)

    notes = [os.path.join(d, f) for tree in args.trees
             for d, _, files in os.walk(tree) for f in files
             if f.endswith(".gcno")]
    if not notes:
        sys.exit("no .gcno files under " + " ".join(args.trees))

    # (path under root, start line) -> [count, end line, name]
    functions = {}
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for records in pool.map(gcov_records, notes):
            for rec in records:
                cwd = rec["current_working_directory"]
                for f in rec["files"]:
                    path = os.path.realpath(os.path.join(cwd, f["file"]))
                    rel = os.path.relpath(path, root)
                    if not rel.startswith("src" + os.sep):
                        continue
                    for fn in f["functions"]:
                        key = (rel, fn["start_line"])
                        entry = functions.setdefault(
                            key, [0, fn["end_line"], fn["demangled_name"]])
                        entry[0] += fn["execution_count"]

    unexecuted = sorted(k for k, v in functions.items() if v[0] == 0)
    body_lines = sum(functions[k][1] - k[1] + 1 for k in unexecuted)
    print(f"{len(functions)} src/ functions, {len(unexecuted)} never "
          f"executed by a product ({body_lines} lines of function bodies):")
    current = None
    for rel, start in unexecuted:
        if rel != current:
            current = rel
            print(f"  {rel}")
        end, name = functions[(rel, start)][1:]
        print(f"    {start}-{end}  {name}")

    checked = {rel for rel, _ in functions
               if rel.endswith(".cpp") and not ISA_KERNEL.match(rel)}
    executed = {rel for (rel, _), v in functions.items() if v[0] > 0}
    dead = sorted(checked - executed)
    if dead:
        print("\nsrc/ .cpp files no product reaches (no function executed):")
        for rel in dead:
            print(f"  {rel}")
        return 1
    print("\nevery src/ .cpp has an executed function")
    return 0


if __name__ == "__main__":
    sys.exit(main())
