#!/usr/bin/env python3
"""Line and branch coverage per src/ module from a gcov-instrumented build.

Usage:
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j && ctest --test-dir build-cov
  python3 tools/coverage_report.py build-cov

Runs `gcov --json-format --stdout` on every .gcda file under the build
directory and merges the results per source file: a line (a branch) counts
as covered when any translation unit executed it, so a header inlined into
many objects is counted once.  Prints one row per module (the directory
directly under src/) and a total.  Report only: the exit status is nonzero
only when no coverage data is found.  Standard library only.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def gcov_json(gcda):
    """Parsed gcov JSON documents for one .gcda file (one per line)."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--branch-probabilities",
         "--object-directory", str(gcda.parent), str(gcda)],
        cwd=gcda.parent, capture_output=True, text=True, check=False)
    docs = []
    for line in out.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            docs.append(json.loads(line))
    return docs


def source_path(doc, entry):
    """The absolute path of a gcov file entry, or None outside src/."""
    path = pathlib.Path(entry["file"])
    if not path.is_absolute():
        path = pathlib.Path(doc.get("current_working_directory", ".")) / path
    path = pathlib.Path(os.path.normpath(path))
    try:
        path.relative_to(SRC)
    except ValueError:
        return None
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=pathlib.Path)
    args = parser.parse_args()

    gcdas = sorted(args.build_dir.resolve().rglob("*.gcda"))
    if not gcdas:
        print(f"no .gcda files under {args.build_dir}; build with "
              "-DCMAKE_CXX_FLAGS=--coverage and run the tests first",
              file=sys.stderr)
        return 1

    # file -> line -> executed?, file -> (line, branch index) -> taken?
    lines = defaultdict(dict)
    branches = defaultdict(dict)
    for gcda in gcdas:
        for doc in gcov_json(gcda):
            for entry in doc.get("files", []):
                path = source_path(doc, entry)
                if path is None:
                    continue
                for ln in entry.get("lines", []):
                    no = ln["line_number"]
                    hit = ln["count"] > 0
                    lines[path][no] = lines[path].get(no, False) or hit
                    for i, br in enumerate(ln.get("branches", [])):
                        key = (no, i)
                        taken = br["count"] > 0
                        branches[path][key] = (branches[path].get(key, False)
                                               or taken)

    modules = defaultdict(lambda: [0, 0, 0, 0])
    for path in lines:
        module = path.relative_to(SRC).parts[0]
        row = modules[module]
        row[0] += sum(lines[path].values())
        row[1] += len(lines[path])
        row[2] += sum(branches[path].values())
        row[3] += len(branches[path])

    def pct(hit, total):
        return f"{100.0 * hit / total:6.1f}%" if total else "     -"

    print(f"{'module':<12} {'lines':>15} {'':>7} {'branches':>15} {'':>7}")
    total = [0, 0, 0, 0]
    for module in sorted(modules):
        row = modules[module]
        total = [t + r for t, r in zip(total, row)]
        print(f"{module:<12} {row[0]:>7}/{row[1]:<7} {pct(row[0], row[1])} "
              f"{row[2]:>7}/{row[3]:<7} {pct(row[2], row[3])}")
    print(f"{'total':<12} {total[0]:>7}/{total[1]:<7} "
          f"{pct(total[0], total[1])} {total[2]:>7}/{total[3]:<7} "
          f"{pct(total[2], total[3])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
