#!/usr/bin/env python3
"""CI gate: run `itdb_shell check` over annotated .itdb files.

Scans the given directories for *.itdb files carrying annotations:

    # check: <query>
    # expect: A003
    # expect: A009, A010 at 1:12

Each `# check:` line is fed to the shell's `check` command with the file's
relations preloaded.  The set of `[Axxx]` codes it prints must equal the
set of codes on the `# expect:` lines that follow it; a check with no
expectations must come back `check: ok`.  A code written `Axxx at L:C`
must also be printed with its caret at line L, column C (`--> L:C`).
Files without annotations are skipped.

Usage: check_queries.py --shell PATH DIR [DIR ...]
Exit status 0 = all gates pass, 1 = findings, 2 = misuse.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path


def parse_annotations(path: Path):
    """Yields (query, [expected codes], line number) per `# check:` line."""
    checks = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if line.startswith("# check:"):
            checks.append((line[len("# check:"):].strip(), [], lineno))
        elif line.startswith("# expect:"):
            if not checks:
                raise ValueError(
                    f"{path}:{lineno}: '# expect:' before any '# check:'")
            for item in line[len("# expect:"):].split(","):
                code, _, at = item.strip().partition(" at ")
                checks[-1][1].append((code, at or None))
    return checks


def run_checks(shell: Path, path: Path, checks):
    script = "".join(f"check {query}\n" for query, _, _ in checks)
    proc = subprocess.run(
        [str(shell), str(path)], input=script, capture_output=True,
        text=True, timeout=120)
    if proc.returncode != 0:
        return [f"{path}: shell exited {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"]
    # The shell ends every check with one summary line "check: ...".
    segments = []
    current: list[str] = []
    for line in proc.stdout.splitlines():
        current.append(line)
        if line.startswith("check:"):
            segments.append("\n".join(current))
            current = []
    failures = []
    if len(segments) != len(checks):
        return [f"{path}: expected {len(checks)} check summaries, "
                f"got {len(segments)}:\n{proc.stdout}"]
    for (query, expects, lineno), segment in zip(checks, segments):
        printed = set(re.findall(r"\[(A\d{3})\]", segment))
        located = set(re.findall(r"\[(A\d{3})\].*\n\s*--> (\d+:\d+)",
                                 segment))
        codes = {code for code, _ in expects}
        missing = [f"{code} at {at}" for code, at in expects
                   if at is not None and (code, at) not in located]
        if printed != codes:
            failures.append(
                f"{path}:{lineno}: `{query}` reported "
                f"{', '.join(sorted(printed)) or 'no code'}, expected "
                f"{', '.join(sorted(codes)) or 'no code'}:\n{segment}")
        elif missing:
            failures.append(
                f"{path}:{lineno}: `{query}` printed no "
                f"{', '.join(missing)}:\n{segment}")
        elif not expects and not segment.endswith("check: ok"):
            failures.append(
                f"{path}:{lineno}: `{query}` expected a clean check:"
                f"\n{segment}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shell", type=Path, required=True,
                        help="path to the itdb_shell binary")
    parser.add_argument("dirs", nargs="+", type=Path)
    args = parser.parse_args()
    if not args.shell.exists():
        print(f"error: no shell at {args.shell}", file=sys.stderr)
        return 2

    files = 0
    queries = 0
    failures: list[str] = []
    for directory in args.dirs:
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
        for path in sorted(directory.rglob("*.itdb")):
            checks = parse_annotations(path)
            if not checks:
                continue
            files += 1
            queries += len(checks)
            failures.extend(run_checks(args.shell, path, checks))

    for failure in failures:
        print(failure)
    print(f"check_queries: {queries} query(ies) over {files} file(s), "
          f"{len(failures)} failure(s)")
    if files == 0:
        print("error: no annotated .itdb files found", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
