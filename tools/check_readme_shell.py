#!/usr/bin/env python3
"""Replays the README's `check` transcripts through itdb_shell.

Every ```text block of the markdown file that holds an `itdb> check` line
is a transcript: its `itdb> ` lines are the input, a leading `$ ` line is
the command that starts the shell, and every other line is the output the
shell must print for that input, byte for byte.  Each block runs in a fresh
shell, so the transcripts cannot drift from what the shell really prints.

Usage: check_readme_shell.py --shell PATH README.md
Exit status 0 = every transcript matches, 1 = a mismatch, 2 = misuse.
"""

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

PROMPT = "itdb> "


def transcripts(text: str):
    """Yields (first line number, input lines, expected output lines)."""
    block = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if block is None:
            if line.strip() == "```text":
                block = (lineno + 1, [])
            continue
        if line.strip() == "```":
            start, lines = block
            block = None
            if any(l.startswith(PROMPT + "check ") for l in lines):
                inputs = [l[len(PROMPT):] for l in lines
                          if l.startswith(PROMPT)]
                expected = [l for l in lines
                            if not l.startswith(PROMPT)
                            and not l.startswith("$ ")]
                yield start, inputs, expected
            continue
        block[1].append(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shell", type=Path, required=True)
    parser.add_argument("markdown", type=Path)
    args = parser.parse_args()
    if not args.markdown.is_file():
        print(f"error: {args.markdown} is not a file", file=sys.stderr)
        return 2

    failures = 0
    count = 0
    for start, inputs, expected in transcripts(args.markdown.read_text()):
        count += 1
        proc = subprocess.run(
            [str(args.shell)], input="".join(l + "\n" for l in inputs),
            capture_output=True, text=True, timeout=60)
        got = proc.stdout.splitlines()
        if proc.returncode != 0 or got != expected:
            failures += 1
            print(f"{args.markdown}:{start}: transcript differs from the "
                  f"shell (exit {proc.returncode}):")
            sys.stdout.writelines(difflib.unified_diff(
                [l + "\n" for l in expected], [l + "\n" for l in got],
                "README", "itdb_shell"))
    if count == 0:
        print(f"error: no `itdb> check` transcript in {args.markdown}")
        return 1
    print(f"check_readme_shell: {count} transcript(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
