#!/usr/bin/env python3
"""Repository invariant linter, wired into ctest and CI.

Checks, over src/ (and where noted, tests/):

  1. own-header-first: a src/**/foo.cc with a sibling foo.h must include
     "its/dir/foo.h" as its FIRST #include (keeps headers self-contained).
  2. no naked new/delete outside src/util/: ownership lives behind
     standard containers and smart pointers.  `= delete` (deleted
     functions) is fine; a deliberate exception carries `lint:allow` on
     the same line.
  3. every src/**/*.cc appears in its directory's CMakeLists.txt: a file
     that builds in no target is dead code that still rots.
  4. no std::cout/std::cerr in library code: src/ outside src/shell/ must
     report through Status/diagnostics, not the process streams (the
     shell, tools/, bench/ and tests are exempt).
  5. every A0xx diagnostic code referenced anywhere in src/ has a row in
     DESIGN.md's diagnostic table (`| A0xx | severity | summary |`): an
     undocumented code is invisible to users reading `check` output.
  6. every metrics counter/histogram name is registered (written) from a
     single src/ file: the obs registry silently merges same-named metrics,
     so a copy-pasted name in another subsystem corrupts both counters.
     Read-only GetCounter(...)->value() sites are exempt; a name may also
     not be used as both a counter and a histogram.
  7. `case CmpOp::` appears only in the comparison module (src/core/cmp.h,
     src/core/cmp.cc), over src/ and tests/: truth, flip, negation,
     spelling and the compilation into difference atoms have one
     implementation each, and a second switch over the operators is a
     copy that drifts (the relation text parser once compiled `>` between
     two columns wrongly that way).
  8. only the modules listed below include core/algebra.h or call an
     algebra operator (Complement, Project, Join, ... -- the operators of
     core/algebra.h).  Everything else states its work as a first-order
     query and runs it through query::Prepared, so a second evaluator
     cannot grow in a new module.  The modules and why each may call the
     algebra:
       core        the algebra itself (§3);
       query       the one statement evaluator (§4, query::Prepared);
       fuzz        the differential oracle evaluates random algebra
                   expressions against the finite baseline;
       finite      the baseline mirrors the algebra's operators and
                   signatures over materialized relations;
       presburger  the constructive translations of Theorems 2.1/2.2
                   build relations by intersection, union and complement;
       sat         the Theorem 3.6 reduction asks for a witness of a
                   complement;
       server      the `witness` verb reads one row of a stored relation.
     Inside query, no `Join(` or `Intersect(` call either: the evaluator's
     conjunction is its one chain pull (JoinProbe, query/eval.cc), and a
     relation-at-a-time join there would be a second AND path.
  9. outside src/core/index.*, `ConjoinOntoClosed(` and `TouchedRows(` each
     have exactly one call site in src/: the indexed pair scan lives in
     one kernel (JoinKernel in core/algebra.cc, which Join and Intersect
     both run), and a second caller would be a fork of it that can drift,
     e.g. in how it handles a closure overflow.  Declarations and
     definitions start at column 0 and are not call sites.
 10. no src/server/ code names the `QueryOptions` pipeline switches
     `analyze`, `optimize` or `cost_plan` (no `.analyze`, `->optimize`,
     ... at all, so assignment, address-of and reference binding are all
     caught).  The service runs every statement through the full pipeline
     (analysis, optimizer, cost-based planner); the switches exist for the
     references that compare against it (the fuzz oracle's variant
     matrix, the query layer's tests and benches), so a per-session
     switch -- with its `set` verb and its result-table key field --
     cannot grow back.  Not caught: positional aggregate initialisation
     of a QueryOptions, and code outside src/server/.  Likewise
     `struct AlgebraOptions` and `struct NormalizeOptions` declare no
     `bool` member: they hold only budgets and observers.  A
     bool there picks between two implementations of one operator (as the
     projection and index switches once did); keep the faster one and move
     the other into tests/ as a reference.  `struct SessionOptions`
     declares no `bool` member but `read_only`, a deployment setting: a
     bool there is a per-session policy switch, which doubles the
     configurations that tests and the result-table key must cover, and
     each statement runs one budget regime.
 11. no src/core/, src/query/ or src/analysis/ code names `ThreadPool`,
     `std::thread`, `std::jthread` or `std::async`: a statement runs on
     the one thread that took it, and concurrency lives between sessions
     (the server's pool).  Fanning one statement's kernels out over
     threads measured no faster on any statement-level benchmark (the
     normalization sweep slower) and was deleted; a second way to run a
     kernel is a second configuration to test.

Exit status 0 = clean, 1 = findings (printed one per line), 2 = misuse.
"""

import argparse
import re
import sys
from pathlib import Path

ALLOW = "lint:allow"

NEW_RE = re.compile(r"\bnew\b\s*(\(|[A-Za-z_<:])")
DELETE_RE = re.compile(r"\bdelete\b(\[\])?\s*[A-Za-z_(*]")
COUT_RE = re.compile(r"std::c(out|err)\b")


def strip_comments_and_strings(line: str) -> str:
    """Good enough for linting: drops // comments and "..." contents."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    return line.split("//", 1)[0]


def first_include(path: Path) -> str | None:
    for raw in path.read_text().splitlines():
        m = re.match(r'\s*#include\s+([<"][^">]+[">])', raw)
        if m:
            return m.group(1)
    return None


def check_own_header_first(src: Path, findings: list[str]) -> None:
    for cc in sorted(src.rglob("*.cc")):
        header = cc.with_suffix(".h")
        if not header.exists():
            continue
        want = f'"{header.relative_to(src).as_posix()}"'
        got = first_include(cc)
        if got != want:
            findings.append(
                f"{cc}: first #include is {got or 'missing'}, "
                f"expected its own header {want}"
            )


def check_no_naked_new_delete(src: Path, findings: list[str]) -> None:
    for cc in sorted(list(src.rglob("*.cc")) + list(src.rglob("*.h"))):
        if src / "util" in cc.parents:
            continue
        for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
            if ALLOW in raw:
                continue
            line = strip_comments_and_strings(raw)
            if "= delete" in line:
                line = line.replace("= delete", "")
            if NEW_RE.search(line) or DELETE_RE.search(line):
                findings.append(
                    f"{cc}:{lineno}: naked new/delete outside src/util/ "
                    f"(use containers or smart pointers): {raw.strip()}"
                )


def check_cmake_lists_complete(src: Path, findings: list[str]) -> None:
    for cc in sorted(src.rglob("*.cc")):
        cmake = cc.parent / "CMakeLists.txt"
        if not cmake.exists():
            findings.append(f"{cc}: no CMakeLists.txt in {cc.parent}")
            continue
        if cc.name not in cmake.read_text():
            findings.append(f"{cc}: not listed in {cmake}")


def check_no_cout(src: Path, findings: list[str]) -> None:
    for cc in sorted(list(src.rglob("*.cc")) + list(src.rglob("*.h"))):
        if src / "shell" in cc.parents:
            continue
        for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
            if ALLOW in raw:
                continue
            if COUT_RE.search(strip_comments_and_strings(raw)):
                findings.append(
                    f"{cc}:{lineno}: std::cout/std::cerr in library code "
                    f"(report via Status or diagnostics): {raw.strip()}"
                )


DIAG_CODE_RE = re.compile(r"\bA0\d{2}\b")
DIAG_TABLE_ROW_RE = re.compile(r"^\|\s*(A0\d{2})\s*\|")
COUNTER_WRITE_RE = re.compile(r'AddGlobalCounter\(\s*"([^"]+)"')
COUNTER_GET_RE = re.compile(r'GetCounter\(\s*"([^"]+)"\s*\)')
HISTOGRAM_GET_RE = re.compile(r'GetHistogram\(\s*"([^"]+)"\s*\)')


def check_diag_codes_documented(
    root: Path, src: Path, findings: list[str]
) -> None:
    design = root / "DESIGN.md"
    documented: set[str] = set()
    if design.exists():
        for line in design.read_text().splitlines():
            m = DIAG_TABLE_ROW_RE.match(line.strip())
            if m:
                documented.add(m.group(1))
    referenced: dict[str, str] = {}  # code -> first reference site
    for cc in sorted(list(src.rglob("*.cc")) + list(src.rglob("*.h"))):
        for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
            for code in DIAG_CODE_RE.findall(raw):
                referenced.setdefault(code, f"{cc}:{lineno}")
    for code in sorted(set(referenced) - documented):
        findings.append(
            f"{referenced[code]}: diagnostic code {code} is not in "
            f"DESIGN.md's diagnostic table"
        )


def check_metric_names_unique(src: Path, findings: list[str]) -> None:
    counter_writers: dict[str, set[Path]] = {}
    histogram_writers: dict[str, set[Path]] = {}
    for cc in sorted(list(src.rglob("*.cc")) + list(src.rglob("*.h"))):
        text = cc.read_text()
        for name in COUNTER_WRITE_RE.findall(text):
            counter_writers.setdefault(name, set()).add(cc)
        for m in COUNTER_GET_RE.finditer(text):
            # GetCounter("x")->value() is a read (e.g. a status report
            # rendering another subsystem's counter); only mutation
            # registers ownership.  The accessor may start on the next
            # line, so look at the text following the call.
            if text[m.end():].lstrip().startswith("->value()"):
                continue
            counter_writers.setdefault(m.group(1), set()).add(cc)
        for name in HISTOGRAM_GET_RE.findall(text):
            histogram_writers.setdefault(name, set()).add(cc)
    for name, files in sorted(counter_writers.items()):
        if len(files) > 1:
            where = ", ".join(str(f) for f in sorted(files))
            findings.append(
                f"metrics counter \"{name}\" is written from multiple "
                f"files ({where}): one subsystem must own each name"
            )
        if name in histogram_writers:
            findings.append(
                f"metrics name \"{name}\" is used as both a counter and "
                f"a histogram"
            )
    for name, files in sorted(histogram_writers.items()):
        if len(files) > 1:
            where = ", ".join(str(f) for f in sorted(files))
            findings.append(
                f"metrics histogram \"{name}\" is written from multiple "
                f"files ({where}): one subsystem must own each name"
            )


CMP_CASE_RE = re.compile(r"\bcase\s+CmpOp::")
CMP_MODULE = {Path("src/core/cmp.h"), Path("src/core/cmp.cc")}


def check_cmp_switch_in_one_module(root: Path, findings: list[str]) -> None:
    for tree in (root / "src", root / "tests"):
        for cc in sorted(list(tree.rglob("*.cc")) + list(tree.rglob("*.h"))):
            if cc.relative_to(root) in CMP_MODULE:
                continue
            for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
                if CMP_CASE_RE.search(strip_comments_and_strings(raw)):
                    findings.append(
                        f"{cc}:{lineno}: switch over CmpOp outside "
                        f"src/core/cmp.* (use Holds, Flip, Negate, "
                        f"CmpOpSymbol or CompileCmp): {raw.strip()}"
                    )


ALGEBRA_INCLUDE_RE = re.compile(r'#include\s+"core/algebra\.h"')
ALGEBRA_OPS = (
    "Complement|ComplementWithDataDomains|CrossProduct|Equivalent|"
    "FindWitness|FirstPoint|Intersect|IsEmpty|Join|Project|Rename|"
    "SelectData|SelectDataEqColumns|SelectTemporal|ShiftTemporalColumn|"
    "Subset|Subtract|TupleIsEmpty|Union"
)
# An unqualified or itdb::-qualified call; members (x.Join, Query::Join)
# are other functions of the same name.
ALGEBRA_CALL_RE = re.compile(
    rf"(?:(?<![\w.>:])|(?<=itdb::))(?:{ALGEBRA_OPS})\s*\("
)


ALGEBRA_MODULES = {
    "core", "query", "fuzz", "finite", "presburger", "sat", "server",
}
# Operators a listed module may still not call.
MODULE_BANNED_CALL_RE = {
    "query": re.compile(r"(?:(?<![\w.>:])|(?<=itdb::))(?:Join|Intersect)\s*\("),
}


def check_algebra_only_in_listed_modules(
    src: Path, findings: list[str]
) -> None:
    for cc in sorted(list(src.rglob("*.cc")) + list(src.rglob("*.h"))):
        module = cc.relative_to(src).parts[0]
        if module in ALGEBRA_MODULES:
            banned = MODULE_BANNED_CALL_RE.get(module)
            if banned is None:
                continue
            for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
                if banned.search(strip_comments_and_strings(raw)):
                    findings.append(
                        f"{cc}:{lineno}: src/{module}/ calls Join or "
                        f"Intersect (conjunctions run through the chain "
                        f"pull): {raw.strip()}"
                    )
            continue
        for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
            if ALGEBRA_INCLUDE_RE.search(raw):
                findings.append(
                    f"{cc}:{lineno}: src/{module}/ includes core/algebra.h "
                    f"(state it as a query instead): {raw.strip()}"
                )
            elif ALGEBRA_CALL_RE.search(strip_comments_and_strings(raw)):
                findings.append(
                    f"{cc}:{lineno}: algebra operator called in "
                    f"src/{module}/ (state it as a query instead): "
                    f"{raw.strip()}"
                )


ONE_CALLER = ("ConjoinOntoClosed", "TouchedRows")
INDEX_MODULE = {Path("src/core/index.h"), Path("src/core/index.cc")}


def check_pair_kernel_has_one_caller(root: Path, findings: list[str]) -> None:
    src = root / "src"
    files = sorted(list(src.rglob("*.cc")) + list(src.rglob("*.h")))
    for name in ONE_CALLER:
        # Free or ::-qualified calls; members (x.f, p->f) are other functions.
        call_re = re.compile(rf"(?<![\w.>]){name}\s*\(")
        sites = []
        for cc in files:
            if cc.relative_to(root) in INDEX_MODULE:
                continue
            for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
                line = strip_comments_and_strings(raw)
                if not line[:1].isspace():
                    continue  # Column 0: a declaration or definition.
                if call_re.search(line):
                    sites.append(f"{cc}:{lineno}")
        if len(sites) != 1:
            findings.append(
                f"{name}( has {len(sites)} call site(s) in src/ outside "
                f"src/core/index.*, want exactly 1 (the pair kernel in "
                f"core/algebra.cc): {', '.join(sites) or 'none'}"
            )


PIPELINE_SWITCH_RE = re.compile(r"(?:\.|->)(?:analyze|optimize|cost_plan)\b")


def check_no_pipeline_switch_in_server(src: Path, findings: list[str]) -> None:
    server = src / "server"
    for cc in sorted(list(server.glob("*.cc")) + list(server.glob("*.h"))):
        for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
            if PIPELINE_SWITCH_RE.search(strip_comments_and_strings(raw)):
                findings.append(
                    f"{cc}:{lineno}: QueryOptions pipeline switch named in "
                    f"src/server/ (the service always runs analysis, "
                    f"optimizer and planner): {raw.strip()}"
                )


OPTIONS_STRUCT_RE = re.compile(
    r"^struct (AlgebraOptions|NormalizeOptions|SessionOptions) \{")
BOOL_MEMBER_RE = re.compile(r"^\s*bool\s+(\w+)\s*[;={]")
ALLOWED_BOOL_MEMBERS = {"SessionOptions": {"read_only"}}


def check_no_switch_in_options_structs(src: Path, findings: list[str]) -> None:
    for h in sorted(src.rglob("*.h")):
        struct = None
        for lineno, raw in enumerate(h.read_text().splitlines(), 1):
            line = strip_comments_and_strings(raw)
            if m := OPTIONS_STRUCT_RE.match(line):
                struct = m.group(1)
            elif line.startswith("};"):
                struct = None
            elif struct and (m := BOOL_MEMBER_RE.match(line)):
                if m.group(1) in ALLOWED_BOOL_MEMBERS.get(struct, set()):
                    continue
                findings.append(
                    f"{h}:{lineno}: bool member in {struct} (no policy "
                    f"switch: budgets, observers and deployment "
                    f"settings only): {raw.strip()}"
                )


THREADING_RE = re.compile(r"\bThreadPool\b|\bstd::(?:j?thread|async)\b")
SINGLE_THREADED_MODULES = ("core", "query", "analysis")


def check_no_threads_in_statement_modules(
    src: Path, findings: list[str]
) -> None:
    for module in SINGLE_THREADED_MODULES:
        tree = src / module
        for cc in sorted(list(tree.rglob("*.cc")) + list(tree.rglob("*.h"))):
            for lineno, raw in enumerate(cc.read_text().splitlines(), 1):
                if THREADING_RE.search(strip_comments_and_strings(raw)):
                    findings.append(
                        f"{cc}:{lineno}: thread or pool in src/{module}/ "
                        f"(a statement runs on the thread that took it): "
                        f"{raw.strip()}"
                    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2

    findings: list[str] = []
    check_own_header_first(src, findings)
    check_no_naked_new_delete(src, findings)
    check_cmake_lists_complete(src, findings)
    check_no_cout(src, findings)
    check_diag_codes_documented(args.root, src, findings)
    check_metric_names_unique(src, findings)
    check_cmp_switch_in_one_module(args.root, findings)
    check_algebra_only_in_listed_modules(src, findings)
    check_pair_kernel_has_one_caller(args.root, findings)
    check_no_pipeline_switch_in_server(src, findings)
    check_no_switch_in_options_structs(src, findings)
    check_no_threads_in_statement_modules(src, findings)

    for finding in findings:
        print(finding)
    print(f"lint_invariants: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
