#!/usr/bin/env python3
"""Project-invariant checker (runs from tools/lint.sh and the CI lint job).

Cross-file contracts the compiler cannot see break silently: a bench case
renamed in C++ stops being gated against its baseline, a ctest label
renamed in CMake turns the CI step that selects it into a no-op that tests
nothing. This script re-derives each side of those contracts from the
checked-in text and fails loudly on drift.

Checked invariants:
  1. Every BenchCase registered with the "smoke" label in bench/*.cpp has a
     baseline entry in bench/baselines/smoke.json (and vice versa), so the
     perf gate actually covers every smoke case.
  2. Every `ctest ... -L <label>` selection in .github/workflows/ci.yml
     names a label that some test in tests/CMakeLists.txt carries, so no CI
     step can silently select zero tests.
  3. Every bench/*.cpp that defines a BenchCase is listed in
     bench/harness/register_all.cpp (registration is by explicit call, not
     static initialiser; an unlisted case compiles fine and never runs).
  4. Every header under src/ has at least one includer in src/, bench/,
     examples/ or benchmark/ other than its own .cpp. Tests alone do not
     count: a header only tests include is code the system does not use.
  5. Every storage backend kind in storage_backend_names() (the set the
     config parser accepts) is exercised by the storage-labelled tests:
     a new kind added to src/runtime/storage_config.cpp without test
     coverage fails here, not silently in production configs.
  6. The multi-tenancy suites stay wired end to end: some test carries
     the "tenancy" ctest label, ci.yml has a step selecting `-L tenancy`,
     and at least one smoke bench case carries the "tenancy" label (so
     the fair-share sweep and its starvation assertion ride the smoke
     gate).
  7. The ISA-dispatch macro MLPO_KERNEL_CLONES is defined only in
     src/util/kernel_dispatch.hpp, only .cpp files under src/ use it, and
     every such file is listed in a set_source_files_properties() block
     with -ffp-contract=off in src/CMakeLists.txt. The AVX2/AVX-512 clones
     have FMA, and GCC contracts a*b+c into one by default: with
     contraction allowed, the AVX-512 clone of Adam rounded once where the
     baseline rounds twice, and Adam.GoldenDigestPinned read
     0x945ADD822FA0E79A instead of 0x8DF84728196E0BCD (equivalence_test's
     engine digests broke too). A kernel moved to a new file without the
     flag would pass on a CPU without FMA and break on one with it.
  8. No file under src/core/ reaches util/rate_limiter.hpp or
     tiers/tier_lock.hpp, directly or through any chain of src/ includes.
     Engines never touch a TierLock or a RateLimiter: every tier and link
     transfer goes through the IoScheduler, whose channels hold the locks
     and limiters (the contract src/core/engine.hpp states). An engine that
     charged a limiter itself would bypass the scheduler's priorities, fair
     share and per-priority telemetry. The walk is transitive because a
     chain such as io_scheduler.hpp -> io_channel.hpp would hand an engine
     the RateLimiter type while every direct include looks clean; headers
     that only pass a pointer forward-declare the type instead.
  9. Within src/core/, only the Engine base TU (core/engine.cpp) calls
     adam_update, GradSource::generate_fp16 or
     Subgroup::deterministic_param_init, or builds the "t<tenant>/" key
     prefix, and it holds each exactly once. One module then decides how
     an optimizer step is computed and charged: per-engine copies of this
     code drift apart (one copy reported host wall-clock noise as compute
     and labelled traces with global subgroup ids), and a second copy
     fails here.
 10. Within src/core/, Subgroup::serialize and Subgroup::deserialize are
     called only from core/checkpoint.cpp and from the engines'
     restore_state bodies (comments stripped). A subgroup is one image,
     byte for byte its tier object, so fetches and flushes move the image
     itself; a serialize/deserialize call anywhere else in an engine is a
     staging copy of every subgroup coming back (dropping the fetch and
     flush copies cut floor_mem's CPU time per iteration by 10%).
 11. Every data member of IterationReport (src/telemetry/
     iteration_report.hpp) is read as `.member` or `->member` somewhere in
     bench/, examples/ or benchmark/, with comments and string literals
     stripped. A member only tests read is a counter written, merged and
     averaged for nobody: seven such members (per-priority I/O classes,
     coalesced batches, queue depth, pool counters, cancelled-on-failure,
     tenant slices) once rode every report while their readers went to
     the owners (IoScheduler::stats(), OffloadEngine::scratch_stats(),
     RecoveryStats, JobSloStats). A counter with an owner is read there.

Zero third-party dependencies; regex-level parsing is deliberate — the
source of truth is the checked-in text, not a build artifact, so the check
works before the first configure.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILURES: list[str] = []


def fail(msg: str) -> None:
    FAILURES.append(msg)


def parse_bench_cases() -> dict[str, dict]:
    """name -> {labels: set[str], file: Path} from BenchCase initialisers."""
    cases: dict[str, dict] = {}
    for path in sorted((REPO / "bench").glob("*.cpp")):
        text = path.read_text()
        # Designated-initialiser registrations:
        #   BenchCase{ .name = "fig01_memory_wall", ... .labels = {"smoke"},
        for m in re.finditer(r"\.name\s*=\s*\"([^\"]+)\"", text):
            name = m.group(1)
            tail = text[m.end():]
            # Labels belong to the same initialiser: stop at the next .name.
            next_case = re.search(r"\.name\s*=", tail)
            scope = tail[: next_case.start()] if next_case else tail
            labels: set[str] = set()
            lm = re.search(r"\.labels\s*=\s*\{([^}]*)\}", scope)
            if lm:
                labels = set(re.findall(r"\"([^\"]+)\"", lm.group(1)))
            cases[name] = {"labels": labels, "file": path}
    return cases


def check_smoke_baselines(cases: dict[str, dict]) -> None:
    baseline_path = REPO / "bench" / "baselines" / "smoke.json"
    if not baseline_path.exists():
        fail(f"missing baseline file: {baseline_path}")
        return
    data = json.loads(baseline_path.read_text())
    baseline_names = {e["name"] for e in data["benchmarks"]}

    smoke_cases = {n for n, c in cases.items() if "smoke" in c["labels"]}
    for name in sorted(smoke_cases - baseline_names):
        fail(
            f"bench case '{name}' carries the \"smoke\" label but has no "
            f"entry in bench/baselines/smoke.json — the perf gate will "
            f"fail on it (unknown case) or skip it"
        )
    for name in sorted(baseline_names - smoke_cases):
        fail(
            f"bench/baselines/smoke.json lists '{name}' but no registered "
            f"BenchCase carries that name with the \"smoke\" label — stale "
            f"baseline entry"
        )


def ctest_labels_defined() -> set[str]:
    """Labels any ctest registration carries (tests/ and bench/ CMake)."""
    defined: set[str] = set()
    for cmake in (REPO / "tests" / "CMakeLists.txt",
                  REPO / "bench" / "CMakeLists.txt"):
        if not cmake.exists():
            continue
        for m in re.finditer(r"LABELS\s+\"([^\"]+)\"", cmake.read_text()):
            defined |= set(m.group(1).split(";"))
    return defined


def check_ci_labels() -> None:
    ci = REPO / ".github" / "workflows" / "ci.yml"
    if not ci.exists() or not (REPO / "tests" / "CMakeLists.txt").exists():
        fail("missing ci.yml or tests/CMakeLists.txt")
        return
    used = set(re.findall(r"ctest[^\n]*\s-L\s+([A-Za-z0-9_-]+)", ci.read_text()))
    defined = ctest_labels_defined()
    for label in sorted(used - defined):
        fail(
            f"ci.yml selects tests with `ctest -L {label}` but no test in "
            f"tests/ or bench/ CMakeLists.txt sets that label — the step "
            f"would run zero tests"
        )


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def check_header_includers() -> None:
    src = REPO / "src"
    includers: dict[str, set[Path]] = {}
    for root in ("src", "bench", "examples", "benchmark"):
        for path in sorted((REPO / root).rglob("*")):
            if path.suffix not in (".hpp", ".cpp") or not path.is_file():
                continue
            for inc in INCLUDE_RE.findall(path.read_text()):
                includers.setdefault(inc, set()).add(path)
    for header in sorted(src.rglob("*.hpp")):
        rel = header.relative_to(src).as_posix()
        own_cpp = header.with_suffix(".cpp")
        if not includers.get(rel, set()) - {header, own_cpp}:
            fail(
                f"src/{rel} has no includer in src/, bench/, examples/ or "
                f"benchmark/ besides its own .cpp — delete it or use it"
            )


ENGINE_FORBIDDEN_INCLUDES = ("util/rate_limiter.hpp", "tiers/tier_lock.hpp")


def include_chain(path: Path, target: str) -> list[str] | None:
    """Shortest chain of src/ includes from `path` to `target`, or None.

    Includes resolve against src/ (the library's include root); system
    headers and names that are not files under src/ end the walk.
    """
    src = REPO / "src"
    seen: set[str] = set()
    frontier: list[tuple[Path, list[str]]] = [(path, [])]
    while frontier:
        nxt: list[tuple[Path, list[str]]] = []
        for cur, chain in frontier:
            for inc in INCLUDE_RE.findall(cur.read_text()):
                if inc == target:
                    return chain + [inc]
                header = src / inc
                if inc in seen or not header.is_file():
                    continue
                seen.add(inc)
                nxt.append((header, chain + [inc]))
        frontier = nxt
    return None


def check_engine_io_contract() -> None:
    core = REPO / "src" / "core"
    for path in sorted(core.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        for target in ENGINE_FORBIDDEN_INCLUDES:
            chain = include_chain(path, target)
            if chain is not None:
                fail(
                    f"{path.relative_to(REPO).as_posix()} reaches {target} "
                    f"via {' -> '.join(chain)} — engines never touch a "
                    f"TierLock or a RateLimiter; submit the transfer to the "
                    f"IoScheduler instead, and forward-declare the type in "
                    f"the header that exposes it"
                )


ENGINE_BASE_TU = "src/core/engine.cpp"
# Call sites (and the tenant key prefix) that only the Engine base may hold.
ENGINE_BASE_ONLY = {
    "an adam_update call": re.compile(r"\badam_update\s*\("),
    "a generate_fp16 call": re.compile(r"\bgenerate_fp16\s*\("),
    "a deterministic_param_init call": re.compile(
        r"\bdeterministic_param_init\s*\("),
    "the \"t<tenant>/\" key prefix": re.compile(r'"t"\s*\+'),
}
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def strip_comments(text: str) -> str:
    """Drop comments but keep their newlines, so offsets map to lines."""
    return COMMENT_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)


def check_engine_base_owns_the_step() -> None:
    core = REPO / "src" / "core"
    counts = dict.fromkeys(ENGINE_BASE_ONLY, 0)
    for path in sorted(core.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        rel = path.relative_to(REPO).as_posix()
        code = COMMENT_RE.sub("", path.read_text())
        for what, pattern in ENGINE_BASE_ONLY.items():
            hits = len(pattern.findall(code))
            if rel == ENGINE_BASE_TU:
                counts[what] = hits
            elif hits:
                fail(
                    f"{rel} holds {what} — within src/core/ only the "
                    f"Engine base ({ENGINE_BASE_TU}) may; use its "
                    f"deposit_fp16 / update_subgroup / initialize / "
                    f"tenant_key instead"
                )
    for what, hits in counts.items():
        if hits != 1:
            fail(
                f"{ENGINE_BASE_TU} holds {what} {hits} times, not once — "
                f"either the Engine base grew a second copy or the check "
                f"regressed"
            )


CHECKPOINT_TU = "src/core/checkpoint.cpp"
SUBGROUP_COPY_CALL_RE = re.compile(r"(?:\.|->)\s*(?:de)?serialize\s*\(")
RESTORE_STATE_DEF_RE = re.compile(
    r"\b\w+::restore_state\s*\([^)]*\)\s*(?:const\s*)?\{")


def brace_bodies(code: str, pattern: re.Pattern) -> list[tuple[int, int]]:
    """[start, end] offsets of the brace-balanced body after each match
    (the match must end on the body's opening brace)."""
    bodies = []
    for m in pattern.finditer(code):
        depth = 0
        for i in range(m.end() - 1, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    bodies.append((m.end() - 1, i))
                    break
    return bodies


def check_no_subgroup_staging_copies() -> None:
    core = REPO / "src" / "core"
    for path in sorted(core.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel == CHECKPOINT_TU:
            continue
        code = strip_comments(path.read_text())
        allowed = brace_bodies(code, RESTORE_STATE_DEF_RE)
        for m in SUBGROUP_COPY_CALL_RE.finditer(code):
            if any(start <= m.start() <= end for start, end in allowed):
                continue
            line = code.count("\n", 0, m.start()) + 1
            fail(
                f"{rel}:{line} calls Subgroup::"
                f"{m.group(0).lstrip('.->').split('(')[0].strip()} outside "
                f"restore_state — fetches and flushes move the subgroup's "
                f"image (Subgroup::image()) directly; only "
                f"{CHECKPOINT_TU} and the engines' restore_state may copy "
                f"it"
            )


REPORT_HEADER = "src/telemetry/iteration_report.hpp"
REPORT_STRUCT_RE = re.compile(r"\bstruct\s+IterationReport\s*\{")
# Comments, raw strings, string and char literals: stripped together so a
# "//" inside a string cannot start a comment. C++14 digit separators are
# dropped first so 1'000'000 is not read as a char literal.
CODE_NOISE_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|R\"([^(\s]*)\(.*?\)\1\"|\"(?:\\.|[^\"\\\n])*\""
    r"|'(?:\\.|[^'\\\n])*'",
    re.S)
DIGIT_SEPARATOR_RE = re.compile(r"(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])")
ACCESS_LABEL_RE = re.compile(r"\b(?:public|private|protected)\s*:")


def strip_code_noise(text: str) -> str:
    return CODE_NOISE_RE.sub(" ", DIGIT_SEPARATOR_RE.sub("", text))


def report_members() -> list[str]:
    """Data members of IterationReport: top-level declarations of its body
    with every brace block (method bodies, brace initialisers) removed;
    a declaration with '(' before any '=' is a function."""
    code = strip_code_noise((REPO / REPORT_HEADER).read_text())
    bodies = brace_bodies(code, REPORT_STRUCT_RE)
    if not bodies:
        return []
    start, end = bodies[0]
    flat, depth = [], 0
    for ch in code[start + 1:end]:
        if ch == "{":
            if depth == 0:
                flat.append(";")
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            flat.append(ch)
    members = []
    for decl in ACCESS_LABEL_RE.sub(" ", "".join(flat)).split(";"):
        head = decl.split("=")[0].strip()
        if not head or "(" in head or head.startswith(("using ", "static ",
                                                       "friend ")):
            continue
        name = re.findall(r"[A-Za-z_]\w*", head)
        if len(name) >= 2:
            members.append(name[-1])
    return members


def check_report_members_have_readers() -> None:
    members = report_members()
    if not members:
        fail(f"parsed no IterationReport data members from {REPORT_HEADER} "
             f"— either the struct moved or the parser regressed")
        return
    code = []
    for top in ("bench", "examples", "benchmark"):
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc") and path.is_file():
                code.append(strip_code_noise(path.read_text()))
    code_text = "\n".join(code)
    for member in members:
        if not re.search(rf"(?:\.|->)\s*{member}\b", code_text):
            fail(
                f"IterationReport::{member} ({REPORT_HEADER}) is read nowhere "
                f"in bench/, examples/ or benchmark/ — a report member only "
                f"tests read is a write-only counter; read it from its owner "
                f"or delete it"
            )


def check_tenancy_suites(cases: dict[str, dict]) -> None:
    if "tenancy" not in ctest_labels_defined():
        fail(
            "no ctest registration carries the \"tenancy\" label — the "
            "tenancy CI step and `ctest -L tenancy` would select zero tests"
        )
    ci = REPO / ".github" / "workflows" / "ci.yml"
    if ci.exists() and not re.search(r"ctest[^\n]*\s-L\s+tenancy\b",
                                     ci.read_text()):
        fail(
            "ci.yml has no step selecting `ctest -L tenancy` — the "
            "multi-job suites would not run as their own CI gate"
        )
    tenancy_smoke = {
        n for n, c in cases.items()
        if {"tenancy", "smoke"} <= c["labels"]
    }
    if not tenancy_smoke:
        fail(
            "no bench case carries both the \"tenancy\" and \"smoke\" "
            "labels — the fair-share sweep and its starvation assertion "
            "are not gated against the smoke baselines"
        )


def storage_backend_kinds() -> set[str]:
    """Backend kinds the config parser accepts, from storage_config.cpp."""
    src = REPO / "src" / "runtime" / "storage_config.cpp"
    if not src.exists():
        fail("missing src/runtime/storage_config.cpp")
        return set()
    text = src.read_text()
    m = re.search(
        r"storage_backend_names\(\)\s*\{[^}]*?\{([^}]*)\}", text, re.S)
    if not m:
        fail(
            "could not parse the kinds list out of storage_backend_names() "
            "in src/runtime/storage_config.cpp — either the function moved "
            "or the parser regressed"
        )
        return set()
    return set(re.findall(r"\"([^\"]+)\"", m.group(1)))


def check_storage_backend_coverage() -> None:
    """Every accepted backend kind appears in a storage-labelled test."""
    kinds = storage_backend_kinds()
    if not kinds:
        return

    cmake = REPO / "tests" / "CMakeLists.txt"
    storage_tests: set[str] = set()
    for m in re.finditer(r"set_tests_properties\(([^)]*)\)",
                         cmake.read_text()):
        block = m.group(1)
        lm = re.search(r"LABELS\s+\"([^\"]+)\"", block)
        if not lm or "storage" not in lm.group(1).split(";"):
            continue
        head = block[: block.find("PROPERTIES")]
        storage_tests |= set(head.split())
    if not storage_tests:
        fail(
            "no test in tests/CMakeLists.txt carries the \"storage\" label "
            "— `ctest -L storage` and its CI step would run zero tests"
        )
        return

    corpus = ""
    for name in sorted(storage_tests):
        src = REPO / "tests" / f"{name}.cpp"
        if not src.exists():
            fail(
                f"tests/CMakeLists.txt labels '{name}' with \"storage\" but "
                f"tests/{name}.cpp does not exist"
            )
            continue
        corpus += src.read_text()
    for kind in sorted(kinds):
        # The kind must appear as a string literal somewhere in a
        # storage-labelled suite (config parse, factory dispatch, or both).
        if f'"{kind}"' not in corpus:
            fail(
                f"storage backend kind '{kind}' (accepted by "
                f"storage_backend_names()) never appears in any "
                f"storage-labelled test — a config could select an "
                f"untested backend"
            )


DISPATCH_HEADER = "util/kernel_dispatch.hpp"
DISPATCH_MACRO_RE = re.compile(r"\bMLPO_KERNEL_CLONES\b")


def check_kernel_dispatch() -> None:
    src = REPO / "src"
    for root in ("src", "tests", "bench", "examples", "benchmark"):
        for path in sorted((REPO / root).rglob("*")):
            if path.suffix not in (".hpp", ".cpp") or not path.is_file():
                continue
            text = path.read_text()
            rel = path.relative_to(REPO).as_posix()
            if (re.search(r"#\s*define\s+MLPO_KERNEL_CLONES\b", text)
                    and rel != f"src/{DISPATCH_HEADER}"):
                fail(
                    f"{rel} defines MLPO_KERNEL_CLONES — the dispatch macro "
                    f"has one definition, in src/{DISPATCH_HEADER}"
                )

    cmake = src / "CMakeLists.txt"
    no_contract: set[str] = set()
    for m in re.finditer(r"set_source_files_properties\(([^)]*)\)",
                         cmake.read_text()):
        block = m.group(1)
        if "-ffp-contract=off" in block and "PROPERTIES" in block:
            no_contract |= set(block[: block.find("PROPERTIES")].split())

    users = 0
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp") or not path.is_file():
            continue
        rel = path.relative_to(src).as_posix()
        if rel == DISPATCH_HEADER or not DISPATCH_MACRO_RE.search(
                path.read_text()):
            continue
        users += 1
        if path.suffix != ".cpp":
            fail(
                f"src/{rel} uses MLPO_KERNEL_CLONES in a header — its "
                f"clones would compile in every includer, whose flags "
                f"src/CMakeLists.txt does not control; keep cloned kernels "
                f"in .cpp files"
            )
        elif rel not in no_contract:
            fail(
                f"src/{rel} uses MLPO_KERNEL_CLONES but src/CMakeLists.txt "
                f"does not compile it with -ffp-contract=off — its FMA "
                f"clones may fuse a*b+c and change the golden digests"
            )
    if users == 0:
        fail(
            "no src/ file uses MLPO_KERNEL_CLONES — either the kernels "
            "moved or the check regressed"
        )


def check_register_all(cases: dict[str, dict]) -> None:
    reg = REPO / "bench" / "harness" / "register_all.cpp"
    if not reg.exists():
        fail("missing bench/harness/register_all.cpp")
        return
    text = reg.read_text()
    registering_files = {c["file"].stem for c in cases.values()}
    for stem in sorted(registering_files):
        # register_all calls one registration function per bench TU; match
        # by the TU's stem (e.g. fig01_memory_wall -> register_fig01...()).
        if stem not in text:
            fail(
                f"bench/{stem}.cpp defines a BenchCase but register_all.cpp "
                f"never references '{stem}' — the case will never register"
            )


def main() -> int:
    cases = parse_bench_cases()
    if not cases:
        fail("parsed zero BenchCase registrations from bench/*.cpp — "
             "either the bench tree moved or the parser regressed")
    check_smoke_baselines(cases)
    check_ci_labels()
    check_register_all(cases)
    check_header_includers()
    check_tenancy_suites(cases)
    check_storage_backend_coverage()
    check_kernel_dispatch()
    check_engine_io_contract()
    check_engine_base_owns_the_step()
    check_no_subgroup_staging_copies()
    check_report_members_have_readers()

    if FAILURES:
        print(f"check_invariants: {len(FAILURES)} failure(s)", file=sys.stderr)
        for msg in FAILURES:
            print(f"  * {msg}", file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({len(cases)} bench cases checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
