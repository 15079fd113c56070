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
     examples/ or benchmark/ other than its own .cpp, or an entry with a
     reason in HEADER_ALLOW_LIST. Tests alone do not count: a header only
     tests include is code the system does not use.
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


# Headers exempt from invariant 4, each with the reason it may stay
# without a non-test includer for now.
HEADER_ALLOW_LIST: dict[str, str] = {
    "telemetry/phase_timer.hpp": "pending ROADMAP item 4 (adopt or delete)",
    "telemetry/trace_csv.hpp": "pending ROADMAP item 4 (adopt or delete)",
}

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
        users = includers.get(rel, set()) - {header, own_cpp}
        if users:
            if rel in HEADER_ALLOW_LIST:
                fail(
                    f"src/{rel} is allow-listed in check_invariants.py but "
                    f"has an includer now ({sorted(users)[0].relative_to(REPO)})"
                    f" — drop the stale allow-list entry"
                )
            continue
        if rel not in HEADER_ALLOW_LIST:
            fail(
                f"src/{rel} has no includer in src/, bench/, examples/ or "
                f"benchmark/ besides its own .cpp — delete it, use it, or "
                f"allow-list it with a reason in HEADER_ALLOW_LIST"
            )
    for rel in sorted(HEADER_ALLOW_LIST):
        if not (src / rel).exists():
            fail(f"HEADER_ALLOW_LIST names src/{rel}, which does not exist")


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

    if FAILURES:
        print(f"check_invariants: {len(FAILURES)} failure(s)", file=sys.stderr)
        for msg in FAILURES:
            print(f"  * {msg}", file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({len(cases)} bench cases checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
