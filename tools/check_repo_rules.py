#!/usr/bin/env python3
"""Repo-specific concurrency/correctness lint rules (the grep-level half of
tools/run_lint.sh; clang-tidy is the AST-level half).

Rules enforced (each with an error code, listed per finding):

  NAKED_SYNC     src/ must not use std::mutex / std::condition_variable /
                 std::lock_guard / std::unique_lock / std::scoped_lock
                 outside src/util/thread_annotations.h. The annotated
                 naru::Mutex / naru::MutexLock / naru::CondVar wrappers are
                 the only sanctioned primitives — a naked std primitive is
                 invisible to the Clang thread-safety analysis
                 (-DNARU_THREAD_SAFETY=ON), so it would quietly bypass the
                 lock-discipline contract.

  IMPLICIT_ORDER Every std::atomic access in src/ must name its memory
                 order: load/store/fetch_*/exchange/compare_exchange with
                 an explicit std::memory_order argument plus a comment at
                 the declaration justifying the choice (the comment half
                 is reviewed, not machine-checked). Default seq_cst hides
                 the invariant the code actually relies on.

  VOID_CALL      src/serve and src/net must not (void)-discard a call
                 result. Status is [[nodiscard]] (NODISCARD rule below),
                 and a (void)-cast is the one spelling that silences it —
                 on a serving path a swallowed Status is a dropped error.
                 ((void)variable marks an intentionally-unused value and
                 stays legal; only (void)Call(...) is flagged.)

  NODISCARD      util/status.h must declare `class [[nodiscard]] Status`,
                 so ignoring a returned Status is a compiler warning
                 everywhere, not just where this script looks.

  NONDETERMINISM src/ and bench/ must not reach for ambient entropy or
                 wall-clock identity — rand/srand/std::random_device/
                 time(NULL)/localtime — anywhere results or BENCH_*.json
                 rows could inherit it. Benches are replayed against the
                 checked-in trajectory (tools/check_bench_regression.py),
                 which only works while runs are bit-reproducible from
                 NARU_SEED. (steady_clock/system_clock durations for
                 latency measurement are fine and not flagged.)

  WALK_CLOCK     src/core/ and src/plan/ must not call
                 steady_clock::now() or DeadlineExpired( directly. A walk
                 stops only through util/deadline.h's WalkControl, whose
                 check skips the clock (and the latch) when the walk has
                 no deadline; a direct clock read in a walk loop would
                 charge every deadline-free walk for it, and a second
                 expiry check could drift from the one latch every
                 sharer of the walk reads.

Exit status: 0 clean, 1 findings, 2 usage error. Findings print as
  <file>:<line>: [<RULE>] <message>
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CC_EXTS = {".cc", ".h", ".cpp", ".hpp"}

# -- NAKED_SYNC ------------------------------------------------------------
NAKED_SYNC_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
NAKED_SYNC_ALLOW = {Path("src/util/thread_annotations.h")}

# -- IMPLICIT_ORDER --------------------------------------------------------
# An atomic access spelled without a memory_order argument. Matched
# textually: .load() / .store(x) / ->load() etc. with no
# "memory_order" inside the argument list on the same statement.
ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|"
    r"fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)

# -- VOID_CALL -------------------------------------------------------------
# (void)Identifier( — a discarded call. (void)identifier; (a variable) is
# allowed.
VOID_CALL_RE = re.compile(r"\(void\)\s*[A-Za-z_][A-Za-z0-9_:.\->]*\s*\(")

# -- WALK_CLOCK ------------------------------------------------------------
WALK_CLOCK_RE = re.compile(
    r"steady_clock\s*::\s*now\s*\(|\bDeadlineExpired\s*\("
)
WALK_CLOCK_DIRS = {("src", "core"), ("src", "plan")}

# -- NONDETERMINISM --------------------------------------------------------
NONDET_RE = re.compile(
    r"\b(std::random_device|srand\s*\(|(?<![\w:])rand\s*\(\s*\)|"
    r"time\s*\(\s*(NULL|nullptr|0)\s*\)|localtime\s*\()"
)


def stripped_lines(path: Path):
    """Yields (lineno, code) with line comments, block comments, and string
    literal CONTENTS removed (so commented-out or quoted mentions of a
    primitive never trip a rule)."""
    text = path.read_text(encoding="utf-8", errors="replace")
    out_lines = []
    in_block = False
    for raw in text.splitlines():
        line = []
        i = 0
        n = len(raw)
        in_str = None  # the quote char when inside a literal
        while i < n:
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_str:
                if ch == "\\":
                    i += 2
                    continue
                if ch == in_str:
                    in_str = None
                    line.append(ch)
                i += 1
                continue
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                in_str = ch
                line.append(ch)
                i += 1
                continue
            line.append(ch)
            i += 1
        out_lines.append("".join(line))
    return list(enumerate(out_lines, start=1))


def balanced_call_args(lines, start_idx, open_pos):
    """Joins lines from the '(' at (start_idx, open_pos) until its matching
    ')' (bounded lookahead) so multi-line calls are matched whole."""
    depth = 0
    collected = []
    for k in range(start_idx, min(start_idx + 6, len(lines))):
        seg = lines[k][1][open_pos if k == start_idx else 0:]
        for pos, ch in enumerate(seg):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    collected.append(seg[: pos + 1])
                    return "".join(collected)
        collected.append(seg)
        open_pos = 0
    return "".join(collected)


def main() -> int:
    findings = []

    def finding(path, lineno, rule, msg):
        findings.append(f"{path.relative_to(REPO)}:{lineno}: [{rule}] {msg}")

    src_files = sorted(p for p in (REPO / "src").rglob("*") if p.suffix in CC_EXTS)
    bench_files = sorted(
        p for p in (REPO / "bench").rglob("*") if p.suffix in CC_EXTS
    )
    serve_net_files = [
        p
        for p in src_files
        if p.relative_to(REPO).parts[:2] in {("src", "serve"), ("src", "net")}
    ]

    # NAKED_SYNC + IMPLICIT_ORDER over src/.
    for path in src_files:
        rel = path.relative_to(REPO)
        lines = stripped_lines(path)
        for lineno, code in lines:
            if rel not in NAKED_SYNC_ALLOW:
                m = NAKED_SYNC_RE.search(code)
                if m:
                    finding(
                        path,
                        lineno,
                        "NAKED_SYNC",
                        f"naked {m.group(0)}; use naru::Mutex/MutexLock/CondVar "
                        "(util/thread_annotations.h) so the thread-safety "
                        "analysis sees it",
                    )
            for m in ATOMIC_CALL_RE.finditer(code):
                args = balanced_call_args(lines, lineno - 1, m.end() - 1)
                if "memory_order" not in args:
                    finding(
                        path,
                        lineno,
                        "IMPLICIT_ORDER",
                        f"atomic {m.group(1)}() without an explicit "
                        "std::memory_order argument",
                    )

    # VOID_CALL over src/serve + src/net.
    for path in serve_net_files:
        for lineno, code in stripped_lines(path):
            m = VOID_CALL_RE.search(code)
            if m:
                finding(
                    path,
                    lineno,
                    "VOID_CALL",
                    f"(void)-discarded call result `{m.group(0)}...`; handle "
                    "or propagate it (Status is [[nodiscard]] on purpose)",
                )

    # WALK_CLOCK over src/core + src/plan.
    for path in src_files:
        if path.relative_to(REPO).parts[:2] not in WALK_CLOCK_DIRS:
            continue
        for lineno, code in stripped_lines(path):
            m = WALK_CLOCK_RE.search(code)
            if m:
                finding(
                    path,
                    lineno,
                    "WALK_CLOCK",
                    f"direct `{m.group(0).strip()}` in a walk layer; check "
                    "a WalkControl (util/deadline.h) instead",
                )

    # NODISCARD on Status.
    status_h = REPO / "src" / "util" / "status.h"
    if not re.search(
        r"class\s+\[\[nodiscard\]\]\s+Status\b", status_h.read_text()
    ):
        finding(
            status_h,
            1,
            "NODISCARD",
            "util/status.h must declare `class [[nodiscard]] Status`",
        )

    # NONDETERMINISM over src/ + bench/.
    for path in src_files + bench_files:
        for lineno, code in stripped_lines(path):
            m = NONDET_RE.search(code)
            if m:
                finding(
                    path,
                    lineno,
                    "NONDETERMINISM",
                    f"ambient entropy/wall-clock identity `{m.group(0).strip()}`; "
                    "derive randomness from NARU_SEED via util Rng so runs "
                    "stay replayable against the checked-in trajectory",
                )

    if findings:
        print(f"check_repo_rules: {len(findings)} finding(s)", file=sys.stderr)
        for f in findings:
            print(f, file=sys.stderr)
        return 1
    print("check_repo_rules: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
