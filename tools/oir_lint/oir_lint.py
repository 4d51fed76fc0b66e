#!/usr/bin/env python3
"""Project lint for the OIR tree (stdlib only; no compiler needed).

Enforced rules, each backed by a stronger mechanism where one exists:

  raw-sync        Raw std synchronization types (std::mutex, std::shared_mutex,
                  std::condition_variable, std::lock_guard, std::unique_lock,
                  std::scoped_lock, std::shared_lock) may appear only inside
                  src/sync — everything else must use the capability-annotated
                  wrappers (sync/mutex.h) so clang -Wthread-safety sees every
                  critical section.
  nodiscard       util/status.h must keep Status marked [[nodiscard]] (the
                  compiler then flags every silently-discarded error).
  no-sleep        No sleep calls in src/ outside src/testing: production code
                  waits on condition variables, not timers.
  sync-call       Direct Disk::Sync() calls may appear only inside
                  src/storage, src/wal, and src/testing. Everywhere else a
                  synchronous device barrier on the calling thread defeats
                  the pipelined durable path — route durability through
                  LogManager::FlushTo (WAL) or the BufferManager write-back
                  worker (data pages) instead.
  wait-scope      Condition-variable waits (.Wait / .WaitFor / .WaitUntil)
                  outside src/sync must be attributed for the wait-state
                  profiler: either an obs::WaitScope on the same or one of the
                  10 preceding lines, or a `// wait-state: <why>` comment on
                  the wait line or at most 2 lines above it marking the wait
                  as a background/idle wait that is deliberately unattributed.
  crash-point     OIR_CRASH_POINT must be a whole, unconditional statement —
                  not folded into an if/else/loop header or hanging off an
                  unbraced conditional, where a refactor can silently skip the
                  crash site the fault sweep depends on.
  include-guard   Headers under src/ use #ifndef OIR_<PATH>_H_ guards derived
                  from their path.
  own-header      foo.cc includes "foo.h" first, proving every header is
                  self-contained.
  env-read        getenv in src/ reads only the names ENV_ALLOWED lists for
                  its file: deployment paths and the CI hooks. A new
                  environment variable is a new option; give it a measured
                  reason and list it here, or make it a constant.

Exit status: 0 when clean, 1 when any finding is reported.
"""

import re
import sys
from pathlib import Path

RAW_SYNC = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_(?:mutex|timed_mutex|lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock)\b"
)
SLEEP = re.compile(
    r"std::this_thread::sleep_(?:for|until)\b|\busleep\s*\(|\bnanosleep\s*\("
)
SYNC_CALL = re.compile(r"(?:->|\.)\s*Sync\s*\(\s*\)")
WAIT_CALL = re.compile(r"(?:->|\.)\s*(?:Wait(?:For|Until)?|wait(?:_for|_until)?)\s*\(")
GETENV = re.compile(r"\bgetenv\s*\(")
GETENV_NAME = re.compile(r"\s*\"([A-Za-z0-9_]+)\"\s*\)")
ENV_ALLOWED = {
    "src/core/db.cc": {"OIR_TEST_WAL", "TMPDIR", "OIR_STATS_PUBLISH"},
    "src/obs/flight_recorder.cc": {"OIR_FLIGHT_DIR", "TMPDIR"},
    "src/wal/log_manager.cc": {"OIR_WAL_SYNC"},
}
COND_TAIL = re.compile(r"^\s*(?:if|else if|while|for)\s*\([^{]*\)\s*$|^\s*else\s*$")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(q + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def guard_for(header, src_root):
    rel = header.relative_to(src_root)
    return "OIR_" + re.sub(r"[./]", "_", str(rel)).upper() + "_"


def lint_file(path, src_root, findings):
    raw = path.read_text(encoding="utf-8", errors="replace")
    text = strip_comments_and_strings(raw)
    lines = text.splitlines()
    raw_lines = raw.splitlines()
    rel = path.relative_to(src_root.parent)
    in_sync = str(rel).startswith("src/sync/")
    in_testing = str(rel).startswith("src/testing/")
    sync_ok = in_testing or str(rel).startswith(("src/storage/", "src/wal/"))

    for idx, line in enumerate(lines, 1):
        for m in GETENV.finditer(line):
            # The name is a string literal, blanked in `line`; read it from
            # the raw line at the same column.
            name = GETENV_NAME.match(raw_lines[idx - 1], m.end())
            allowed = ENV_ALLOWED.get(str(rel), set())
            if name is None or name.group(1) not in allowed:
                what = name.group(1) if name else "a non-literal name"
                findings.append(
                    f"{rel}:{idx}: env-read: getenv of {what} is not listed "
                    f"for this file in ENV_ALLOWED; make it a constant"
                )
        if not in_sync and RAW_SYNC.search(line):
            findings.append(
                f"{rel}:{idx}: raw-sync: raw std synchronization type; "
                f"use the annotated wrappers in sync/mutex.h"
            )
        if not in_testing and SLEEP.search(line):
            findings.append(
                f"{rel}:{idx}: no-sleep: sleeping in production code; "
                f"wait on a CondVar instead"
            )
        if not sync_ok and SYNC_CALL.search(line):
            findings.append(
                f"{rel}:{idx}: sync-call: direct Disk::Sync() outside the "
                f"storage/WAL write-back internals; use LogManager::FlushTo "
                f"or the write-back worker"
            )
        if not in_sync and WAIT_CALL.search(line):
            # Attributed: a WaitScope opened on this or one of the 10
            # preceding (comment-stripped) lines. Exempt: an explicit
            # `wait-state:` comment on the wait line or <= 2 raw lines
            # above, marking a background/idle wait.
            scoped = any(
                "WaitScope" in lines[j] for j in range(max(0, idx - 11), idx)
            )
            noted = any(
                "wait-state:" in raw_lines[j]
                for j in range(max(0, idx - 3), idx)
            )
            if not scoped and not noted:
                findings.append(
                    f"{rel}:{idx}: wait-scope: naked CV wait; wrap in "
                    f"obs::WaitScope (attributed wait) or mark with a "
                    f"'// wait-state: <why>' comment (background wait)"
                )
        col = line.find("OIR_CRASH_POINT")
        if col >= 0 and "#define" not in line:
            bad = line[:col].strip() != ""
            if not bad:
                for back in range(idx - 2, -1, -1):
                    prev = lines[back].strip()
                    if not prev:
                        continue
                    bad = bool(COND_TAIL.match(lines[back]))
                    break
            if bad:
                findings.append(
                    f"{rel}:{idx}: crash-point: OIR_CRASH_POINT must be a "
                    f"whole unconditional statement (brace the surrounding "
                    f"control flow)"
                )

    if path.suffix == ".h":
        want = guard_for(path, src_root)
        if f"#ifndef {want}" not in text:
            findings.append(
                f"{rel}:1: include-guard: expected '#ifndef {want}'"
            )
    elif path.suffix == ".cc":
        own = path.with_suffix(".h")
        if own.exists():
            m = re.search(r"^\s*#include\s+([<\"][^>\"]+[>\"])", raw, re.M)
            want = f'"{own.relative_to(src_root)}"'
            if m is None or m.group(1) != want:
                findings.append(
                    f"{rel}:1: own-header: first include must be {want}"
                )


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[2]
    src_root = root / "src"
    findings = []

    status_h = src_root / "util" / "status.h"
    if "class [[nodiscard]] Status" not in status_h.read_text():
        findings.append(
            "src/util/status.h:1: nodiscard: Status must stay [[nodiscard]]"
        )

    for path in sorted(src_root.rglob("*")):
        if path.suffix in (".h", ".cc"):
            lint_file(path, src_root, findings)

    for f in findings:
        print(f)
    print(f"oir_lint: {len(findings)} finding(s) in {root}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
