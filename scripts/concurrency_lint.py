#!/usr/bin/env python3
"""Project concurrency lint for the pcq codebase.

Enforces the concurrency conventions that generic tooling cannot see
(documented in docs/CORRECTNESS.md):

  atomic-order      every std::atomic member op (load/store/exchange/
                    fetch_*/compare_exchange_*) and every shared_ptr
                    atomic free function names an explicit memory_order
                    (std::atomic_load -> atomic_load_explicit etc.).
  epoll-thread      functions marked `// pcq:epoll-thread` never block:
                    no raw mutex/condvar tokens, no .wait()/.join(), no
                    sleep_for/sleep_until. util::MutexLock of a
                    short-critical-section mutex is allowed.
  lock-free         functions marked `// pcq:lock-free` take no lock at
                    all, util::MutexLock included.
  seqlock-reader    functions marked `// pcq:seqlock-reader` re-check the
                    sequence word (>= 2 seq reads: load, or fetch_add(0) /
                    fetch_or(0)) and carry at least one acquire (load,
                    acq_rel RMW or fence).
  epoch-published   a member marked `// pcq:epoch-published` is only
                    mutated through std::atomic_store_explicit /
                    atomic_exchange* — never plain `=`, .reset(), .swap().
  raw-mutex         src/{svc,net,dyn,obs,par} use util::Mutex /
                    util::MutexLock / util::CondVar (annotated for Clang
                    Thread Safety Analysis), not std::mutex and friends.
  trace-scope-arg   PCQ_TRACE_SCOPE argument expressions stay non-blocking
                    (they run on the hot path even when tracing is off at
                    runtime in PCQ_TRACE=ON builds).

The engine is token-based with balanced-parenthesis argument scanning, so
calls whose memory_order sits on a continuation line are parsed correctly
(a plain grep flags those as violations).  When python3-clang (libclang)
is available, `--use-libclang` re-verifies atomic-order findings against
real types and drops matches whose receiver is not a std::atomic; without
it the textual result is authoritative (this repo's naming keeps the two
in agreement).

Suppression: append `// pcq-lint: allow(<rule>)` on the offending line or
the line above it.

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --- rules -----------------------------------------------------------------

ATOMIC_MEMBER_OPS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_strong",
    "compare_exchange_weak",
)

# Tokens that block, or that re-introduce the unannotated locking types the
# capability wrappers replace.  Matched against comment/string-stripped text.
BLOCKING_TOKENS = (
    r"std::mutex\b",
    r"std::timed_mutex\b",
    r"std::shared_mutex\b",
    r"std::recursive_mutex\b",
    r"std::condition_variable\b",
    r"std::lock_guard\b",
    r"std::unique_lock\b",
    r"std::scoped_lock\b",
    r"\.\s*wait\s*\(",
    r"\.\s*wait_for\s*\(",
    r"\.\s*wait_until\s*\(",
    r"\.\s*join\s*\(",
    r"sleep_for\s*\(",
    r"sleep_until\s*\(",
)

# Everything in BLOCKING_TOKENS plus the annotated wrappers: a lock-free
# region takes no lock at all.
LOCKFREE_EXTRA_TOKENS = (
    r"util::Mutex\b",
    r"util::MutexLock\b",
    r"util::CondVar\b",
    r"MutexLock\s*\(",
)

RAW_MUTEX_TOKENS = (
    r"std::mutex\b",
    r"std::timed_mutex\b",
    r"std::shared_mutex\b",
    r"std::recursive_mutex\b",
    r"std::condition_variable\b",
    r"std::condition_variable_any\b",
    r"std::lock_guard\b",
    r"std::unique_lock\b",
    r"std::scoped_lock\b",
)

RAW_MUTEX_DIRS = ("src/svc", "src/net", "src/dyn", "src/obs", "src/par")
RAW_MUTEX_EXEMPT = ("src/util/thread_annotations.hpp",)

MARKER_RE = re.compile(
    r"//\s*pcq:(epoll-thread|lock-free|seqlock-reader|epoch-published)\b"
)
ALLOW_RE = re.compile(r"//\s*pcq-lint:\s*allow\(([a-z-]+)\)")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- source model ----------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Returns text of identical length/line structure with comment and
    string/char-literal *contents* blanked to spaces (newlines kept), so
    token scans never fire inside them and offsets stay valid."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


class Source:
    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.clean = strip_comments_and_strings(text)
        self.lines = text.split("\n")
        # Offsets of every line start, for offset -> line translation.
        self.line_starts = [0]
        for idx, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(idx + 1)

    def line_of(self, offset: int) -> int:
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def suppressed(self, line: int, rule: str) -> bool:
        for candidate in (line, line - 1):
            if 1 <= candidate <= len(self.lines):
                m = ALLOW_RE.search(self.lines[candidate - 1])
                if m and m.group(1) == rule:
                    return True
        return False


def balanced_args(clean: str, open_paren: int) -> tuple[str, int]:
    """Returns (argument text, offset past the closing paren) for the call
    whose '(' sits at open_paren. Tolerates unbalanced tails at EOF."""
    depth = 0
    i = open_paren
    n = len(clean)
    while i < n:
        c = clean[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return clean[open_paren + 1 : i], i + 1
        i += 1
    return clean[open_paren + 1 :], n


def function_body_span(clean: str, start: int) -> tuple[int, int]:
    """Span (open brace, past close brace) of the first function body at or
    after `start`: the first '{' not preceded by '=' or enclosed in parens
    on its statement. Heuristic: first top-level '{' after `start`."""
    i = clean.find("{", start)
    if i < 0:
        return (-1, -1)
    depth = 0
    n = len(clean)
    j = i
    while j < n:
        if clean[j] == "{":
            depth += 1
        elif clean[j] == "}":
            depth -= 1
            if depth == 0:
                return (i, j + 1)
        j += 1
    return (i, n)


# --- rule implementations --------------------------------------------------


def check_atomic_order(src: Source, findings: list[Finding]) -> None:
    clean = src.clean
    member_re = re.compile(
        r"\.\s*(" + "|".join(ATOMIC_MEMBER_OPS) + r")\s*\("
    )
    for m in member_re.finditer(clean):
        op = m.group(1)
        args, _ = balanced_args(clean, m.end() - 1)
        # store/exchange/fetch/compare take at least the value argument;
        # a bare load() has empty args. Either way the explicit order must
        # appear somewhere in the argument list.
        if "memory_order" in args:
            continue
        # Non-atomic receivers that share these method names: vector-ish
        # containers have none of them; std::function, streams none. The
        # only systematic overlap is weak_ptr::lock — not in this list —
        # and unique_lock::lock, which takes no dot-call args here. Keep a
        # guard for `.load(file)`-style I/O helpers by requiring the
        # receiver not end in a paren (method chaining is fine to flag).
        line = src.line_of(m.start())
        if src.suppressed(line, "atomic-order"):
            continue
        findings.append(
            Finding(
                src.path,
                line,
                "atomic-order",
                f".{op}() without an explicit std::memory_order",
            )
        )
    free_re = re.compile(
        r"\b(?:std::)?atomic_(load|store|exchange|compare_exchange_strong|"
        r"compare_exchange_weak)\s*\("
    )
    for m in free_re.finditer(clean):
        # atomic_load_explicit etc. end in _explicit and do not match the
        # `\s*\(` tail; re-verify to be safe.
        prefix_end = m.end() - len(m.group(0)) + len("atomic_") + len(m.group(1))
        if clean[m.start() : m.end()].rstrip("( \t\n").endswith("_explicit"):
            continue
        if clean[prefix_end : prefix_end + len("_explicit")] == "_explicit":
            continue
        line = src.line_of(m.start())
        if src.suppressed(line, "atomic-order"):
            continue
        findings.append(
            Finding(
                src.path,
                line,
                "atomic-order",
                f"std::atomic_{m.group(1)} — use the _explicit variant "
                "with a named memory_order",
            )
        )


def check_marked_regions(src: Source, findings: list[Finding]) -> None:
    for m in MARKER_RE.finditer(src.text):
        kind = m.group(1)
        if kind == "epoch-published":
            check_epoch_published(src, m.end(), findings)
            continue
        body_start, body_end = function_body_span(src.clean, m.end())
        if body_start < 0:
            continue
        body = src.clean[body_start:body_end]
        if kind == "epoll-thread":
            scan_tokens(
                src, body, body_start, BLOCKING_TOKENS, "epoll-thread",
                "blocking construct inside an epoll-thread function",
                findings,
            )
        elif kind == "lock-free":
            scan_tokens(
                src, body, body_start,
                BLOCKING_TOKENS + LOCKFREE_EXTRA_TOKENS, "lock-free",
                "lock taken inside a pcq:lock-free region", findings,
            )
        elif kind == "seqlock-reader":
            check_seqlock_reader(src, body, m, findings)


def scan_tokens(
    src: Source,
    body: str,
    body_offset: int,
    tokens: tuple[str, ...],
    rule: str,
    message: str,
    findings: list[Finding],
) -> None:
    for pattern in tokens:
        for tm in re.finditer(pattern, body):
            line = src.line_of(body_offset + tm.start())
            if src.suppressed(line, rule):
                continue
            findings.append(
                Finding(src.path, line, rule, f"{message}: `{tm.group(0).strip()}`")
            )


def check_seqlock_reader(
    src: Source, body: str, marker: re.Match, findings: list[Finding]
) -> None:
    line = src.line_of(marker.start())
    # A read of the sequence word is a load or a read-don't-modify-write
    # (fetch_add(0) / fetch_or(0)), the form TSan models without fences.
    seq_loads = len(
        re.findall(
            r"\bseq\w*\s*\.\s*(?:load\s*\(|fetch_(?:add|or)\s*\(\s*0\s*,)",
            body,
        )
    )
    acquires = len(re.findall(r"memory_order_acq(?:uire|_rel)", body))
    if seq_loads < 2 and not src.suppressed(line, "seqlock-reader"):
        findings.append(
            Finding(
                src.path, line, "seqlock-reader",
                f"seqlock reader loads the sequence word {seq_loads}x — "
                "must read it before AND after the field loads",
            )
        )
    if acquires < 1 and not src.suppressed(line, "seqlock-reader"):
        findings.append(
            Finding(
                src.path, line, "seqlock-reader",
                "seqlock reader has no memory_order_acquire (load or fence)",
            )
        )


def check_epoch_published(
    src: Source, marker_end: int, findings: list[Finding]
) -> None:
    """The marker comment precedes the member declaration. Extract the
    member name (last identifier before the terminating ';') and flag
    plain mutation of it anywhere in this file."""
    decl_end = src.clean.find(";", marker_end)
    if decl_end < 0:
        return
    decl = src.clean[marker_end:decl_end]
    idents = re.findall(r"[A-Za-z_]\w*", decl)
    if not idents:
        return
    name = idents[-1]
    mutation_re = re.compile(
        r"\b" + re.escape(name) + r"\s*(=(?![=])|\.\s*reset\s*\(|\.\s*swap\s*\()"
    )
    for m in mutation_re.finditer(src.clean):
        # The declaration itself (e.g. `StatePtr state_;`) has no mutation
        # tokens, and atomic_store_explicit(&state_, ...) passes a pointer,
        # never matching `state_ =` — so every match is a violation.
        line = src.line_of(m.start())
        if src.suppressed(line, "epoch-published"):
            continue
        findings.append(
            Finding(
                src.path, line, "epoch-published",
                f"`{name}` mutated without atomic_store_explicit/"
                "atomic_exchange (epoch-published pointer)",
            )
        )


def check_trace_scope_args(src: Source, findings: list[Finding]) -> None:
    clean = src.clean
    for m in re.finditer(r"\bPCQ_TRACE_SCOPE\s*\(", clean):
        args, _ = balanced_args(clean, m.end() - 1)
        for pattern in BLOCKING_TOKENS + LOCKFREE_EXTRA_TOKENS:
            for tm in re.finditer(pattern, args):
                line = src.line_of(m.start())
                if src.suppressed(line, "trace-scope-arg"):
                    continue
                findings.append(
                    Finding(
                        src.path, line, "trace-scope-arg",
                        "blocking/locking expression inside a "
                        f"PCQ_TRACE_SCOPE argument: `{tm.group(0).strip()}`",
                    )
                )


def check_raw_mutex(src: Source, findings: list[Finding]) -> None:
    rel = src.path.replace("\\", "/")
    if not any(d in rel for d in RAW_MUTEX_DIRS):
        return
    if any(rel.endswith(e) for e in RAW_MUTEX_EXEMPT):
        return
    scan_tokens(
        src, src.clean, 0, RAW_MUTEX_TOKENS, "raw-mutex",
        "raw standard-library lock type (use util::Mutex / util::MutexLock "
        "/ util::CondVar so Thread Safety Analysis sees it)", findings,
    )


# --- optional libclang refinement ------------------------------------------


def refine_with_libclang(
    findings: list[Finding], compile_commands_dir: str | None
) -> list[Finding]:
    """Re-verifies atomic-order findings with real type information when
    python3-clang is installed; other rules pass through unchanged.  A
    finding is dropped only when libclang positively resolves the receiver
    to a non-atomic type."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return findings

    try:
        index = cindex.Index.create()
    except Exception:
        return findings

    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        if f.rule == "atomic-order":
            by_file.setdefault(f.path, []).append(f)
    if not by_file:
        return findings

    db = None
    if compile_commands_dir and os.path.exists(
        os.path.join(compile_commands_dir, "compile_commands.json")
    ):
        try:
            db = cindex.CompilationDatabase.fromDirectory(compile_commands_dir)
        except Exception:
            db = None

    keep: set[tuple[str, int]] = set()
    for path, file_findings in by_file.items():
        args = ["-std=c++20", "-I", "src"]
        if db is not None:
            cmds = db.getCompileCommands(os.path.abspath(path))
            if cmds:
                raw = list(cmds[0].arguments)[1:-1]
                args = [a for a in raw if a != "-c" and a != path]
        try:
            tu = index.parse(path, args=args)
        except Exception:
            for f in file_findings:
                keep.add((f.path, f.line))
            continue
        atomic_call_lines: set[int] = set()
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind != cindex.CursorKind.CALL_EXPR:
                continue
            ref = cursor.referenced
            if ref is None or ref.spelling not in ATOMIC_MEMBER_OPS:
                continue
            parent = ref.semantic_parent
            if parent is not None and "atomic" in parent.spelling:
                if cursor.location.file and os.path.samefile(
                    cursor.location.file.name, path
                ):
                    atomic_call_lines.add(cursor.location.line)
        for f in file_findings:
            if f.line in atomic_call_lines or not atomic_call_lines:
                keep.add((f.path, f.line))

    return [
        f
        for f in findings
        if f.rule != "atomic-order" or (f.path, f.line) in keep
    ]


# --- driver ----------------------------------------------------------------


def lint_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    src = Source(path, text)
    findings: list[Finding] = []
    check_atomic_order(src, findings)
    check_marked_regions(src, findings)
    check_trace_scope_args(src, findings)
    check_raw_mutex(src, findings)
    return findings


def collect_files(roots: list[str]) -> list[str]:
    exts = (".hpp", ".cpp", ".h", ".cc")
    files: list[str] = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            for name in sorted(filenames):
                if name.endswith(exts):
                    files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src tools)",
    )
    parser.add_argument(
        "--use-libclang", action="store_true",
        help="re-verify atomic-order findings with libclang when available",
    )
    parser.add_argument(
        "--compile-commands", default="build",
        help="directory holding compile_commands.json for --use-libclang",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    args = parser.parse_args(argv)

    roots = args.paths or ["src", "tools"]
    for root in roots:
        if not os.path.exists(root):
            print(f"error: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for path in collect_files(roots):
        findings.extend(lint_file(path))

    if args.use_libclang:
        findings = refine_with_libclang(findings, args.compile_commands)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if not args.quiet:
        print(
            f"concurrency-lint: {len(findings)} finding(s) in "
            f"{len(collect_files(roots))} file(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
