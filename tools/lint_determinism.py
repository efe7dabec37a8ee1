#!/usr/bin/env python3
"""Determinism linter: repo-specific invariants no off-the-shelf tool knows.

The repo's headline guarantees are bit-identity guarantees: placements at
any thread count, journal replay, hop-query answers. They survive only while
no code path lets an implementation-defined order leak into committed
state, serialized output, or metrics/report export order. This linter
rejects, at lint time, the constructs that historically break that:

  unordered-iter    iterating a std::unordered_{map,set,multimap,multiset}
                    (hash order is implementation- and address-dependent;
                    lookups are fine, iteration feeds order into whatever
                    consumes it — sort into a vector or use std::map).
  fp-accum-order    accumulation (`+=`, `-=`, `*=`, std::accumulate,
                    std::reduce) over an unordered container: FP addition
                    is not associative, so hash order changes the bits.
                    The journal replays residuals verbatim precisely
                    because capacity arithmetic is order-sensitive.
  unseeded-random   std::random_device, rand()/srand(), std::time(...),
                    system_clock — entropy or wall-clock reaching
                    algorithm decisions breaks replay. Exempt: bench/
                    (timing harnesses) and util/timer.h (the one sanctioned
                    clock wrapper; note trace timestamps use steady_clock,
                    which is allowed — it never feeds committed state).
  ptr-key           std::map/std::set keyed by a pointer: ordered by
                    allocation addresses, i.e. by malloc history — a
                    different run, ASLR seed, or allocator reorders it.
                    Key by a stable id instead.
  bare-mutex        std::mutex / std::lock_guard / std::scoped_lock /
                    std::unique_lock / std::condition_variable named
                    outside util/thread_annotations.h: the std types carry
                    no capability attributes, so they silently opt out of
                    the clang -Wthread-safety analysis. Use util::Mutex,
                    util::LockGuard, util::CondVar. (src/ only; tests and
                    benches may use the std types.)

Escape hatch — when the construct is deliberate, annotate the offending
line (or the line directly above it):

    // lint-determinism: allow(unordered-iter) merged into a std::map below

The rule list is mandatory and the trailing rationale must be non-empty.
Stale allows are themselves findings (`unused-allow`), so suppressions
cannot outlive the code they excuse.

Known limitations (kept deliberately regex-simple; the fixture corpus in
tests/lint_fixtures/ is the contract): declarations behind type aliases or
`auto` returns are not resolved; member declarations are resolved across a
file's own .h/.cpp pair only.

Usage:
  lint_determinism.py                 # lint the repo's src/ tree
  lint_determinism.py PATH...         # lint specific files or directories
  lint_determinism.py --self-test     # run the fixture corpus (ctest runs this)
  lint_determinism.py --list-rules

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

RULES = {
    "unordered-iter":
        "iteration over an unordered container leaks hash order",
    "fp-accum-order":
        "accumulation over unordered iteration is order-sensitive",
    "unseeded-random":
        "unseeded entropy / wall clock reaches algorithm code",
    "ptr-key":
        "ordered container keyed by pointer orders by allocation address",
    "bare-mutex":
        "bare std lock primitive bypasses thread-safety annotations",
    "unused-allow":
        "allow() comment suppresses nothing on this or the next line",
}

ALLOW_RE = re.compile(
    r"//\s*lint-determinism:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)"
    r"\s*(\S.*)?$")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
ORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<")
RANDOM_RES = [
    re.compile(r"\brandom_device\b"),
    re.compile(r"(?<![\w.:>])s?rand\s*\("),
    re.compile(r"(?<![\w.:>])time\s*\(\s*(?:0|NULL|nullptr|&)"),
    re.compile(r"\bstd\s*::\s*time\s*\("),
    re.compile(r"\bsystem_clock\b"),
]
BARE_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|timed_|shared_)?mutex\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
    r"|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|^[ \t]*#[ \t]*include[ \t]*<(?:mutex|shared_mutex|condition_variable)>",
    re.MULTILINE)
ACCUM_RE = re.compile(r"(?<![=<>!+\-*/])(?:\+=|-=|\*=)(?!=)")
STD_FOLD_RE = re.compile(r"\bstd\s*::\s*(?:accumulate|reduce)\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str


@dataclass
class Allow:
    line: int
    rules: tuple
    used: bool = False


@dataclass
class FileSource:
    """One file with comments/strings blanked (line structure preserved)."""
    path: str
    raw_lines: list
    code: str                      # comment/string-stripped full text
    line_starts: list = field(default_factory=list)

    def line_of(self, offset: int) -> int:
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals; newlines survive."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw strings R"delim(...)delim" need their own scan.
                if out and out[-1] == "R" and (len(out) < 2 or
                                              not out[-2].strip()):
                    m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                    if m:
                        close = ")" + m.group(1) + '"'
                        end = text.find(close, i + len(m.group(0)) - 1)
                        end = n if end < 0 else end + len(close)
                        skipped = text[i:end]
                        out.append("".join(
                            ch if ch == "\n" else " " for ch in skipped))
                        i = end
                        continue
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
            elif (state == "string" and c == '"') or (state == "char"
                                                      and c == "'"):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def load_source(path: str) -> FileSource:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    src = FileSource(path=path, raw_lines=text.splitlines(),
                     code=strip_comments_and_strings(text))
    offset = 0
    for line in src.code.splitlines(keepends=True):
        src.line_starts.append(offset)
        offset += len(line)
    if not src.line_starts:
        src.line_starts.append(0)
    return src


def balance(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index just past the matching close for the open at `start`."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def parse_allows(src: FileSource) -> list:
    allows = []
    for idx, line in enumerate(src.raw_lines):
        m = ALLOW_RE.search(line)
        if m is None:
            if "lint-determinism" in line:
                allows.append(Allow(line=idx + 1, rules=("<malformed>",)))
            continue
        rules = tuple(r.strip() for r in m.group(1).split(","))
        rationale = (m.group(2) or "").strip()
        bad = [r for r in rules if r not in RULES]
        if bad or not rationale:
            allows.append(Allow(line=idx + 1, rules=("<malformed>",)))
        else:
            allows.append(Allow(line=idx + 1, rules=rules))
    return allows


def unordered_vars(src: FileSource) -> dict:
    """Variable name -> declaration line for unordered-container decls."""
    names = {}
    for m in UNORDERED_DECL_RE.finditer(src.code):
        lt = src.code.index("<", m.end() - 1)
        end = balance(src.code, lt, "<", ">")
        rest = src.code[end:end + 160]
        im = re.match(r"\s*[&*]{0,2}\s*(?:const\s+)?([A-Za-z_]\w*)", rest)
        if im and im.group(1) not in ("const", "final", "override"):
            names[im.group(1)] = src.line_of(end + im.start(1))
    return names


def loop_body_span(src: FileSource, for_start: int) -> tuple:
    """(start, end) offsets of the body of the `for` starting at for_start."""
    paren = src.code.find("(", for_start)
    if paren < 0:
        return (for_start, for_start)
    after = balance(src.code, paren, "(", ")")
    m = re.match(r"\s*", src.code[after:])
    body_start = after + m.end()
    if body_start < len(src.code) and src.code[body_start] == "{":
        return (body_start, balance(src.code, body_start, "{", "}"))
    semi = src.code.find(";", body_start)
    return (body_start, len(src.code) if semi < 0 else semi + 1)


def scan_file(src: FileSource, *, src_scoped: bool) -> list:
    findings = []
    rel = src.path.replace(os.sep, "/")
    names = dict(unordered_vars(src))

    # Members declared in the paired header are visible to this .cpp.
    stem, ext = os.path.splitext(src.path)
    if ext in (".cc", ".cpp"):
        for hext in (".h", ".hpp"):
            header = stem + hext
            if os.path.isfile(header):
                for name, _ in unordered_vars(load_source(header)).items():
                    names.setdefault(name, 0)

    # --- unordered-iter + fp-accum-order ---
    iter_sites = []  # (offset, varname, via)
    for name in names:
        pat = re.compile(
            r"for\s*\([^;()]*?:\s*(?:\*\s*)?(?:this\s*->\s*)?" +
            re.escape(name) + r"\s*\)")
        for m in pat.finditer(src.code):
            iter_sites.append((m.start(), name, "range-for"))
        pat = re.compile(r"\b(?:this\s*->\s*)?" + re.escape(name) +
                         r"\s*\.\s*c?r?begin\s*\(")
        for m in pat.finditer(src.code):
            iter_sites.append((m.start(), name, "iterator"))
    for offset, name, via in sorted(iter_sites):
        findings.append(Finding(
            src.path, src.line_of(offset), "unordered-iter",
            f"{via} over unordered container `{name}` leaks hash order; "
            "sort keys into a vector (or use std::map) before this order "
            "can feed committed state, serialized output, or metrics "
            "export"))
        if via == "range-for":
            body = loop_body_span(src, offset)
            for am in ACCUM_RE.finditer(src.code, body[0], body[1]):
                findings.append(Finding(
                    src.path, src.line_of(am.start()), "fp-accum-order",
                    f"accumulation inside iteration over `{name}`: hash "
                    "order changes FP results bit-for-bit (and any "
                    "non-commutative fold); accumulate over a sorted view"))
    for m in STD_FOLD_RE.finditer(src.code):
        arg = src.code[m.end():m.end() + 120]
        am = re.match(r"\s*(?:this\s*->\s*)?([A-Za-z_]\w*)\s*\.\s*c?begin",
                      arg)
        if am and am.group(1) in names:
            findings.append(Finding(
                src.path, src.line_of(m.start()), "fp-accum-order",
                f"std::accumulate/std::reduce over unordered container "
                f"`{am.group(1)}`: fold order follows hash order"))

    # --- unseeded-random ---
    exempt_random = ("/bench/" in f"/{rel}" or rel.startswith("bench/")
                     or rel.endswith("util/timer.h"))
    if not exempt_random:
        for pat in RANDOM_RES:
            for m in pat.finditer(src.code):
                findings.append(Finding(
                    src.path, src.line_of(m.start()), "unseeded-random",
                    "entropy/wall-clock source in algorithm code breaks "
                    "seeded replay; thread a util::Rng (or util/timer.h "
                    "for durations) instead"))

    # --- ptr-key ---
    for m in ORDERED_DECL_RE.finditer(src.code):
        lt = src.code.index("<", m.end() - 1)
        end = balance(src.code, lt, "<", ">")
        inner = src.code[lt + 1:end - 1]
        depth = 0
        key = inner
        for i, ch in enumerate(inner):
            if ch in "<(":
                depth += 1
            elif ch in ">)":
                depth -= 1
            elif ch == "," and depth == 0:
                key = inner[:i]
                break
        if "*" in key:
            findings.append(Finding(
                src.path, src.line_of(m.start()), "ptr-key",
                "ordered container keyed by a pointer iterates in "
                "allocation-address order; key by a stable id"))

    # --- bare-mutex (src/ only; thread_annotations.h is the one home) ---
    if src_scoped and not rel.endswith("util/thread_annotations.h"):
        for m in BARE_MUTEX_RE.finditer(src.code):
            findings.append(Finding(
                src.path, src.line_of(m.start()), "bare-mutex",
                "std lock primitives carry no capability attributes and "
                "opt out of -Wthread-safety; use util::Mutex / "
                "util::LockGuard / util::CondVar "
                "(util/thread_annotations.h)"))
    return findings


def apply_allows(findings: list, allows: list, path: str) -> list:
    kept = []
    for f in findings:
        suppressed = False
        for a in allows:
            if a.rules == ("<malformed>",):
                continue
            if f.rule in a.rules and f.line in (a.line, a.line + 1):
                a.used = True
                suppressed = True
        if not suppressed:
            kept.append(f)
    for a in allows:
        if a.rules == ("<malformed>",):
            kept.append(Finding(
                path, a.line, "unused-allow",
                "malformed lint-determinism comment: need "
                "`// lint-determinism: allow(<rule>[,<rule>]) <why>` with "
                "known rules and a non-empty rationale"))
        elif not a.used:
            kept.append(Finding(
                path, a.line, "unused-allow",
                f"allow({','.join(a.rules)}) suppresses nothing on this "
                "or the next line; delete the stale suppression"))
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def lint_file(path: str, *, force_src: bool = False) -> list:
    rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    src_scoped = force_src or rel.startswith("src/") or "/src/" in rel
    src = load_source(path)
    return apply_allows(scan_file(src, src_scoped=src_scoped),
                       parse_allows(src), path)


def collect_paths(paths: list) -> list:
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                if os.path.abspath(root).startswith(FIXTURE_DIR):
                    continue
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print(f"lint_determinism: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def run_self_test() -> int:
    """Golden corpus: every fixture declares its expected findings inline
    with `// expect(<rule>)` markers; the linter must produce exactly that
    multiset of (line, rule) pairs per fixture."""
    if not os.path.isdir(FIXTURE_DIR):
        print(f"lint_determinism: fixture dir missing: {FIXTURE_DIR}",
              file=sys.stderr)
        return 2
    expect_re = re.compile(r"\bexpect\(([a-z-]+)\)")
    failures = 0
    fixtures = []
    for root, _, names in os.walk(FIXTURE_DIR):
        for name in sorted(names):
            if name.endswith(SOURCE_EXTENSIONS):
                fixtures.append(os.path.join(root, name))
    if not fixtures:
        print("lint_determinism: fixture dir is empty", file=sys.stderr)
        return 2
    for path in sorted(fixtures):
        expected = []
        with open(path, encoding="utf-8") as f:
            for idx, line in enumerate(f):
                _, _, comment = line.partition("//")
                for m in expect_re.finditer(comment):
                    expected.append((idx + 1, m.group(1)))
        got = [(f.line, f.rule) for f in lint_file(path, force_src=True)]
        if sorted(got) != sorted(expected):
            failures += 1
            rel = os.path.relpath(path, REPO_ROOT)
            print(f"FAIL {rel}")
            for item in sorted(set(expected) - set(got)):
                print(f"  missing: line {item[0]} [{item[1]}]")
            for item in sorted(set(got) - set(expected)):
                print(f"  spurious: line {item[0]} [{item[1]}]")
        else:
            print(f"ok   {os.path.relpath(path, REPO_ROOT)}")
    print(f"self-test: {len(fixtures) - failures}/{len(fixtures)} fixtures")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: repo src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate against the fixture corpus")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule:16} {summary}")
        return 0
    if args.self_test:
        return run_self_test()

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    findings = []
    files = collect_paths(paths)
    for path in files:
        findings.extend(lint_file(path))
    for f in findings:
        rel = os.path.relpath(f.path, os.getcwd())
        print(f"{rel}:{f.line}: [{f.rule}] {f.message}")
    print(f"lint_determinism: {len(findings)} finding(s) in "
          f"{len(files)} file(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
