#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation set.

Scans every tracked .md file for inline links/images `[text](target)` and
verifies that each RELATIVE target exists (file or directory), resolving
it against the file that contains the link. Fragments (`file.md#anchor`)
are checked for file existence only; external schemes (http/https/mailto)
and pure in-page anchors (`#section`) are skipped.

It also checks backticked repo paths: an inline code span whose first word
starts with one of PATH_ROOTS must name a path that exists, resolved
against the repo root or the markdown file's directory. A `:line` or
`::TestName` suffix is stripped, `{a,b}` alternatives must each exist, a
`*` pattern must match something, and a bench, example or test binary name
passes when its `.cpp` exists. Spans with `<placeholder>`s are skipped.
Paths are checked in every markdown file below the root and in the root
files of ROOT_DOCS; the other root files are history (CHANGES.md), paper
notes and quotations of other repositories (SNIPPETS.md), which may name
paths that do not exist in this tree.

Exit status: 0 when all links and paths resolve, 1 with one line per
broken one otherwise. No third-party dependencies.
"""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

# Inline links: [text](target "optional title"). Deliberately simple —
# good enough for this repo's docs; fenced code blocks are stripped first.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^(```|~~~)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

CODE_SPAN_RE = re.compile(r"`([^`]+)`")
BRACE_RE = re.compile(r"\{([^{}]*)\}")
PATH_ROOTS = ("src/", "tests/", "bench/", "tools/", "docs/", "examples/",
              "perfbench/")
ROOT_DOCS = {"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md",
             "ROADMAP.md"}


def tracked_markdown(root: Path) -> list[Path]:
    try:
        out = subprocess.run(
            ["git", "ls-files", "--cached", "--others", "--exclude-standard",
             "*.md", "**/*.md"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout
        files = [root / line for line in out.splitlines() if line]
        if files:
            return files
    except (subprocess.CalledProcessError, FileNotFoundError):
        pass
    return [p for p in root.rglob("*.md")
            if not any(part in ("build", "build-noobs", ".git")
                       for part in p.parts)]


def expand_braces(path: str) -> list[str]:
    match = BRACE_RE.search(path)
    if match is None:
        return [path]
    out = []
    for alt in match.group(1).split(","):
        out.extend(expand_braces(path[:match.start()] + alt +
                                 path[match.end():]))
    return out


def repo_path_exists(path: str, bases: list[Path]) -> bool:
    for base in bases:
        if "*" in path:
            if next(base.glob(path), None) is not None:
                return True
        elif (base / path).exists() or (base / (path + ".cpp")).exists():
            return True  # a binary is named after its .cpp
    return False


def broken_repo_paths(line: str, bases: list[Path]) -> list[str]:
    broken = []
    for match in CODE_SPAN_RE.finditer(line):
        words = match.group(1).split()
        if not words or not words[0].startswith(PATH_ROOTS):
            continue
        if "<" in match.group(1):
            continue  # a <placeholder>, not a concrete path
        path = words[0].split(":", 1)[0]
        if not all(repo_path_exists(p, bases) for p in expand_braces(path)):
            broken.append(words[0])
    return broken


def check_file(md: Path, root: Path) -> list[str]:
    errors = []
    in_fence = False
    check_paths = md.parent != root or md.name in ROOT_DOCS
    bases = [root, md.parent]
    for lineno, line in enumerate(
            md.read_text(encoding="utf-8").splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            base = root if path_part.startswith("/") else md.parent
            resolved = (base / path_part.lstrip("/")).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(root)}:{lineno}: broken link "
                    f"-> {target}")
        if check_paths:
            for path in broken_repo_paths(line, bases):
                errors.append(
                    f"{md.relative_to(root)}:{lineno}: missing repo path "
                    f"-> {path}")
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors: list[str] = []
    files = tracked_markdown(root)
    for md in files:
        errors.extend(check_file(md, root))
    if errors:
        print("\n".join(errors))
        print(f"\n{len(errors)} broken link(s) or path(s) across "
              f"{len(files)} files")
        return 1
    print(f"all links and repo paths OK across {len(files)} markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
