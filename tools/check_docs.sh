#!/usr/bin/env bash
# Documentation checks, run by the `docs` CI job and locally:
#
#   1. clang -Wdocumentation over every public header — catches malformed
#      doc comments (bad \param names, broken continuation). Skipped with
#      a notice when clang is not installed (gcc has no equivalent).
#   2. tools/check_markdown_links.py — every relative markdown link must
#      resolve, and every backticked repo path (`src/...`, `tests/...`,
#      `bench/...`, ...) must exist.
#
# Usage: tools/check_docs.sh   (from anywhere; repo root is derived)
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
status=0

if command -v clang++ >/dev/null 2>&1; then
  echo "== clang -Wdocumentation over public headers =="
  headers=$(find "$root/src" -name '*.h' | sort)
  for h in $headers; do
    # -fsyntax-only: no objects produced; -Wno-everything then re-enable
    # just the documentation family so this pass only judges doc comments
    # (the normal build already enforces the full warning set with gcc).
    if ! clang++ -std=c++20 -fsyntax-only -I "$root/src" \
         -Wno-everything -Wdocumentation -Wdocumentation-pedantic \
         -Werror "$h"; then
      echo "doc-comment check FAILED: ${h#"$root"/}"
      status=1
    fi
  done
  [ "$status" -eq 0 ] && echo "all headers clean"
else
  echo "clang++ not found — skipping -Wdocumentation pass (markdown links still checked)"
fi

echo
echo "== markdown link check =="
if ! python3 "$root/tools/check_markdown_links.py"; then
  status=1
fi

exit "$status"
