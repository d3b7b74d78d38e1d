#!/usr/bin/env bash
# Print the code or the test lines of Rust source files:
#
#   bash .github/split_tests.sh code|tests [-n] FILE...
#
# A `#[cfg(test)]` item is test code up to its closing brace (or its
# `;`), a gated `mod` makes the rest of its file test code, and comment
# lines are neither. So `code` is everything a build without `cfg(test)`
# compiles, a test-only item ahead of the test module excluded and the
# code after it kept. With `-n` each line is printed as `FILE:LINE: text`.
set -euo pipefail
part=$1
shift
where=0
if [ "${1:-}" = -n ]; then
  where=1
  shift
fi
exec awk -v part="$part" -v where="$where" '
  function emit() { if (where) print FILENAME ":" FNR ": " $0; else print }
  FNR == 1 { rest = 0; pending = 0; item = 0 }
  /^[[:space:]]*\/\// { next }
  rest { if (part == "tests") emit(); next }
  pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { rest = 1 }
  pending && !rest && !/^[[:space:]]*#\[/ { pending = 0; item = 1; depth = 0; opened = 0 }
  item {
    depth += gsub(/\{/, "{") - gsub(/\}/, "}")
    if (depth > 0) opened = 1
    if (part == "tests") emit()
    if (opened ? depth <= 0 : /;[[:space:]]*$/) item = 0
    next
  }
  /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1 }
  (part == "tests") == (pending || rest) { emit() }
' "$@"
