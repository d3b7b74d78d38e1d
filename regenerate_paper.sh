#!/usr/bin/env bash
# Regenerate every table and figure of ARL-TR-2556 / IPPS 2001, plus the
# ablations and related-work comparisons, into paper_output/: one file
# per table that `paper` lists.
set -euo pipefail
cd "$(dirname "$0")"

out=paper_output
mkdir -p "$out"

paper() { cargo run --release -q -p bench -- "$@"; }

names=$(paper)
for name in $names; do
  echo "== $name"
  paper "$name" > "$out/$name.txt"
done

echo "done: $(ls "$out" | wc -l) artifacts in $out/"
