#!/usr/bin/env bash
# List every call out of the AVX2 tier bodies of a release binary, and
# fail on one that leaves the tier:
#
#   bash .github/tier_calls.sh [BINARY]      (default target/release/llpd)
#
# `solver::isa::Tier::run` calls its body inside `solver::isa::avx2`, a
# `#[target_feature(enable = "avx2")]` fn, so what the body inlines is
# compiled for AVX2 and what it calls out of line runs at the baseline
# tier, which no test sees. For each `avx2` instance this prints its
# bytes, its instruction count, its `panic_bounds_check` sites and every
# call target with its count. The binary is position-independent, so
# panics and libc are reached through GOT slots: a `call *SLOT(%rip)`,
# or a call through a register loaded from a slot, resolves through the
# slot's `R_X86_64_RELATIVE` addend (`readelf -r`) to a symbol (`nm`).
# A call may reach a panic, a slice-index failure, `Option::expect`'s
# failure, a libc memory primitive or `f3d::blocktri::swap_pivot_rows`
# (out of line on purpose, see its doc); any other target, or a call
# that does not resolve, fails the script.
set -euo pipefail
bin=${1:-target/release/llpd}
allowed='^(core::panicking::|core::slice::index::|core::option::expect_failed$|(memset|memcpy|memmove|bcmp)(@|$)|f3d::blocktri::swap_pivot_rows$)'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
nm -S "$bin" | awk '$4 ~ /^_ZN6solver3isa4avx2/ { print $4, $1, $2 }' >"$tmp/instances"
if [ ! -s "$tmp/instances" ]; then
  echo "$bin: no solver::isa::avx2 instance"
  exit 1
fi
nm -C "$bin" | awk '$2 ~ /^[TtWw]$/' >"$tmp/names"
readelf -rW "$bin" >"$tmp/slots"
while read -r sym _; do
  objdump -d --no-show-raw-insn --disassemble="$sym" "$bin"
done <"$tmp/instances" >"$tmp/asm"
awk -v allowed="$allowed" -v bin="$bin" '
  function hex(s,   n, i) {
    s = tolower(s); sub(/^0x/, "", s); n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
  }
  # The function at an address, and the one a GOT slot holds.
  function at(a) { return (hex(a) in name) ? name[hex(a)] : "?0x" a }
  function slot(a) { a = hex(a); return (a in got) ? got[a] : sprintf("?GOT slot 0x%x", a) }
  function target() { c = $0; sub(/.*# /, "", c); sub(/ .*/, "", c); return c }
  function report(   t, ok, m, i, j, k, keys, line) {
    if (sym == "") return
    for (t in calls) {
      ok = t ~ allowed
      if (!ok) bad = 1
      line[t] = sprintf("  %5d  %s%s", calls[t], t, ok ? "" : "   <- leaves the tier")
      keys[++m] = t
    }
    for (i = 2; i <= m; i++)
      for (j = i; j > 1 && keys[j - 1] > keys[j]; j--) { k = keys[j]; keys[j] = keys[j - 1]; keys[j - 1] = k }
    printf "%s: %d bytes, %d instructions, %d panic_bounds_check sites\n", sym, hi - lo, insns, bounds
    for (i = 1; i <= m; i++) print line[keys[i]]
    for (t in calls) delete calls[t]
    for (t in reg) delete reg[t]
  }
  FNR == 1 { part++ }
  part == 1 { lo_of[$1] = hex($2); size_of[$1] = hex($3); next }
  part == 2 { a = hex($1); v = $0; sub(/^[^ ]+ [^ ]+ /, "", v); if (!(a in name)) name[a] = v; next }
  part == 3 && $3 == "R_X86_64_RELATIVE" { got[hex($1)] = at($4); next }
  part == 3 && ($3 == "R_X86_64_GLOB_DAT" || $3 == "R_X86_64_JUMP_SLOT") { got[hex($1)] = $5; next }
  part == 3 { next }
  /^[0-9a-f]+ <.*>:$/ {
    report()
    sym = $2; gsub(/[<>:]/, "", sym)
    lo = lo_of[sym]; hi = lo + size_of[sym]; insns = 0; bounds = 0
    next
  }
  !/^ +[0-9a-f]+:\t/ { next }
  {
    insns++
    ins = $0; sub(/^ +[0-9a-f]+:\t/, "", ins); sub(/ +#.*/, "", ins)
    sub(/^(notrack|bnd) /, "", ins)
    op = ins; sub(/ .*/, "", op)
    args = ins; sub(/^[^ ]+ */, "", args)
    dst = args; sub(/.*,/, "", dst)
    # A 32-bit write clears its 64-bit register.
    if (dst ~ /^%e[a-z][a-z]$/) dst = "%r" substr(dst, 3)
    else if (dst ~ /^%r[0-9]+d$/) dst = substr(dst, 1, length(dst) - 1)
    t = ""
  }
  # Registers that hold a function address, for calls through them.
  op == "mov" && args ~ /\(%rip\),%r/ { reg[dst] = slot(target()); next }
  op == "lea" && args ~ /\(%rip\),%r/ { reg[dst] = at(target()); next }
  op == "mov" && args ~ /^%r[a-z0-9]+,%r[a-z0-9]+$/ {
    src = args; sub(/,.*/, "", src)
    if (src in reg) reg[dst] = reg[src]; else delete reg[dst]
    next
  }
  op == "call" && args ~ /^\*0x[0-9a-f]+\(%rip\)/ { t = slot(target()) }
  op == "call" && args ~ /^\*%r[a-z0-9]+$/ { r = substr(args, 2); t = (r in reg) ? reg[r] : "?call " args }
  op == "call" && args ~ /^[0-9a-f]+ </ { a = args; sub(/ .*/, "", a); t = at(a) }
  op == "call" && t == "" { t = "?call " args }
  # Tail calls: a jump through a GOT slot, or a direct jump out of the
  # body.
  op == "jmp" && args ~ /^\*0x[0-9a-f]+\(%rip\)/ { t = slot(target()) }
  op ~ /^j/ && args ~ /^[0-9a-f]+ </ { a = args; sub(/ .*/, "", a); if (hex(a) < lo || hex(a) >= hi) t = at(a) }
  t != "" { calls[t]++; if (t == "core::panicking::panic_bounds_check") bounds++; next }
  args ~ /%r/ { delete reg[dst] }
  END {
    report()
    if (bad) print bin ": an AVX2 tier body calls out of the tier (marked above)"
    exit bad
  }' "$tmp/instances" "$tmp/names" "$tmp/slots" "$tmp/asm"
