#!/bin/sh
# Drives the CLI given as $1 through the record run and its gates:
# `bench --quick --json` writes every record family, the --baseline gate
# exits 0 (pass), 1 (regression, naming the id) or 2 (unreadable
# baseline), and `par --min-speedup` fails below its floor.
set -eu
exe=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() {
  echo "bench_gate: $*" >&2
  exit 1
}
# run CMD...: capture stdout/stderr in $tmp/out, $tmp/err; exit code in $rc.
run() {
  rc=0
  "$@" >"$tmp/out" 2>"$tmp/err" || rc=$?
}

run "$exe" bench --quick --json "$tmp/bench.json"
[ "$rc" -eq 0 ] || fail "bench --quick --json exited $rc"
for id in T1 T2 T3 T4 F1 F2 F3 F4 F5 F6 L1 B1 S1 S2 S3 A1 A2 R1 C1; do
  grep -q "\"id\": \"$id\"" "$tmp/bench.json" || fail "no $id record"
done
for family in MX RMA CH PAR COLL; do
  grep -q "\"id\": \"$family\\." "$tmp/bench.json" ||
    fail "no $family.* record"
done

# Every gated run took 1000 s in the baseline: nothing can regress
# against it.
sed 's/"wall_s": [0-9.]*/"wall_s": 1000.0/' \
  "$tmp/bench.json" >"$tmp/slow.json"
run "$exe" bench --quick --baseline "$tmp/slow.json"
[ "$rc" -eq 0 ] || fail "gate against slow baseline runs exited $rc, want 0"

# One id (S3, tens of thousands of events) claims an impossible 1 us run.
sed 's/\("id": "S3", "wall_s": \)[0-9.]*/\10.000001/' \
  "$tmp/slow.json" >"$tmp/fast.json"
run "$exe" bench --quick --baseline "$tmp/fast.json"
[ "$rc" -eq 1 ] || fail "gate against an impossible S3 time exited $rc, want 1"
grep -q 'S3' "$tmp/err" || fail "regression report does not name S3"

run "$exe" bench --quick --baseline "$tmp/missing.json"
[ "$rc" -eq 2 ] || fail "gate against a missing baseline exited $rc, want 2"

run "$exe" par --json "$tmp/par.json" --min-speedup 1000
[ "$rc" -eq 1 ] || fail "par --min-speedup 1000 exited $rc, want 1"
exit 0
