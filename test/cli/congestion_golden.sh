#!/bin/sh
# Runs the `congestion` table of the CLI given as $1 (default, and with a
# queue limit of 2 over 16 messages per pair) and diffs each against its
# committed expected output ($2 and $3). Delivered counts, drops and
# peak queue depth depend on exactly when each hop link releases a
# transmission, so any change to link bookkeeping shows up here.
set -eu
exe=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
check() {
  expected=$1
  shift
  "$exe" congestion "$@" >"$tmp/out"
  if ! diff -u "$expected" "$tmp/out"; then
    echo "congestion_golden: congestion $* differs from $expected" >&2
    status=1
  fi
}
check "$2"
check "$3" --limit 2 --msgs 16
exit $status
