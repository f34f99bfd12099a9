#!/bin/sh
# A --json or --trace-out path that cannot be written must end the CLI
# given as $1 with a one-line "cannot write" error and exit 1, never an
# uncaught exception.
set -eu
exe=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0
# check WHAT CMD...: CMD writes into a missing directory.
check() {
  what=$1
  shift
  rc=0
  "$exe" "$@" >/dev/null 2>"$tmp/err" || rc=$?
  if [ "$rc" -ne 1 ] ||
    ! grep -q "^portals_repro: cannot write $what: " "$tmp/err"; then
    echo "write_fail: portals_repro $* exited $rc:" >&2
    cat "$tmp/err" >&2
    status=1
  fi
}
check records rma --quick --workloads latency --json "$tmp/missing/x.json"
check trace fig5 --work 0 --trace-out "$tmp/missing/t.json"
exit $status
