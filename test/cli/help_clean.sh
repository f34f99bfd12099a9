#!/bin/sh
# Renders --help=plain for the top level and every subcommand of the CLI
# given as $1, and fails if cmdliner reports a malformed doc string (an
# illegal escape, an unbalanced $(b,...) markup, ...) on any of them.
set -eu
exe=$1
subs=$("$exe" --help=plain 2>/dev/null |
  awk '/^COMMANDS/ { f = 1; next } /^[A-Z]/ { f = 0 } f && /^       [a-z]/ { print $1 }')
if [ -z "$subs" ]; then
  echo "help_clean: no subcommands listed by $exe --help=plain" >&2
  exit 1
fi
status=0
for sub in "" $subs; do
  if "$exe" $sub --help=plain 2>&1 | grep 'cmdliner error'; then
    echo "help_clean: portals_repro ${sub:-(top level)} --help: doc string errors" >&2
    status=1
  fi
done
exit $status
