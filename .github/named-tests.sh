#!/usr/bin/env bash
# Runs `cargo test` with name filters and fails if any one filter
# matches no test, so a renamed or deleted test cannot drop out of a
# named list unnoticed.
#
# usage: .github/named-tests.sh <cargo test args...> -- <filter...>
set -euo pipefail
args=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  args+=("$1")
  shift
done
if [ "$#" -lt 2 ]; then
  echo "usage: $0 <cargo test args...> -- <filter...>" >&2
  exit 2
fi
shift
for filter in "$@"; do
  matched=$(cargo test "${args[@]}" -- --list "$filter" | grep -c ': test$' || true)
  if [ "$matched" -eq 0 ]; then
    echo "filter '$filter' matches no test of: cargo test ${args[*]}" >&2
    exit 1
  fi
done
cargo test "${args[@]}" -- "$@"
