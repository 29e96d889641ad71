#!/usr/bin/env bash
# Prints the total Rust line count (every line of every *.rs file, blank
# and comment lines included) over crates/, src/, tests/ and examples/.
#
#   ./scripts/loc.sh        # -> e.g. 38287
#
# Build output under any target/ directory is excluded.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src tests examples -name '*.rs' -not -path '*/target/*' -print0 \
  | xargs -0 cat | wc -l | tr -d ' '
