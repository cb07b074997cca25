#!/usr/bin/env bash
# Checks the CI workflow's test selections: for every
# `go test ... -run '<alt>|<alt>|...' <pkgs>` line, each alternative must
# match at least one test that `go test -list '.*' <pkgs>` reports, so a
# renamed or deleted test cannot drop out of its CI step unnoticed.
# Alternatives are matched as unanchored regular expressions against
# top-level test names, as -run matches them.
#
# Usage: scripts/check-run-lists.sh [workflow.yml]
set -euo pipefail
cd "$(dirname "$0")/.."
workflow=${1:-.github/workflows/ci.yml}

steps=0 checked=0 failed=0
while IFS= read -r line; do
  alts=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
  pkgs=$(sed -E "s/.*-run '[^']*'//" <<<"$line")
  # shellcheck disable=SC2086 # pkgs is a list of package patterns
  listed=$(go test -list '.*' $pkgs </dev/null)
  names=$(grep -E '^(Test|Benchmark|Example|Fuzz)' <<<"$listed" || true)
  steps=$((steps + 1))
  IFS='|' read -ra list <<<"$alts"
  for alt in "${list[@]}"; do
    checked=$((checked + 1))
    if ! grep -qE -- "$alt" <<<"$names"; then
      echo "check-run-lists: -run alternative '$alt' matches no test in$pkgs" >&2
      failed=$((failed + 1))
    fi
  done
done < <(grep -E "go test .*-run '" "$workflow")

if [ "$steps" -eq 0 ]; then
  echo "check-run-lists: no go test -run lines in $workflow" >&2
  exit 1
fi
echo "check-run-lists: $checked alternatives in $steps steps, $failed unmatched"
[ "$failed" -eq 0 ]
