#!/usr/bin/env bash
# Run each named benchmark workload for 1 s untraced, and fail at the first
# with a failed operation, read from the run's result, its last line (run.py
# exits 0 either way). The lines before it, the end-to-end metrics, go to
# $GITHUB_STEP_SUMMARY when it is set, else to stdout.
#
# usage, from the repo root: .github/scripts/workloads.sh WORKLOAD...
set -euo pipefail
for w in "$@"; do
  out=$(python3 bench/run.py --workload "$w" --seconds 1 --trace 0)
  { echo '```'; sed '$d' <<< "$out"; echo '```'
  } >> "${GITHUB_STEP_SUMMARY:-/dev/stdout}"
  failed=$(tail -n 1 <<< "$out" \
    | python3 -c 'import json, sys; print(json.load(sys.stdin)["failed"])')
  echo "$w failed: $failed"
  [ "$failed" = 0 ]
done
