#!/usr/bin/env bash
# Print, as Markdown, this checkout beside the parent commit's source in
# the worktree PARENT: each module's line count on each side, and the
# totals; whether five reports keep the parent's bytes (the last three
# read the V, T f and profiles their function keeps); whether this
# commit's verdict_hash.py prints the same hash on both; and the cells of
# its verdict_ledger.py table that differ between them. Report-only.
#
# usage, from the repo root: git worktree add PARENT HEAD^
#                            .github/scripts/against_parent.sh PARENT
set -euo pipefail
parent=$(cd "$1" && pwd)/src here=$PWD/src tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }
both() {  # NAME ARGS...: python ARGS on each source, stdout to $tmp/NAME-*;
  # true if this side printed the parent's bytes
  PYTHONPATH=$parent python "${@:2}" > "$tmp/$1-parent" || true
  PYTHONPATH=$here python "${@:2}" > "$tmp/$1-here" || true
  [ -s "$tmp/$1-here" ] && cmp -s "$tmp/$1-parent" "$tmp/$1-here"
}

p_total=0 h_total=0  # a module added or deleted here is 0 on the other side
echo "| module | parent commit | here |"; echo "|---|---:|---:|"
for m in $(ls "$parent/gstf" "$here/gstf" | grep '\.py$' | sort -u); do
  p=$(lines "$parent/gstf/$m") h=$(lines "$here/gstf/$m")
  p_total=$((p_total + p)) h_total=$((h_total + h))
  echo "| src/gstf/$m | $p | $h |"
done
echo "| total | $p_total | $h_total |"; echo
k=0
for argv in "verify --suite all" "verify --suite all --format csv" \
            "stft --expr hermite(2)" \
            "toeplitz --expr hermite(2) --symbol gaussian" \
            "classify --expr hermite(2) --window gaussian(1) --space S --s 0.5"
do
  k=$((k + 1)) same="differs from"
  both "$k" -m gstf.cli $argv && same="same bytes as"
  echo "gstf $argv: $same the parent commit"
done
if both hash .github/scripts/verdict_hash.py; then
  echo "verdict hash: same verdict bits as the parent ($(< "$tmp/hash-here"))"
else
  p=$(< "$tmp/hash-parent") h=$(< "$tmp/hash-here")
  echo "verdict hash: differs (parent ${p:-failed}, here ${h:-failed})"
fi
if both ledger .github/scripts/verdict_ledger.py; then
  echo "verdict ledger: same table as the parent"
else
  echo "verdict ledger: the cells that differ (< parent, > here)"
  echo '```'; diff "$tmp/ledger-parent" "$tmp/ledger-here" | grep '^[<>]' || true
  echo '```'
fi
