#!/usr/bin/env bash
# Run `gstf verify --suite all` once per setting, each failing on a numpy
# RuntimeWarning or a failed suite, and require the same report bytes on
# one CPU, on all CPUs and on two threads: reports must not depend on the
# CPU count (the STFT engine runs its row blocks on a thread pool when the
# process has two CPUs or more) nor on the thread count.
#
# usage: .github/scripts/identity_bytes.sh [OUT_DIR]   (from the repo root)
set -euo pipefail
nproc
out="${1:-${RUNNER_TEMP:-/tmp}}/verify"
OMP_NUM_THREADS=1 PYTHONPATH=src taskset -c 0 python \
  -W error::RuntimeWarning -m gstf.cli verify --suite all \
  --out "$out-cpu0.json"
OMP_NUM_THREADS=1 PYTHONPATH=src python -W error::RuntimeWarning \
  -m gstf.cli verify --suite all --out "$out-cpus.json"
OMP_NUM_THREADS=2 PYTHONPATH=src python -W error::RuntimeWarning \
  -m gstf.cli verify --suite all --out "$out-threads2.json"
cmp "$out-cpu0.json" "$out-cpus.json"  # the CPU count
cmp "$out-cpus.json" "$out-threads2.json"  # the thread count
