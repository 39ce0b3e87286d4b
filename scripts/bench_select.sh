#!/usr/bin/env bash
# Measures selection-loop synthesis wall-clock and candidates per second
# and writes BENCH_select.json at the repo root.
#
# Usage: scripts/bench_select.sh [--circuits s1196,s5378,s35932]
#                                [--threads N] [--fault-model M]
#                                [--t-len N] [--lg N] [--keep-every N]
#                                [--reps N] [--golden]
#                                [--no-prefix-cache] [--no-cone-seeding]
# Extra arguments are forwarded to the synth_bench binary. The committed
# BENCH_select.json predates the removal of the speculation width and
# still carries its columns; perfbench (perfbench/README.md) is the
# maintained benchmark. A fresh file comes from:
#   scripts/bench_select.sh --circuits s1196,s5378,s35932
set -euo pipefail

cd "$(dirname "$0")/.."

# The binary takes the last -o, so a user-supplied one overrides the default.
OUT="BENCH_select.json"
prev=""
for arg in "$@"; do
    [ "$prev" = "-o" ] && OUT="$arg"
    prev="$arg"
done
cargo run --release --offline -p wbist-bench --bin synth_bench -- -o BENCH_select.json "$@"
echo "benchmark results in $OUT" >&2
