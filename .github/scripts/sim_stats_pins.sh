#!/usr/bin/env bash
# Proves a change leaves every simulated statistic unchanged: runs the
# benchmark's pin loop (teaalbench/README.md, "Pinned simulated
# statistics") in two checkouts and diffs the `pin` lines.
#
#   .github/scripts/sim_stats_pins.sh BASE_DIR HEAD_DIR OUT_DIR
#
# Each checkout builds its own teaalbench into BASE_DIR/.bench_build or
# HEAD_DIR/.bench_build. Every workload runs traced for 2 s on seeds 7
# and 8. Fails on a run that reports "correct": false, on a run that
# prints no result, or on any pin difference.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)

pins() { # checkout, label
  local dir=$1 label=$2
  : > "$out/$label.pins"
  for seed in 7 8; do
    for w in catalog_cold graph_vertex serve_mapping_mix explore_fast; do
      local log="$out/$label.$w.$seed.out"
      (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" python3 teaalbench/run.py \
        --workload "$w" --seed "$seed" --seconds 2 --trace 1) > "$log"
      if ! tail -n 1 "$log" | grep -q '"correct": true'; then
        echo "$label: $w seed $seed is not correct:"
        tail -n 1 "$log"
        return 1
      fi
      grep '^pin' "$log" >> "$out/$label.pins"
    done
  done
}

pins "$base" base
pins "$head" head
echo "$(wc -l < "$out/head.pins") pin lines"
diff "$out/base.pins" "$out/head.pins"
