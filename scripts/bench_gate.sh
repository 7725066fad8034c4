#!/usr/bin/env bash
# Perf-regression gate: run the benchmark suite with JSONL output and
# compare the fresh medians against the committed baseline.
#
#   scripts/bench_gate.sh                 # run gate against bench/baseline.json
#   REFRESH_BASELINE=1 scripts/bench_gate.sh   # re-record the baseline too
#
# Tunables (environment):
#   BENCH_TARGETS   space-separated [[bench]] targets to run
#                   (default: a fast subset — the full suite takes minutes)
#   BENCH_TOLERANCE allowed relative median growth (default 0.75 = +75%,
#                   generous so shared-runner noise doesn't flake the gate)
#   BENCH_OUT       fresh results file (default BENCH_rbpc.json)
#   BASELINE        committed baseline (default bench/baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_TARGETS=${BENCH_TARGETS:-"dijkstra decompose table1 spt_repair csr_dijkstra spt_batch par_provision flight_recorder"}
BENCH_TOLERANCE=${BENCH_TOLERANCE:-0.75}
BENCH_OUT=${BENCH_OUT:-BENCH_rbpc.json}
BASELINE=${BASELINE:-bench/baseline.json}

# Bench binaries run with their package dir as CWD, so hand them an
# absolute path or the JSONL lands in crates/bench/.
case "$BENCH_OUT" in
    /*) ;;
    *) BENCH_OUT="$PWD/$BENCH_OUT" ;;
esac

rm -f "$BENCH_OUT"
for target in $BENCH_TARGETS; do
    echo "== cargo bench --bench $target"
    cargo bench -p rbpc-bench --bench "$target" -- --json "$BENCH_OUT"
done

if [[ ! -s "$BENCH_OUT" ]]; then
    echo "error: $BENCH_OUT is empty — did the bench targets run?" >&2
    exit 2
fi

if [[ "${REFRESH_BASELINE:-0}" = "1" ]]; then
    mkdir -p "$(dirname "$BASELINE")"
    cp "$BENCH_OUT" "$BASELINE"
    echo "refreshed $BASELINE from $BENCH_OUT"
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "error: no baseline at $BASELINE" >&2
    echo "record one with: REFRESH_BASELINE=1 scripts/bench_gate.sh" >&2
    exit 2
fi

# The headline claim of incremental repair: the scalar reference's
# (`repair_after_failures`) single-edge repair on the 5000-node
# power-law graph beats a full rebuild by at least 5x.
# bench-gate skips the rule (with a note) when spt_repair wasn't run.
SPT_SPEEDUP="spt_repair/powerlaw_5000/repair_single_edge,spt_repair/powerlaw_5000/full_tree,5.0"

# The CSR repair kernel's claim: the full-tree repair the base-path
# stores run (clone + repair over precomputed weights and a failure
# bitmask) beats the scalar reference's clone + repair of the same
# median-subtree failure by at least 1.5x on the 5000-node power-law graph.
CSR_REPAIR_SPEEDUP="spt_repair/powerlaw_5000/csr_repair,spt_repair/powerlaw_5000/clone_repair,1.5"

# The CSR core's claim: a flat-array full tree on the 5000-node power-law
# graph beats the Vec<Vec> adjacency by at least 1.3x.
CSR_SPEEDUP="csr_dijkstra/powerlaw_5000/full_tree,dijkstra/powerlaw_5000/full_tree,1.3"

# The flight recorder's claim: the always-on black box costs nothing you
# can measure — a restore with the ring installed stays within ~5% of one
# without it. Shared-runner jitter on a ~6µs/iter bench is itself a few
# percent even at 60 samples, so the gate floor carries noise headroom
# (same spirit as BENCH_TOLERANCE): min(off)/min(on) >= 0.90.
RECORDER_OVERHEAD="flight_recorder/isp_200/restore_on,flight_recorder/isp_200/restore_off,0.90"

# The batched SPT kernel's claim: a 32-source provisioning batch through
# `full_tree_batch` (8-byte compacted edges, a two-level-queue sweep,
# packed records) beats the scalar per-source `full_tree` loop by at
# least 1.3x on both gated topologies. gnm_1000 is weighted, so its
# `batched` row runs the scalar loop per source and times the same loop
# as its `scalar` row. Both rows are single-threaded, so unlike the
# par_provision rules below this ratio is core-count independent and
# needs no nproc gate — it must hold even on a 1-core runner (min_ns
# comparison filters scheduler noise).
BATCH_SPEEDUP_POWERLAW="spt_batch/powerlaw_5000/batched,spt_batch/powerlaw_5000/scalar,1.3"
BATCH_SPEEDUP_GNM="spt_batch/gnm_1000/batched,spt_batch/gnm_1000/scalar,1.3"

# The parallel engine's claim: above the serial cutoff (isp_200 is below
# it and now runs inline at every thread count), an 8-thread all-sources
# batch on the 5000-node power-law graph beats the 1-thread one by at
# least 2x. Only meaningful with 8+ real cores, so the rule is gated on
# nproc (bench-gate would skip it anyway if the rows were absent, but on
# a small box the rows exist and the ratio is ~1).
PAR_SPEEDUP=()
if [[ "$(nproc)" -ge 8 ]]; then
    PAR_SPEEDUP=(--speedup "par_provision/powerlaw_5000/threads_8,par_provision/powerlaw_5000/threads_1,2.0")
    # The sharded store's claim: whole-map provisioning (prefetching 128
    # sources shard by shard at >=5k nodes) parallelizes too — 8T beats
    # 1T by at least 2x. Same nproc gate as above.
    PAR_SPEEDUP+=(--speedup "par_provision/sharded/powerlaw_5000/threads_8,par_provision/sharded/powerlaw_5000/threads_1,2.0")
else
    echo "note: <8 cores ($(nproc)) — skipping the par_provision 8-thread speedup rules"
fi

echo "== bench-gate --baseline $BASELINE --current $BENCH_OUT --tolerance $BENCH_TOLERANCE"
cargo run -q -p rbpc-bench --bin bench-gate --release -- \
    --baseline "$BASELINE" --current "$BENCH_OUT" --tolerance "$BENCH_TOLERANCE" \
    --speedup "$SPT_SPEEDUP" --speedup "$CSR_SPEEDUP" --speedup "$CSR_REPAIR_SPEEDUP" \
    --speedup "$RECORDER_OVERHEAD" \
    --speedup "$BATCH_SPEEDUP_POWERLAW" --speedup "$BATCH_SPEEDUP_GNM" \
    "${PAR_SPEEDUP[@]}"
