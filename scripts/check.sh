#!/usr/bin/env bash
# Offline pre-PR gate: formatting, lints, the full test suite, and the
# no-default-features build proving instrumentation compiles to no-ops.
# Everything here runs without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

if [[ "${SKIP_LINT:-0}" = "1" ]]; then
    echo "== rbpc-lint skipped (SKIP_LINT=1)"
else
    echo "== rbpc-lint (line rules + token rules, JSON report, baseline diff)"
    # Build first so the timing guard below measures the analyzer, not rustc.
    cargo build -q -p rbpc-lint
    lint_json=$(mktemp /tmp/rbpc-lint-report.XXXXXX.json)
    lint_out=$(mktemp /tmp/rbpc-lint-out.XXXXXX)
    lint_start=$(date +%s%N)
    # The committed crates/lint/lint-baseline.json is picked up by default;
    # any finding not in it (or any unjustified entry) fails the gate here.
    if ! target/debug/rbpc-lint . --json "$lint_json" | tee "$lint_out"; then
        echo "rbpc-lint: new findings (or broken baseline) — fix them or baseline with a justification" >&2
        rm -f "$lint_json" "$lint_out"
        exit 1
    fi
    lint_elapsed_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
    # Surface the machine-readable counters for CI log scrapers.
    grep -o 'lint\.findings\.[a-z.-]*=[0-9]*' "$lint_out" | sed 's/^/   /'
    echo "   lint.elapsed_ms=${lint_elapsed_ms} (report: kept at $lint_json)"
    # Timing guard: the analyzer must stay interactive (< 5 s on the repo).
    if (( lint_elapsed_ms >= 5000 )); then
        echo "rbpc-lint: took ${lint_elapsed_ms} ms (>= 5000 ms budget) — profile the analyzer" >&2
        exit 1
    fi
    rm -f "$lint_out"
fi

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== cargo doc --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test -p rbpc-core --no-default-features (obs compiled out)"
cargo test -p rbpc-core --no-default-features -q

echo "== cargo build --workspace --no-default-features (tracing compiled out)"
cargo build --workspace --no-default-features -q

echo "== cargo build -p rbpc-obs --no-default-features (obs-net stub compiles)"
cargo build -p rbpc-obs --no-default-features -q

echo "== cargo check --workspace --all-features (every declared feature builds)"
cargo check --workspace --all-features -q

echo "== rbpc-eval loadtest --smoke (live-telemetry end-to-end)"
cargo run -q -p rbpc-eval -- loadtest --smoke --out /tmp/rbpc-loadtest-smoke.jsonl
rm -f /tmp/rbpc-loadtest-smoke.jsonl

echo "== rbpc-eval replay (golden incident: plan hashes must reproduce)"
cargo run -q -p rbpc-eval -- replay crates/eval/tests/golden/incident-smoke.jsonl

echo "== examples isp_failover + local_vs_source (release: FEC rewrite, ILM splice and revert, each checked by forwarding)"
cargo run -q --release --example isp_failover > /dev/null
cargo run -q --release --example local_vs_source > /dev/null

echo "== CSR / parallel determinism property test (release, 2-thread runs included)"
cargo test --release --test csr_parallel -q

echo "== work-pool consumers' thread-count invariance (release: failover plan, outage and churn sweeps, Table 2/3 and Figure 10)"
cargo test --release -q -p rbpc-core -p rbpc-sim -p rbpc-eval --lib -- \
    parallel_plan_is_identical_to_sequential summary_is_thread_count_invariant \
    churn_is_thread_count_invariant parallel_and_serial_agree

echo "== SPT repair property test (release: CSR repair kernel == scalar reference == rebuild, after every churn and flap step)"
cargo test --release --test spt_repair -q

echo "== prefix probe property test (release: early-exit probe == full-tree walk; bounded decomposition == all-resident)"
cargo test --release --test prefix_probe -q

echo "== resumed repair property test (release: resumed path == full repair's path; <= one repair per (event, source))"
cargo test --release --test repair_resume -q

echo "== batched SPT kernel property test (release: bit-identical to scalar across masks/batches/threads)"
cargo test --release --test spt_batch -q

echo "== sharded-store property test (release: bit-identical to dense at 1/2/8 threads)"
cargo test --release -p rbpc-core --test sharded_store -q

echo "== reduced paper-scale Table 2 block (release: the bounded store on a 10 000-node map)"
cargo test --release --test paper_scale -q

echo "== rbpc-eval paper-scale --smoke (sharded store end-to-end + incident replay)"
cargo build -q --release -p rbpc-eval
target/release/rbpc-eval paper-scale --smoke \
    --out /tmp/rbpc-paperscale-smoke.jsonl \
    --incident-out /tmp/rbpc-paperscale-incident.jsonl
target/release/rbpc-eval replay /tmp/rbpc-paperscale-incident.jsonl
rm -f /tmp/rbpc-paperscale-smoke.jsonl /tmp/rbpc-paperscale-incident.jsonl

if [[ "${SKIP_BENCH_GATE:-0}" = "1" ]]; then
    echo "== bench gate skipped (SKIP_BENCH_GATE=1)"
else
    echo "== bench gate (scripts/bench_gate.sh)"
    scripts/bench_gate.sh
fi

echo "OK: all checks passed"
