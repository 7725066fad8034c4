#!/usr/bin/env bash
# Paired end-to-end A/B of the restore benchmark (restorebench): a parent
# revision against the working tree, one pair of runs per seed.
#
#   scripts/ab.sh                                   # HEAD~1 vs the working tree
#   AB_BASE=HEAD AB_WORKLOADS=isp_events AB_SEEDS="1 2 3" scripts/ab.sh
#
# Tunables (environment):
#   AB_BASE       parent revision (default HEAD~1)
#   AB_WORKLOADS  space-separated workloads (default: every workload in
#                 BENCHMARK.json)
#   AB_SEEDS      space-separated seeds, one pair each (default 1..10)
#   AB_SECONDS    measuring time of each run (default 30)
#   AB_DIR        build and result directory (default .bench_build/ab)
#
# The parent's committed files are exported with `git archive` into
# $AB_DIR/base and built there, offline, with their own CARGO_TARGET_DIR;
# the working tree is built into $AB_DIR/target-change. Each seed runs the
# parent and the change once, and the order alternates from seed to seed
# so that neither side always runs on a warmer host. Every run's stamp
# and result lines go to $AB_DIR/runs.jsonl.
#
# For each workload and each end-to-end metric of BENCHMARK.json the
# summary prints the parent's median and quartiles, the change's median,
# and in how many pairs the change was better. The script exits 1 if a
# seed's plan_digest differs between the two sides or any run reports
# failed checks. It only reads what restorebench prints.
set -euo pipefail
cd "$(dirname "$0")/.."

AB_BASE=${AB_BASE:-HEAD~1}
AB_SEEDS=${AB_SEEDS:-"1 2 3 4 5 6 7 8 9 10"}
AB_SECONDS=${AB_SECONDS:-30}
AB_DIR=${AB_DIR:-.bench_build/ab}
if [[ -z "${AB_WORKLOADS:-}" ]]; then
    AB_WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

mkdir -p "$AB_DIR"
AB_DIR=$(cd "$AB_DIR" && pwd)
base_rev=$(git rev-parse --verify "$AB_BASE^{commit}")

echo "== export $AB_BASE ($base_rev) into $AB_DIR/base"
rm -rf "$AB_DIR/base"
mkdir -p "$AB_DIR/base"
git archive "$base_rev" | tar -x -C "$AB_DIR/base"

build() { # <source dir> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/restorebench/Cargo.toml"
}
echo "== build parent"
build "$AB_DIR/base" "$AB_DIR/target-base"
echo "== build change (working tree)"
build "$PWD" "$AB_DIR/target-change"

RUNS="$AB_DIR/runs.jsonl"
: > "$RUNS"
run() { # <side> <workload> <seed>
    local bin="$AB_DIR/target-$1/release/rbpc-restorebench" out
    out=$("$bin" --workload "$2" --seed "$3" --seconds "$AB_SECONDS" --trace 0)
    # The stamp line, then the result line: one JSON object per run.
    python3 -c 'import json, sys
stamp, result = (json.loads(l) for l in sys.argv[4].splitlines()[-2:])
print(json.dumps({"side": sys.argv[1], "workload": sys.argv[2], "seed": int(sys.argv[3]),
                  "stamp": stamp, "result": result}))' "$1" "$2" "$3" "$out" >> "$RUNS"
    echo "   $2 seed $3 $1 done"
}

i=0
for workload in $AB_WORKLOADS; do
    for seed in $AB_SEEDS; do
        if (( i % 2 == 0 )); then
            run base "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run base "$workload" "$seed"
        fi
        i=$((i + 1))
    done
done

python3 - "$RUNS" <<'EOF'
import json, statistics, sys

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = [json.loads(line) for line in open(sys.argv[1])]
pairs = {}
for r in runs:
    pairs.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r

bad = []
for (workload, seed), p in sorted(pairs.items()):
    digests = {p[s]["stamp"]["plan_digest"] for s in p}
    if len(digests) != 1:
        bad.append(f"{workload} seed {seed}: plan_digest differs {sorted(digests)}")
    for side, r in p.items():
        if r["result"]["failed"] != 0:
            bad.append(f"{workload} seed {seed} {side}: failed = {r['result']['failed']}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for workload in dict.fromkeys(w for w, _ in pairs):
    done = [p for (w, _), p in sorted(pairs.items()) if w == workload and len(p) == 2]
    print(f"\n{workload}: {len(done)} pairs")
    print(f"  {'metric':<16} {'parent med':>12} {'parent IQR':>25} {'change med':>12} {'change':>8}  won")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["result"]["metrics"][name]["value"] for p in done]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in done]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        bm, cm = statistics.median(base), statistics.median(change)
        q1, q3 = quartiles(base)
        delta = (cm - bm) / bm * 100 if bm else 0.0
        print(f"  {name:<16} {bm:>12.4g} {q1:>12.4g}–{q3:<12.4g} {cm:>12.4g} {delta:>+7.1f}%  {won}/{len(done)}")

if bad:
    print("\nFAIL:")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("\nplan digests equal per seed, failed = 0 everywhere")
EOF
