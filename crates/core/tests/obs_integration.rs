//! End-to-end checks that the restoration hot paths feed the global
//! metric registry: one restore call under a single failed link must show
//! up as exactly one restore, at most Theorem 3's `2k + 1 = 3` segments,
//! and a bounded store's shard counters must match its observable cache
//! behavior.

// The global registry only records when instrumentation is compiled in.
#![cfg(feature = "obs")]

use rbpc_core::{
    BasePathOracle, BasePathStore, DenseBasePaths, ProvisionedDomain, Restorer, ShardedBasePaths,
};
use rbpc_graph::{CostModel, FailureSet, Metric, NodeId};
use rbpc_obs::{Registry, Snapshot};
use rbpc_topo::gnm_connected;
use std::sync::Mutex;

/// The registry is process-global; tests in this binary must not
/// interleave their delta measurements.
static SERIAL: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    Registry::global_snapshot().counter(name).unwrap_or(0)
}

fn histogram(name: &str) -> (u64, u64) {
    Registry::global_snapshot()
        .histogram(name)
        .map(|s| (s.count, s.sum))
        .unwrap_or((0, 0))
}

#[test]
fn restore_under_one_failed_link_emits_expected_counters() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = gnm_connected(12, 26, 5, 3);
    let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 7));
    let restorer = Restorer::new(&oracle);
    let (s, t) = (NodeId::new(0), NodeId::new(11));
    let base = oracle.base_path(s, t).expect("connected");
    let failures = FailureSet::of_edge(base.edges()[0]);

    let calls = counter("core.restore.calls");
    let ok = counter("core.restore.ok");
    let err = counter("core.restore.err");
    let affected = counter("core.restore.affected");
    let decompose = counter("core.decompose.calls");
    let (seg_count, seg_sum) = histogram("core.restore.segments");
    let (lat_count, _) = histogram("core.restore.ns");

    let r = restorer.restore(s, t, &failures).expect("restorable");

    assert_eq!(counter("core.restore.calls"), calls + 1);
    assert_eq!(counter("core.restore.ok"), ok + 1);
    assert_eq!(counter("core.restore.err"), err);
    // The failed link is on the base path, so the LSP is affected.
    assert!(r.affected);
    assert_eq!(counter("core.restore.affected"), affected + 1);
    // An affected restore decomposes the backup path at least once.
    assert!(counter("core.decompose.calls") > decompose);
    // Exactly one segment-count sample, equal to the returned
    // concatenation and within Theorem 3's bound for k = 1.
    let (seg_count2, seg_sum2) = histogram("core.restore.segments");
    assert_eq!(seg_count2, seg_count + 1);
    assert_eq!(seg_sum2 - seg_sum, r.concatenation.len() as u64);
    assert!(
        r.concatenation.len() <= 3,
        "k = 1 allows at most 3 segments"
    );
    // The span recorded one latency sample.
    let (lat_count2, _) = histogram("core.restore.ns");
    assert_eq!(lat_count2, lat_count + 1);
}

/// `name=delta` for every counter and `name#samples` for every histogram
/// that moved between two snapshots.
fn moved(before: &Snapshot, after: &Snapshot) -> Vec<String> {
    let counters = after.counters.iter().filter_map(|(name, v)| {
        let delta = v - before.counter(name).unwrap_or(0);
        (delta > 0).then(|| format!("{name}={delta}"))
    });
    let histograms = after.histograms.iter().filter_map(|(name, s)| {
        let delta = s.count - before.histogram(name).map_or(0, |b| b.count);
        (delta > 0).then(|| format!("{name}#{delta}"))
    });
    counters.chain(histograms).collect()
}

#[test]
fn affected_restore_records_the_pinned_metric_names_and_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = gnm_connected(12, 26, 5, 3);
    let before = Registry::global_snapshot();
    let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 7));
    // Provisioning counts depend on the worker count; their names do not.
    let built: Vec<String> = moved(&before, &Registry::global_snapshot())
        .into_iter()
        .map(|m| m.split(['=', '#']).next().unwrap_or_default().to_string())
        .collect();
    assert_eq!(
        built,
        [
            "core.provision.chunk_claims",
            "core.provision.heap_pops",
            "core.provision.heap_pushes",
            "core.provision.scratch_reuses",
            "core.provision.build.ns",
            "core.provision.settled_per_thread",
            "core.store.shard_build.ns",
        ]
    );
    let restorer = Restorer::new(&oracle);
    let (s, t) = (NodeId::new(0), NodeId::new(11));
    let base = oracle.base_path(s, t).expect("connected");
    let failures = FailureSet::of_edge(base.edges()[0]);
    let before = Registry::global_snapshot();
    restorer.restore(s, t, &failures).expect("restorable");
    assert_eq!(
        moved(&before, &Registry::global_snapshot()),
        [
            "core.decompose.calls=1",
            "core.restore.affected=1",
            "core.restore.calls=1",
            "core.restore.ok=1",
            "core.decompose.segments#1",
            "core.restore.ns#1",
            "core.restore.segments#1",
            "spt.repair.nodes_touched#1",
            "spt.repair.ns#1",
            "spt.repair.settled#1",
        ]
    );
}

#[test]
fn unaffected_restore_counts_ok_but_not_affected() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = gnm_connected(12, 26, 5, 3);
    let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 7));
    let restorer = Restorer::new(&oracle);
    let (s, t) = (NodeId::new(0), NodeId::new(11));
    let base = oracle.base_path(s, t).expect("connected");
    // Fail a link *off* the base path.
    let off_path = oracle
        .graph()
        .edge_ids()
        .find(|e| !base.edges().contains(e))
        .expect("graph has spare links");
    let failures = FailureSet::of_edge(off_path);

    let ok = counter("core.restore.ok");
    let affected = counter("core.restore.affected");
    let r = restorer.restore(s, t, &failures).expect("restorable");
    assert!(!r.affected);
    assert_eq!(counter("core.restore.ok"), ok + 1);
    assert_eq!(counter("core.restore.affected"), affected);
}

#[test]
fn bounded_store_shard_counters_match_observed_behavior() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = gnm_connected(15, 34, 6, 9);
    // Shards of one source under an 8-tree budget: a per-tree cache.
    let store = ShardedBasePaths::with_budget(g, CostModel::new(Metric::Weighted, 2), 8, 1, 1);

    let hits = counter("core.store.shard_hit");
    let misses = counter("core.store.shard_miss");
    // 5 sources x 15 targets = 75 tree lookups over 5 distinct trees.
    for s in 0..5usize {
        for t in 0..15usize {
            let _ = store.base_dist(s.into(), t.into());
        }
    }
    let hit_delta = counter("core.store.shard_hit") - hits;
    let miss_delta = counter("core.store.shard_miss") - misses;
    // Under the budget nothing evicts, so misses are exactly the
    // distinct sources — which is what the store itself reports.
    assert_eq!(miss_delta, store.resident_trees() as u64);
    assert_eq!(miss_delta, 5);
    assert_eq!(hit_delta + miss_delta, 75);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses), (hit_delta, miss_delta));
}

/// A merged domain establishes a one-hop LSP for each raw-edge segment it
/// has no LSP for yet, and counts each one, as the per-pair domain does.
/// The graph is the merged-restoration unit test's, where one of these
/// restorations needs a raw edge.
#[test]
fn merged_restoration_counts_on_demand_lsps() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = DenseBasePaths::build(
        gnm_connected(18, 40, 7, 8),
        CostModel::new(Metric::Weighted, 8),
    );
    let mut dom = ProvisionedDomain::new(&oracle);
    dom.provision_merged(&oracle).expect("provisioned");
    let restorer = Restorer::new(&oracle);
    let mut one_hop = 0;
    for t in [5usize, 11, 17] {
        let base = oracle.base_path(0.into(), t.into()).expect("connected");
        for &failed in base.edges() {
            let failures = FailureSet::of_edge(failed);
            let Ok(r) = restorer.restore(0.into(), t.into(), &failures) else {
                continue;
            };
            let (lsps, counted) = (
                dom.net().lsps().count(),
                counter("core.provision.on_demand_lsps"),
            );
            dom.apply_source_restoration_merged(&r).expect("applied");
            let established = (dom.net().lsps().count() - lsps) as u64;
            assert_eq!(
                counter("core.provision.on_demand_lsps") - counted,
                established
            );
            one_hop += established;
        }
    }
    assert!(one_hop > 0, "no restoration needed a one-hop LSP");
}
