//! Source-router RBPC: restore disrupted routes by rewriting one FEC entry
//! at the source with a stack of base-LSP labels.

use crate::decompose::path_survives;
use crate::{greedy_decompose, BasePathOracle, Concatenation, RestoreError, SegmentKind};
use rbpc_graph::{par, EdgeId, FailureSet, NodeId, Path, PathCost};
use rbpc_obs::{
    obs_count, obs_flight, obs_flight_now, obs_record, obs_span, obs_trace, obs_trace_attr,
    FlightKind, FlightRecord,
};

/// The result of restoring one source–destination route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restoration {
    /// The route's source router.
    pub source: NodeId,
    /// The route's destination router.
    pub target: NodeId,
    /// The pre-failure base path.
    pub original: Path,
    /// The post-failure canonical shortest path (equals `original` when the
    /// route was unaffected).
    pub backup: Path,
    /// The backup expressed as base LSPs + raw edges — the label stack.
    pub concatenation: Concatenation,
    /// Whether the failures actually disrupted the original path.
    pub affected: bool,
    /// Cost of the original path.
    pub original_cost: PathCost,
    /// Cost of the backup path.
    pub backup_cost: PathCost,
}

impl Restoration {
    /// The paper's **PC length**: number of concatenated pieces.
    pub fn pc_length(&self) -> usize {
        self.concatenation.len()
    }

    /// Whether the backup costs exactly as much as the original (the
    /// paper's **redundancy** predicate: an equal-cost alternative existed).
    pub fn cost_preserved(&self) -> bool {
        self.backup_cost.base == self.original_cost.base
    }

    /// Hop-count stretch `backup_hops / original_hops`.
    pub fn hop_stretch(&self) -> f64 {
        if self.original_cost.hops == 0 {
            1.0
        } else {
            f64::from(self.backup_cost.hops) / f64::from(self.original_cost.hops)
        }
    }

    /// A deterministic 64-bit fingerprint of the restoration *plan* —
    /// endpoints, the backup path (nodes and edges), and the label-stack
    /// decomposition — with no timing in the mix. Two restores that pick
    /// the same backup and the same segment structure hash identically,
    /// so a replayed incident can assert plan equality without shipping
    /// whole paths. FNV-1a over the structural fields.
    pub fn plan_hash(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(PRIME)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        h = mix(h, self.source.index() as u64);
        h = mix(h, self.target.index() as u64);
        h = mix(h, u64::from(self.affected));
        h = mix(h, self.backup.hop_count() as u64);
        for n in self.backup.nodes() {
            h = mix(h, n.index() as u64);
        }
        for e in self.backup.edges() {
            h = mix(h, e.index() as u64);
        }
        for seg in self.concatenation.segments() {
            h = mix(
                h,
                match seg.kind {
                    SegmentKind::BasePath => 1,
                    SegmentKind::RawEdge => 2,
                },
            );
            h = mix(h, seg.source().index() as u64);
            h = mix(h, seg.target().index() as u64);
            h = mix(h, seg.path.hop_count() as u64);
        }
        h
    }
}

/// Computes restorations against a base-path oracle.
///
/// ```
/// use rbpc_core::{BasePathOracle, DenseBasePaths, Restorer};
/// use rbpc_graph::{CostModel, FailureSet, Metric};
///
/// # fn main() -> Result<(), rbpc_core::RestoreError> {
/// let g = rbpc_topo::cycle(6);
/// let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Unweighted, 1));
/// let restorer = Restorer::new(&oracle);
///
/// let base = oracle.base_path(0.into(), 2.into()).expect("connected");
/// let r = restorer.restore(0.into(), 2.into(), &FailureSet::of_edge(base.edges()[0]))?;
/// assert!(r.affected);
/// assert!(r.pc_length() <= 2); // Theorem 1, k = 1: at most two base paths
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Restorer<'a, O> {
    oracle: &'a O,
}

impl<'a, O: BasePathOracle> Restorer<'a, O> {
    /// Creates a restorer over the given oracle.
    pub fn new(oracle: &'a O) -> Self {
        Restorer { oracle }
    }

    /// The oracle in use.
    pub fn oracle(&self) -> &'a O {
        self.oracle
    }

    /// Restores the route `s → t` under `failures`: computes the
    /// post-failure canonical shortest path and its decomposition into
    /// surviving base LSPs (Theorems 1–3 bound the stack depth).
    ///
    /// # Errors
    ///
    /// * [`RestoreError::UnknownNode`] for out-of-range endpoints;
    /// * [`RestoreError::EndpointFailed`] when `s` or `t` failed;
    /// * [`RestoreError::Disconnected`] when no surviving path exists
    ///   (including pairs that were never connected).
    pub fn restore(
        &self,
        s: NodeId,
        t: NodeId,
        failures: &FailureSet,
    ) -> Result<Restoration, RestoreError> {
        let _span = obs_span!("core.restore.ns");
        let mut trace = obs_trace!(
            "restore.source",
            cat: "restore",
            src = s.index(),
            dst = t.index(),
            k_failures = failures.failed_edge_count(),
        );
        obs_count!("core.restore.calls");
        let flight_start = obs_flight_now!();
        let result = self.restore_inner(s, t, failures);
        match &result {
            Ok(r) => {
                obs_count!("core.restore.ok");
                if r.affected {
                    obs_count!("core.restore.affected");
                }
                obs_record!("core.restore.segments", r.concatenation.len());
                obs_trace_attr!(trace, affected = r.affected);
                obs_trace_attr!(trace, stack_depth = r.concatenation.len());
                obs_trace_attr!(trace, raw_edges = r.concatenation.raw_edge_count());
                obs_trace_attr!(trace, stretch = r.hop_stretch());
            }
            Err(e) => {
                obs_count!("core.restore.err");
                obs_trace_attr!(trace, error = e.to_string());
            }
        }
        // Black-box record: the full failure set plus the plan
        // fingerprint (or the error), enough for a bit-for-bit incident
        // replay. The builder only runs when a recorder is installed.
        obs_flight!(FlightRecord {
            src: s.index() as u64,
            dst: t.index() as u64,
            failed_edges: failures.failed_edges().map(|e| e.index() as u64).collect(),
            failed_nodes: failures.failed_nodes().map(|n| n.index() as u64).collect(),
            ok: result.is_ok(),
            segments: result.as_ref().map_or(0, |r| r.concatenation.len() as u64),
            plan_hash: result.as_ref().map_or(0, Restoration::plan_hash),
            latency_ns: rbpc_obs::monotonic_ns().saturating_sub(flight_start),
            detail: result
                .as_ref()
                .err()
                .map_or_else(String::new, ToString::to_string),
            ..FlightRecord::new(FlightKind::Restore)
        });
        result
    }

    // lint:hot: the per-LSP restore fast path — lookup, repair, decompose.
    fn restore_inner(
        &self,
        s: NodeId,
        t: NodeId,
        failures: &FailureSet,
    ) -> Result<Restoration, RestoreError> {
        let graph = self.oracle.graph();
        let model = self.oracle.cost_model();
        for node in [s, t] {
            if node.index() >= graph.node_count() {
                return Err(RestoreError::UnknownNode { node });
            }
            if failures.node_failed(node) {
                return Err(RestoreError::EndpointFailed { node });
            }
        }
        let original = {
            let _t = obs_trace!("base_path.lookup", cat: "lookup");
            self.oracle
                .base_path(s, t)
                .ok_or(RestoreError::Disconnected {
                    source: s,
                    target: t,
                })?
        };
        let affected = !path_survives(&original, failures);
        let backup = if affected {
            // Repair the source's cached tree instead of running Dijkstra
            // over the failed view from scratch (see `with_spt_under`).
            let _t = obs_trace!("backup.search", cat: "lookup");
            self.oracle
                .path_under(s, t, failures)
                .ok_or(RestoreError::Disconnected {
                    source: s,
                    target: t,
                })?
        } else {
            // lint:allow(hot-path) — the caller gets an owned copy of the base path; one clone is the API contract
            original.clone()
        };
        let concatenation = greedy_decompose(self.oracle, &backup);
        // Machine-check the paper's bound on every debug-build restore:
        // for edge-only failure sets the concatenation must satisfy
        // Theorem 2 (node failures make the stack depth unbounded — see
        // the star construction — so they are exempt). The release-mode
        // twin of this check lives in tests/theorem_bounds.rs.
        if failures.failed_node_count() == 0 {
            debug_assert_eq!(
                concatenation.validate_bounds(failures.failed_edge_count()),
                Ok(()),
                "restoration {s} -> {t} violates the Theorem 2 stack bound"
            );
        }
        Ok(Restoration {
            source: s,
            target: t,
            original_cost: original.cost(graph, model),
            backup_cost: backup.cost(graph, model),
            original,
            backup,
            concatenation,
            affected,
        })
    }

    /// Builds the failover plan for a single link: for every given pair
    /// whose base path crosses `link`, the restoration (FEC update) its
    /// source must apply when the link fails. This is what the paper
    /// pre-computes and indexes by link.
    pub fn failover_plan(
        &self,
        link: EdgeId,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> FailoverPlan {
        let failures = FailureSet::of_edge(link);
        let mut updates = Vec::new();
        let mut unrestorable = Vec::new();
        for (s, t) in pairs {
            self.plan_pair(link, &failures, s, t, &mut updates, &mut unrestorable);
        }
        FailoverPlan {
            link,
            updates,
            unrestorable,
        }
    }

    /// One pair's contribution to a failover plan (shared by the
    /// sequential and parallel builders).
    fn plan_pair(
        &self,
        link: EdgeId,
        failures: &FailureSet,
        s: NodeId,
        t: NodeId,
        updates: &mut Vec<FecUpdate>,
        unrestorable: &mut Vec<(NodeId, NodeId)>,
    ) {
        let Some(original) = self.oracle.base_path(s, t) else {
            return;
        };
        if !original.contains_edge(link) {
            return;
        }
        match self.restore(s, t, failures) {
            Ok(r) => updates.push(FecUpdate {
                source: s,
                dest: t,
                restoration: r,
            }),
            Err(_) => unrestorable.push((s, t)),
        }
    }
}

/// Cuts `pairs` into consecutive chunks of at least `size` pairs (the
/// last may be shorter), each extended to the end of its last source's
/// run of pairs, so no run of one source's pairs straddles two chunks.
fn source_chunks(pairs: &[(NodeId, NodeId)], size: usize) -> Vec<&[(NodeId, NodeId)]> {
    let mut chunks = Vec::new();
    let mut rest = pairs;
    while !rest.is_empty() {
        let mut end = size.clamp(1, rest.len());
        while end < rest.len() && rest[end].0 == rest[end - 1].0 {
            end += 1;
        }
        let (chunk, tail) = rest.split_at(end);
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

impl<'a, O: BasePathOracle + Sync> Restorer<'a, O> {
    /// [`Restorer::failover_plan`] on `threads` worker threads.
    ///
    /// Pairs are cut into chunks for the shared work pool
    /// ([`rbpc_graph::par::map_chunks_with`]); a chunk ends where a
    /// source's run of pairs ends, and the pool runs each chunk whole on
    /// one worker, so that worker restores all of a run's pairs and
    /// resumes one repair across them. The chunk results come back in
    /// input order, so the plan — updates, unrestorable list, and their
    /// order — is identical to the sequential builder for every thread
    /// count.
    pub fn failover_plan_par(
        &self,
        link: EdgeId,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> FailoverPlan {
        let failures = FailureSet::of_edge(link);
        let (parts, _) = par::map_chunks_with(
            pairs,
            threads,
            source_chunks,
            || (),
            |_, chunk| {
                let mut updates = Vec::new();
                let mut unrestorable = Vec::new();
                for &(s, t) in chunk {
                    self.plan_pair(link, &failures, s, t, &mut updates, &mut unrestorable);
                }
                (updates, unrestorable)
            },
        );
        let mut updates = Vec::new();
        let mut unrestorable = Vec::new();
        for (mut u, mut r) in parts {
            updates.append(&mut u);
            unrestorable.append(&mut r);
        }
        FailoverPlan {
            link,
            updates,
            unrestorable,
        }
    }
}

/// One FEC-table update triggered by a link failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FecUpdate {
    /// The router whose FEC table changes.
    pub source: NodeId,
    /// The destination whose entry changes.
    pub dest: NodeId,
    /// The restoration to encode (label stack = its concatenation).
    pub restoration: Restoration,
}

/// All FEC updates associated with one link's failure, pre-computable and
/// indexable by link as §4.1 of the paper describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPlan {
    /// The link this plan responds to.
    pub link: EdgeId,
    /// FEC updates to apply at the affected sources.
    pub updates: Vec<FecUpdate>,
    /// Pairs left disconnected by the failure (no restoration exists).
    pub unrestorable: Vec<(NodeId, NodeId)>,
}

impl FailoverPlan {
    /// Number of routes this link failure disrupts (restorable or not).
    pub fn affected_routes(&self) -> usize {
        self.updates.len() + self.unrestorable.len()
    }
}

/// The destinations whose base path from `source` traverses `edge` — the
/// subtree hanging below `edge` in the source's shortest-path tree.
///
/// Useful for discovering affected pairs without scanning all of them.
pub fn destinations_through_edge<O: BasePathOracle>(
    oracle: &O,
    source: NodeId,
    edge: EdgeId,
) -> Vec<NodeId> {
    let (u, v) = oracle.graph().endpoints(edge);
    oracle.with_spt(source, |spt| {
        for below in [u, v] {
            if spt.parent_edge(below) == Some(edge) {
                return spt.subtree(below);
            }
        }
        Vec::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseBasePaths;
    use rbpc_graph::{CostModel, Graph, Metric};
    use rbpc_topo::{cycle, gnm_connected, two_hop_star};

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 13)
    }

    fn oracle(g: &Graph) -> DenseBasePaths {
        DenseBasePaths::build(g.clone(), model())
    }

    #[test]
    fn unaffected_route_passes_through() {
        let g = gnm_connected(20, 45, 8, 3);
        let o = oracle(&g);
        let r = Restorer::new(&o);
        let base = o.base_path(0.into(), 19.into()).unwrap();
        // Fail an edge NOT on the base path.
        let off_path = g.edge_ids().find(|e| !base.contains_edge(*e)).unwrap();
        let res = r
            .restore(0.into(), 19.into(), &FailureSet::of_edge(off_path))
            .unwrap();
        assert!(!res.affected);
        assert_eq!(res.backup, res.original);
        assert_eq!(res.pc_length(), 1);
        assert!(res.cost_preserved());
        assert!((res.hop_stretch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_link_failure_restores_with_short_stack() {
        for seed in 0..6 {
            let g = gnm_connected(25, 55, 7, seed);
            let o = oracle(&g);
            let r = Restorer::new(&o);
            let base = o.base_path(1.into(), 24.into()).unwrap();
            for &e in base.edges() {
                match r.restore(1.into(), 24.into(), &FailureSet::of_edge(e)) {
                    Ok(res) => {
                        assert!(res.affected);
                        assert!(!res.backup.contains_edge(e));
                        // Theorem 3, k = 1: ≤ 3 components, ≤ 1 raw edge.
                        assert!(res.concatenation.len() <= 3);
                        assert!(res.concatenation.raw_edge_count() <= 1);
                        assert!(res.backup_cost.base >= res.original_cost.base);
                        assert_eq!(res.concatenation.full_path().unwrap(), res.backup);
                    }
                    Err(RestoreError::Disconnected { .. }) => {} // bridge edge
                    Err(other) => panic!("unexpected {other}"),
                }
            }
        }
    }

    #[test]
    fn node_failure_restores_around_router() {
        let star = two_hop_star(10);
        let o = DenseBasePaths::build(star.graph.clone(), CostModel::new(Metric::Unweighted, 1));
        let r = Restorer::new(&o);
        let failures = FailureSet::of_nodes([star.hub.index()]);
        let res = r.restore(star.s, star.t, &failures).unwrap();
        assert!(res.affected || !res.original.contains_node(star.hub));
        assert!(!res.backup.contains_node(star.hub));
        // The line is the only survivor: 8 hops, pieces of ≤ 2 hops.
        assert_eq!(res.backup.hop_count(), 8);
        assert!(res.pc_length() >= 4);
    }

    #[test]
    fn endpoint_failure_is_an_error() {
        let g = cycle(5);
        let o = oracle(&g);
        let r = Restorer::new(&o);
        let f = FailureSet::of_nodes([0usize]);
        assert_eq!(
            r.restore(0.into(), 2.into(), &f).unwrap_err(),
            RestoreError::EndpointFailed { node: 0.into() }
        );
        assert_eq!(
            r.restore(2.into(), 0.into(), &f).unwrap_err(),
            RestoreError::EndpointFailed { node: 0.into() }
        );
    }

    #[test]
    fn unknown_node_is_an_error() {
        let g = cycle(4);
        let o = oracle(&g);
        let r = Restorer::new(&o);
        assert_eq!(
            r.restore(0.into(), 9.into(), &FailureSet::new())
                .unwrap_err(),
            RestoreError::UnknownNode { node: 9.into() }
        );
    }

    #[test]
    fn disconnection_is_an_error() {
        let mut g = Graph::new(3);
        let bridge = g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let o = oracle(&g);
        let r = Restorer::new(&o);
        assert_eq!(
            r.restore(0.into(), 2.into(), &FailureSet::of_edge(bridge))
                .unwrap_err(),
            RestoreError::Disconnected {
                source: 0.into(),
                target: 2.into()
            }
        );
    }

    #[test]
    fn failover_plan_covers_exactly_crossing_pairs() {
        let g = cycle(6);
        let o = oracle(&g);
        let r = Restorer::new(&o);
        let link = g.find_edge(0.into(), 1.into()).unwrap();
        let all_pairs: Vec<_> = (0..6)
            .flat_map(|s| (0..6).map(move |t| (NodeId::new(s), NodeId::new(t))))
            .filter(|(s, t)| s != t)
            .collect();
        let plan = r.failover_plan(link, all_pairs.iter().copied());
        assert_eq!(plan.link, link);
        assert!(plan.unrestorable.is_empty()); // a cycle survives any one edge
        assert!(!plan.updates.is_empty());
        for u in &plan.updates {
            assert!(u.restoration.original.contains_edge(link));
            assert!(!u.restoration.backup.contains_edge(link));
            assert_eq!(u.source, u.restoration.source);
            assert_eq!(u.dest, u.restoration.target);
        }
        assert_eq!(plan.affected_routes(), plan.updates.len());
        // Cross-check affected-pair discovery via SPT subtrees.
        let mut via_subtree = 0usize;
        for s in g.nodes() {
            via_subtree += destinations_through_edge(&o, s, link).len();
        }
        assert_eq!(via_subtree, plan.updates.len());
    }

    #[test]
    fn parallel_plan_is_identical_to_sequential() {
        let g = gnm_connected(25, 55, 7, 4);
        let o = oracle(&g);
        let r = Restorer::new(&o);
        let mut pairs: Vec<_> = (0..25)
            .flat_map(|s| (0..25).map(move |t| (NodeId::new(s), NodeId::new(t))))
            .filter(|(s, t)| s != t)
            .collect();
        // A source that comes back after others: two runs of its pairs.
        pairs.extend((1..25).map(|t| (NodeId::new(0), NodeId::new(t))));
        let threads_tried = [1usize, 2, 3, 4, 8];
        // Pair-count chunks would split some source's run at every thread
        // count tried here (24 pairs per source).
        for threads in &threads_tried[1..] {
            let old = pairs.len().div_ceil(threads * 4);
            assert!(
                (old..pairs.len())
                    .step_by(old)
                    .any(|i| pairs[i].0 == pairs[i - 1].0),
                "threads {threads}: no run straddles an old chunk boundary"
            );
        }
        let mut updates = 0;
        for link in g.edge_ids().take(5) {
            let seq = r.failover_plan(link, pairs.iter().copied());
            updates += seq.updates.len();
            for threads in threads_tried {
                let par = r.failover_plan_par(link, &pairs, threads);
                assert_eq!(par, seq, "link {link}, threads {threads}");
            }
        }
        assert!(updates > 0, "some link breaks a route");
    }

    #[test]
    fn plan_chunks_end_at_source_boundaries() {
        let p = |s: usize, t: usize| (NodeId::new(s), NodeId::new(t));
        let pairs = [
            p(0, 1),
            p(0, 2),
            p(0, 3),
            p(1, 0),
            p(2, 0),
            p(2, 1),
            p(0, 4),
        ];
        let lens = |size| -> Vec<usize> {
            source_chunks(&pairs, size)
                .iter()
                .map(|c| c.len())
                .collect()
        };
        assert_eq!(lens(1), [3, 1, 2, 1]);
        assert_eq!(lens(2), [3, 3, 1]);
        assert_eq!(lens(4), [4, 3]);
        assert_eq!(lens(0), [3, 1, 2, 1]);
        assert_eq!(lens(100), [7]);
        assert!(source_chunks(&[], 3).is_empty());
    }

    #[test]
    fn plan_records_unrestorable_pairs() {
        let mut g = Graph::new(3);
        let bridge = g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let o = oracle(&g);
        let r = Restorer::new(&o);
        let plan = r.failover_plan(
            bridge,
            [
                (NodeId::new(0), NodeId::new(2)),
                (NodeId::new(2), NodeId::new(0)),
            ],
        );
        assert_eq!(plan.updates.len(), 0);
        assert_eq!(plan.unrestorable.len(), 2);
        assert_eq!(plan.affected_routes(), 2);
    }

    #[test]
    fn destinations_through_edge_matches_paths() {
        let g = gnm_connected(20, 40, 6, 9);
        let o = oracle(&g);
        for e in g.edge_ids().take(10) {
            let got = destinations_through_edge(&o, 0.into(), e);
            for t in g.nodes() {
                let crosses = o
                    .base_path(0.into(), t)
                    .map(|p| p.contains_edge(e))
                    .unwrap_or(false);
                assert_eq!(got.contains(&t), crosses, "edge {e} target {t}");
            }
        }
    }

    #[test]
    fn plan_hash_is_deterministic_and_structural() {
        let g = gnm_connected(25, 55, 7, 2);
        let o = oracle(&g);
        let r = Restorer::new(&o);
        let base = o.base_path(1.into(), 24.into()).unwrap();
        let f = FailureSet::of_edge(base.edges()[0]);
        let a = r.restore(1.into(), 24.into(), &f).unwrap();
        let b = r.restore(1.into(), 24.into(), &f).unwrap();
        // Same query, same failures: identical plans, identical hashes.
        assert_eq!(a.plan_hash(), b.plan_hash());
        assert_ne!(a.plan_hash(), 0);
        // A different query hashes differently (structural sensitivity).
        let unaffected = r.restore(1.into(), 24.into(), &FailureSet::new()).unwrap();
        assert_ne!(a.plan_hash(), unaffected.plan_hash());
        // Mutating the plan structure changes the hash.
        let mut tweaked = a.clone();
        tweaked.affected = !tweaked.affected;
        assert_ne!(a.plan_hash(), tweaked.plan_hash());
    }

    // Without the `obs` feature the probe compiles to a no-op.
    #[cfg(feature = "obs")]
    #[test]
    fn restore_feeds_the_flight_recorder() {
        use rbpc_obs::{set_flight_recorder, FlightKind, FlightRecorder};
        use std::sync::Arc;

        let g = cycle(6);
        let o = oracle(&g);
        let rst = Restorer::new(&o);
        let link = g.find_edge(0.into(), 1.into()).unwrap();

        let ring = Arc::new(FlightRecorder::new(8));
        let prev = set_flight_recorder(Some(Arc::clone(&ring)));
        let res = rst.restore(0.into(), 2.into(), &FailureSet::of_edge(link));
        set_flight_recorder(prev);

        let res = res.unwrap();
        // Other tests restoring in parallel may also have recorded while
        // the global ring was installed; find our record by its query.
        let frozen = ring.freeze();
        let rec = frozen
            .iter()
            .find(|r| (r.src, r.dst) == (0, 2) && r.failed_edges == vec![link.index() as u64])
            .expect("our restore was recorded");
        assert_eq!(rec.kind, FlightKind::Restore);
        assert!(rec.ok);
        assert_eq!(rec.segments, res.concatenation.len() as u64);
        assert_eq!(rec.plan_hash, res.plan_hash());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn failed_restore_feeds_the_flight_recorder() {
        use rbpc_obs::{set_flight_recorder, FlightKind, FlightRecorder};
        use std::sync::Arc;

        let g = cycle(6);
        let o = oracle(&g);
        let rst = Restorer::new(&o);

        let ring = Arc::new(FlightRecorder::new(8));
        let prev = set_flight_recorder(Some(Arc::clone(&ring)));
        let res = rst.restore(0.into(), 3.into(), &FailureSet::of_nodes([3usize]));
        set_flight_recorder(prev);

        let err = res.expect_err("a failed endpoint cannot be restored");
        let frozen = ring.freeze();
        let rec = frozen
            .iter()
            .find(|r| (r.src, r.dst) == (0, 3) && r.failed_nodes == vec![3])
            .expect("our failed restore was recorded");
        assert_eq!(rec.kind, FlightKind::Restore);
        assert!(!rec.ok);
        assert_eq!(rec.detail, err.to_string());
        assert_eq!(rec.plan_hash, 0);
        assert_eq!(rec.segments, 0);
    }

    #[test]
    fn two_link_failures_stay_bounded() {
        for seed in 0..4 {
            let g = gnm_connected(25, 60, 1, seed); // unweighted-ish (w=1)
            let o = DenseBasePaths::build(g.clone(), CostModel::new(Metric::Unweighted, 2));
            let r = Restorer::new(&o);
            let base = o.base_path(0.into(), 24.into()).unwrap();
            if base.hop_count() < 2 {
                continue;
            }
            let mut f = FailureSet::new();
            f.fail_edge(base.edges()[0]);
            f.fail_edge(base.edges()[base.hop_count() - 1]);
            if let Ok(res) = r.restore(0.into(), 24.into(), &f) {
                // Theorem 3, k = 2: ≤ 5 components, ≤ 2 raw edges.
                assert!(res.concatenation.len() <= 5, "seed {seed}");
                assert!(res.concatenation.raw_edge_count() <= 2, "seed {seed}");
            }
        }
    }
}
