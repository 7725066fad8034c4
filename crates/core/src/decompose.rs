//! Decomposing a restoration path into base-path concatenations.
//!
//! This is §4.1 of the paper. Because the base set (canonical shortest
//! paths under padded weights) is closed under taking subpaths, the greedy
//! longest-prefix strategy is optimal: if any decomposition covers the path
//! with `c` segments, so does the greedy one. [`greedy_decompose`] runs in
//! `O(len)` tree-step checks; [`optimal_decompose`] is the paper's
//! "Dijkstra over surviving base paths" fallback, which also searches over
//! *all* canonical shortest paths instead of one, and is used here to
//! validate the greedy result and for the ablation benchmarks.

use crate::BasePathOracle;
use rbpc_graph::{shortest_path_tree, FailureSet, NodeId, Path, Topology};
use rbpc_obs::{obs_count, obs_record, obs_trace, obs_trace_attr};
use std::collections::VecDeque;

/// What a segment of a concatenation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A provisioned base LSP (a canonical shortest path of the original
    /// network).
    BasePath,
    /// A raw single edge that is not a base path — the "`k` edges" of
    /// Theorem 2, provisioned as one-hop LSPs.
    RawEdge,
}

/// One piece of a restoration concatenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Whether this piece is a base LSP or a raw edge.
    pub kind: SegmentKind,
    /// The piece itself (a subpath of the restoration path).
    pub path: Path,
}

impl Segment {
    /// Start router of the segment.
    pub fn source(&self) -> NodeId {
        self.path.source()
    }

    /// End router of the segment.
    pub fn target(&self) -> NodeId {
        self.path.target()
    }
}

/// A restoration path expressed as a sequence of base LSPs and raw edges —
/// what the source router encodes as a label stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Concatenation {
    segments: Vec<Segment>,
}

impl Concatenation {
    /// An empty concatenation (restoring a trivial path).
    pub fn empty() -> Self {
        Concatenation {
            segments: Vec::new(),
        }
    }

    pub(crate) fn from_segments(segments: Vec<Segment>) -> Self {
        debug_assert!(segments.windows(2).all(|w| w[0].target() == w[1].source()));
        Concatenation { segments }
    }

    /// The segments in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total number of segments — the paper's **PC length**.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there are no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of base-path segments.
    pub fn base_path_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::BasePath)
            .count()
    }

    /// Number of raw-edge segments.
    pub fn raw_edge_count(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::RawEdge)
            .count()
    }

    /// Theorem 1 certificate: for `k` *edge* failures on an unweighted
    /// metric, the restoration path splits into at most `k + 1` base
    /// paths with no raw edges — the label stack is at most `k + 1` deep.
    pub fn within_theorem1(&self, k: usize) -> bool {
        self.raw_edge_count() == 0 && self.len() <= k + 1
    }

    /// Theorem 2 certificate: for `k` *edge* failures on a weighted
    /// metric, at most `k + 1` base paths interleaved with at most `k`
    /// raw edges — at most `2k + 1` segments in total. (Theorem 1's bound
    /// implies this one, so it holds for both metrics; see
    /// [`ShortestPathCover::within_theorem2`](crate::theory::ShortestPathCover::within_theorem2)
    /// for the same convention on covers.)
    pub fn within_theorem2(&self, k: usize) -> bool {
        self.len() <= 2 * k + 1 && self.raw_edge_count() <= k
    }

    /// Validates this concatenation as a label stack for a restoration
    /// under `k` equivalent edge failures: segments must be contiguous
    /// (each starts where the previous ended) and the Theorem 2 bound
    /// must hold. Node failures void the theorems (the paper's star
    /// example makes the stack unboundedly deep), so callers must pass
    /// the *edge-failure* `k` and only for edge-only failure sets.
    ///
    /// O(len); intended for `debug_assert!` and the validation harnesses.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_bounds(&self, k: usize) -> Result<(), String> {
        for w in self.segments.windows(2) {
            if w[0].target() != w[1].source() {
                return Err(format!(
                    "segment ending at {} is followed by one starting at {}",
                    w[0].target(),
                    w[1].source()
                ));
            }
        }
        if !self.within_theorem2(k) {
            return Err(format!(
                "{} segments ({} raw edges) exceed the Theorem 2 bound of \
                 {} segments ({} raw edges) for k = {k}",
                self.len(),
                self.raw_edge_count(),
                2 * k + 1,
                k
            ));
        }
        Ok(())
    }

    /// Reassembles the full restoration path.
    ///
    /// Returns `None` for an empty concatenation (no endpoints to name).
    pub fn full_path(&self) -> Option<Path> {
        let mut iter = self.segments.iter();
        let mut path = iter.next()?.path.clone();
        for seg in iter {
            path = path
                .concat(&seg.path)
                .expect("invariant: segments are contiguous by construction");
        }
        Some(path)
    }
}

/// Greedy longest-prefix decomposition of `path` into base paths and raw
/// edges (the operational RBPC algorithm, §4.1).
///
/// Segments are subpaths of `path`; since the input is the post-failure
/// shortest path, every produced base-path segment automatically consists
/// of surviving elements. For a trivial `path` the result is empty.
///
/// With the padded (unique) shortest paths of this crate family, the
/// result has the minimum possible number of segments; Theorems 1–3 bound
/// it by `k + 1` base paths plus (in the weighted case) `k` raw edges.
///
/// ```
/// use rbpc_core::{greedy_decompose, BasePathOracle, DenseBasePaths};
/// use rbpc_graph::{shortest_path, CostModel, FailureSet, Metric};
///
/// let comb = rbpc_topo::comb(3); // Figure 2, k = 3
/// let model = CostModel::new(Metric::Unweighted, 0);
/// let oracle = DenseBasePaths::build(comb.graph.clone(), model);
/// let failures = FailureSet::of_edges(comb.spine_edges.iter().copied());
/// let backup =
///     shortest_path(&failures.view(&comb.graph), &model, comb.s, comb.t).unwrap();
/// let conc = greedy_decompose(&oracle, &backup);
/// assert_eq!(conc.len(), 4); // exactly k + 1 — the comb is tight
/// ```
pub fn greedy_decompose<O: BasePathOracle>(oracle: &O, path: &Path) -> Concatenation {
    let mut trace = obs_trace!("decompose.greedy", cat: "concat", hops = path.hop_count());
    let last = path.nodes().len() - 1;
    let mut segments = Vec::new();
    let mut i = 0;
    while i < last {
        let j = oracle.longest_base_prefix(path, i);
        if j == i {
            // Not even one hop agrees with the tree: this edge is not a
            // base path (e.g. a surviving parallel twin). Emit it raw.
            obs_count!("core.decompose.raw_edge_fallback");
            obs_trace_attr!(trace, raw_edge_at = i);
            segments.push(Segment {
                kind: SegmentKind::RawEdge,
                path: path.subpath(i, i + 1),
            });
            i += 1;
        } else {
            segments.push(Segment {
                kind: SegmentKind::BasePath,
                path: path.subpath(i, j),
            });
            i = j;
        }
    }
    obs_count!("core.decompose.calls");
    obs_record!("core.decompose.segments", segments.len());
    obs_trace_attr!(trace, segments = segments.len());
    Concatenation::from_segments(segments)
}

/// Optimal decomposition by searching the *jump graph*: BFS from `s` where
/// one hop follows any surviving base path (or raw edge) that advances
/// along **some** post-failure shortest path. This is the paper's
/// "run Dijkstra on the graph in which the surviving base paths are edges",
/// restricted to shortest routes.
///
/// Returns `None` when `t` is not reachable in the post-failure network.
/// Cost: `O(n²·len)` in the worst case — meant for validation, ablation,
/// and sparse base sets, not the forwarding fast path.
pub fn optimal_decompose<O: BasePathOracle>(
    oracle: &O,
    s: NodeId,
    t: NodeId,
    failures: &FailureSet,
) -> Option<Concatenation> {
    let graph = oracle.graph();
    let model = oracle.cost_model();
    let view = failures.view(graph);
    if !view.node_alive(s) || !view.node_alive(t) {
        return None;
    }
    if s == t {
        return Some(Concatenation::empty());
    }
    // Post-failure distances from s (perturbed, so "on a canonical shortest
    // path" is well defined).
    let dist = shortest_path_tree(&view, model, s);
    dist.perturbed_dist(t)?;

    let n = graph.node_count();
    // BFS over jump counts.
    let mut prev: Vec<Option<(NodeId, Segment)>> = (0..n).map(|_| None).collect();
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[s.index()] = true;
    queue.push_back(s);

    'bfs: while let Some(u) = queue.pop_front() {
        let du = dist
            .perturbed_dist(u)
            .expect("invariant: queued nodes are reachable");
        // Jump 1: surviving raw edges that advance along a shortest path.
        for h in view.live_neighbors(u) {
            let v = h.to;
            if seen[v.index()] {
                continue;
            }
            let dv = match dist.perturbed_dist(v) {
                Some(d) => d,
                None => continue,
            };
            if du + model.perturbed_weight(graph, h.edge) != dv {
                continue;
            }
            let path = Path::from_edges(graph, u, &[h.edge])
                .expect("invariant: a single live edge is a walk");
            let kind = if oracle.is_base_path(&path) {
                SegmentKind::BasePath
            } else {
                SegmentKind::RawEdge
            };
            mark(
                &mut prev,
                &mut seen,
                &mut queue,
                u,
                v,
                Segment { kind, path },
            );
            if v == t {
                break 'bfs;
            }
        }
        // Jump 2: surviving base paths u -> v that advance along a shortest
        // path (checked by perturbed-distance additivity, then intactness).
        let candidates: Vec<NodeId> = oracle.with_spt(u, |spt| {
            (0..n)
                .filter_map(|vi| {
                    let v = NodeId::new(vi);
                    if v == u || seen[vi] {
                        return None;
                    }
                    let c = spt.perturbed_dist(v)?;
                    let dv = dist.perturbed_dist(v)?;
                    (du + c == dv).then_some(v)
                })
                .collect()
        });
        for v in candidates {
            if seen[v.index()] {
                continue;
            }
            let path = oracle
                .base_path(u, v)
                .expect("invariant: v is reachable in u's tree, so the path exists");
            let intact = path.edges().iter().all(|&e| view.edge_alive(e))
                && path.nodes().iter().all(|&x| view.node_alive(x));
            if !intact {
                continue;
            }
            mark(
                &mut prev,
                &mut seen,
                &mut queue,
                u,
                v,
                Segment {
                    kind: SegmentKind::BasePath,
                    path,
                },
            );
            if v == t {
                break 'bfs;
            }
        }
    }

    if !seen[t.index()] {
        // Reachable by distance but BFS missed it — cannot happen, since
        // single surviving shortest-path edges are always valid jumps.
        // lint:allow(panic)
        unreachable!("jump BFS must reach every node the distance tree reaches");
    }
    // Reconstruct.
    let mut segments = Vec::new();
    let mut at = t;
    while at != s {
        let (p, seg) = prev[at.index()]
            .clone()
            .expect("invariant: reached nodes have prev");
        segments.push(seg);
        at = p;
    }
    segments.reverse();
    Some(Concatenation::from_segments(segments))
}

fn mark(
    prev: &mut [Option<(NodeId, Segment)>],
    seen: &mut [bool],
    queue: &mut VecDeque<NodeId>,
    u: NodeId,
    v: NodeId,
    seg: Segment,
) {
    seen[v.index()] = true;
    prev[v.index()] = Some((u, seg));
    queue.push_back(v);
}

/// Helper: can every edge of `path` survive `failures`?
pub(crate) fn path_survives(path: &Path, failures: &FailureSet) -> bool {
    path.edges().iter().all(|&e| !failures.edge_failed(e))
        && path.nodes().iter().all(|&v| !failures.node_failed(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseBasePaths;
    use rbpc_graph::{shortest_path, CostModel, Graph, Metric};
    use rbpc_topo::{comb, gnm_connected, parallel_chain, weighted_tight};

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 9)
    }

    fn unweighted() -> CostModel {
        CostModel::new(Metric::Unweighted, 9)
    }

    #[test]
    fn base_path_decomposes_to_itself() {
        let g = gnm_connected(25, 60, 9, 2);
        let oracle = DenseBasePaths::build(g, model());
        let p = oracle.base_path(0.into(), 20.into()).unwrap();
        let c = greedy_decompose(&oracle, &p);
        assert_eq!(c.len(), 1);
        assert_eq!(c.segments()[0].kind, SegmentKind::BasePath);
        assert_eq!(c.full_path().unwrap(), p);
    }

    #[test]
    fn trivial_path_decomposes_empty() {
        let g = gnm_connected(5, 8, 3, 1);
        let oracle = DenseBasePaths::build(g, model());
        let c = greedy_decompose(&oracle, &Path::trivial(2.into()));
        assert!(c.is_empty());
        assert_eq!(c.full_path(), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn single_failure_needs_at_most_two_paths_unweighted() {
        // Theorem 1, k = 1: concatenation of at most 2 base paths.
        for seed in 0..8 {
            let g = gnm_connected(30, 70, 1, seed);
            let oracle = DenseBasePaths::build(g.clone(), unweighted());
            let base = oracle.base_path(0.into(), 29.into()).unwrap();
            for &e in base.edges() {
                let failures = FailureSet::of_edge(e);
                let view = failures.view(&g);
                if let Some(backup) = shortest_path(&view, &unweighted(), 0.into(), 29.into()) {
                    let c = greedy_decompose(&oracle, &backup);
                    // Theorem 3 bound for k = 1: at most 3 components in
                    // total, of which at most 1 is a raw edge.
                    assert!(
                        c.len() <= 3 && c.raw_edge_count() <= 1,
                        "seed {seed}: {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn comb_is_tight_for_theorem1() {
        // Figure 2: after k spine failures the decomposition needs exactly
        // k + 1 base paths.
        for k in 1..=5 {
            let c = comb(k);
            let oracle = DenseBasePaths::build(c.graph.clone(), unweighted());
            let failures = FailureSet::of_edges(c.spine_edges.iter().copied());
            let view = failures.view(&c.graph);
            let backup = shortest_path(&view, &unweighted(), c.s, c.t).unwrap();
            let conc = greedy_decompose(&oracle, &backup);
            assert_eq!(conc.len(), k + 1, "comb({k})");
            assert_eq!(conc.raw_edge_count(), 0);
        }
    }

    #[test]
    fn weighted_tight_needs_k_extra_edges() {
        // Figure 3: k + 1 base paths interleaved with k raw edges.
        for k in 1..=4 {
            let w = weighted_tight(k);
            let oracle = DenseBasePaths::build(w.graph.clone(), model());
            let failures = FailureSet::of_edges(w.cheap_edges.iter().copied());
            let view = failures.view(&w.graph);
            let backup = shortest_path(&view, &model(), w.s, w.t).unwrap();
            let conc = greedy_decompose(&oracle, &backup);
            assert_eq!(conc.raw_edge_count(), k, "weighted_tight({k})");
            assert_eq!(conc.base_path_count(), k + 1);
        }
    }

    #[test]
    fn parallel_twin_becomes_raw_edge() {
        let p = parallel_chain(1); // 4 nodes, parallel unit edges
        let oracle = DenseBasePaths::build(p.graph.clone(), unweighted());
        // Fail the canonical edge of position 0; the twin must be used and
        // is not a base path.
        let canonical = oracle.base_path(0.into(), 1.into()).unwrap().edges()[0];
        let failures = FailureSet::of_edge(canonical);
        let view = failures.view(&p.graph);
        let backup = shortest_path(&view, &unweighted(), 0.into(), 1.into()).unwrap();
        let conc = greedy_decompose(&oracle, &backup);
        assert_eq!(conc.len(), 1);
        assert_eq!(conc.raw_edge_count(), 1);
    }

    #[test]
    fn greedy_is_optimal_on_random_graphs() {
        for seed in 0..10 {
            let g = gnm_connected(18, 40, 6, seed);
            let oracle = DenseBasePaths::build(g.clone(), model());
            let base = oracle.base_path(0.into(), 17.into()).unwrap();
            for &e in base.edges() {
                let failures = FailureSet::of_edge(e);
                let view = failures.view(&g);
                let Some(backup) = shortest_path(&view, &model(), 0.into(), 17.into()) else {
                    continue;
                };
                let greedy = greedy_decompose(&oracle, &backup);
                let optimal =
                    optimal_decompose(&oracle, 0.into(), 17.into(), &failures).expect("reachable");
                assert_eq!(greedy.len(), optimal.len(), "seed {seed} edge {e}");
            }
        }
    }

    #[test]
    fn optimal_decompose_edge_cases() {
        let g = gnm_connected(10, 20, 4, 0);
        let oracle = DenseBasePaths::build(g.clone(), model());
        // Same endpoints: empty.
        let c = optimal_decompose(&oracle, 3.into(), 3.into(), &FailureSet::new()).unwrap();
        assert!(c.is_empty());
        // Failed endpoint: none.
        let f = FailureSet::of_nodes([3usize]);
        assert!(optimal_decompose(&oracle, 3.into(), 5.into(), &f).is_none());
        assert!(optimal_decompose(&oracle, 5.into(), 3.into(), &f).is_none());
        // No failures: single segment.
        let c2 = optimal_decompose(&oracle, 0.into(), 9.into(), &FailureSet::new()).unwrap();
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn disconnection_yields_none() {
        let mut g = Graph::new(3);
        let e = g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let oracle = DenseBasePaths::build(g, model());
        let f = FailureSet::of_edge(e);
        assert!(optimal_decompose(&oracle, 0.into(), 2.into(), &f).is_none());
    }

    #[test]
    fn segments_report_endpoints_and_survival() {
        let g = gnm_connected(12, 25, 5, 7);
        let oracle = DenseBasePaths::build(g, model());
        let p = oracle.base_path(0.into(), 11.into()).unwrap();
        let c = greedy_decompose(&oracle, &p);
        let seg = &c.segments()[0];
        assert_eq!(seg.source(), 0.into());
        assert_eq!(seg.target(), 11.into());
        assert!(path_survives(&seg.path, &FailureSet::new()));
        let mut f = FailureSet::new();
        f.fail_edge(seg.path.edges()[0]);
        assert!(!path_survives(&seg.path, &f));
        let fnode = FailureSet::of_nodes([0usize]);
        assert!(!path_survives(&seg.path, &fnode));
    }
}
