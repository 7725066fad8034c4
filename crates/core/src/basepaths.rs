//! Base-path oracles: the provisioned set of canonical shortest paths.
//!
//! Theorem 3 of the paper shows a base set with **exactly one** shortest
//! path per ordered pair suffices, provided shortest paths are made unique
//! by infinitesimal padding. Our [`CostModel`] realizes the padding, so the
//! base set is simply "the shortest-path tree of every source", and a path
//! is a base path iff it is a tree path of its own source — an `O(len)`
//! check that never materializes the set.
//!
//! This module holds that query surface, [`BasePathOracle`]; the one
//! store behind it, [`BasePaths`](crate::BasePaths), lives in
//! [`store`](crate::store) and keeps as many trees resident as its budget
//! allows. Every residency returns bit-identical answers because the
//! trees are canonical for a given `(metric, seed)`.

use rbpc_graph::{CostModel, FailureSet, Graph, NodeId, Path, ShortestPathTree};

/// Default worker-thread count for batch provisioning: the machine's
/// available parallelism, or 1 if that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The provisioned base set: one canonical shortest path per ordered pair.
///
/// Every other method is derived from [`BasePathOracle::with_spt`] and
/// [`BasePathOracle::with_spt_under`]; implementors supply the trees
/// before and after a failure.
pub trait BasePathOracle {
    /// The graph the base set was computed over.
    fn graph(&self) -> &Graph;

    /// The cost model (metric + padding seed) defining canonical paths.
    fn cost_model(&self) -> &CostModel;

    /// Runs `f` with the shortest-path tree rooted at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R;

    /// Runs `f` with the shortest-path tree rooted at `source` over the
    /// graph with `failures` applied — the tree a router recomputes when
    /// links go down. It must equal the canonical tree over the failed
    /// view, which is unique because padded costs make shortest paths
    /// unique.
    ///
    /// [`BasePaths`](crate::BasePaths) *repairs* its unfailed tree with
    /// [`CsrGraph::repair_tree`](rbpc_graph::CsrGraph::repair_tree)
    /// (`spt.repair.ns` / `spt.repair.nodes_touched` /
    /// `spt.repair.settled`).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R;

    /// The canonical shortest path from `s` to `t` over the failed view,
    /// or `None` if the failures disconnect the pair.
    ///
    /// [`BasePaths`](crate::BasePaths) overrides this with
    /// [`CsrGraph::repair_path`](rbpc_graph::CsrGraph::repair_path), which
    /// stops repairing once `t` settles, clones no tree, and resumes the
    /// repair of `s` under the same failures that one of the store's
    /// pooled arenas holds.
    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        self.with_spt_under(s, failures, |spt| spt.path_to(t))
    }

    /// The canonical base path from `s` to `t`, or `None` if disconnected.
    fn base_path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        self.with_spt(s, |spt| spt.path_to(t))
    }

    /// Original-metric distance from `s` to `t`.
    fn base_dist(&self, s: NodeId, t: NodeId) -> Option<u64> {
        self.with_spt(s, |spt| spt.base_dist(t))
    }

    /// Whether `path` is exactly the canonical base path between its
    /// endpoints. `O(len)` via tree-step checks; trivial paths qualify.
    fn is_base_path(&self, path: &Path) -> bool {
        self.longest_base_prefix(path, 0) == path.nodes().len() - 1
    }

    /// The largest node index `j ≥ from` such that `path[from..=j]` is a
    /// base path. Returns `from` itself when not even one hop matches the
    /// tree of `path.nodes()[from]`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range for the path.
    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        assert!(from < path.nodes().len(), "from out of range");
        self.with_spt(path.nodes()[from], |spt| tree_prefix(spt, path, from))
    }
}

/// The largest `j ≥ from` such that every hop of `path[from..=j]` is a
/// step of `spt`, the tree of `path.nodes()[from]`.
pub(crate) fn tree_prefix(spt: &ShortestPathTree, path: &Path, from: usize) -> usize {
    let (nodes, edges) = (path.nodes(), path.edges());
    let mut j = from;
    while j + 1 < nodes.len() && spt.is_tree_step(nodes[j], edges[j], nodes[j + 1]) {
        j += 1;
    }
    j
}

impl<O: BasePathOracle> BasePathOracle for &O {
    fn graph(&self) -> &Graph {
        (**self).graph()
    }

    fn cost_model(&self) -> &CostModel {
        (**self).cost_model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        (**self).with_spt(source, f)
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        (**self).with_spt_under(source, failures, f)
    }

    fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
        (**self).path_under(s, t, failures)
    }

    fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
        (**self).longest_base_prefix(path, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseBasePaths;
    use rbpc_graph::Metric;
    use rbpc_topo::gnm_connected;

    fn model() -> CostModel {
        CostModel::new(Metric::Weighted, 21)
    }

    #[test]
    fn base_paths_are_recognized() {
        let g = gnm_connected(30, 70, 9, 3);
        let oracle = DenseBasePaths::build(g.clone(), model());
        for t in [5usize, 17, 29] {
            let p = oracle.base_path(0.into(), t.into()).unwrap();
            assert!(oracle.is_base_path(&p));
            // Subpaths of base paths are base paths (padding uniqueness).
            if p.hop_count() >= 2 {
                assert!(oracle.is_base_path(&p.subpath(1, p.nodes().len() - 1)));
            }
        }
    }

    #[test]
    fn non_base_paths_are_rejected() {
        // A square with one heavy edge: the heavy detour is not a base path.
        let mut g = Graph::new(4);
        for (a, b, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 10)] {
            g.add_edge(a, b, w).unwrap();
        }
        let oracle = DenseBasePaths::build(g.clone(), model());
        let heavy = Path::from_edges(&g, 0.into(), &[3.into()]).unwrap();
        assert!(!oracle.is_base_path(&heavy)); // 0-3 direct costs 10 vs 3
        assert_eq!(oracle.base_dist(0.into(), 3.into()), Some(3));
    }

    #[test]
    fn longest_base_prefix_walks_maximally() {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            g.add_unit_edge(a, b).unwrap();
        }
        let oracle = DenseBasePaths::build(g.clone(), model());
        let p = oracle.base_path(0.into(), 3.into()).unwrap();
        assert_eq!(oracle.longest_base_prefix(&p, 0), 3);
        assert_eq!(oracle.longest_base_prefix(&p, 2), 3);
        assert_eq!(oracle.longest_base_prefix(&p, 3), 3);
    }

    #[test]
    fn trivial_path_is_base() {
        let g = gnm_connected(5, 6, 3, 0);
        let oracle = DenseBasePaths::build(g, model());
        assert!(oracle.is_base_path(&Path::trivial(2.into())));
    }

    #[test]
    fn disconnected_pairs_have_no_base_path() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        let oracle = DenseBasePaths::build(g, model());
        assert_eq!(oracle.base_path(0.into(), 2.into()), None);
        assert_eq!(oracle.base_dist(0.into(), 2.into()), None);
    }

    #[test]
    // The double borrow deliberately exercises the `&O` blanket impl.
    #[allow(clippy::needless_borrows_for_generic_args)]
    fn oracle_by_reference_works() {
        fn takes_oracle<O: BasePathOracle>(o: O) -> usize {
            o.graph().node_count()
        }
        let g = gnm_connected(5, 6, 3, 0);
        let oracle = DenseBasePaths::build(g, model());
        assert_eq!(takes_oracle(&oracle), 5);
        assert_eq!(takes_oracle(&&oracle), 5);

        // The blanket impl must forward `path_under` and
        // `longest_base_prefix` themselves, not fall back to the trait
        // defaults (which go through `with_spt_under` / `with_spt`, and
        // `with_spt` builds shards). The spy counts calls to each.
        struct Spy<'a>(&'a DenseBasePaths, [std::cell::Cell<usize>; 2]);
        impl BasePathOracle for Spy<'_> {
            fn graph(&self) -> &Graph {
                self.0.graph()
            }
            fn cost_model(&self) -> &CostModel {
                self.0.cost_model()
            }
            fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
                self.0.with_spt(source, f)
            }
            fn with_spt_under<R>(
                &self,
                source: NodeId,
                failures: &FailureSet,
                f: impl FnOnce(&ShortestPathTree) -> R,
            ) -> R {
                self.0.with_spt_under(source, failures, f)
            }
            fn path_under(&self, s: NodeId, t: NodeId, failures: &FailureSet) -> Option<Path> {
                self.1[0].set(self.1[0].get() + 1);
                self.0.path_under(s, t, failures)
            }
            fn longest_base_prefix(&self, path: &Path, from: usize) -> usize {
                self.1[1].set(self.1[1].get() + 1);
                self.0.longest_base_prefix(path, from)
            }
        }
        fn path_via<O: BasePathOracle>(o: O) -> Option<Path> {
            o.path_under(0.into(), 4.into(), &FailureSet::of_edge(0.into()))
        }
        fn prefix_via<O: BasePathOracle>(o: O, path: &Path) -> usize {
            o.longest_base_prefix(path, 0)
        }
        let spy = Spy(&oracle, Default::default());
        let _ = path_via(&&spy);
        let base = oracle.base_path(0.into(), 4.into()).unwrap();
        assert_eq!(prefix_via(&&spy, &base), base.hop_count());
        assert_eq!((spy.1[0].get(), spy.1[1].get()), (1, 1));
    }

    #[test]
    fn with_spt_under_empty_failures_is_base_tree() {
        let g = gnm_connected(20, 40, 5, 1);
        let dense = DenseBasePaths::build(g.clone(), model());
        let none = FailureSet::new();
        for s in g.nodes() {
            dense.with_spt_under(s, &none, |spt| assert_eq!(spt, dense.spt(s)));
        }
    }

    #[test]
    fn path_under_avoids_failures() {
        let g = gnm_connected(30, 70, 9, 3);
        let oracle = DenseBasePaths::build(g.clone(), model());
        let p = oracle.base_path(0.into(), 20.into()).unwrap();
        let mut failures = FailureSet::new();
        failures.fail_edge(p.edges()[0]);
        if let Some(q) = oracle.path_under(0.into(), 20.into(), &failures) {
            assert!(!q.contains_edge(p.edges()[0]));
            assert_eq!(
                Some(&q),
                rbpc_graph::shortest_path(&failures.view(&g), &model(), 0.into(), 20.into())
                    .as_ref()
            );
        }
    }

    #[test]
    fn dense_build_is_thread_count_invariant() {
        let g = gnm_connected(30, 70, 9, 3);
        let seq = DenseBasePaths::build_with_threads(g.clone(), model(), 1);
        for threads in [2usize, 4, 8] {
            let par = DenseBasePaths::build_with_threads(g.clone(), model(), threads);
            for s in g.nodes() {
                assert_eq!(seq.spt(s), par.spt(s), "threads = {threads}, source {s}");
            }
        }
        // `build` (auto thread count) must agree too.
        let auto = DenseBasePaths::build(g.clone(), model());
        for s in g.nodes() {
            assert_eq!(seq.spt(s), auto.spt(s));
        }
    }
}
