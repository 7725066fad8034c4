//! Property test for the resumable targeted repair: one failure event's
//! restorations from one source share a single repair. Through the
//! base-path store (all-resident and bounded) on ISP, G(n,m) and
//! power-law maps, a source's detached targets are asked for in a seeded
//! random order — with repeats, targets outside the region, unreachable
//! targets and failed-node targets — interleaved with other sources,
//! other failure sets, `with_spt_under`, lookups that evict the source's
//! shard, and a second store over a different graph with the same
//! dimensions (whose masks are bitwise equal). Every answer must equal
//! `repair_tree(..).path_to(t)`, the store must count exactly the resumes
//! a model of the thread's repair state predicts, and the kernel's
//! settled count after the last target must not exceed one full repair.

use mpls_rbpc::core::{BasePathOracle, BasePaths};
use mpls_rbpc::graph::{
    CostModel, CsrGraph, DetRng, FailureMask, FailureSet, Graph, Metric, NodeId, Path,
    ShortestPathTree, TreeOwner,
};
use mpls_rbpc::topo::{gnm_connected, internet_like_scaled, isp_topology, IspParams};

fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Failure sets against `base`: 1–3 failed tree edges, a failed transit
/// router, and a transit router cut off by failing all its links (alive
/// but unreachable, with its subtree rerouted).
fn failure_sets(graph: &Graph, base: &ShortestPathTree, rng: &mut DetRng) -> Vec<FailureSet> {
    let n = graph.node_count();
    let tree_edge = |rng: &mut DetRng| loop {
        if let Some(e) = base.parent_edge(NodeId::new(rng.gen_range(0..n))) {
            return e;
        }
    };
    let transit: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| v != base.source() && graph.nodes().any(|c| base.parent_node(c) == Some(v)))
        .collect();
    let mut sets = Vec::new();
    for k in 1..=3 {
        let mut set = FailureSet::new();
        while set.failed_edge_count() < k {
            set.fail_edge(tree_edge(rng));
        }
        sets.push(set);
    }
    sets.push(FailureSet::of_nodes([
        transit[rng.gen_range(0..transit.len())]
    ]));
    let cut = transit[rng.gen_range(0..transit.len())];
    sets.push(FailureSet::of_edges(graph.neighbors(cut).map(|h| h.edge)));
    sets
}

/// Whether `base`'s path to `t` crosses a failed element of `set`.
fn detached(base: &ShortestPathTree, set: &FailureSet, t: NodeId) -> bool {
    base.path_to(t).is_some_and(|p| {
        p.edges().iter().any(|&e| set.edge_failed(e))
            || p.nodes().iter().any(|&v| set.node_failed(v))
    })
}

/// The targets of one source under one failure set, shuffled: every
/// detached target, a few of them twice, a few targets outside the
/// region, and every failed router.
fn targets(
    graph: &Graph,
    base: &ShortestPathTree,
    set: &FailureSet,
    rng: &mut DetRng,
) -> Vec<NodeId> {
    let inside: Vec<NodeId> = graph.nodes().filter(|&t| detached(base, set, t)).collect();
    let outside: Vec<NodeId> = graph.nodes().filter(|&t| !detached(base, set, t)).collect();
    let mut ts = inside.clone();
    for _ in 0..4 {
        ts.push(inside[rng.gen_range(0..inside.len())]);
        ts.push(outside[rng.gen_range(0..outside.len())]);
    }
    ts.extend(set.failed_nodes());
    shuffle(&mut ts, rng);
    ts
}

/// A store and what the test knows about it: its CSR, and the repaired
/// trees the answers are checked against (computed up front, because a
/// kernel call in the middle of a sequence would end the run it resumes).
struct Subject<'a> {
    store: &'a BasePaths,
    csr: CsrGraph,
}

impl Subject<'_> {
    fn reference(&self, s: NodeId, set: &FailureSet) -> ShortestPathTree {
        let base = self.store.with_spt(s, ShortestPathTree::clone);
        let mask = FailureMask::from_set(&self.csr, set);
        self.csr.repair_tree(&base, &mask).0
    }
}

/// Which store, source and failure set this thread's repair arena last
/// ran a resumable repair for — the model the store's count must match.
type Last = Option<(usize, NodeId, usize)>;

/// One `path_under` call checked against `want`; returns whether the
/// model expects it to resume, and updates the model.
fn path_under(
    subject: &Subject,
    tag: usize,
    (s, t): (NodeId, NodeId),
    (set_id, set): (usize, &FailureSet),
    want: Option<Path>,
    last: &mut Last,
    case: &str,
) -> bool {
    assert_eq!(
        subject.store.path_under(s, t, set),
        want,
        "{case}: {s} -> {t} under set {set_id}"
    );
    if set.node_failed(s) || set.node_failed(t) {
        return false;
    }
    let resumes = *last == Some((tag, s, set_id));
    *last = Some((tag, s, set_id));
    resumes
}

/// Runs the resume sequences of `graph` through `store` (and a second
/// store `other` over a different graph with the same node and edge
/// counts), for source `s` and a second source `s2`.
fn check_store(name: &str, store: &BasePaths, other: &BasePaths, s: NodeId, s2: NodeId, seed: u64) {
    let graph = store.graph();
    let model = store.cost_model();
    let subject = Subject {
        store,
        csr: CsrGraph::new(graph, model),
    };
    let twin = Subject {
        store: other,
        csr: CsrGraph::new(other.graph(), other.cost_model()),
    };
    let mut rng = DetRng::seed_from_u64(seed);
    let base = store.with_spt(s, ShortestPathTree::clone);
    let sets = failure_sets(graph, &base, &mut rng);
    // The reference trees, before the sequence starts.
    let refs: Vec<[ShortestPathTree; 3]> = sets
        .iter()
        .map(|set| {
            [
                subject.reference(s, set),
                subject.reference(s2, set),
                twin.reference(s, set),
            ]
        })
        .collect();

    let mut last: Last = None;
    let (mut expected, mut unreachable) = (0u64, 0usize);
    let before = store.stats().resumed_repairs;
    for (i, set) in sets.iter().enumerate() {
        let case = format!("{name}: seed {seed}, source {s}, set {i} {set:?}");
        let j = (i + 1) % sets.len();
        let n = graph.node_count();
        for t in targets(graph, &base, set, &mut rng) {
            let want = refs[i][0].path_to(t);
            unreachable += usize::from(want.is_none() && !set.node_failed(t));
            expected += u64::from(path_under(
                &subject,
                0,
                (s, t),
                (i, set),
                want,
                &mut last,
                &case,
            ));
            let t2 = NodeId::new(rng.gen_range(0..n));
            match rng.gen_range(0..10u32) {
                0 => {
                    // Another source under the same failures.
                    let want = refs[i][1].path_to(t2);
                    expected += u64::from(path_under(
                        &subject,
                        0,
                        (s2, t2),
                        (i, set),
                        want,
                        &mut last,
                        &case,
                    ));
                }
                1 => {
                    // The same source under other failures.
                    let want = refs[j][0].path_to(t2);
                    expected += u64::from(path_under(
                        &subject,
                        0,
                        (s, t2),
                        (j, &sets[j]),
                        want,
                        &mut last,
                        &case,
                    ));
                }
                2 => {
                    // A full-tree repair through the store.
                    store.with_spt_under(s, set, |tree| {
                        assert_eq!(tree, &refs[i][0], "{case}: with_spt_under")
                    });
                    if !set.node_failed(s) {
                        last = None;
                    }
                }
                3 => {
                    // Same source, bitwise-equal mask, different store.
                    let want = refs[i][2].path_to(t);
                    path_under(&twin, 1, (s, t), (i, set), want, &mut last, &case);
                }
                4 => {
                    // A plain lookup: evicts `s`'s shard from a bounded store.
                    let _ = store.base_path(s2, t2);
                }
                _ => {}
            }
        }
    }
    assert!(unreachable > 0, "{name}: no unreachable target exercised");
    assert!(expected > 0, "{name}: no resume exercised");
    assert_eq!(
        store.stats().resumed_repairs - before,
        expected,
        "{name}: resumed repairs"
    );
}

/// The kernel alone, uninterrupted: every call after the first resumes,
/// the region is the full repair's, the settled count only grows, and
/// after the last target it is at most the full repair's.
fn check_kernel(name: &str, graph: &Graph, model: &CostModel, s: NodeId, seed: u64) {
    let csr = CsrGraph::new(graph, model);
    let base = mpls_rbpc::graph::shortest_path_tree(graph, model, s);
    let mut rng = DetRng::seed_from_u64(seed);
    for set in failure_sets(graph, &base, &mut rng) {
        let case = format!("{name}: seed {seed}, source {s}, {set:?}");
        let mask = FailureMask::from_set(&csr, &set);
        let (full, full_work) = csr.repair_tree(&base, &mask);
        let owner = TreeOwner::new();
        let (mut calls, mut settled, mut last) = (0, 0, s);
        for t in targets(graph, &base, &set, &mut rng) {
            let (path, work) = csr.resume_path(&base, &mask, t, &owner);
            assert_eq!(path, full.path_to(t), "{case}: path to {t}");
            if set.node_failed(t) {
                continue;
            }
            assert_eq!(work.resumed, calls > 0, "{case}: target {t}");
            assert_eq!(
                work.nodes_touched, full_work.nodes_touched,
                "{case}: target {t}"
            );
            assert!(work.settled >= settled, "{case}: target {t}");
            settled = work.settled;
            calls += 1;
            last = t;
        }
        assert!(
            settled <= full_work.settled,
            "{case}: {settled} > {}",
            full_work.settled
        );
        // A keyless call never resumes, and ends the run it replaced.
        let (path, work) = csr.repair_path(&base, &mask, last);
        assert_eq!((path, work.resumed), (full.path_to(last), false), "{case}");
        let (path, work) = csr.resume_path(&base, &mask, last, &owner);
        assert_eq!((path, work.resumed), (full.path_to(last), false), "{case}");
        assert!(
            csr.resume_path(&base, &mask, last, &owner).1.resumed,
            "{case}"
        );
    }
}

fn check_family(name: &str, graph: Graph, seed: u64) {
    let model = CostModel::new(Metric::Weighted, seed);
    let (n, m) = (graph.node_count(), graph.edge_count());
    let other = BasePaths::build(gnm_connected(n, m, 20, seed + 1), model);
    let (s, s2) = (NodeId::new(0), NodeId::new(n / 2));
    check_kernel(name, &graph, &model, s, seed);
    let all = BasePaths::build(graph.clone(), model);
    check_store(&format!("{name} all-resident"), &all, &other, s, s2, seed);
    // One shard of two trees resident: `s` and `s2` evict each other.
    let bounded = BasePaths::with_budget(graph, model, 2, 2, 1);
    check_store(&format!("{name} bounded"), &bounded, &other, s, s2, seed);
    assert!(
        bounded.stats().evicted_trees > 0,
        "{name}: bounded store never evicted"
    );
}

#[test]
fn resumed_repair_matches_full_repair_on_isp() {
    check_family("isp", isp_topology(IspParams::default(), 11).graph, 41);
}

#[test]
fn resumed_repair_matches_full_repair_on_gnm() {
    check_family("gnm_600", gnm_connected(600, 1_800, 20, 12), 42);
}

#[test]
fn resumed_repair_matches_full_repair_on_power_law() {
    check_family("powerlaw_800", internet_like_scaled(800, 13), 43);
}
