//! Property test for the resumable targeted repair: one failure event's
//! restorations from one source share a single repair. Through the
//! base-path store (all-resident and bounded) on ISP, G(n,m) and
//! power-law maps, a source's detached targets are asked for in a seeded
//! random order — with repeats, targets outside the region, unreachable
//! targets and failed-node targets — interleaved with other sources,
//! other failure sets, `with_spt_under`, lookups that evict the source's
//! shard, and calls to a second store over a different graph with the
//! same dimensions (whose masks are bitwise equal). Every answer must
//! equal `repair_tree(..).path_to(t)`, each store must count exactly the
//! resumes a model of its own repair state predicts (the second store's
//! calls leave the first's run alone), and the kernel's settled count
//! after the last target must not exceed one full repair. One store
//! shared by 2 and 4 pool workers must answer every call exactly.

use mpls_rbpc::core::{BasePathOracle, BasePaths};
use mpls_rbpc::graph::{
    par, shortest_path_tree, CostModel, CsrGraph, DetRng, FailureSet, Graph, Metric, NodeId, Path,
    RepairArena, ShortestPathTree,
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

/// A store and what the test knows about it: its CSR, and the source
/// and failure set of the repair run its one pooled arena holds — the
/// model its resume count must match.
struct Subject<'a> {
    store: &'a BasePaths,
    csr: CsrGraph,
    last: Option<(NodeId, usize)>,
    expected: u64,
}

impl<'a> Subject<'a> {
    fn new(store: &'a BasePaths) -> Self {
        let csr = CsrGraph::new(store.graph(), store.cost_model());
        Subject {
            store,
            csr,
            last: None,
            expected: 0,
        }
    }

    /// The repaired tree the answers are checked against (computed up
    /// front, on an arena of the test's own).
    fn reference(&self, s: NodeId, set: &FailureSet) -> ShortestPathTree {
        let base = self.store.with_spt(s, ShortestPathTree::clone);
        self.csr
            .repair_tree(&base, set, &mut RepairArena::default())
            .0
    }

    /// One `path_under` call checked against `want`; counts the resume
    /// the model expects, updates the model and returns whether it
    /// expected one.
    fn path_under(
        &mut self,
        (s, t): (NodeId, NodeId),
        (set_id, set): (usize, &FailureSet),
        want: Option<Path>,
        case: &str,
    ) -> bool {
        assert_eq!(
            self.store.path_under(s, t, set),
            want,
            "{case}: {s} -> {t} under set {set_id}"
        );
        if set.node_failed(s) || set.node_failed(t) {
            return false;
        }
        let resumes = self.last == Some((s, set_id));
        self.last = Some((s, set_id));
        self.expected += u64::from(resumes);
        resumes
    }
}

/// Runs the resume sequences of `graph` through `store` (and a second
/// store `other` over a different graph with the same node and edge
/// counts), for source `s` and a second source `s2`.
fn check_store(name: &str, store: &BasePaths, other: &BasePaths, s: NodeId, s2: NodeId, seed: u64) {
    let graph = store.graph();
    let mut subject = Subject::new(store);
    let mut twin = Subject::new(other);
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

    let mut unreachable = 0usize;
    let before = (store.stats().resumed_repairs, other.stats().resumed_repairs);
    for (i, set) in sets.iter().enumerate() {
        let case = format!("{name}: seed {seed}, source {s}, set {i} {set:?}");
        let j = (i + 1) % sets.len();
        let n = graph.node_count();
        for t in targets(graph, &base, set, &mut rng) {
            let want = refs[i][0].path_to(t);
            unreachable += usize::from(want.is_none() && !set.node_failed(t));
            subject.path_under((s, t), (i, set), want, &case);
            let t2 = NodeId::new(rng.gen_range(0..n));
            match rng.gen_range(0..10u32) {
                0 => {
                    // Another source under the same failures.
                    let want = refs[i][1].path_to(t2);
                    subject.path_under((s2, t2), (i, set), want, &case);
                }
                1 => {
                    // The same source under other failures.
                    let want = refs[j][0].path_to(t2);
                    subject.path_under((s, t2), (j, &sets[j]), want, &case);
                }
                2 => {
                    // A full-tree repair through the store.
                    store.with_spt_under(s, set, |tree| {
                        assert_eq!(tree, &refs[i][0], "{case}: with_spt_under")
                    });
                    if !set.node_failed(s) {
                        subject.last = None;
                    }
                }
                3 => {
                    // Same source, bitwise-equal mask, different store:
                    // its arenas are its own.
                    let want = refs[i][2].path_to(t);
                    twin.path_under((s, t), (i, set), want, &case);
                }
                4 => {
                    // A plain lookup: evicts `s`'s shard from a bounded store.
                    let _ = store.base_path(s2, t2);
                }
                _ => {}
            }
        }
    }
    // The twin's calls, interleaved into a fresh run of this store,
    // leave it resumable.
    let (set, case) = (&sets[0], format!("{name}: interleaved twin"));
    let mut live = targets(graph, &base, set, &mut rng);
    live.retain(|&t| !set.node_failed(t));
    store.with_spt_under(s, set, |_| ());
    subject.last = None;
    for (k, &t) in live.iter().enumerate() {
        let resumes = subject.path_under((s, t), (0, set), refs[0][0].path_to(t), &case);
        assert_eq!(resumes, k > 0, "{case}: target {t}");
        twin.path_under((s, t), (0, set), refs[0][2].path_to(t), &case);
    }
    assert!(unreachable > 0, "{name}: no unreachable target exercised");
    assert!(subject.expected > 0, "{name}: no resume exercised");
    assert_eq!(
        (
            store.stats().resumed_repairs - before.0,
            other.stats().resumed_repairs - before.1,
        ),
        (subject.expected, twin.expected),
        "{name}: resumed repairs of the store and its twin"
    );
}

/// The kernel alone, uninterrupted: every call after the first resumes,
/// the region is the full repair's, the settled count only grows, and
/// after the last target it is at most the full repair's. Then the run
/// is interrupted: by another arena (which leaves it alone), by the same
/// arena on `twin`, a graph of the same dimensions (which ends it), and
/// by a full repair (which ends it too).
fn check_kernel(name: &str, graph: &Graph, twin: &Graph, model: &CostModel, s: NodeId, seed: u64) {
    let csr = CsrGraph::new(graph, model);
    let base = shortest_path_tree(graph, model, s);
    let twin_csr = CsrGraph::new(twin, model);
    let twin_base = shortest_path_tree(twin, model, s);
    let mut rng = DetRng::seed_from_u64(seed);
    for set in failure_sets(graph, &base, &mut rng) {
        let case = format!("{name}: seed {seed}, source {s}, {set:?}");
        let arena = &mut RepairArena::default();
        let (full, full_work) = csr.repair_tree(&base, &set, arena);
        let (mut calls, mut settled, mut last) = (0, 0, s);
        for t in targets(graph, &base, &set, &mut rng) {
            let (path, work) = csr.repair_path(&base, &set, t, arena);
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
        let want = full.path_to(last);
        let repair_path = |csr: &CsrGraph, base, arena: &mut RepairArena| {
            let (path, work) = csr.repair_path(base, &set, last, arena);
            (path, work.resumed)
        };
        assert_eq!(
            repair_path(&csr, &base, &mut RepairArena::default()),
            (want.clone(), false),
            "{case}: another arena"
        );
        assert_eq!(
            repair_path(&csr, &base, arena),
            (want.clone(), true),
            "{case}"
        );
        let twin_want = twin_csr
            .repair_tree(&twin_base, &set, &mut RepairArena::default())
            .0
            .path_to(last);
        assert_eq!(
            repair_path(&twin_csr, &twin_base, arena),
            (twin_want, false),
            "{case}: the twin graph"
        );
        assert_eq!(
            repair_path(&csr, &base, arena),
            (want.clone(), false),
            "{case}"
        );
        assert_eq!(
            repair_path(&csr, &base, arena),
            (want.clone(), true),
            "{case}"
        );
        assert_eq!(csr.repair_tree(&base, &set, arena).0, full, "{case}");
        assert_eq!(
            repair_path(&csr, &base, arena),
            (want.clone(), false),
            "{case}"
        );
        assert_eq!(repair_path(&csr, &base, arena), (want, true), "{case}");
    }
}

fn check_family(name: &str, graph: Graph, seed: u64) {
    let model = CostModel::new(Metric::Weighted, seed);
    let (n, m) = (graph.node_count(), graph.edge_count());
    let twin = gnm_connected(n, m, 20, seed + 1);
    let other = || BasePaths::build(twin.clone(), model);
    let (s, s2) = (NodeId::new(0), NodeId::new(n / 2));
    check_kernel(name, &graph, &twin, &model, s, seed);
    let all = BasePaths::build(graph.clone(), model);
    check_store(&format!("{name} all-resident"), &all, &other(), s, s2, seed);
    // One shard of two trees resident: `s` and `s2` evict each other.
    let bounded = BasePaths::with_budget(graph, model, 2, 2, 1);
    check_store(&format!("{name} bounded"), &bounded, &other(), s, s2, seed);
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

/// One store shared by the work pool's workers: at 2 and 4 workers, every
/// `path_under` of several sources under several failure sets, in chunks
/// that split each event's targets across workers, equals the reference
/// tree's path, and the workers' pooled arenas still resume runs.
#[test]
fn parallel_workers_share_one_store() {
    let graph = gnm_connected(300, 900, 20, 14);
    let model = CostModel::new(Metric::Weighted, 44);
    let store = BasePaths::build(graph.clone(), model);
    let subject = Subject::new(&store);
    let mut rng = DetRng::seed_from_u64(44);
    let mut sets = Vec::new();
    let mut calls = Vec::new();
    for s in [0, 75, 150, 225].map(NodeId::new) {
        let base = store.with_spt(s, ShortestPathTree::clone);
        for set in failure_sets(&graph, &base, &mut rng) {
            let reference = subject.reference(s, &set);
            for t in targets(&graph, &base, &set, &mut rng) {
                calls.push((s, t, sets.len(), reference.path_to(t)));
            }
            sets.push(set);
        }
    }
    for threads in [2, 4] {
        let before = store.stats().resumed_repairs;
        let answers = par::map_chunks(&calls, threads, |chunk| {
            chunk
                .iter()
                .map(|(s, t, i, _)| store.path_under(*s, *t, &sets[*i]))
                .collect::<Vec<_>>()
        });
        let answers: Vec<Option<Path>> = answers.into_iter().flatten().collect();
        assert_eq!(answers.len(), calls.len());
        for ((s, t, i, want), got) in calls.iter().zip(&answers) {
            assert_eq!(got, want, "{threads} workers: {s} -> {t} under set {i}");
        }
        assert!(
            store.stats().resumed_repairs > before,
            "{threads} workers: no run resumed"
        );
    }
}
