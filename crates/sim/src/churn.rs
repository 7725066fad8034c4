//! Churn workloads: failure/recovery *sequences*, not one-shot outages.
//!
//! The paper treats a single failure event and notes that every
//! restoration "is reversed when the link recovers"; follow-up work on
//! multi-failure recovery (e.g. the Enhanced-MRC line) evaluates schemes
//! under *sequences* of overlapping failures. This module provides that
//! workload: [`churn_sequence`] generates a deterministic stream of
//! [`ChurnEvent`]s with a bounded number of concurrently failed links, and
//! [`churn_under`] drives a scheme through it, simulating an
//! [`outage_under`](crate::outage_under) for every LSP each failure
//! disrupts and counting the routes each recovery lets revert to their
//! base LSP.
//!
//! Every failure here exercises the incremental-repair fast path: the
//! restoration schemes compute their backup routes through
//! `BasePathOracle::path_under` / `with_spt_under`, which repair the
//! source's stored shortest-path tree on the CSR core instead of
//! re-running Dijkstra (see [`rbpc_graph::CsrGraph::repair_path`]; the
//! scalar [`rbpc_graph::repair_after_failures`] is its test reference).
//! A recovery repairs no tree: the routes it lets revert go back to their
//! base LSPs.

use crate::{outage_under, LatencyModel, Scheme};
use rbpc_core::BasePathOracle;
use rbpc_graph::{par, DetRng, EdgeId, FailureSet, Graph, NodeId};
use rbpc_obs::{obs_count, obs_record, obs_trace, obs_trace_attr};

/// One link event in a churn sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnEvent {
    /// A live link goes down.
    Fail(EdgeId),
    /// A previously failed link comes back up.
    Recover(EdgeId),
}

impl ChurnEvent {
    /// The link the event concerns.
    pub fn edge(self) -> EdgeId {
        match self {
            ChurnEvent::Fail(e) | ChurnEvent::Recover(e) => e,
        }
    }
}

/// Generates a deterministic churn sequence of `len` events over `graph`'s
/// links.
///
/// Invariants: only live links fail, only failed links recover, and at
/// most `max_down` links are down at any point (with `max_down` clamped to
/// at least 1). Recoveries become more likely as the down set grows, so
/// long sequences oscillate rather than drift toward a fully failed
/// network. The same `(graph, len, max_down, seed)` always yields the same
/// sequence.
///
/// # Panics
///
/// Panics if the graph has no edges.
pub fn churn_sequence(graph: &Graph, len: usize, max_down: usize, seed: u64) -> Vec<ChurnEvent> {
    let m = graph.edge_count();
    assert!(m > 0, "cannot churn a graph with no edges");
    let max_down = max_down.clamp(1, m);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut down: Vec<EdgeId> = Vec::new();
    let mut events = Vec::with_capacity(len);
    for _ in 0..len {
        let recover = !down.is_empty()
            && (down.len() >= max_down || rng.gen_bool(down.len() as f64 / max_down as f64 * 0.6));
        if recover {
            let i = rng.gen_range(0..down.len());
            events.push(ChurnEvent::Recover(down.swap_remove(i)));
        } else {
            let e = loop {
                let candidate = EdgeId::new(rng.gen_range(0..m));
                if !down.contains(&candidate) {
                    break candidate;
                }
            };
            down.push(e);
            events.push(ChurnEvent::Fail(e));
        }
    }
    events
}

/// What one churn event did to the tracked routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEventReport {
    /// The event.
    pub event: ChurnEvent,
    /// Links down after the event (the instantaneous `k`).
    pub concurrent_down: usize,
    /// Routes whose base path crosses the failed link (0 for recoveries).
    pub disrupted: usize,
    /// Disrupted routes the scheme restored.
    pub restored: usize,
    /// Disrupted routes the scheme could not restore.
    pub unrestorable: usize,
    /// Routes whose base path is fully live again after a recovery — their
    /// restoration is reversed and the default FEC entry reinstated.
    pub reverted: usize,
    /// Mean outage (µs) over this event's restored routes, 0 if none.
    pub mean_outage_us: f64,
    /// Maximum outage (µs) over this event's restored routes.
    pub max_outage_us: u64,
}

/// Aggregate results of one scheme over a full churn sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSummary {
    /// The scheme driven through the sequence.
    pub scheme: Scheme,
    /// Failure events in the sequence.
    pub fail_events: usize,
    /// Recovery events in the sequence.
    pub recover_events: usize,
    /// Total route disruptions across all failure events.
    pub disrupted: usize,
    /// Disruptions the scheme restored.
    pub restored: usize,
    /// Disruptions the scheme could not restore.
    pub unrestorable: usize,
    /// Route reversions across all recovery events.
    pub reverted: usize,
    /// Mean outage (µs) over all restored disruptions.
    pub mean_outage_us: f64,
    /// Maximum outage (µs) observed.
    pub max_outage_us: u64,
    /// Per-event breakdown, in sequence order.
    pub per_event: Vec<ChurnEventReport>,
}

/// One chunk's tally of a failure event's disruptions (merged with sums
/// and maxima, so chunk order cannot affect the summary).
#[derive(Debug, Clone, Copy, Default)]
struct FailTally {
    disrupted: usize,
    restored: usize,
    unrestorable: usize,
    total_us: u64,
    max_us: u64,
}

/// Drives `scheme` through `events`, maintaining the live failure set and
/// evaluating restorations after every event.
///
/// On `Fail(e)`: every pair in `pairs` whose base path crosses `e` is
/// disrupted; its outage under the *full* current failure set is simulated
/// with [`outage_under`](crate::outage_under) (so overlapping failures
/// compound, and backup routes avoid everything that is currently down).
/// On `Recover(e)`: pairs whose base path crosses `e` and is now fully
/// live revert to their base LSP and are counted as `reverted`.
///
/// Each event runs inside a `churn.event` trace span (category `churn`),
/// so per-LSP `outage` spans nest beneath it in a trace export; counters
/// `sim.churn.*` and the `sim.churn.outage_us` histogram aggregate per
/// scheme.
pub fn churn_under<O: BasePathOracle + Sync>(
    oracle: &O,
    model: &LatencyModel,
    pairs: &[(NodeId, NodeId)],
    events: &[ChurnEvent],
    scheme: Scheme,
) -> ChurnSummary {
    churn_under_threads(oracle, model, pairs, events, scheme, 1)
}

/// [`churn_under`] with the per-event pair sweeps fanned out over up to
/// `threads` worker threads.
///
/// The event *sequence* is inherently serial (each event mutates the live
/// failure set), but within one event every tracked pair is independent:
/// a failure's per-LSP outages and a recovery's reversion checks read only
/// the oracle and the frozen failure set. Per-chunk tallies fold with sums
/// and maxima, so the summary — including every [`ChurnEventReport`] — is
/// **bit-identical** to the sequential drive for any thread count.
pub fn churn_under_threads<O: BasePathOracle + Sync>(
    oracle: &O,
    model: &LatencyModel,
    pairs: &[(NodeId, NodeId)],
    events: &[ChurnEvent],
    scheme: Scheme,
    threads: usize,
) -> ChurnSummary {
    let mut live = FailureSet::new();
    let mut down = 0usize;
    let mut per_event = Vec::with_capacity(events.len());
    let mut summary = ChurnSummary {
        scheme,
        fail_events: 0,
        recover_events: 0,
        disrupted: 0,
        restored: 0,
        unrestorable: 0,
        reverted: 0,
        mean_outage_us: 0.0,
        max_outage_us: 0,
        per_event: Vec::new(),
    };
    let mut total_outage_us = 0u64;
    for &event in events {
        let mut span = obs_trace!(
            "churn.event",
            cat: "churn",
            scheme = scheme.name(),
            edge = event.edge().index(),
        );
        obs_count!("sim.churn.events", label: scheme.name(), 1u64);
        let mut report = ChurnEventReport {
            event,
            concurrent_down: 0,
            disrupted: 0,
            restored: 0,
            unrestorable: 0,
            reverted: 0,
            mean_outage_us: 0.0,
            max_outage_us: 0,
        };
        match event {
            ChurnEvent::Fail(e) => {
                summary.fail_events += 1;
                live.fail_edge(e);
                down += 1;
                let mut event_total = 0u64;
                let live = &live;
                let tallies = par::map_chunks(pairs, threads, |chunk| {
                    let mut tally = FailTally::default();
                    for &(s, t) in chunk {
                        let Some(base) = oracle.base_path(s, t) else {
                            continue;
                        };
                        if !base.contains_edge(e) {
                            continue;
                        }
                        tally.disrupted += 1;
                        match outage_under(oracle, model, s, t, e, live, scheme) {
                            Ok(r) => {
                                tally.restored += 1;
                                tally.total_us += r.restored_at_us;
                                tally.max_us = tally.max_us.max(r.restored_at_us);
                                obs_record!(
                                    "sim.churn.outage_us",
                                    label: scheme.name(),
                                    r.restored_at_us
                                );
                            }
                            Err(_) => {
                                tally.unrestorable += 1;
                                obs_count!("sim.churn.unrestorable", label: scheme.name(), 1u64);
                            }
                        }
                    }
                    tally
                });
                for tally in &tallies {
                    report.disrupted += tally.disrupted;
                    report.restored += tally.restored;
                    report.unrestorable += tally.unrestorable;
                    event_total += tally.total_us;
                    report.max_outage_us = report.max_outage_us.max(tally.max_us);
                }
                if report.restored > 0 {
                    report.mean_outage_us = event_total as f64 / report.restored as f64;
                }
                total_outage_us += event_total;
                obs_count!("sim.churn.disrupted", label: scheme.name(), report.disrupted);
            }
            ChurnEvent::Recover(e) => {
                summary.recover_events += 1;
                live.restore_edge(e);
                down = down.saturating_sub(1);
                let live = &live;
                let reverted = par::map_chunks(pairs, threads, |chunk| {
                    chunk
                        .iter()
                        .filter(|&&(s, t)| {
                            oracle.base_path(s, t).is_some_and(|base| {
                                base.contains_edge(e)
                                    && base.edges().iter().all(|&b| !live.edge_failed(b))
                            })
                        })
                        .count()
                });
                report.reverted = reverted.iter().sum();
                obs_count!("sim.churn.reverted", label: scheme.name(), report.reverted);
            }
        }
        report.concurrent_down = down;
        obs_trace_attr!(span, concurrent_down = down);
        obs_trace_attr!(span, disrupted = report.disrupted);
        obs_trace_attr!(span, reverted = report.reverted);
        summary.disrupted += report.disrupted;
        summary.restored += report.restored;
        summary.unrestorable += report.unrestorable;
        summary.reverted += report.reverted;
        summary.max_outage_us = summary.max_outage_us.max(report.max_outage_us);
        per_event.push(report);
    }
    if summary.restored > 0 {
        summary.mean_outage_us = total_outage_us as f64 / summary.restored as f64;
    }
    summary.per_event = per_event;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_core::DenseBasePaths;
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::gnm_connected;
    use std::collections::HashSet;

    fn oracle(seed: u64) -> DenseBasePaths {
        let g = gnm_connected(24, 60, 8, seed);
        DenseBasePaths::build(g, CostModel::new(Metric::Weighted, seed))
    }

    fn pairs(n: usize) -> Vec<(NodeId, NodeId)> {
        (1..n)
            .map(|t| (NodeId::new(0), NodeId::new(t)))
            .chain((1..n / 2).map(|s| (NodeId::new(s), NodeId::new(n - 1))))
            .collect()
    }

    #[test]
    fn sequence_is_deterministic_and_well_formed() {
        let g = gnm_connected(20, 45, 7, 3);
        let a = churn_sequence(&g, 200, 5, 42);
        let b = churn_sequence(&g, 200, 5, 42);
        assert_eq!(a, b);
        assert_ne!(a, churn_sequence(&g, 200, 5, 43));
        let mut down: HashSet<EdgeId> = HashSet::new();
        for ev in &a {
            match *ev {
                ChurnEvent::Fail(e) => {
                    assert!(down.insert(e), "failed an already-failed edge");
                    assert!(down.len() <= 5, "exceeded max_down");
                }
                ChurnEvent::Recover(e) => {
                    assert!(down.remove(&e), "recovered a live edge");
                }
            }
            assert!(ev.edge().index() < g.edge_count());
        }
        assert!(a.iter().any(|e| matches!(e, ChurnEvent::Recover(_))));
    }

    #[test]
    fn max_down_one_alternates_strictly() {
        let g = gnm_connected(10, 20, 4, 1);
        let seq = churn_sequence(&g, 50, 1, 7);
        for (i, ev) in seq.iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(ev, ChurnEvent::Fail(_)), "event {i}");
            } else {
                assert!(matches!(ev, ChurnEvent::Recover(_)), "event {i}");
            }
        }
    }

    #[test]
    fn churn_counts_are_consistent() {
        let o = oracle(9);
        let m = LatencyModel::default();
        let p = pairs(24);
        let events = churn_sequence(o.graph(), 60, 4, 11);
        let s = churn_under(&o, &m, &p, &events, Scheme::SourceRbpc);
        assert_eq!(s.fail_events + s.recover_events, events.len());
        assert_eq!(s.disrupted, s.restored + s.unrestorable);
        assert_eq!(s.per_event.len(), events.len());
        assert!(s.disrupted > 0, "sequence never hit a tracked route");
        if s.restored > 0 {
            assert!(s.mean_outage_us > 0.0);
            assert!(s.max_outage_us as f64 >= s.mean_outage_us);
        }
        let per_event_disrupted: usize = s.per_event.iter().map(|r| r.disrupted).sum();
        assert_eq!(per_event_disrupted, s.disrupted);
        let per_event_reverted: usize = s.per_event.iter().map(|r| r.reverted).sum();
        assert_eq!(per_event_reverted, s.reverted);
    }

    #[test]
    fn recovery_reverts_what_failure_disrupted() {
        let o = oracle(2);
        let m = LatencyModel::default();
        let p = pairs(24);
        // Pick a link on some tracked base path, fail it, recover it.
        let crossed = p
            .iter()
            .find_map(|&(s, t)| o.base_path(s, t).map(|b| b.edges()[0]))
            .unwrap();
        let events = [ChurnEvent::Fail(crossed), ChurnEvent::Recover(crossed)];
        let s = churn_under(&o, &m, &p, &events, Scheme::Hybrid);
        assert!(s.disrupted > 0);
        // Everything is live again after the single recovery, so every
        // disrupted route reverts.
        assert_eq!(s.reverted, s.disrupted);
        assert_eq!(s.per_event[0].concurrent_down, 1);
        assert_eq!(s.per_event[1].concurrent_down, 0);
    }

    #[test]
    fn churn_is_thread_count_invariant() {
        let o = oracle(3);
        let m = LatencyModel::default();
        let p = pairs(24);
        let events = churn_sequence(o.graph(), 40, 3, 17);
        for scheme in [Scheme::Hybrid, Scheme::SourceRbpc] {
            let sequential = churn_under(&o, &m, &p, &events, scheme);
            for threads in [2, 8] {
                let par = churn_under_threads(&o, &m, &p, &events, scheme, threads);
                assert_eq!(par, sequential, "{scheme:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn schemes_rank_as_in_single_failure() {
        let o = oracle(5);
        let m = LatencyModel::default();
        let p = pairs(24);
        let events = churn_sequence(o.graph(), 40, 3, 23);
        let source = churn_under(&o, &m, &p, &events, Scheme::SourceRbpc);
        let re = churn_under(&o, &m, &p, &events, Scheme::Reestablish);
        // Same disruptions, same restorability (both go through the source
        // restorer), strictly more signaling for re-establishment.
        assert_eq!(source.disrupted, re.disrupted);
        assert_eq!(source.restored, re.restored);
        if source.restored > 0 {
            assert!(source.mean_outage_us < re.mean_outage_us);
        }
    }
}
