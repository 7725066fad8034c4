//! Per-scheme outage windows.

use crate::{flood_timeline, LatencyModel};
use rbpc_core::{edge_bypass, end_route, BasePathOracle, RestoreError, Restorer};
use rbpc_graph::{par, EdgeId, FailureSet, NodeId};
use rbpc_obs::{
    obs_count, obs_flight, obs_record, obs_trace, obs_trace_attr, FlightKind, FlightRecord,
};

/// A restoration scheme whose outage window is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Local RBPC, edge-bypass splice at the adjacent router.
    LocalEdgeBypass,
    /// Local RBPC, end-route splice at the adjacent router.
    LocalEndRoute,
    /// Source-router RBPC (waits for the link-state flood).
    SourceRbpc,
    /// Hybrid: local splice first, source rewrite later — outage equals
    /// the local window, final route equals the source one.
    Hybrid,
    /// Teardown + re-establishment of the LSP along the new route.
    Reestablish,
}

impl Scheme {
    /// All simulated schemes, fastest-first by design.
    pub fn all() -> [Scheme; 5] {
        [
            Scheme::LocalEdgeBypass,
            Scheme::LocalEndRoute,
            Scheme::Hybrid,
            Scheme::SourceRbpc,
            Scheme::Reestablish,
        ]
    }

    /// Stable short name, used as the metric label in observability output.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::LocalEdgeBypass => "local_edge_bypass",
            Scheme::LocalEndRoute => "local_end_route",
            Scheme::SourceRbpc => "source_rbpc",
            Scheme::Hybrid => "hybrid",
            Scheme::Reestablish => "reestablish",
        }
    }
}

/// The outage a scheme leaves for one disrupted LSP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageReport {
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Microseconds from the failure until packets flow again.
    pub restored_at_us: u64,
    /// Hop count of the route packets take right after restoration.
    pub interim_hops: u32,
}

impl OutageReport {
    /// Packets lost for a constant-rate flow of `pps` packets per second.
    pub fn packets_lost(&self, pps: u64) -> u64 {
        self.restored_at_us * pps / 1_000_000
    }
}

/// Simulates the outage window of `scheme` for the LSP `s → t` whose link
/// `failed` just died (single-failure scenario).
///
/// ```
/// use rbpc_core::{BasePathOracle, DenseBasePaths};
/// use rbpc_graph::{CostModel, Metric};
/// use rbpc_sim::{outage, LatencyModel, Scheme};
///
/// # fn main() -> Result<(), rbpc_core::RestoreError> {
/// let g = rbpc_topo::cycle(8);
/// let oracle = DenseBasePaths::build(g, CostModel::new(Metric::Unweighted, 1));
/// let model = LatencyModel::default();
/// let lsp = oracle.base_path(0.into(), 3.into()).expect("connected");
/// let local = outage(&oracle, &model, 0.into(), 3.into(), lsp.edges()[1], Scheme::LocalEndRoute)?;
/// let re = outage(&oracle, &model, 0.into(), 3.into(), lsp.edges()[1], Scheme::Reestablish)?;
/// assert!(local.restored_at_us < re.restored_at_us);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`RestoreError`] when the scheme cannot restore the route at
/// all (e.g. the failure disconnects the pair, or edge-bypass cannot patch
/// a bridge).
pub fn outage<O: BasePathOracle>(
    oracle: &O,
    model: &LatencyModel,
    s: NodeId,
    t: NodeId,
    failed: EdgeId,
    scheme: Scheme,
) -> Result<OutageReport, RestoreError> {
    outage_under(
        oracle,
        model,
        s,
        t,
        failed,
        &FailureSet::of_edge(failed),
        scheme,
    )
}

/// Like [`outage`], but under an arbitrary [`FailureSet`] — `failed` is the
/// link on the LSP whose loss the adjacent router detects, while `failures`
/// may contain further failed elements (multi-failure scenarios).
///
/// This is where a restoration's **trace** is minted: injecting the failure
/// opens a root span (category `restore`, attributes `scheme`/`k_failures`)
/// and every step below — flood wait, base-path lookup, concatenation
/// search, FEC rewrite or ILM splice — records a child span, so the whole
/// recovery of one LSP can be followed end to end in `rbpc-eval trace` or
/// a Perfetto export.
///
/// # Errors
///
/// As [`outage`]; `failed` must be an element of `failures` for the
/// modeled timeline to make sense (not enforced).
pub fn outage_under<O: BasePathOracle>(
    oracle: &O,
    model: &LatencyModel,
    s: NodeId,
    t: NodeId,
    failed: EdgeId,
    failures: &FailureSet,
    scheme: Scheme,
) -> Result<OutageReport, RestoreError> {
    let mut root = obs_trace!(
        "outage",
        cat: "restore",
        scheme = scheme.name(),
        k_failures = failures.failed_edge_count(),
        src = s.index(),
        dst = t.index(),
    );
    let restorer = Restorer::new(oracle);
    let lsp_path = {
        let _t = obs_trace!("base_path.lookup", cat: "lookup");
        oracle.base_path(s, t).ok_or(RestoreError::Disconnected {
            source: s,
            target: t,
        })?
    };
    let source_aware = {
        let mut t_flood = obs_trace!("flood.timeline", cat: "flood");
        let flood = flood_timeline(oracle.graph(), failures, model);
        let aware = flood.at(s);
        if let Some(aware_us) = aware {
            obs_trace_attr!(t_flood, source_aware_us = aware_us);
        }
        aware
    };

    let (restored_at_us, interim_hops) = match scheme {
        Scheme::LocalEdgeBypass => {
            let lr = edge_bypass(oracle, &lsp_path, failed, failures)?;
            let _t = obs_trace!(
                "ilm.splice",
                cat: "splice",
                modeled_us = model.detection_us + model.ilm_write_us,
                labels = lr.pc_length(),
            );
            (
                model.detection_us + model.ilm_write_us,
                lr.end_to_end.hop_count() as u32,
            )
        }
        Scheme::LocalEndRoute => {
            let lr = end_route(oracle, &lsp_path, failed, failures)?;
            let _t = obs_trace!(
                "ilm.splice",
                cat: "splice",
                modeled_us = model.detection_us + model.ilm_write_us,
                labels = lr.pc_length(),
            );
            (
                model.detection_us + model.ilm_write_us,
                lr.end_to_end.hop_count() as u32,
            )
        }
        Scheme::Hybrid => {
            // Outage ends at the first successful local splice; fall back
            // to end-route when edge-bypass cannot patch.
            let lr = edge_bypass(oracle, &lsp_path, failed, failures)
                .or_else(|_| end_route(oracle, &lsp_path, failed, failures))?;
            let _t = obs_trace!(
                "ilm.splice",
                cat: "splice",
                modeled_us = model.detection_us + model.ilm_write_us,
                labels = lr.pc_length(),
            );
            (
                model.detection_us + model.ilm_write_us,
                lr.end_to_end.hop_count() as u32,
            )
        }
        Scheme::SourceRbpc => {
            let r = restorer.restore(s, t, failures)?;
            // The label stack the source router would push must respect
            // the paper's depth bound (edge-only failure sets).
            debug_assert!(
                failures.failed_node_count() > 0
                    || r.concatenation
                        .validate_bounds(failures.failed_edge_count())
                        .is_ok(),
                "simulated restoration violates the Theorem 2 stack bound"
            );
            let aware = source_aware.ok_or(RestoreError::Disconnected {
                source: s,
                target: t,
            })?;
            let _t = obs_trace!(
                "fec.rewrite",
                cat: "rewrite",
                modeled_us = model.fec_write_us,
                flood_wait_us = aware,
                stack_depth = r.concatenation.len(),
            );
            (aware + model.fec_write_us, r.backup_cost.hops)
        }
        Scheme::Reestablish => {
            let r = restorer.restore(s, t, failures)?;
            let aware = source_aware.ok_or(RestoreError::Disconnected {
                source: s,
                target: t,
            })?;
            // Label request travels to the egress and mappings come back:
            // two passes over the new path, one signaling delay per hop,
            // then ILM installs (pipelined with the mapping pass, charge
            // one write) and the FEC switch.
            let hops = u64::from(r.backup_cost.hops);
            let _t = obs_trace!(
                "lsp.reestablish",
                cat: "rewrite",
                modeled_us = 2 * hops * model.signal_hop_us
                    + model.ilm_write_us
                    + model.fec_write_us,
                flood_wait_us = aware,
                signal_hops = hops,
            );
            (
                aware + 2 * hops * model.signal_hop_us + model.ilm_write_us + model.fec_write_us,
                r.backup_cost.hops,
            )
        }
    };
    obs_count!("sim.outage.events", label: scheme.name(), 1u64);
    obs_record!("sim.outage.restored_us", label: scheme.name(), restored_at_us);
    // Black-box record of the simulated outage window: scheme in
    // `detail`, the *modeled* restoration latency (µs → ns) rather than
    // wall clock, no plan hash (the restore hook records that).
    obs_flight!(FlightRecord {
        src: s.index() as u64,
        dst: t.index() as u64,
        failed_edges: failures.failed_edges().map(|e| e.index() as u64).collect(),
        failed_nodes: failures.failed_nodes().map(|n| n.index() as u64).collect(),
        ok: true,
        // For outage records the segment slot carries the interim route's
        // hop count (outages have no label stack of their own).
        segments: u64::from(interim_hops),
        latency_ns: restored_at_us.saturating_mul(1_000),
        detail: scheme.name().to_string(),
        ..FlightRecord::new(FlightKind::Outage)
    });
    obs_trace_attr!(root, restored_at_us = restored_at_us);
    obs_trace_attr!(root, interim_hops = interim_hops);
    let base_hops = lsp_path.hop_count() as u32;
    if base_hops > 0 {
        obs_trace_attr!(
            root,
            stretch = f64::from(interim_hops) / f64::from(base_hops)
        );
    }
    Ok(OutageReport {
        scheme,
        restored_at_us,
        interim_hops,
    })
}

/// Aggregate outage statistics for a scheme over many failure events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSummary {
    /// The scheme summarized.
    pub scheme: Scheme,
    /// Events measured.
    pub events: usize,
    /// Events the scheme could not restore.
    pub unrestorable: usize,
    /// Mean outage (microseconds) over restorable events.
    pub mean_us: f64,
    /// Maximum outage observed.
    pub max_us: u64,
}

/// Runs [`outage`] for every link of every sampled pair's base path and
/// summarizes per scheme: [`outage_summary_threads`] on one worker.
pub fn outage_summary<O: BasePathOracle + Sync>(
    oracle: &O,
    model: &LatencyModel,
    pairs: &[(NodeId, NodeId)],
    scheme: Scheme,
) -> OutageSummary {
    outage_summary_threads(oracle, model, pairs, scheme, 1)
}

/// [`outage_summary`], sweeping the sampled pairs on up to `threads`
/// worker threads.
///
/// Each pair's single-link outages are independent, and the summary only
/// folds sums and maxima, so the result is **bit-identical** to the
/// sequential sweep for every thread count (the `--threads` flag of
/// `rbpc-eval latency`).
pub fn outage_summary_threads<O: BasePathOracle + Sync>(
    oracle: &O,
    model: &LatencyModel,
    pairs: &[(NodeId, NodeId)],
    scheme: Scheme,
    threads: usize,
) -> OutageSummary {
    let per_chunk = par::map_chunks(pairs, threads, |chunk| {
        outage_accum(oracle, model, chunk, scheme)
    });
    let mut events = 0usize;
    let mut unrestorable = 0usize;
    let mut total = 0u64;
    let mut max = 0u64;
    for s in &per_chunk {
        events += s.events;
        unrestorable += s.unrestorable;
        total += s.total_us;
        max = max.max(s.max_us);
    }
    let restorable = events - unrestorable;
    OutageSummary {
        scheme,
        events,
        unrestorable,
        mean_us: if restorable == 0 {
            0.0
        } else {
            total as f64 / restorable as f64
        },
        max_us: max,
    }
}

/// One chunk's worth of [`outage_summary`] accumulation, before the mean
/// is taken (so chunks can merge exactly).
struct OutageAccum {
    events: usize,
    unrestorable: usize,
    total_us: u64,
    max_us: u64,
}

fn outage_accum<O: BasePathOracle>(
    oracle: &O,
    model: &LatencyModel,
    pairs: &[(NodeId, NodeId)],
    scheme: Scheme,
) -> OutageAccum {
    let mut acc = OutageAccum {
        events: 0,
        unrestorable: 0,
        total_us: 0,
        max_us: 0,
    };
    for &(s, t) in pairs {
        let Some(base) = oracle.base_path(s, t) else {
            continue;
        };
        for &e in base.edges() {
            acc.events += 1;
            match outage(oracle, model, s, t, e, scheme) {
                Ok(r) => {
                    acc.total_us += r.restored_at_us;
                    acc.max_us = acc.max_us.max(r.restored_at_us);
                }
                Err(_) => {
                    acc.unrestorable += 1;
                    obs_count!("sim.outage.unrestorable", label: scheme.name(), 1u64);
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_core::DenseBasePaths;
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::{cycle, gnm_connected};

    fn oracle(seed: u64) -> DenseBasePaths {
        let g = gnm_connected(20, 45, 7, seed);
        DenseBasePaths::build(g, CostModel::new(Metric::Weighted, seed))
    }

    #[test]
    fn scheme_ordering_holds() {
        let o = oracle(4);
        let m = LatencyModel::default();
        let (s, t) = (NodeId::new(0), NodeId::new(19));
        let base = o.base_path(s, t).unwrap();
        for &e in base.edges() {
            let Ok(local) = outage(&o, &m, s, t, e, Scheme::LocalEndRoute) else {
                continue;
            };
            let source = outage(&o, &m, s, t, e, Scheme::SourceRbpc).unwrap();
            let re = outage(&o, &m, s, t, e, Scheme::Reestablish).unwrap();
            assert!(local.restored_at_us <= source.restored_at_us);
            assert!(source.restored_at_us < re.restored_at_us);
        }
    }

    #[test]
    fn hybrid_is_as_fast_as_local() {
        let o = oracle(5);
        let m = LatencyModel::default();
        let (s, t) = (NodeId::new(1), NodeId::new(18));
        let base = o.base_path(s, t).unwrap();
        let e = base.edges()[0];
        let h = outage(&o, &m, s, t, e, Scheme::Hybrid).unwrap();
        assert_eq!(h.restored_at_us, m.detection_us + m.ilm_write_us);
    }

    #[test]
    fn failure_adjacent_to_source_restores_fast_via_source_too() {
        // When the failed link is the LSP's first hop, the source IS the
        // detector: source RBPC restores within detection + fec write.
        let o = oracle(6);
        let m = LatencyModel::default();
        let (s, t) = (NodeId::new(0), NodeId::new(19));
        let base = o.base_path(s, t).unwrap();
        let first = base.edges()[0];
        let r = outage(&o, &m, s, t, first, Scheme::SourceRbpc).unwrap();
        assert_eq!(r.restored_at_us, m.detection_us + m.fec_write_us);
    }

    #[test]
    fn source_outage_grows_with_flood_distance() {
        // On a long cycle, failing the far end of the LSP means the flood
        // must travel back to the source.
        let g = cycle(10);
        let o = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 1));
        let m = LatencyModel::default();
        let (s, t) = (NodeId::new(0), NodeId::new(4));
        let base = o.base_path(s, t).unwrap();
        assert_eq!(base.hop_count(), 4);
        let near = outage(&o, &m, s, t, base.edges()[0], Scheme::SourceRbpc).unwrap();
        let far = outage(&o, &m, s, t, base.edges()[3], Scheme::SourceRbpc).unwrap();
        assert!(far.restored_at_us > near.restored_at_us);
        // The flood from the far failure crosses 3 hops back to the source.
        assert_eq!(
            far.restored_at_us,
            m.detection_us + 3 * m.flood_hop_us + m.fec_write_us
        );
    }

    #[test]
    fn packets_lost_scales_with_rate() {
        let r = OutageReport {
            scheme: Scheme::SourceRbpc,
            restored_at_us: 50_000,
            interim_hops: 4,
        };
        assert_eq!(r.packets_lost(1_000), 50); // 50 ms at 1k pps
        assert_eq!(r.packets_lost(0), 0);
    }

    #[test]
    fn summary_aggregates() {
        let o = oracle(7);
        let m = LatencyModel::default();
        let pairs: Vec<_> = (1..6).map(|t| (NodeId::new(0), NodeId::new(t))).collect();
        for scheme in Scheme::all() {
            let sum = outage_summary(&o, &m, &pairs, scheme);
            assert_eq!(sum.scheme, scheme);
            assert!(sum.events > 0);
            if sum.events > sum.unrestorable {
                assert!(sum.mean_us > 0.0);
                assert!(sum.max_us as f64 >= sum.mean_us);
            }
        }
        // Local schemes' mean beats re-establishment's.
        let local = outage_summary(&o, &m, &pairs, Scheme::LocalEndRoute);
        let re = outage_summary(&o, &m, &pairs, Scheme::Reestablish);
        assert!(local.mean_us < re.mean_us);
    }

    #[test]
    fn summary_is_thread_count_invariant() {
        let o = oracle(11);
        let m = LatencyModel::default();
        let pairs: Vec<_> = (1..12).map(|t| (NodeId::new(0), NodeId::new(t))).collect();
        for scheme in Scheme::all() {
            let sequential = outage_summary(&o, &m, &pairs, scheme);
            for threads in [1, 2, 8] {
                let par = outage_summary_threads(&o, &m, &pairs, scheme, threads);
                assert_eq!(par, sequential, "{scheme:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn bridge_failures_error_for_local_bypass() {
        let mut g = rbpc_graph::Graph::new(3);
        let bridge = g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let o = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 1));
        let m = LatencyModel::default();
        assert!(outage(
            &o,
            &m,
            NodeId::new(0),
            NodeId::new(2),
            bridge,
            Scheme::LocalEdgeBypass
        )
        .is_err());
    }
}
