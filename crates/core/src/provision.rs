//! Driving a simulated MPLS domain with RBPC.
//!
//! [`ProvisionedDomain`] owns an [`MplsNetwork`], tracks which base LSPs
//! exist, and applies the restoration schemes as real table operations —
//! so every computed restoration can be validated by forwarding a packet
//! through the (failed) network.

use crate::{Concatenation, LocalRestoration, Restoration, Segment, SegmentKind};
use rbpc_graph::{EdgeId, FailureSet, IdMap, NodeId};
use rbpc_mpls::{ForwardError, ForwardTrace, Label, LspId, MplsError, MplsNetwork, SinkTreeId};
use rbpc_obs::{obs_count, obs_span};

use crate::BasePathOracle;

/// Per-router ILM table occupancy of a provisioned domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableReport {
    /// Number of routers.
    pub routers: usize,
    /// Total ILM entries in the domain.
    pub ilm_total: usize,
    /// Smallest per-router ILM table.
    pub ilm_min: usize,
    /// Largest per-router ILM table (the hardware-constrained figure).
    pub ilm_max: usize,
    /// Mean per-router ILM table size.
    pub ilm_avg: f64,
}

/// An MPLS domain provisioned with RBPC base LSPs.
#[derive(Debug)]
pub struct ProvisionedDomain {
    net: MplsNetwork,
    segments: SegmentLsps,
    sink_by_dest: IdMap<NodeId, SinkTreeId>,
    /// Label buffer reused by every merged FEC rewrite.
    merged_labels: Vec<Label>,
}

/// The LSP that carries each kind of concatenation segment.
///
/// Its maps, like `sink_by_dest`, serve lookups only: nothing iterates
/// them (sweeps walk node ids, and table reports read the routers), so
/// their hash order reaches no output.
#[derive(Debug, Default)]
struct SegmentLsps {
    /// The base LSP of each ordered pair.
    by_pair: IdMap<(NodeId, NodeId), LspId>,
    /// The one-hop LSP of each raw edge, keyed by edge and start router.
    by_edge: IdMap<(EdgeId, NodeId), LspId>,
}

impl SegmentLsps {
    fn key(seg: &Segment) -> (EdgeId, NodeId) {
        (seg.path.edges()[0], seg.source())
    }

    /// The LSP carrying `seg`, if one exists.
    fn get(&self, seg: &Segment) -> Option<LspId> {
        match seg.kind {
            SegmentKind::BasePath => self.by_pair.get(&(seg.source(), seg.target())),
            SegmentKind::RawEdge => self.by_edge.get(&Self::key(seg)),
        }
        .copied()
    }

    fn insert(&mut self, seg: &Segment, id: LspId) {
        match seg.kind {
            SegmentKind::BasePath => self.by_pair.insert((seg.source(), seg.target()), id),
            SegmentKind::RawEdge => self.by_edge.insert(Self::key(seg), id),
        };
    }
}

impl ProvisionedDomain {
    /// Creates an empty domain over the oracle's graph.
    pub fn new<O: BasePathOracle>(oracle: &O) -> Self {
        ProvisionedDomain {
            net: MplsNetwork::new(oracle.graph().clone()),
            segments: SegmentLsps::default(),
            sink_by_dest: IdMap::default(),
            merged_labels: Vec::new(),
        }
    }

    /// The underlying MPLS network (tables, stats, forwarding).
    pub fn net(&self) -> &MplsNetwork {
        &self.net
    }

    /// Mutable access to the underlying MPLS network.
    pub fn net_mut(&mut self) -> &mut MplsNetwork {
        &mut self.net
    }

    /// The base LSP provisioned for an ordered pair, if any.
    pub fn lsp_for_pair(&self, s: NodeId, t: NodeId) -> Option<LspId> {
        self.segments.by_pair.get(&(s, t)).copied()
    }

    /// Provisions the base LSP for `s → t` (idempotent) and installs the
    /// default FEC entry at `s`. Returns the LSP, or `None` for `s == t`
    /// or disconnected pairs.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`] from LSP establishment.
    pub fn provision_pair<O: BasePathOracle>(
        &mut self,
        oracle: &O,
        s: NodeId,
        t: NodeId,
    ) -> Result<Option<LspId>, MplsError> {
        if s == t {
            return Ok(None);
        }
        if let Some(&id) = self.segments.by_pair.get(&(s, t)) {
            return Ok(Some(id));
        }
        let Some(path) = oracle.base_path(s, t) else {
            return Ok(None);
        };
        let id = self.net.establish_lsp(path)?;
        obs_count!("core.provision.pair_lsps");
        self.segments.by_pair.insert((s, t), id);
        self.net.set_fec_via_lsps(s, t, &[id])?;
        Ok(Some(id))
    }

    /// Provisions base LSPs and default FEC entries for every ordered pair
    /// of a (small) network — the paper's topology-based static MPLS.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`] from LSP establishment.
    pub fn provision_all_pairs<O: BasePathOracle>(&mut self, oracle: &O) -> Result<(), MplsError> {
        let _span = obs_span!("core.provision.all_pairs.ns");
        let n = oracle.graph().node_count();
        for s in 0..n {
            for t in 0..n {
                self.provision_pair(oracle, NodeId::new(s), NodeId::new(t))?;
            }
        }
        Ok(())
    }

    /// Provisions the **merged** base set (§2's LSP merging): one
    /// per-destination sink tree built from the destination's canonical
    /// shortest-path tree, plus default FEC entries at every source. One
    /// ILM entry per (router, destination) instead of one per (router,
    /// LSP) — the label-frugal deployment of RBPC.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`] from tree establishment.
    pub fn provision_merged<O: BasePathOracle>(&mut self, oracle: &O) -> Result<(), MplsError> {
        let _span = obs_span!("core.provision.merged.ns");
        let n = oracle.graph().node_count();
        for t in 0..n {
            let dest = NodeId::new(t);
            if self.sink_by_dest.contains_key(&dest) {
                continue;
            }
            // The sink tree of `dest` is its shortest-path tree reversed:
            // by symmetry of the perturbed weights, the canonical path
            // s -> dest is the reverse of dest -> s, so each router's next
            // hop toward dest is its tree parent edge.
            let next_hop: Vec<Option<EdgeId>> = oracle.with_spt(dest, |spt| {
                (0..n).map(|r| spt.parent_edge(NodeId::new(r))).collect()
            });
            let id = self.net.establish_sink_tree(dest, next_hop)?;
            obs_count!("core.provision.sink_trees");
            self.sink_by_dest.insert(dest, id);
            for s in 0..n {
                if s == t {
                    continue;
                }
                if let Some(label) = self.net.sink_tree(id)?.label_at(NodeId::new(s)) {
                    self.net.set_fec_raw(NodeId::new(s), dest, [label])?;
                }
            }
        }
        Ok(())
    }

    /// The label under which router `at` enters the merged LSP toward
    /// `dest` (requires [`ProvisionedDomain::provision_merged`]).
    pub fn merged_label(&self, at: NodeId, dest: NodeId) -> Option<Label> {
        let id = self.sink_by_dest.get(&dest)?;
        self.net.sink_tree(*id).ok()?.label_at(at)
    }

    /// Applies a source RBPC restoration against the **merged** base set:
    /// each base-path segment becomes the sink-tree label of its target at
    /// its source; raw-edge segments get one-hop LSPs as usual.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`]; fails with
    /// [`MplsError::NoSuchIlmEntry`]-style errors if the merged set was
    /// not provisioned.
    pub fn apply_source_restoration_merged(&mut self, r: &Restoration) -> Result<(), MplsError> {
        let _span = obs_span!("core.apply.source_merged.ns");
        obs_count!("core.apply.source_merged");
        // The stack is resolved into the domain's reused label buffer, so
        // a rewrite allocates nothing once it has held a stack that deep.
        self.merged_labels.clear();
        for seg in r.concatenation.segments() {
            let label = match seg.kind {
                SegmentKind::BasePath => self.merged_label(seg.source(), seg.target()).ok_or(
                    MplsError::UnknownRouter {
                        router: seg.target(),
                    },
                )?,
                SegmentKind::RawEdge => {
                    let id = self.segment_lsp(seg)?;
                    self.net.lsp(id)?.entry_label()
                }
            };
            self.merged_labels.push(label);
        }
        // Bottom-first: the first segment goes on top.
        let labels = self.merged_labels.iter().rev().copied();
        self.net.set_fec_raw(r.source, r.target, labels)
    }

    /// Resolves (establishing on demand) the LSP for each segment of a
    /// concatenation: base-path segments map to pair LSPs, raw-edge
    /// segments to one-hop LSPs.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`] from LSP establishment.
    pub fn lsps_for_concatenation(
        &mut self,
        conc: &Concatenation,
    ) -> Result<Vec<LspId>, MplsError> {
        conc.segments()
            .iter()
            .map(|seg| self.segment_lsp(seg))
            .collect()
    }

    /// The LSP that carries `seg`, established on demand.
    fn segment_lsp(&mut self, seg: &Segment) -> Result<LspId, MplsError> {
        if let Some(id) = self.segments.get(seg) {
            return Ok(id);
        }
        let id = self.net.establish_lsp(seg.path.clone())?;
        obs_count!("core.provision.on_demand_lsps");
        self.segments.insert(seg, id);
        Ok(id)
    }

    /// Applies a **source RBPC** restoration: one FEC rewrite at the
    /// source, pushing the concatenation's label stack.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`] from the FEC update.
    pub fn apply_source_restoration(&mut self, r: &Restoration) -> Result<(), MplsError> {
        let _span = obs_span!("core.apply.source.ns");
        obs_count!("core.apply.source");
        let segments = r.concatenation.segments();
        // Establish any missing LSP first; the rewrite then only reads.
        for seg in segments {
            self.segment_lsp(seg)?;
        }
        let lsps = &self.segments;
        let chain = segments.iter().map(|seg| {
            lsps.get(seg)
                .expect("invariant: every segment's LSP was established above")
        });
        self.net.set_fec_via_chain(r.source, r.target, chain)
    }

    /// Applies a **local RBPC** splice for the broken LSP `lsp`: rewrites
    /// the ILM entry at `R1`. For end-route restorations the splice goes
    /// all the way to the destination; for edge-bypass it is followed by
    /// the original LSP's label at the far endpoint (resuming the LSP).
    ///
    /// Returns the previous ILM entry so the caller can reverse the splice
    /// on recovery.
    ///
    /// # Errors
    ///
    /// Propagates [`MplsError`]; in particular the broken LSP must hold a
    /// label at `R1`.
    pub fn apply_local_restoration(
        &mut self,
        lsp: LspId,
        lr: &LocalRestoration,
    ) -> Result<rbpc_mpls::IlmEntry, MplsError> {
        let _span = obs_span!("core.apply.local.ns");
        obs_count!("core.apply.local");
        let record = self.net.lsp(lsp)?;
        let broken_label = record.label_at(lr.r1).ok_or(MplsError::NoSuchIlmEntry {
            router: lr.r1,
            label: rbpc_mpls::Label::new(0),
        })?;
        let splice_target = lr
            .concatenation
            .segments()
            .last()
            .map(|s| s.target())
            .unwrap_or(lr.r1);
        // Edge-bypass resumes the original LSP at the splice target (when
        // the LSP continues past it); end-route reaches the destination.
        let tail: Vec<rbpc_mpls::Label> = if splice_target == record.path().target() {
            Vec::new()
        } else {
            match record.label_at(splice_target) {
                Some(l) => vec![l],
                None => Vec::new(),
            }
        };
        let chain = self.lsps_for_concatenation(&lr.concatenation)?;
        self.net.ilm_splice(lr.r1, broken_label, &chain, &tail)
    }

    /// Summary of per-router table occupancy — the operational view of
    /// the paper's label-scarcity discussion.
    pub fn table_report(&self) -> TableReport {
        let sizes = self.net.ilm_sizes();
        let total: usize = sizes.iter().sum();
        TableReport {
            routers: sizes.len(),
            ilm_total: total,
            ilm_min: sizes.iter().copied().min().unwrap_or(0),
            ilm_max: sizes.iter().copied().max().unwrap_or(0),
            ilm_avg: if sizes.is_empty() {
                0.0
            } else {
                total as f64 / sizes.len() as f64
            },
        }
    }

    /// Forwards a packet, delegating to the MPLS network.
    ///
    /// # Errors
    ///
    /// Any [`ForwardError`].
    pub fn forward(
        &self,
        src: NodeId,
        dest: NodeId,
        failures: &FailureSet,
    ) -> Result<ForwardTrace, ForwardError> {
        self.net.forward_with_failures(src, dest, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_bypass, end_route, DenseBasePaths, Restorer};
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::{cycle, gnm_connected};

    fn oracle(seed: u64) -> DenseBasePaths {
        let g = gnm_connected(15, 35, 6, seed);
        DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 5))
    }

    #[test]
    fn provision_and_forward_all_pairs() {
        let o = oracle(1);
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_all_pairs(&o).unwrap();
        let none = FailureSet::new();
        for s in 0..15usize {
            for t in 0..15usize {
                if s == t {
                    continue;
                }
                let trace = dom.forward(s.into(), t.into(), &none).unwrap();
                let base = o.base_path(s.into(), t.into()).unwrap();
                assert_eq!(trace.route(), base.nodes(), "{s}->{t}");
            }
        }
    }

    #[test]
    fn provisioning_is_idempotent() {
        let o = oracle(2);
        let mut dom = ProvisionedDomain::new(&o);
        let a = dom.provision_pair(&o, 0.into(), 5.into()).unwrap();
        let entries = dom.net().total_ilm_entries();
        let b = dom.provision_pair(&o, 0.into(), 5.into()).unwrap();
        assert_eq!(a, b);
        assert_eq!(dom.net().total_ilm_entries(), entries);
        assert_eq!(dom.provision_pair(&o, 3.into(), 3.into()).unwrap(), None);
        assert_eq!(dom.lsp_for_pair(0.into(), 5.into()), a);
        assert_eq!(dom.lsp_for_pair(5.into(), 0.into()), None);
    }

    #[test]
    fn source_restoration_delivers_around_failure() {
        let o = oracle(3);
        let g = o.graph().clone();
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_all_pairs(&o).unwrap();
        let restorer = Restorer::new(&o);
        let base = o.base_path(0.into(), 14.into()).unwrap();
        let failed = base.edges()[0];
        let failures = FailureSet::of_edge(failed);
        // Before restoration: the packet black-holes.
        assert!(dom.forward(0.into(), 14.into(), &failures).is_err());
        // Apply the FEC rewrite and try again.
        let r = restorer.restore(0.into(), 14.into(), &failures).unwrap();
        dom.apply_source_restoration(&r).unwrap();
        let trace = dom.forward(0.into(), 14.into(), &failures).unwrap();
        assert_eq!(trace.route(), r.backup.nodes());
        assert!(!trace.links().contains(&failed));
        let _ = g;
    }

    #[test]
    fn local_end_route_splice_delivers() {
        let g = cycle(6);
        let o = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 5));
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_all_pairs(&o).unwrap();
        let base = o.base_path(0.into(), 2.into()).unwrap();
        let lsp = dom.lsp_for_pair(0.into(), 2.into()).unwrap();
        let failed = base.edges()[1];
        let failures = FailureSet::of_edge(failed);
        let lr = end_route(&o, &base, failed, &failures).unwrap();
        dom.apply_local_restoration(lsp, &lr).unwrap();
        let trace = dom.forward(0.into(), 2.into(), &failures).unwrap();
        assert_eq!(trace.route(), lr.end_to_end.nodes());
    }

    #[test]
    fn local_edge_bypass_splice_delivers_and_reverses() {
        let g = cycle(6);
        let o = DenseBasePaths::build(g, CostModel::new(Metric::Weighted, 5));
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_all_pairs(&o).unwrap();
        let base = o.base_path(0.into(), 3.into()).unwrap();
        let lsp = dom.lsp_for_pair(0.into(), 3.into()).unwrap();
        let failed = base.edges()[1];
        let failures = FailureSet::of_edge(failed);
        let lr = edge_bypass(&o, &base, failed, &failures).unwrap();
        let old = dom.apply_local_restoration(lsp, &lr).unwrap();
        let trace = dom.forward(0.into(), 3.into(), &failures).unwrap();
        assert_eq!(trace.route(), lr.end_to_end.nodes());
        // Link recovers: reverse the splice, original path works again.
        let broken_label = dom.net().lsp(lsp).unwrap().label_at(lr.r1).unwrap();
        dom.net_mut()
            .install_ilm_entry(lr.r1, broken_label, old)
            .unwrap();
        let trace2 = dom.forward(0.into(), 3.into(), &FailureSet::new()).unwrap();
        assert_eq!(trace2.route(), base.nodes());
    }

    #[test]
    fn raw_edge_segments_get_one_hop_lsps() {
        use rbpc_topo::parallel_chain;
        let p = parallel_chain(1);
        let o = DenseBasePaths::build(p.graph.clone(), CostModel::new(Metric::Unweighted, 5));
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_all_pairs(&o).unwrap();
        let restorer = Restorer::new(&o);
        // Fail the canonical 0-1 edge so the twin (a raw edge) is needed.
        let canonical = o.base_path(0.into(), 1.into()).unwrap().edges()[0];
        let failures = FailureSet::of_edge(canonical);
        let r = restorer.restore(0.into(), 3.into(), &failures).unwrap();
        assert!(r.concatenation.raw_edge_count() >= 1);
        dom.apply_source_restoration(&r).unwrap();
        let trace = dom.forward(0.into(), 3.into(), &failures).unwrap();
        assert_eq!(trace.last(), 3.into());
        assert!(!trace.links().contains(&canonical));
    }

    #[test]
    fn fec_rewrite_is_cheap_vs_reestablishment() {
        let o = oracle(4);
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_all_pairs(&o).unwrap();
        let restorer = Restorer::new(&o);
        let base = o.base_path(0.into(), 14.into()).unwrap();
        let failed = base.edges()[0];
        let failures = FailureSet::of_edge(failed);
        let r = restorer.restore(0.into(), 14.into(), &failures).unwrap();
        let before = dom.net().stats();
        dom.apply_source_restoration(&r).unwrap();
        let delta = dom.net().stats().since(&before);
        // All segments already exist as pair LSPs: zero messages, zero ILM
        // writes, exactly one FEC write.
        assert_eq!(delta.messages, 0);
        assert_eq!(delta.ilm_writes, 0);
        assert_eq!(delta.fec_writes, 1);
    }
}

#[cfg(test)]
mod merged_tests {
    use super::*;
    use crate::{DenseBasePaths, Restorer};
    use rbpc_graph::{CostModel, Metric};
    use rbpc_topo::gnm_connected;

    fn oracle(seed: u64) -> DenseBasePaths {
        let g = gnm_connected(18, 40, 7, seed);
        DenseBasePaths::build(g, CostModel::new(Metric::Weighted, seed))
    }

    #[test]
    fn merged_forwards_all_pairs_canonically() {
        let o = oracle(6);
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_merged(&o).unwrap();
        let none = FailureSet::new();
        for s in 0..18usize {
            for t in 0..18usize {
                if s == t {
                    continue;
                }
                let trace = dom.forward(s.into(), t.into(), &none).unwrap();
                let base = o.base_path(s.into(), t.into()).unwrap();
                assert_eq!(trace.route(), base.nodes(), "{s}->{t}");
            }
        }
    }

    #[test]
    fn merged_uses_far_fewer_ilm_entries() {
        let o = oracle(7);
        let mut merged = ProvisionedDomain::new(&o);
        merged.provision_merged(&o).unwrap();
        let mut pairs = ProvisionedDomain::new(&o);
        pairs.provision_all_pairs(&o).unwrap();
        let m = merged.net().total_ilm_entries();
        let p = pairs.net().total_ilm_entries();
        // Merged: n entries per destination = n^2. Pairs: sum of path
        // lengths + 1, strictly more whenever any base path has >= 2 hops.
        assert!(m < p, "merged {m} !< pairs {p}");
        assert_eq!(m, 18 * 18); // connected graph: every router in every tree
    }

    #[test]
    fn merged_restoration_delivers() {
        let o = oracle(8);
        let g = o.graph().clone();
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_merged(&o).unwrap();
        let restorer = Restorer::new(&o);
        let mut verified = 0;
        for t in [5usize, 11, 17] {
            let base = o.base_path(0.into(), t.into()).unwrap();
            if base.is_trivial() {
                continue;
            }
            for &failed in base.edges() {
                let failures = FailureSet::of_edge(failed);
                let Ok(r) = restorer.restore(0.into(), t.into(), &failures) else {
                    continue;
                };
                dom.apply_source_restoration_merged(&r).unwrap();
                let trace = dom.forward(0.into(), t.into(), &failures).unwrap();
                assert_eq!(trace.route(), r.backup.nodes());
                assert_eq!(trace.max_stack_depth() as usize, r.pc_length());
                verified += 1;
            }
        }
        assert!(verified >= 3, "verified only {verified}");
        let _ = g;
    }

    #[test]
    fn merged_label_lookup() {
        let o = oracle(9);
        let mut dom = ProvisionedDomain::new(&o);
        assert_eq!(dom.merged_label(0.into(), 5.into()), None); // not provisioned
        dom.provision_merged(&o).unwrap();
        assert!(dom.merged_label(0.into(), 5.into()).is_some());
        // The destination itself holds the tree's pop label.
        assert!(dom.merged_label(5.into(), 5.into()).is_some());
        assert!(dom.merged_label(5.into(), 0.into()).is_some());
    }

    #[test]
    fn merged_is_idempotent() {
        let o = oracle(10);
        let mut dom = ProvisionedDomain::new(&o);
        dom.provision_merged(&o).unwrap();
        let entries = dom.net().total_ilm_entries();
        dom.provision_merged(&o).unwrap();
        assert_eq!(dom.net().total_ilm_entries(), entries);
    }
}
