//! The MPLS domain: routers over a graph, LSP lifecycle, and the data plane.

use crate::merged::SinkTreeRecord;
use crate::packet::InFlight;
use crate::{
    ForwardError, ForwardTrace, IlmEntry, IlmOp, Label, LspId, MplsError, Router, SignalingStats,
};
use rbpc_graph::{FailureSet, Graph, NodeId, Path, PathError};
use rbpc_obs::{obs_count, obs_record, obs_trace, obs_trace_attr};

/// An established label-switched path.
#[derive(Debug, Clone)]
pub struct LspRecord {
    path: Path,
    /// Incoming label at each node of `path`; `None` at the egress when
    /// penultimate-hop popping is used.
    labels: Vec<Option<Label>>,
    // The path's ends and the ingress label, kept in the record itself:
    // validating and writing a FEC chain reads nothing else.
    ingress: NodeId,
    egress: NodeId,
    entry: Label,
    php: bool,
    active: bool,
}

impl LspRecord {
    /// The path this LSP follows.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the LSP uses penultimate-hop popping.
    pub fn php(&self) -> bool {
        self.php
    }

    /// Whether the LSP is currently established.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The ingress router.
    pub fn ingress(&self) -> NodeId {
        self.ingress
    }

    /// The egress router.
    pub fn egress(&self) -> NodeId {
        self.egress
    }

    /// The label under which this LSP is entered at its ingress. Pushing
    /// this label at the ingress sends a packet down the LSP — the
    /// concatenation primitive.
    pub fn entry_label(&self) -> Label {
        self.entry
    }

    /// The incoming label of this LSP at `node`, if `node` is on the path
    /// and holds one (the egress does not, under PHP).
    pub fn label_at(&self, node: NodeId) -> Option<Label> {
        let pos = self.path.position_of(node)?;
        self.labels[pos]
    }
}

/// A simulated MPLS domain: one [`Router`] per graph node, established
/// LSPs, and signaling accounting.
///
/// See the [crate docs](crate) for the forwarding model.
#[derive(Debug, Clone)]
pub struct MplsNetwork {
    graph: Graph,
    routers: Vec<Router>,
    lsps: Vec<LspRecord>,
    sink_trees: Vec<SinkTreeRecord>,
    stats: SignalingStats,
}

impl MplsNetwork {
    /// Creates a domain over `graph` with empty tables.
    pub fn new(graph: Graph) -> Self {
        let routers = (0..graph.node_count())
            .map(|i| Router::new(NodeId::new(i)))
            .collect();
        MplsNetwork {
            graph,
            routers,
            lsps: Vec::new(),
            sink_trees: Vec::new(),
            stats: SignalingStats::new(),
        }
    }

    // Crate-internal accessors used by the merged-LSP module.
    pub(crate) fn router_mut(&mut self, index: usize) -> &mut Router {
        &mut self.routers[index]
    }

    pub(crate) fn bump_ilm_writes(&mut self, by: u64) {
        self.stats.ilm_writes += by;
    }

    pub(crate) fn bump_messages(&mut self, by: u64) {
        self.stats.messages += by;
    }

    pub(crate) fn sink_trees_len(&self) -> usize {
        self.sink_trees.len()
    }

    pub(crate) fn push_sink_tree(&mut self, rec: SinkTreeRecord) {
        self.sink_trees.push(rec);
    }

    pub(crate) fn sink_tree_ref(&self, index: usize) -> Option<&SinkTreeRecord> {
        self.sink_trees.get(index)
    }

    pub(crate) fn sink_tree_mut(&mut self, index: usize) -> Option<&mut SinkTreeRecord> {
        self.sink_trees.get_mut(index)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Immutable access to a router.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownRouter`] if out of range.
    pub fn router(&self, id: NodeId) -> Result<&Router, MplsError> {
        self.routers
            .get(id.index())
            .ok_or(MplsError::UnknownRouter { router: id })
    }

    /// Signaling counters accumulated so far.
    pub fn stats(&self) -> SignalingStats {
        self.stats
    }

    /// ILM table sizes across all routers — the paper's table-size metric.
    pub fn ilm_sizes(&self) -> Vec<usize> {
        self.routers.iter().map(Router::ilm_size).collect()
    }

    /// Sum of all ILM table sizes.
    pub fn total_ilm_entries(&self) -> usize {
        self.routers.iter().map(Router::ilm_size).sum()
    }

    /// Looks up an established LSP.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownLsp`] if the id is stale.
    pub fn lsp(&self, id: LspId) -> Result<&LspRecord, MplsError> {
        self.lsps
            .get(id.index())
            .ok_or(MplsError::UnknownLsp { lsp: id })
    }

    /// Iterates over all LSP records (including torn-down ones).
    pub fn lsps(&self) -> impl Iterator<Item = (LspId, &LspRecord)> + '_ {
        self.lsps
            .iter()
            .enumerate()
            .map(|(i, r)| (LspId::new(i), r))
    }

    /// Establishes an LSP along `path` with a label at every hop
    /// (no penultimate-hop popping).
    ///
    /// Signaling cost: two messages per hop (label request downstream,
    /// label mapping upstream) and one ILM write per router on the path.
    ///
    /// # Errors
    ///
    /// * [`MplsError::TrivialPath`] for a zero-hop path;
    /// * [`MplsError::Path`] if the path does not fit this network's graph.
    pub fn establish_lsp(&mut self, path: Path) -> Result<LspId, MplsError> {
        self.establish(path, false)
    }

    /// Establishes an LSP along `path` with penultimate-hop popping: the
    /// egress allocates no label and the penultimate router pops instead of
    /// swapping. Saves one ILM entry per LSP.
    ///
    /// # Errors
    ///
    /// Same as [`MplsNetwork::establish_lsp`].
    pub fn establish_lsp_php(&mut self, path: Path) -> Result<LspId, MplsError> {
        self.establish(path, true)
    }

    fn validate_path(&self, path: &Path) -> Result<(), MplsError> {
        for (i, &e) in path.edges().iter().enumerate() {
            let rec = self
                .graph
                .edge_checked(e)
                .ok_or(MplsError::Path(PathError::NotAWalk { position: i }))?;
            if !(rec.touches(path.nodes()[i]) && rec.touches(path.nodes()[i + 1])) {
                return Err(MplsError::Path(PathError::NotAWalk { position: i }));
            }
        }
        Ok(())
    }

    fn establish(&mut self, path: Path, php: bool) -> Result<LspId, MplsError> {
        if path.is_trivial() {
            return Err(MplsError::TrivialPath);
        }
        self.validate_path(&path)?;
        let m = path.nodes().len();
        let mut labels: Vec<Option<Label>> = Vec::with_capacity(m);
        for (i, &node) in path.nodes().iter().enumerate() {
            if php && i == m - 1 {
                labels.push(None);
            } else {
                labels.push(Some(self.routers[node.index()].allocate_label()));
            }
        }
        // Install ILM entries.
        for i in 0..m {
            let Some(label) = labels[i] else { continue };
            let node = path.nodes()[i];
            let op = if i == m - 1 {
                IlmOp::PopAndContinue
            } else if php && i == m - 2 {
                IlmOp::PopAndForward {
                    out: path.edges()[i],
                }
            } else {
                IlmOp::SwapAndForward {
                    out: path.edges()[i],
                    next_label: labels[i + 1].expect("invariant: non-egress holds a label"),
                }
            };
            self.routers[node.index()].install_ilm(label, IlmEntry { op })?;
            self.stats.ilm_writes += 1;
            obs_count!("mpls.signaling.ilm_writes");
        }
        self.stats.messages += 2 * path.hop_count() as u64;
        self.stats.lsps_established += 1;
        obs_count!("mpls.signaling.messages", 2 * path.hop_count() as u64);
        obs_count!("mpls.signaling.lsps_established");
        let id = LspId::new(self.lsps.len());
        self.lsps.push(LspRecord {
            ingress: path.source(),
            egress: path.target(),
            path,
            entry: labels[0].expect("invariant: the ingress always holds a label"),
            labels,
            php,
            active: true,
        });
        Ok(id)
    }

    /// Tears an LSP down: removes its ILM entries and sends one release
    /// message per hop.
    ///
    /// # Errors
    ///
    /// * [`MplsError::UnknownLsp`] for a stale id;
    /// * [`MplsError::LspInactive`] if already torn down.
    pub fn teardown_lsp(&mut self, id: LspId) -> Result<(), MplsError> {
        let MplsNetwork {
            routers,
            lsps,
            stats,
            ..
        } = self;
        let rec = lsps
            .get_mut(id.index())
            .ok_or(MplsError::UnknownLsp { lsp: id })?;
        if !rec.active {
            return Err(MplsError::LspInactive { lsp: id });
        }
        rec.active = false;
        for (node, label) in rec.path.nodes().iter().zip(&rec.labels) {
            if let Some(l) = *label {
                routers[node.index()].remove_ilm(l);
                stats.ilm_writes += 1;
                obs_count!("mpls.signaling.ilm_writes");
            }
        }
        let hops = rec.path.hop_count() as u64;
        stats.messages += hops;
        stats.lsps_torn_down += 1;
        obs_count!("mpls.signaling.messages", hops);
        obs_count!("mpls.signaling.lsps_torn_down");
        Ok(())
    }

    /// Installs a FEC entry at `router` sending traffic for `dest` over the
    /// concatenation of the given LSPs (the RBPC restoration action at a
    /// source router: one local table write, zero signaling messages).
    ///
    /// # Errors
    ///
    /// * [`MplsError::UnknownRouter`] / [`MplsError::UnknownLsp`] /
    ///   [`MplsError::LspInactive`] for bad references;
    /// * [`MplsError::ChainStartsElsewhere`] if the first LSP does not
    ///   start at `router`;
    /// * [`MplsError::BrokenChain`] if consecutive LSPs do not connect or
    ///   the chain does not end at `dest`.
    pub fn set_fec_via_lsps(
        &mut self,
        router: NodeId,
        dest: NodeId,
        lsps: &[LspId],
    ) -> Result<(), MplsError> {
        self.set_fec_via_chain(router, dest, lsps.iter().copied())
    }

    /// [`MplsNetwork::set_fec_via_lsps`] over any re-iterable chain of LSP
    /// ids, for callers that resolve the chain as they go. The chain is
    /// walked once to validate it and once to write its entry labels into
    /// the existing FEC entry, so a rewrite allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`MplsNetwork::set_fec_via_lsps`]; on error the FEC entry is
    /// unchanged.
    pub fn set_fec_via_chain<I>(
        &mut self,
        router: NodeId,
        dest: NodeId,
        chain: I,
    ) -> Result<(), MplsError>
    where
        I: ExactSizeIterator<Item = LspId> + Clone,
    {
        let mut trace = obs_trace!(
            "mpls.fec_rewrite",
            cat: "rewrite",
            router = router.index(),
            dest = dest.index(),
            lsps = chain.len(),
        );
        self.router(router)?;
        self.router(dest)?;
        let depth = chain.len();
        if self.walk_chain(router, chain.clone())? != dest {
            return Err(MplsError::BrokenChain { position: depth });
        }
        let MplsNetwork { routers, lsps, .. } = self;
        let labels = routers[router.index()].fec_labels_mut(dest);
        labels.clear();
        labels.extend(chain.map(|id| lsps[id.index()].entry_label()));
        // Bottom-first: the first LSP of the chain goes on top.
        labels.reverse();
        self.stats.fec_writes += 1;
        obs_count!("mpls.signaling.fec_writes");
        obs_trace_attr!(trace, stack_depth = depth);
        Ok(())
    }

    /// Checks that `chain` is a walk of active LSPs starting at `router`
    /// (each starts where the previous one ends). Returns where it ends.
    fn walk_chain(
        &self,
        router: NodeId,
        chain: impl Iterator<Item = LspId>,
    ) -> Result<NodeId, MplsError> {
        let mut at = router;
        for (i, id) in chain.enumerate() {
            let rec = self.lsp(id)?;
            if !rec.is_active() {
                return Err(MplsError::LspInactive { lsp: id });
            }
            if rec.ingress() != at {
                if i == 0 {
                    return Err(MplsError::ChainStartsElsewhere {
                        router,
                        chain_start: rec.ingress(),
                    });
                }
                return Err(MplsError::BrokenChain { position: i });
            }
            at = rec.egress();
        }
        Ok(at)
    }

    /// Installs a raw FEC entry (bottom-first labels). For schemes that
    /// compose labels themselves. The labels are written into the
    /// existing FEC entry, so a rewrite allocates nothing once the entry
    /// has held a stack that deep.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownRouter`] if `router` or `dest` is out of range;
    /// the FEC entry is then unchanged.
    pub fn set_fec_raw<I>(
        &mut self,
        router: NodeId,
        dest: NodeId,
        labels: I,
    ) -> Result<(), MplsError>
    where
        I: IntoIterator<Item = Label>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut trace = obs_trace!(
            "mpls.fec_rewrite",
            cat: "rewrite",
            router = router.index(),
            dest = dest.index(),
        );
        self.router(router)?;
        self.router(dest)?;
        let labels = labels.into_iter();
        let depth = labels.len();
        let entry = self.routers[router.index()].fec_labels_mut(dest);
        entry.clear();
        entry.extend(labels);
        self.stats.fec_writes += 1;
        obs_count!("mpls.signaling.fec_writes");
        obs_trace_attr!(trace, stack_depth = depth);
        Ok(())
    }

    /// Removes the FEC entry for `dest` at `router`, if any.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownRouter`] if `router` is out of range.
    pub fn remove_fec(&mut self, router: NodeId, dest: NodeId) -> Result<(), MplsError> {
        self.router(router)?;
        if self.routers[router.index()].remove_fec(dest).is_some() {
            self.stats.fec_writes += 1;
            obs_count!("mpls.signaling.fec_writes");
        }
        Ok(())
    }

    /// Rewrites the ILM entry for `label` at `router` to splice packets
    /// onto the concatenation of LSPs named by `chain` — the **local RBPC**
    /// action at the router adjacent to a failure. The first LSP of `chain`
    /// must start at `router` and each later one where the previous one
    /// ends; the packet re-enters the ILM locally, rides the chain, and
    /// then continues on `tail_labels` (bottom-first).
    ///
    /// Returns the previous entry so the caller can reverse the splice when
    /// the failure recovers.
    ///
    /// # Errors
    ///
    /// * [`MplsError::NoSuchIlmEntry`] if `label` has no entry at `router`
    ///   (splices only rewrite existing LSP state), which includes a label
    ///   the router never allocated;
    /// * chain-validation errors as in [`MplsNetwork::set_fec_via_lsps`],
    ///   except the chain may end anywhere (`tail_labels` continue the
    ///   original LSP).
    pub fn ilm_splice(
        &mut self,
        router: NodeId,
        label: Label,
        chain: &[LspId],
        tail_labels: &[Label],
    ) -> Result<IlmEntry, MplsError> {
        let mut trace = obs_trace!(
            "mpls.ilm_splice",
            cat: "splice",
            router = router.index(),
            label = label.value(),
            chain = chain.len(),
        );
        self.router(router)?;
        self.walk_chain(router, chain.iter().copied())?;
        if self.routers[router.index()].ilm(label).is_none() {
            return Err(MplsError::NoSuchIlmEntry { router, label });
        }
        let mut entry_labels = Vec::with_capacity(tail_labels.len() + chain.len());
        entry_labels.extend_from_slice(tail_labels);
        // Bottom-first: the first LSP of the chain goes on top.
        entry_labels.extend(
            chain
                .iter()
                .rev()
                .map(|id| self.lsps[id.index()].entry_label()),
        );
        let depth = entry_labels.len();
        let old = self.routers[router.index()]
            .install_ilm(
                label,
                IlmEntry {
                    op: IlmOp::ReplaceAndContinue {
                        labels: entry_labels,
                    },
                },
            )?
            .expect("invariant: the entry was checked present above");
        self.stats.ilm_writes += 1;
        obs_count!("mpls.signaling.ilm_writes");
        obs_count!("mpls.ilm_splices");
        obs_trace_attr!(trace, stack_depth = depth);
        Ok(old)
    }

    /// Installs an arbitrary ILM entry (e.g. to reverse a splice after
    /// recovery). Returns the previous entry.
    ///
    /// # Errors
    ///
    /// * [`MplsError::UnknownRouter`] if `router` is out of range;
    /// * [`MplsError::UnallocatedLabel`] if `router` never allocated
    ///   `label`.
    pub fn install_ilm_entry(
        &mut self,
        router: NodeId,
        label: Label,
        entry: IlmEntry,
    ) -> Result<Option<IlmEntry>, MplsError> {
        self.router(router)?;
        let old = self.routers[router.index()].install_ilm(label, entry)?;
        self.stats.ilm_writes += 1;
        obs_count!("mpls.signaling.ilm_writes");
        Ok(old)
    }

    /// Forwards a packet from `src` to `dest` using `src`'s FEC table, with
    /// everything operational.
    ///
    /// # Errors
    ///
    /// Any [`ForwardError`]; see [`MplsNetwork::forward_with_failures`].
    pub fn forward(&self, src: NodeId, dest: NodeId) -> Result<ForwardTrace, ForwardError> {
        let none = FailureSet::new();
        self.forward_with_failures(src, dest, &none)
    }

    /// Forwards a packet from `src` to `dest` while the elements in
    /// `failures` are down. The data plane has no routing brain: it
    /// executes the tables exactly, so a broken LSP really black-holes
    /// until some restoration scheme rewrites the tables.
    ///
    /// # Errors
    ///
    /// * [`ForwardError::NoFecEntry`] if `src` has no entry for `dest`;
    /// * [`ForwardError::DeadLink`] / [`ForwardError::DeadRouter`] when the
    ///   packet hits a failed element;
    /// * [`ForwardError::NoIlmEntry`] on a label black hole;
    /// * [`ForwardError::StackUnderflow`] if the stack empties away from
    ///   `dest`;
    /// * [`ForwardError::TtlExceeded`] on a forwarding loop.
    pub fn forward_with_failures(
        &self,
        src: NodeId,
        dest: NodeId,
        failures: &FailureSet,
    ) -> Result<ForwardTrace, ForwardError> {
        obs_count!("mpls.forward.packets");
        let mut span = obs_trace!(
            "mpls.forward",
            cat: "forward",
            src = src.index(),
            dst = dest.index(),
            k_failures = failures.failed_edge_count(),
        );
        let result = self.forward_inner(src, dest, failures);
        match &result {
            Ok(trace) => {
                obs_count!("mpls.forward.delivered");
                obs_record!("mpls.forward.hops", trace.hop_count());
                obs_record!("mpls.forward.label_ops", trace.label_ops());
                obs_trace_attr!(span, hops = trace.hop_count());
                obs_trace_attr!(span, label_ops = trace.label_ops());
            }
            Err(_) => obs_count!("mpls.forward.errors"),
        }
        result
    }

    fn forward_inner(
        &self,
        src: NodeId,
        dest: NodeId,
        failures: &FailureSet,
    ) -> Result<ForwardTrace, ForwardError> {
        let mut trace = ForwardTrace::new(src);
        if failures.node_failed(src) {
            return Err(ForwardError::DeadRouter { router: src });
        }
        let fec = self.routers[src.index()]
            .fec(dest)
            .ok_or(ForwardError::NoFecEntry { router: src, dest })?;
        let mut stack = InFlight::new(&fec.labels);
        let mut at = src;
        let ttl: u32 = 4 * self.graph.node_count() as u32 + 64;
        let mut ops = 0u32;

        loop {
            let Some(label) = stack.top() else {
                if at == dest {
                    return Ok(trace);
                }
                return Err(ForwardError::StackUnderflow { router: at });
            };
            ops += 1;
            if ops > ttl {
                return Err(ForwardError::TtlExceeded { ttl });
            }
            let entry = self.routers[at.index()]
                .ilm(label)
                .ok_or(ForwardError::NoIlmEntry { router: at, label })?;
            trace.count_op(stack.depth());
            match &entry.op {
                IlmOp::SwapAndForward { out, next_label } => {
                    stack.swap(*next_label);
                    at = self.traverse(at, *out, failures, &mut trace)?;
                }
                IlmOp::PopAndForward { out } => {
                    stack.pop();
                    at = self.traverse(at, *out, failures, &mut trace)?;
                }
                IlmOp::PopAndContinue => {
                    stack.pop();
                }
                IlmOp::ReplaceAndContinue { labels } => {
                    stack.pop();
                    for &l in labels {
                        stack.push(l);
                    }
                }
            }
        }
    }

    fn traverse(
        &self,
        at: NodeId,
        link: rbpc_graph::EdgeId,
        failures: &FailureSet,
        trace: &mut ForwardTrace,
    ) -> Result<NodeId, ForwardError> {
        if failures.edge_failed(link) {
            return Err(ForwardError::DeadLink { router: at, link });
        }
        let next = self.graph.edge(link).other(at);
        if failures.node_failed(next) {
            return Err(ForwardError::DeadRouter { router: next });
        }
        trace.hop(link, next);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_graph::{EdgeId, Graph};

    /// 0 -e0- 1 -e1- 2 -e2- 3 plus a detour 1 -e3- 4 -e4- 2.
    fn net() -> (MplsNetwork, Vec<EdgeId>) {
        let mut g = Graph::new(5);
        let e = vec![
            g.add_edge(0, 1, 1).unwrap(),
            g.add_edge(1, 2, 1).unwrap(),
            g.add_edge(2, 3, 1).unwrap(),
            g.add_edge(1, 4, 1).unwrap(),
            g.add_edge(4, 2, 1).unwrap(),
        ];
        (MplsNetwork::new(g), e)
    }

    fn path(net: &MplsNetwork, start: usize, edges: &[EdgeId]) -> Path {
        Path::from_edges(net.graph(), start.into(), edges).unwrap()
    }

    #[test]
    fn establish_and_forward() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0], e[1], e[2]]);
        let lsp = net.establish_lsp(p.clone()).unwrap();
        net.set_fec_via_lsps(0.into(), 3.into(), &[lsp]).unwrap();
        let t = net.forward(0.into(), 3.into()).unwrap();
        assert_eq!(t.route(), p.nodes());
        assert_eq!(t.links(), p.edges());
        assert_eq!(t.hop_count(), 3);
        // Swap at 0, 1, 2, pop at 3.
        assert_eq!(t.label_ops(), 4);
        assert_eq!(t.max_stack_depth(), 1);
    }

    #[test]
    fn php_saves_an_entry_and_still_delivers() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0], e[1], e[2]]);
        let before = net.total_ilm_entries();
        let lsp = net.establish_lsp_php(p.clone()).unwrap();
        assert_eq!(net.total_ilm_entries(), before + 3); // not 4
        net.set_fec_via_lsps(0.into(), 3.into(), &[lsp]).unwrap();
        let t = net.forward(0.into(), 3.into()).unwrap();
        assert_eq!(t.route(), p.nodes());
        assert_eq!(t.label_ops(), 3); // egress does nothing
        assert_eq!(net.lsp(lsp).unwrap().label_at(3.into()), None);
    }

    #[test]
    fn concatenation_via_stack() {
        // Two LSPs 0->2 (via 1) and 2->3; FEC chains them with a 2-deep stack.
        let (mut net, e) = net();
        let p1 = path(&net, 0, &[e[0], e[1]]);
        let p2 = path(&net, 2, &[e[2]]);
        let l1 = net.establish_lsp(p1).unwrap();
        let l2 = net.establish_lsp(p2).unwrap();
        net.set_fec_via_lsps(0.into(), 3.into(), &[l1, l2]).unwrap();
        let t = net.forward(0.into(), 3.into()).unwrap();
        assert_eq!(
            t.route(),
            &[
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        assert_eq!(t.max_stack_depth(), 2);
    }

    #[test]
    fn broken_lsp_black_holes_until_spliced() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0], e[1], e[2]]);
        let lsp = net.establish_lsp(p.clone()).unwrap();
        net.set_fec_via_lsps(0.into(), 3.into(), &[lsp]).unwrap();
        let failures = FailureSet::of_edge(e[1]);
        let err = net
            .forward_with_failures(0.into(), 3.into(), &failures)
            .unwrap_err();
        assert_eq!(
            err,
            ForwardError::DeadLink {
                router: 1.into(),
                link: e[1]
            }
        );

        // Local splice at router 1: detour via 4 on two bypass LSPs, then
        // resume the original LSP at router 2.
        let bypass = path(&net, 1, &[e[3], e[4]]);
        let bl = net.establish_lsp(bypass).unwrap();
        let broken_label = net.lsp(lsp).unwrap().label_at(1.into()).unwrap();
        let resume = net.lsp(lsp).unwrap().label_at(2.into()).unwrap();
        let old = net
            .ilm_splice(1.into(), broken_label, &[bl], &[resume])
            .unwrap();
        let t = net
            .forward_with_failures(0.into(), 3.into(), &failures)
            .unwrap();
        assert_eq!(
            t.route(),
            &[
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(4),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        // Reverse the splice when the link recovers; original path works.
        net.install_ilm_entry(1.into(), broken_label, old).unwrap();
        let t2 = net.forward(0.into(), 3.into()).unwrap();
        assert_eq!(t2.route(), p.nodes());
    }

    #[test]
    fn teardown_removes_state() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0], e[1]]);
        let lsp = net.establish_lsp(p).unwrap();
        assert_eq!(net.total_ilm_entries(), 3);
        net.teardown_lsp(lsp).unwrap();
        assert_eq!(net.total_ilm_entries(), 0);
        assert!(!net.lsp(lsp).unwrap().is_active());
        assert_eq!(
            net.teardown_lsp(lsp).unwrap_err(),
            MplsError::LspInactive { lsp }
        );
        // FEC via a dead LSP is rejected.
        assert_eq!(
            net.set_fec_via_lsps(0.into(), 2.into(), &[lsp])
                .unwrap_err(),
            MplsError::LspInactive { lsp }
        );
    }

    #[test]
    fn signaling_accounting() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0], e[1], e[2]]);
        let lsp = net.establish_lsp(p).unwrap();
        let s = net.stats();
        assert_eq!(s.messages, 6); // 2 per hop
        assert_eq!(s.ilm_writes, 4);
        assert_eq!(s.lsps_established, 1);
        net.set_fec_via_lsps(0.into(), 3.into(), &[lsp]).unwrap();
        assert_eq!(net.stats().fec_writes, 1);
        net.teardown_lsp(lsp).unwrap();
        let s2 = net.stats();
        assert_eq!(s2.messages, 9); // +1 release per hop
        assert_eq!(s2.lsps_torn_down, 1);
        let window = s2.since(&s);
        assert_eq!(window.messages, 3);
    }

    #[test]
    fn chain_validation_errors() {
        let (mut net, e) = net();
        let p1 = path(&net, 0, &[e[0]]);
        let p2 = path(&net, 2, &[e[2]]);
        let l1 = net.establish_lsp(p1).unwrap();
        let l2 = net.establish_lsp(p2).unwrap();
        // Gap between node 1 and node 2.
        assert_eq!(
            net.set_fec_via_lsps(0.into(), 3.into(), &[l1, l2])
                .unwrap_err(),
            MplsError::BrokenChain { position: 1 }
        );
        // Chain starting elsewhere.
        assert_eq!(
            net.set_fec_via_lsps(1.into(), 3.into(), &[l2]).unwrap_err(),
            MplsError::ChainStartsElsewhere {
                router: 1.into(),
                chain_start: 2.into()
            }
        );
        // Chain not reaching the destination.
        assert_eq!(
            net.set_fec_via_lsps(0.into(), 3.into(), &[l1]).unwrap_err(),
            MplsError::BrokenChain { position: 1 }
        );
    }

    #[test]
    fn forwarding_error_cases() {
        let (mut net, e) = net();
        assert_eq!(
            net.forward(0.into(), 3.into()).unwrap_err(),
            ForwardError::NoFecEntry {
                router: 0.into(),
                dest: 3.into()
            }
        );
        // FEC pointing at a label nobody owns -> black hole.
        net.set_fec_raw(0.into(), 3.into(), vec![Label::new(999)])
            .unwrap();
        assert_eq!(
            net.forward(0.into(), 3.into()).unwrap_err(),
            ForwardError::NoIlmEntry {
                router: 0.into(),
                label: Label::new(999)
            }
        );
        // Stack that ends at the wrong router -> underflow.
        let p = path(&net, 0, &[e[0]]);
        let lsp = net.establish_lsp(p).unwrap();
        let entry = net.lsp(lsp).unwrap().entry_label();
        net.set_fec_raw(0.into(), 3.into(), vec![entry]).unwrap();
        assert_eq!(
            net.forward(0.into(), 3.into()).unwrap_err(),
            ForwardError::StackUnderflow { router: 1.into() }
        );
        // Failed source router.
        let f = FailureSet::of_nodes([0usize]);
        assert_eq!(
            net.forward_with_failures(0.into(), 3.into(), &f)
                .unwrap_err(),
            ForwardError::DeadRouter { router: 0.into() }
        );
    }

    #[test]
    fn forwarding_loop_hits_ttl() {
        let (mut net, e) = net();
        let there = path(&net, 0, &[e[0]]);
        let back = path(&net, 1, &[e[0]]);
        let l1 = net.establish_lsp(there).unwrap();
        let l2 = net.establish_lsp(back).unwrap();
        // 0 -> 1 -> 0 -> 1 ... via a self-rewriting splice at 0.
        let entry1 = net.lsp(l1).unwrap().entry_label();
        let entry2 = net.lsp(l2).unwrap().entry_label();
        // At router 1, after LSP l1 pops, continue onto l2 back to 0, where
        // a FEC... we need an ILM loop: splice l1's egress pop into pushing
        // l2, and l2's egress into pushing l1 again.
        let lab_at_1 = net.lsp(l1).unwrap().label_at(1.into()).unwrap();
        let lab_at_0 = net.lsp(l2).unwrap().label_at(0.into()).unwrap();
        net.ilm_splice(1.into(), lab_at_1, &[l2], &[]).unwrap();
        net.ilm_splice(0.into(), lab_at_0, &[l1], &[]).unwrap();
        net.set_fec_raw(0.into(), 3.into(), vec![entry1]).unwrap();
        assert!(matches!(
            net.forward(0.into(), 3.into()).unwrap_err(),
            ForwardError::TtlExceeded { .. }
        ));
        let _ = entry2;
    }

    #[test]
    fn rejects_trivial_and_foreign_paths() {
        let (mut net, _) = net();
        assert_eq!(
            net.establish_lsp(Path::trivial(0.into())).unwrap_err(),
            MplsError::TrivialPath
        );
        // A path whose edge ids don't exist here.
        let mut other = Graph::new(3);
        let x = other.add_edge(0, 2, 1).unwrap();
        let x2 = other.add_edge(2, 1, 1).unwrap();
        let foreign = Path::from_edges(&other, 0.into(), &[x, x2]).unwrap();
        // e0 exists in net's graph but connects 0-1 there, not 0-2.
        assert!(matches!(
            net.establish_lsp(foreign),
            Err(MplsError::Path(_))
        ));
    }

    #[test]
    fn label_spaces_are_per_router() {
        let (mut net, e) = net();
        let p1 = path(&net, 0, &[e[0], e[1]]);
        let p2 = path(&net, 1, &[e[1], e[2]]);
        let l1 = net.establish_lsp(p1).unwrap();
        let l2 = net.establish_lsp(p2).unwrap();
        // Router 1 allocated labels for both LSPs; they must differ.
        let a = net.lsp(l1).unwrap().label_at(1.into()).unwrap();
        let b = net.lsp(l2).unwrap().label_at(1.into()).unwrap();
        assert_ne!(a, b);
        // But label values may repeat across routers (per-platform spaces):
        let at0 = net.lsp(l1).unwrap().label_at(0.into()).unwrap();
        let at1 = net.lsp(l2).unwrap().label_at(1.into()).unwrap();
        assert_eq!(at0.value(), 16);
        assert_eq!(at1.value(), 17);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (mut net, _) = net();
        assert!(matches!(
            net.router(99.into()),
            Err(MplsError::UnknownRouter { .. })
        ));
        assert!(matches!(
            net.lsp(LspId::new(5)),
            Err(MplsError::UnknownLsp { .. })
        ));
        assert!(matches!(
            net.set_fec_raw(99.into(), 0.into(), vec![]),
            Err(MplsError::UnknownRouter { .. })
        ));
        assert!(matches!(
            net.ilm_splice(0.into(), Label::new(1), &[], &[]),
            Err(MplsError::NoSuchIlmEntry { .. })
        ));
    }

    #[test]
    fn unallocated_labels_are_refused() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0], e[1]]);
        let lsp = net.establish_lsp(p.clone()).unwrap();
        let entry = net
            .router(1.into())
            .unwrap()
            .ilm(Label::new(16))
            .unwrap()
            .clone();
        let before = (net.stats(), net.total_ilm_entries());
        for bad in [Label::new(u32::MAX), Label::new(17), Label::new(3)] {
            assert_eq!(
                net.install_ilm_entry(1.into(), bad, entry.clone()),
                Err(MplsError::UnallocatedLabel {
                    router: 1.into(),
                    label: bad
                })
            );
            assert_eq!(
                net.ilm_splice(1.into(), bad, &[], &[]),
                Err(MplsError::NoSuchIlmEntry {
                    router: 1.into(),
                    label: bad
                })
            );
            assert_eq!(net.router(1.into()).unwrap().ilm(bad), None);
        }
        assert_eq!((net.stats(), net.total_ilm_entries()), before);
        // The LSP still forwards over the untouched tables.
        net.set_fec_via_lsps(0.into(), 2.into(), &[lsp]).unwrap();
        assert_eq!(net.forward(0.into(), 2.into()).unwrap().route(), p.nodes());
    }

    #[test]
    fn lsps_iterator_and_records() {
        let (mut net, e) = net();
        let p = path(&net, 0, &[e[0]]);
        let id = net.establish_lsp(p.clone()).unwrap();
        let recs: Vec<_> = net.lsps().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, id);
        assert_eq!(recs[0].1.ingress(), NodeId::new(0));
        assert_eq!(recs[0].1.egress(), NodeId::new(1));
        assert!(!recs[0].1.php());
        assert_eq!(recs[0].1.path(), &p);
        assert_eq!(recs[0].1.label_at(4.into()), None);
    }
}
