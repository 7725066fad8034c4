//! Merged (multipoint-to-point) LSPs — per-destination sink trees.
//!
//! The paper's §2 notes that labels are scarce and that deployments merge
//! LSPs: *"using the same label for all the packets with the same
//! destination even if they arrive from different ports."* The merged form
//! of the RBPC base set is one **sink tree** per destination: every router
//! holds exactly one incoming label per destination, its ILM entry
//! swapping to the downstream neighbor's label for that destination. This
//! cuts the ILM footprint of all-pairs provisioning from `Σ (path length)`
//! entries to `n` entries per destination, while keeping every base path
//! enterable mid-way (the concatenation primitive RBPC needs).

use crate::{IlmEntry, IlmOp, Label, MplsError, MplsNetwork};
use core::fmt;
use rbpc_graph::{EdgeId, NodeId};

/// Identifier of an established sink tree in an [`MplsNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SinkTreeId(u32);

impl SinkTreeId {
    pub(crate) fn new(index: usize) -> Self {
        SinkTreeId(index as u32)
    }

    /// The dense index of this tree.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SinkTreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink{}", self.0)
    }
}

/// An established merged LSP: one label per participating router, all
/// draining toward one destination.
#[derive(Debug, Clone)]
pub struct SinkTreeRecord {
    dest: NodeId,
    /// Per router: the label it matches for this destination (`None` for
    /// routers outside the tree).
    labels: Vec<Option<Label>>,
    /// Per router: the outgoing link toward the destination (`None` at the
    /// destination itself and outside the tree).
    next_hop: Vec<Option<EdgeId>>,
    active: bool,
}

impl SinkTreeRecord {
    /// The tree's destination router.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Whether the tree is currently established.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The label under which router `r` forwards toward the destination —
    /// pushing it at `r` rides the canonical base path `r → dest`.
    pub fn label_at(&self, r: NodeId) -> Option<Label> {
        self.labels.get(r.index()).copied().flatten()
    }

    /// The outgoing link router `r` uses toward the destination.
    pub fn next_hop(&self, r: NodeId) -> Option<EdgeId> {
        self.next_hop.get(r.index()).copied().flatten()
    }

    /// Number of routers participating (and thus ILM entries consumed).
    pub fn router_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }
}

impl MplsNetwork {
    /// Establishes a merged per-destination LSP: `next_hop[r]` names the
    /// link router `r` uses toward `dest` (or `None` if `r` does not
    /// participate; `next_hop[dest]` must be `None`).
    ///
    /// One label and one ILM entry per participating router; signaling is
    /// two messages per tree link (as for ordinary LSP establishment).
    ///
    /// # Errors
    ///
    /// * [`MplsError::UnknownRouter`] if `dest` is out of range or
    ///   `next_hop` has the wrong length;
    /// * [`MplsError::Path`] if some hop does not touch its router, or if
    ///   following the hops from some participant does not reach `dest`
    ///   (a cycle or a dangling branch).
    pub fn establish_sink_tree(
        &mut self,
        dest: NodeId,
        next_hop: Vec<Option<EdgeId>>,
    ) -> Result<SinkTreeId, MplsError> {
        self.router(dest)?;
        let n = self.router_count();
        if next_hop.len() != n {
            return Err(MplsError::UnknownRouter {
                router: NodeId::new(next_hop.len()),
            });
        }
        if next_hop[dest.index()].is_some() {
            return Err(MplsError::Path(rbpc_graph::PathError::NotAWalk {
                position: dest.index(),
            }));
        }
        // Validate every hop and overall acyclicity by memoized walking.
        // state: 0 unknown, 1 in-progress, 2 reaches dest.
        let mut state = vec![0u8; n];
        state[dest.index()] = 2;
        for start in 0..n {
            if next_hop[start].is_none() || state[start] == 2 {
                continue;
            }
            let mut chain = Vec::new();
            let mut at = start;
            loop {
                if state[at] == 2 {
                    break;
                }
                if state[at] == 1 {
                    // Cycle.
                    return Err(MplsError::Path(rbpc_graph::PathError::NotAWalk {
                        position: at,
                    }));
                }
                let Some(e) = next_hop[at] else {
                    // Dangling branch: a participant chain must end at dest.
                    return Err(MplsError::Path(rbpc_graph::PathError::NotAWalk {
                        position: at,
                    }));
                };
                let rec = self.graph().edge_checked(e).ok_or(MplsError::Path(
                    rbpc_graph::PathError::NotAWalk { position: at },
                ))?;
                if !rec.touches(NodeId::new(at)) {
                    return Err(MplsError::Path(rbpc_graph::PathError::NotAWalk {
                        position: at,
                    }));
                }
                state[at] = 1;
                chain.push(at);
                at = rec.other(NodeId::new(at)).index();
            }
            for c in chain {
                state[c] = 2;
            }
        }

        // Allocate labels: every participant plus the destination.
        let mut labels: Vec<Option<Label>> = vec![None; n];
        for r in 0..n {
            if next_hop[r].is_some() || r == dest.index() {
                labels[r] = Some(self.router_mut(r).allocate_label());
            }
        }
        // Install ILM entries.
        let mut tree_links = 0u64;
        for r in 0..n {
            let Some(label) = labels[r] else { continue };
            let op = match next_hop[r] {
                Some(out) => {
                    tree_links += 1;
                    let next = self.graph().edge(out).other(NodeId::new(r));
                    IlmOp::SwapAndForward {
                        out,
                        next_label: labels[next.index()]
                            .expect("invariant: next-hop routers participate"),
                    }
                }
                None => IlmOp::PopAndContinue,
            };
            self.router_mut(r).install_ilm(label, IlmEntry { op })?;
            self.bump_ilm_writes(1);
        }
        self.bump_messages(2 * tree_links);
        let id = SinkTreeId::new(self.sink_trees_len());
        self.push_sink_tree(SinkTreeRecord {
            dest,
            labels,
            next_hop,
            active: true,
        });
        Ok(id)
    }

    /// Looks up an established sink tree.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownLsp`] (reusing the LSP error) for a stale id.
    pub fn sink_tree(&self, id: SinkTreeId) -> Result<&SinkTreeRecord, MplsError> {
        self.sink_tree_ref(id.index()).ok_or(MplsError::UnknownLsp {
            lsp: crate::LspId::new(id.index()),
        })
    }

    /// Tears a sink tree down, removing its ILM entries.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnknownLsp`] for a stale id; [`MplsError::LspInactive`]
    /// if already torn down.
    pub fn teardown_sink_tree(&mut self, id: SinkTreeId) -> Result<(), MplsError> {
        let rec = self
            .sink_tree_mut(id.index())
            .ok_or(MplsError::UnknownLsp {
                lsp: crate::LspId::new(id.index()),
            })?;
        if !rec.active {
            return Err(MplsError::LspInactive {
                lsp: crate::LspId::new(id.index()),
            });
        }
        rec.active = false;
        let labels: Vec<(usize, Label)> = rec
            .labels
            .iter()
            .enumerate()
            .filter_map(|(r, l)| l.map(|l| (r, l)))
            .collect();
        let links = rec.next_hop.iter().flatten().count() as u64;
        for (r, l) in labels {
            self.router_mut(r).remove_ilm(l);
            self.bump_ilm_writes(1);
        }
        self.bump_messages(links);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbpc_graph::Graph;

    /// A path 0-1-2-3 plus a spur 4-1.
    fn net() -> MplsNetwork {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(2, 3, 1).unwrap();
        g.add_edge(4, 1, 1).unwrap();
        MplsNetwork::new(g)
    }

    fn hops_toward_3(_net: &MplsNetwork) -> Vec<Option<EdgeId>> {
        // 0 -> e0, 1 -> e1, 2 -> e2, 3 -> None (dest), 4 -> e3.
        vec![
            Some(EdgeId::new(0)),
            Some(EdgeId::new(1)),
            Some(EdgeId::new(2)),
            None,
            Some(EdgeId::new(3)),
        ]
    }

    #[test]
    fn sink_tree_delivers_from_every_router() {
        let mut net = net();
        let id = net
            .establish_sink_tree(NodeId::new(3), hops_toward_3(&net))
            .unwrap();
        let tree = net.sink_tree(id).unwrap().clone();
        assert_eq!(tree.dest(), NodeId::new(3));
        assert_eq!(tree.router_count(), 5);
        for s in [0usize, 1, 2, 4] {
            let label = tree.label_at(NodeId::new(s)).unwrap();
            net.set_fec_raw(NodeId::new(s), NodeId::new(3), vec![label])
                .unwrap();
            let trace = net.forward(NodeId::new(s), NodeId::new(3)).unwrap();
            assert_eq!(trace.last(), NodeId::new(3), "from {s}");
        }
    }

    #[test]
    fn one_ilm_entry_per_router() {
        let mut net = net();
        net.establish_sink_tree(NodeId::new(3), hops_toward_3(&net))
            .unwrap();
        // 5 entries total vs 4 pair-LSPs that would need 4+3+2+3 = 12.
        assert_eq!(net.total_ilm_entries(), 5);
        for sizes in net.ilm_sizes() {
            assert_eq!(sizes, 1);
        }
    }

    #[test]
    fn rejects_cycles_and_dangling() {
        let mut net = net();
        // Cycle: 0 -> 1 (e0) and 1 -> 0 (e0 again).
        let cyc = vec![Some(EdgeId::new(0)), Some(EdgeId::new(0)), None, None, None];
        assert!(matches!(
            net.establish_sink_tree(NodeId::new(3), cyc),
            Err(MplsError::Path(_))
        ));
        // Dangling: 0 points at 1, 1 not a participant, dest is 3.
        let dangle = vec![Some(EdgeId::new(0)), None, None, None, None];
        assert!(matches!(
            net.establish_sink_tree(NodeId::new(3), dangle),
            Err(MplsError::Path(_))
        ));
        // Wrong-length vector.
        assert!(net
            .establish_sink_tree(NodeId::new(3), vec![None; 3])
            .is_err());
        // Dest must not have a next hop.
        let mut bad = hops_toward_3(&net);
        bad[3] = Some(EdgeId::new(2));
        assert!(matches!(
            net.establish_sink_tree(NodeId::new(3), bad),
            Err(MplsError::Path(_))
        ));
    }

    #[test]
    fn teardown_removes_entries() {
        let mut net = net();
        let id = net
            .establish_sink_tree(NodeId::new(3), hops_toward_3(&net))
            .unwrap();
        assert_eq!(net.total_ilm_entries(), 5);
        net.teardown_sink_tree(id).unwrap();
        assert_eq!(net.total_ilm_entries(), 0);
        assert!(net.teardown_sink_tree(id).is_err());
        assert!(!net.sink_tree(id).unwrap().is_active());
    }

    #[test]
    fn partial_participation() {
        let mut net = net();
        // Only 2 -> 3 participates.
        let hops = vec![None, None, Some(EdgeId::new(2)), None, None];
        let id = net.establish_sink_tree(NodeId::new(3), hops).unwrap();
        let tree = net.sink_tree(id).unwrap();
        assert_eq!(tree.router_count(), 2);
        assert_eq!(tree.label_at(NodeId::new(0)), None);
        assert!(tree.label_at(NodeId::new(2)).is_some());
        assert_eq!(tree.next_hop(NodeId::new(2)), Some(EdgeId::new(2)));
        assert_eq!(tree.next_hop(NodeId::new(3)), None);
    }

    #[test]
    fn signaling_accounted() {
        let mut net = net();
        let before = net.stats();
        net.establish_sink_tree(NodeId::new(3), hops_toward_3(&net))
            .unwrap();
        let delta = net.stats().since(&before);
        assert_eq!(delta.ilm_writes, 5);
        assert_eq!(delta.messages, 8); // 2 per tree link, 4 links
    }
}
