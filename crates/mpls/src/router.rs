//! A label-switching router: ILM and FEC tables plus a label allocator.

use crate::{Label, MplsError};
use rbpc_graph::{EdgeId, IdMap, NodeId};

/// The operation an ILM entry applies to a matching packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlmOp {
    /// Swap the top label and forward out a link — the normal mid-LSP hop.
    SwapAndForward {
        /// Outgoing link.
        out: EdgeId,
        /// Label expected by the downstream neighbor.
        next_label: Label,
    },
    /// Pop the top label and forward out a link — penultimate-hop popping.
    PopAndForward {
        /// Outgoing link (to the LSP egress).
        out: EdgeId,
    },
    /// Pop the top label and keep processing locally — the LSP egress.
    /// If labels remain the packet continues on the next LSP of a
    /// concatenation; if the stack empties at the destination the packet
    /// is delivered.
    PopAndContinue,
    /// Pop the top label, push replacement labels (bottom-first), and keep
    /// processing locally. This is the **local RBPC splice**: the router
    /// adjacent to a failure rewrites the broken LSP's entry so packets
    /// continue over a concatenation of surviving LSPs that start here.
    ReplaceAndContinue {
        /// Replacement labels, bottom-first (last = new top).
        labels: Vec<Label>,
    },
}

/// One ILM (incoming label map) entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IlmEntry {
    /// The operation to apply.
    pub op: IlmOp,
}

/// One FEC (forwarding equivalence class) entry: the label stack the
/// ingress pushes on packets bound for a destination. Bottom-first; the
/// last label is the top of the stack and names an LSP starting at the
/// ingress itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FecEntry {
    /// Labels to push, bottom-first.
    pub labels: Vec<Label>,
}

/// The first label a router allocates: real MPLS reserves labels 0–15.
const FIRST_LABEL: u32 = 16;

/// A label-switching router (LSR).
///
/// Owns a per-platform label space, a hardware-style [ILM](IlmEntry) table
/// indexed by incoming label, and a [FEC](FecEntry) table keyed by
/// destination for traffic originating here.
///
/// Labels are handed out densely from 16 and never reused, so the ILM is a
/// vector with one slot per label allocated so far: a lookup is an index,
/// and a label the router never allocated (a reserved one, or one at or
/// above the next label) has no slot and is refused by
/// [`Router::install_ilm`].
#[derive(Debug, Clone)]
pub struct Router {
    id: NodeId,
    /// Slot `i` holds the entry of label `FIRST_LABEL + i`; the length is
    /// the number of labels allocated, so the next label is
    /// `FIRST_LABEL + ilm.len()`.
    ilm: Vec<Option<IlmEntry>>,
    /// Occupied slots of `ilm`.
    ilm_live: usize,
    fec: IdMap<NodeId, FecEntry>,
}

impl Router {
    /// Creates an empty router with the given node id.
    pub fn new(id: NodeId) -> Self {
        Router {
            id,
            ilm: Vec::new(),
            ilm_live: 0,
            fec: IdMap::default(),
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Allocates a fresh label from this router's label space.
    pub fn allocate_label(&mut self) -> Label {
        let l = Label::new(FIRST_LABEL + self.ilm.len() as u32);
        self.ilm.push(None);
        l
    }

    /// The ILM index of `label`; a label at or above the next one has no
    /// slot at that index.
    fn slot(label: Label) -> Option<usize> {
        label.value().checked_sub(FIRST_LABEL).map(|i| i as usize)
    }

    /// Installs (or overwrites) an ILM entry. Returns the previous entry.
    ///
    /// # Errors
    ///
    /// [`MplsError::UnallocatedLabel`] if this router never allocated
    /// `label`; the table is left as it was.
    pub fn install_ilm(
        &mut self,
        label: Label,
        entry: IlmEntry,
    ) -> Result<Option<IlmEntry>, MplsError> {
        let router = self.id;
        let slot = Self::slot(label)
            .and_then(|i| self.ilm.get_mut(i))
            .ok_or(MplsError::UnallocatedLabel { router, label })?;
        let old = slot.replace(entry);
        self.ilm_live += usize::from(old.is_none());
        Ok(old)
    }

    /// Removes an ILM entry. Returns it if present.
    pub fn remove_ilm(&mut self, label: Label) -> Option<IlmEntry> {
        let old = self.ilm.get_mut(Self::slot(label)?)?.take();
        self.ilm_live -= usize::from(old.is_some());
        old
    }

    /// Looks up an ILM entry.
    #[inline]
    pub fn ilm(&self, label: Label) -> Option<&IlmEntry> {
        self.ilm.get(Self::slot(label)?)?.as_ref()
    }

    /// Number of ILM entries — the paper's hardware-table size metric. It
    /// counts installed entries, not allocated labels: a torn-down LSP's
    /// labels keep their (empty) slots but no longer count.
    pub fn ilm_size(&self) -> usize {
        self.ilm_live
    }

    /// The labels of the FEC entry for `dest`, created empty if absent, to
    /// be rewritten in place.
    pub(crate) fn fec_labels_mut(&mut self, dest: NodeId) -> &mut Vec<Label> {
        &mut self
            .fec
            .entry(dest)
            .or_insert_with(|| FecEntry { labels: Vec::new() })
            .labels
    }

    /// Removes the FEC entry for a destination.
    pub fn remove_fec(&mut self, dest: NodeId) -> Option<FecEntry> {
        self.fec.remove(&dest)
    }

    /// Looks up the FEC entry for a destination.
    #[inline]
    pub fn fec(&self, dest: NodeId) -> Option<&FecEntry> {
        self.fec.get(&dest)
    }

    /// Number of FEC entries.
    pub fn fec_size(&self) -> usize {
        self.fec.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_fresh_and_above_reserved() {
        let mut r = Router::new(NodeId::new(0));
        let a = r.allocate_label();
        let b = r.allocate_label();
        assert_ne!(a, b);
        assert!(a.value() >= 16);
    }

    #[test]
    fn ilm_install_lookup_remove() {
        let mut r = Router::new(NodeId::new(1));
        let l = r.allocate_label();
        let e = IlmEntry {
            op: IlmOp::PopAndContinue,
        };
        assert_eq!(r.install_ilm(l, e.clone()), Ok(None));
        assert_eq!(r.ilm(l), Some(&e));
        assert_eq!(r.ilm_size(), 1);
        let e2 = IlmEntry {
            op: IlmOp::ReplaceAndContinue { labels: vec![] },
        };
        assert_eq!(r.install_ilm(l, e2.clone()), Ok(Some(e)));
        assert_eq!(r.remove_ilm(l), Some(e2));
        assert_eq!(r.ilm_size(), 0);
        assert_eq!(r.remove_ilm(l), None);
    }

    #[test]
    fn unallocated_labels_are_refused() {
        let mut r = Router::new(NodeId::new(3));
        let l = r.allocate_label();
        let e = IlmEntry {
            op: IlmOp::PopAndContinue,
        };
        for bad in [
            Label::new(u32::MAX),
            Label::new(l.value() + 1),
            Label::new(FIRST_LABEL - 1),
        ] {
            assert_eq!(
                r.install_ilm(bad, e.clone()),
                Err(MplsError::UnallocatedLabel {
                    router: NodeId::new(3),
                    label: bad
                })
            );
            assert_eq!(r.ilm(bad), None);
            assert_eq!(r.remove_ilm(bad), None);
        }
        // The table did not grow toward the refused label.
        assert_eq!(r.ilm.len(), 1);
        assert_eq!(r.ilm_size(), 0);
        assert_eq!(r.install_ilm(l, e), Ok(None));
        assert_eq!(r.ilm_size(), 1);
    }

    #[test]
    fn fec_table_round_trip() {
        let mut r = Router::new(NodeId::new(2));
        let dest = NodeId::new(9);
        let entry = FecEntry {
            labels: vec![Label::new(100)],
        };
        r.fec_labels_mut(dest).push(Label::new(100));
        assert_eq!(r.fec(dest), Some(&entry));
        assert_eq!(r.fec_size(), 1);
        assert_eq!(r.remove_fec(dest), Some(entry));
        assert_eq!(r.fec(dest), None);
    }

    #[test]
    fn id_is_stable() {
        let r = Router::new(NodeId::new(7));
        assert_eq!(r.id(), NodeId::new(7));
    }
}
