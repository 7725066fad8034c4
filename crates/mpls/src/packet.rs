//! Forwarding traces and the label stack of a packet in flight.

use crate::Label;
use rbpc_graph::{EdgeId, NodeId};

/// Hops a trace reserves up front: enough for the routes of ISP-sized
/// maps, so a typical trip records its route without regrowing it.
const TRACE_HOPS: usize = 32;

/// The record of one packet's trip through the data plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardTrace {
    route: Vec<NodeId>,
    links: Vec<EdgeId>,
    label_ops: u32,
    max_stack_depth: u32,
}

impl ForwardTrace {
    pub(crate) fn new(start: NodeId) -> Self {
        let mut route = Vec::with_capacity(TRACE_HOPS + 1);
        route.push(start);
        ForwardTrace {
            route,
            links: Vec::with_capacity(TRACE_HOPS),
            label_ops: 0,
            max_stack_depth: 0,
        }
    }

    pub(crate) fn hop(&mut self, link: EdgeId, to: NodeId) {
        self.links.push(link);
        self.route.push(to);
    }

    pub(crate) fn count_op(&mut self, stack_depth: usize) {
        self.label_ops += 1;
        self.max_stack_depth = self.max_stack_depth.max(stack_depth as u32);
    }

    /// The sequence of routers visited, starting at the ingress.
    pub fn route(&self) -> &[NodeId] {
        &self.route
    }

    /// The links traversed, in order.
    pub fn links(&self) -> &[EdgeId] {
        &self.links
    }

    /// Number of hops taken.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Number of label operations performed (swap/pop/push batches) —
    /// a proxy for per-packet router overhead.
    pub fn label_ops(&self) -> u32 {
        self.label_ops
    }

    /// The deepest the label stack got in flight.
    pub fn max_stack_depth(&self) -> u32 {
        self.max_stack_depth
    }

    /// The router the packet ended at.
    pub fn last(&self) -> NodeId {
        *self.route.last().expect("invariant: traces start nonempty")
    }
}

/// A packet's label stack in flight: `fec ++ pushed ++ [top]`,
/// bottom-first. The ingress FEC entry's labels are read in place, not
/// copied, and only labels an ILM splice pushes are stored, so a packet on
/// a source-router concatenation allocates no stack.
pub(crate) struct InFlight<'a> {
    /// The FEC entry's labels not yet exposed.
    fec: &'a [Label],
    /// Labels pushed by splices, under `top`.
    pushed: Vec<Label>,
    /// The top label; `None` once the stack is empty.
    top: Option<Label>,
}

impl<'a> InFlight<'a> {
    /// The stack a FEC entry pushes (bottom-first labels).
    pub(crate) fn new(fec: &'a [Label]) -> Self {
        let mut stack = InFlight {
            fec,
            pushed: Vec::new(),
            top: None,
        };
        stack.pop();
        stack
    }

    /// The top label, if any.
    pub(crate) fn top(&self) -> Option<Label> {
        self.top
    }

    /// Number of labels on the stack.
    pub(crate) fn depth(&self) -> usize {
        self.fec.len() + self.pushed.len() + usize::from(self.top.is_some())
    }

    /// Replaces the top label.
    pub(crate) fn swap(&mut self, label: Label) {
        debug_assert!(self.top.is_some(), "swap on an empty stack");
        self.top = Some(label);
    }

    /// Pops the top label.
    pub(crate) fn pop(&mut self) {
        self.top = self.pushed.pop().or_else(|| {
            let (&last, rest) = self.fec.split_last()?;
            self.fec = rest;
            Some(last)
        });
    }

    /// Pushes a new top label.
    pub(crate) fn push(&mut self, label: Label) {
        if let Some(below) = self.top.replace(label) {
            self.pushed.push(below);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accumulates() {
        let mut t = ForwardTrace::new(NodeId::new(0));
        assert_eq!(t.hop_count(), 0);
        assert_eq!(t.last(), NodeId::new(0));
        t.count_op(2);
        t.hop(EdgeId::new(5), NodeId::new(1));
        t.count_op(1);
        assert_eq!(t.route(), &[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(t.links(), &[EdgeId::new(5)]);
        assert_eq!(t.hop_count(), 1);
        assert_eq!(t.label_ops(), 2);
        assert_eq!(t.max_stack_depth(), 2);
        assert_eq!(t.last(), NodeId::new(1));
    }

    #[test]
    fn in_flight_stack_matches_label_stack() {
        let fec = [Label::new(1), Label::new(2)];
        let mut fly = InFlight::new(&fec);
        let mut reference = crate::LabelStack::from_bottom_first(fec.to_vec());
        let same = |fly: &InFlight, r: &crate::LabelStack| {
            assert_eq!((fly.top(), fly.depth()), (r.top(), r.depth()));
        };
        same(&fly, &reference);
        fly.swap(Label::new(3));
        reference.swap(Label::new(3));
        same(&fly, &reference);
        fly.pop();
        reference.pop();
        same(&fly, &reference);
        for l in [4, 5, 6] {
            fly.push(Label::new(l));
            reference.push(Label::new(l));
            same(&fly, &reference);
        }
        for _ in 0..5 {
            fly.pop();
            reference.pop();
            same(&fly, &reference);
        }
        assert_eq!(fly.top(), None);
        assert_eq!(InFlight::new(&[]).depth(), 0);
    }
}
