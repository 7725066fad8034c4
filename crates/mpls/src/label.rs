//! Labels, label stacks, and LSP identifiers.

use core::fmt;

/// An MPLS label in some router's per-platform label space.
///
/// Labels are only meaningful relative to the router that allocated them —
/// the same numeric value names different LSPs at different routers, as in
/// real MPLS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Label {
    /// Creates a label from its raw value.
    #[inline]
    pub fn new(value: u32) -> Self {
        Label(value)
    }

    /// The raw label value. Any `u32` makes a `Label`, but a router's ILM
    /// accepts only the labels it allocated: densely from 16 upward, below
    /// its next label (see [`Router`](crate::Router)).
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of an established LSP in an
/// [`MplsNetwork`](crate::MplsNetwork).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LspId(u32);

impl LspId {
    pub(crate) fn new(index: usize) -> Self {
        LspId(index as u32)
    }

    /// The dense index of this LSP.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsp{}", self.0)
    }
}

/// The MPLS label stack carried by a packet. The *top* of the stack is the
/// label examined by the next LSR.
///
/// ```
/// use rbpc_mpls::{Label, LabelStack};
/// let mut s = LabelStack::new();
/// s.push(Label::new(7));   // inner
/// s.push(Label::new(9));   // outer / top
/// assert_eq!(s.top(), Some(Label::new(9)));
/// assert_eq!(s.pop(), Some(Label::new(9)));
/// assert_eq!(s.depth(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LabelStack {
    // Bottom-first storage; top is the last element.
    labels: Vec<Label>,
}

impl LabelStack {
    /// An empty stack (a plain IP packet, in MPLS terms).
    pub fn new() -> Self {
        LabelStack::default()
    }

    /// Builds a stack from bottom-first labels (the last element is the
    /// top, i.e. the first label to be examined).
    pub fn from_bottom_first(labels: impl Into<Vec<Label>>) -> Self {
        LabelStack {
            labels: labels.into(),
        }
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of labels on the stack.
    pub fn depth(&self) -> usize {
        self.labels.len()
    }

    /// The top label, if any.
    pub fn top(&self) -> Option<Label> {
        self.labels.last().copied()
    }

    /// Pushes a new top label.
    pub fn push(&mut self, label: Label) {
        self.labels.push(label);
    }

    /// Pops the top label.
    pub fn pop(&mut self) -> Option<Label> {
        self.labels.pop()
    }

    /// Replaces the top label (a swap). Returns the old top.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty — swapping on an empty stack is a
    /// forwarding bug, caught eagerly.
    pub fn swap(&mut self, label: Label) -> Label {
        let old = self
            .labels
            .pop()
            .expect("invariant: swap requires a nonempty label stack");
        self.labels.push(label);
        old
    }

    /// The labels bottom-first (top is last).
    pub fn as_slice(&self) -> &[Label] {
        &self.labels
    }
}

impl fmt::Display for LabelStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.labels.iter().rev().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut s = LabelStack::new();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        s.push(Label::new(1));
        s.push(Label::new(2));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.pop(), Some(Label::new(2)));
        assert_eq!(s.pop(), Some(Label::new(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn swap_replaces_top() {
        let mut s = LabelStack::from_bottom_first(vec![Label::new(1), Label::new(2)]);
        let old = s.swap(Label::new(9));
        assert_eq!(old, Label::new(2));
        assert_eq!(s.top(), Some(Label::new(9)));
        assert_eq!(s.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "invariant: swap requires a nonempty label stack")]
    fn swap_on_empty_panics() {
        let mut s = LabelStack::new();
        s.swap(Label::new(1));
    }

    #[test]
    fn bottom_first_ordering() {
        let s = LabelStack::from_bottom_first(vec![Label::new(10), Label::new(20)]);
        assert_eq!(s.top(), Some(Label::new(20)));
        assert_eq!(s.as_slice(), &[Label::new(10), Label::new(20)]);
    }

    #[test]
    fn display_top_first() {
        let s = LabelStack::from_bottom_first(vec![Label::new(1), Label::new(2)]);
        assert_eq!(s.to_string(), "[L2 L1]");
        assert_eq!(Label::new(7).to_string(), "L7");
        assert_eq!(LspId::new(3).to_string(), "lsp3");
    }

    #[test]
    fn label_round_trip() {
        assert_eq!(Label::new(42).value(), 42);
        assert_eq!(LspId::new(5).index(), 5);
    }
}
