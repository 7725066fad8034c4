#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! A settle loop whose hot marker binds to the pop closure in the loop
//! head: the closure is hot, the loop body is not.

/// A queue of node ids with a staleness test on pop.
pub struct Queue {
    ids: Vec<u32>,
}

impl Queue {
    /// Pops the last id that `live` accepts.
    pub fn pop(&mut self, live: impl Fn(u32) -> bool) -> Option<u32> {
        while let Some(v) = self.ids.pop() {
            if live(v) {
                return Some(v);
            }
        }
        None
    }
}

/// Drains `q` into `out`; the marker meant the loop.
pub fn settle(q: &mut Queue, out: &mut Vec<u32>) {
    // lint:hot: the settle loop.
    while let Some(v) = q.pop(|v| {
        v > 0
    }) {
        out.push(v);
    }
}
