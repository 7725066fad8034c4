//! RAII span timers.

use crate::Histogram;
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// An RAII timer over a named region of code.
///
/// `Span::enter("core.restore", histogram)` starts the clock; when the
/// span drops — at normal scope exit *or* while unwinding from a panic —
/// the elapsed nanoseconds are recorded into `histogram`, so a crashing
/// restore still leaves its latency on the record. [`obs_span!`](crate::obs_span)
/// passes the global histogram of the span's name, resolved once per call
/// site, so entering and dropping a span takes no lock.
///
/// Spans nest: [`depth`](Span::depth) reports how many spans were already
/// open on this thread when this one was entered (0 = outermost).
///
/// While a [`Profiler`](crate::Profiler) is running, entering a span also
/// pushes its name onto the per-thread frame stack the sampler reads;
/// when none is running that hook is a single relaxed atomic load.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    histogram: &'static Histogram,
    start: Instant,
    depth: usize,
    /// Whether this span pushed a profiler frame (captured at entry so a
    /// profiler starting/stopping mid-span stays balanced).
    profiled: bool,
}

impl Span {
    /// Opens a span; the returned guard records into `histogram` on drop.
    pub fn enter(name: &'static str, histogram: &'static Histogram) -> Span {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let profiled = crate::profile::push_frame(name);
        Span {
            name,
            histogram,
            start: Instant::now(),
            depth,
            profiled,
        }
    }

    /// The span's name: its profiler frame, and the metric name
    /// [`obs_span!`](crate::obs_span) records to.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Nesting depth at entry (0 = outermost span on this thread).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Nanoseconds elapsed so far (also what drop will record).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.profiled {
            crate::profile::pop_frame();
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        self.histogram.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_depth() {
        static H: Histogram = Histogram::new();
        let outer = Span::enter("span.test.outer", &H);
        assert_eq!(outer.depth(), 0);
        {
            let inner = Span::enter("span.test.inner", &H);
            assert_eq!(inner.depth(), 1);
        }
        assert_eq!(H.count(), 1);
        let sibling = Span::enter("span.test.sibling", &H);
        assert_eq!(sibling.depth(), 1);
    }
}
