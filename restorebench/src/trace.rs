//! In-memory spans around the public calls one restoration makes.
//!
//! A [`Tracer`] records a span per timed call: its layer, the layer that
//! caused it, the restoration it belongs to, its start and its duration.
//! Totals per (layer, parent) are kept for every span; the first
//! [`SPAN_CAP`] spans are also kept whole and written out at the end of the
//! run. [`Probe`] wraps a base-path store so that every tree fetch made by
//! a lookup or a decomposition is recorded as a child span.

use rbpc_core::BasePathOracle;
use rbpc_graph::{CostModel, FailureSet, Graph, NodeId, ShortestPathTree};
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// A traced layer, named after the module whose public call it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One unit of work: a restoration (plus, on `isp_events`, its FEC
    /// rewrite and forwarding probe).
    Restore,
    /// One link's `failover_plan_par` in the checked pass's plan sample.
    Plan,
    /// `destinations_through_edge` over every source of an event.
    Discover,
    /// `BasePathOracle::base_path`.
    Lookup,
    /// The affected check on the base path.
    Affected,
    /// `BasePathOracle::path_under`.
    PathUnder,
    /// `greedy_decompose`.
    Decompose,
    /// Assembling the `Restoration` (path costs).
    Assemble,
    /// A tree fetch from the store (`with_spt` up to the closure).
    Fetch,
    /// `ProvisionedDomain::apply_source_restoration`.
    FecApply,
    /// `ProvisionedDomain::forward`.
    Forward,
    /// The FEC revert on recovery.
    Revert,
    /// The sampled drill-down of `path_under`.
    Drill,
    /// `ShortestPathTree::clone` inside the drill-down.
    Clone,
    /// `repair_after_failures` inside the drill-down.
    Repair,
    /// `ShortestPathTree::path_to` inside the drill-down.
    PathTo,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 16;
/// Parent slot for a span with no parent.
const ROOT: usize = LAYERS;
/// Spans kept whole for the trace file.
pub const SPAN_CAP: usize = 100_000;

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Restore => "bench.restore",
            Layer::Plan => "core.restore.plan",
            Layer::Discover => "core.restore.discover",
            Layer::Lookup => "core.basepaths.lookup",
            Layer::Affected => "core.restore.affected",
            Layer::PathUnder => "core.restore.path_under",
            Layer::Decompose => "core.decompose",
            Layer::Assemble => "core.restore.assemble",
            Layer::Fetch => "core.store.fetch",
            Layer::FecApply => "mpls.fec_apply",
            Layer::Forward => "mpls.forward",
            Layer::Revert => "mpls.revert",
            Layer::Drill => "bench.drilldown",
            Layer::Clone => "graph.spt.clone",
            Layer::Repair => "graph.dynamic.repair",
            Layer::PathTo => "graph.spt.path_to",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    rid: u64,
    layer: Layer,
    parent: Option<Layer>,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug)]
struct Inner {
    stack: Vec<Layer>,
    rid: u64,
    sum_ns: [[u64; LAYERS + 1]; LAYERS],
    count: [[u64; LAYERS + 1]; LAYERS],
    spans: Vec<SpanRec>,
}

/// Span recorder for one traced run. Single-threaded by design: the
/// traced replay runs every call on the benchmark's own thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                stack: Vec::new(),
                rid: 0,
                sum_ns: [[0; LAYERS + 1]; LAYERS],
                count: [[0; LAYERS + 1]; LAYERS],
                spans: Vec::new(),
            }),
        }
    }
}

impl Tracer {
    /// Starts a new restoration id; later spans carry it.
    pub fn next_rid(&self) {
        self.inner.borrow_mut().rid += 1;
    }

    /// Runs `f` inside a span of `layer`, child of the innermost open span.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.inner.borrow_mut().stack.push(layer);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        let parent = inner.stack.last().copied();
        self.push(&mut inner, layer, parent, start, end);
        out
    }

    /// Records an already-timed span of `layer` under the innermost open
    /// span.
    pub fn record(&self, layer: Layer, start: Instant, end: Instant) {
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        self.push(&mut inner, layer, parent, start, end);
    }

    fn push(
        &self,
        inner: &mut Inner,
        layer: Layer,
        parent: Option<Layer>,
        start: Instant,
        end: Instant,
    ) {
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let p = parent.map_or(ROOT, |p| p as usize);
        inner.sum_ns[layer as usize][p] += dur_ns;
        inner.count[layer as usize][p] += 1;
        if inner.spans.len() < SPAN_CAP {
            let rec = SpanRec {
                rid: inner.rid,
                layer,
                parent,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            };
            inner.spans.push(rec);
        }
    }

    /// Total nanoseconds in spans of `layer`, under any parent.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.inner.borrow().sum_ns[layer as usize].iter().sum()
    }

    /// Number of spans of `layer`, under any parent.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.inner.borrow().count[layer as usize].iter().sum()
    }

    /// Total nanoseconds in spans of `layer` whose parent is `parent`.
    pub fn total_under(&self, layer: Layer, parent: Layer) -> u64 {
        self.inner.borrow().sum_ns[layer as usize][parent as usize]
    }

    /// Number of spans of `layer` whose parent is `parent`.
    pub fn calls_under(&self, layer: Layer, parent: Layer) -> u64 {
        self.inner.borrow().count[layer as usize][parent as usize]
    }

    /// Total nanoseconds in the direct children of every `parent` span.
    pub fn children_ns(&self, parent: Layer) -> u64 {
        self.inner
            .borrow()
            .sum_ns
            .iter()
            .map(|row| row[parent as usize])
            .sum()
    }

    /// Writes the kept spans as JSON lines: one object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.inner.borrow().spans {
            writeln!(
                out,
                "{{\"rid\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.rid,
                s.layer.name(),
                s.parent.map_or("", Layer::name),
                s.start_ns,
                s.dur_ns
            )?;
        }
        Ok(())
    }
}

/// A base-path store seen through the tracer: every `with_spt` records the
/// time until the store hands over the tree as a [`Layer::Fetch`] span.
/// `with_spt_under` is forwarded untouched, so `path_under` keeps the
/// store's own repair path.
#[derive(Debug)]
pub struct Probe<'a, O> {
    inner: &'a O,
    /// Where fetch spans go.
    pub tracer: &'a Tracer,
}

impl<'a, O> Probe<'a, O> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a O, tracer: &'a Tracer) -> Self {
        Probe { inner, tracer }
    }
}

impl<O: BasePathOracle> BasePathOracle for Probe<'_, O> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }

    fn with_spt<R>(&self, source: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        let start = Instant::now();
        self.inner.with_spt(source, |spt| {
            self.tracer.record(Layer::Fetch, start, Instant::now());
            f(spt)
        })
    }

    fn with_spt_under<R>(
        &self,
        source: NodeId,
        failures: &FailureSet,
        f: impl FnOnce(&ShortestPathTree) -> R,
    ) -> R {
        self.inner.with_spt_under(source, failures, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_to_their_parent() {
        let t = Tracer::default();
        t.span(Layer::Restore, || {
            t.span(Layer::Lookup, || std::hint::black_box(1));
            t.span(Layer::Decompose, || std::hint::black_box(2));
        });
        assert_eq!(t.calls(Layer::Restore), 1);
        assert_eq!(t.calls(Layer::Lookup), 1);
        let kids = t.total_under(Layer::Lookup, Layer::Restore)
            + t.total_under(Layer::Decompose, Layer::Restore);
        assert_eq!(t.children_ns(Layer::Restore), kids);
        assert!(t.children_ns(Layer::Restore) <= t.total_ns(Layer::Restore));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"parent\":\"bench.restore\""));
    }
}
