//! Causal tracing: trace/span identity, RAII span guards with thread-local
//! context propagation, and a process-global span collector.
//!
//! A **trace** is one causally-related unit of work — here, one restoration
//! of one LSP after a failure injection. A **span** is one timed step inside
//! it (flood wait, base-path lookup, concatenation search, FEC rewrite, ILM
//! splice). Spans carry typed attributes ([`Value`]) and nest through a
//! thread-local context: entering a span while another is open on the same
//! thread makes it a child; entering one with no context open mints a fresh
//! [`TraceId`] and becomes a trace root.
//!
//! Collection is opt-in and cheap when off: [`TraceSpan::enter`] checks one
//! atomic load and returns `None` unless spans are being buffered
//! ([`start_tracing`]) or streamed ([`set_span_stream`]), so un-traced runs
//! pay one branch per instrumentation point. A finished span goes to
//! either or both: as a [`SpanRecord`] into the global buffer drained by
//! [`stop_tracing`] / [`take_spans`], and as one JSON line into the
//! stream. Exporters live in [`chrome`](crate::chrome_trace_json) and
//! [`TraceTree`](crate::TraceTree).

use crate::chrome::write_span;
use crate::Value;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The process's observability epoch (set at first use, shared by trace
/// spans and time-series windows so their timestamps are comparable).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's observability epoch.
pub(crate) fn epoch_nanos() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Identity of one trace (one restoration, end to end).
///
/// Allocated from a process-wide atomic counter, starting at 1; ids are
/// unique within a process and stable across identical runs (allocation
/// order is deterministic for single-threaded scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw numeric id.
    pub fn value(self) -> u64 {
        self.0
    }

    fn mint() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Identity of one span within the process (unique across traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw numeric id.
    pub fn value(self) -> u64 {
        self.0
    }

    fn mint() -> SpanId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A finished span, as stored by the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The enclosing span, or `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `flood.timeline`.
    pub name: &'static str,
    /// Span category, e.g. `flood`, `lookup`, `concat`, `rewrite`, `splice`.
    pub cat: &'static str,
    /// Nanoseconds since the observability epoch at which the span opened.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Ordered `(key, value)` attributes.
    pub attrs: Vec<(&'static str, Value)>,
}

impl SpanRecord {
    /// The value of the attribute named `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

thread_local! {
    /// The innermost open span on this thread: `(trace, span)`.
    static CURRENT: Cell<Option<(TraceId, SpanId)>> = const { Cell::new(None) };
}

/// Set while the collector buffers or streams: `buffer.is_some() ||
/// stream.is_some()`, kept in step under the collector's lock.
static TRACING_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Where finished spans go.
struct Collector {
    /// Spans kept for [`stop_tracing`] / [`take_spans`], while buffering.
    buffer: Option<Vec<SpanRecord>>,
    /// The writer each finished span is streamed to as one JSON line.
    stream: Option<Box<dyn Write + Send>>,
}

impl Collector {
    fn update_active(&self) {
        let active = self.buffer.is_some() || self.stream.is_some();
        TRACING_ACTIVE.store(active, Ordering::Release);
    }

    /// Streams and buffers one finished span. Stream I/O errors are
    /// swallowed: tracing must never take down the traced program.
    fn finish(&mut self, record: SpanRecord) {
        if let Some(stream) = &mut self.stream {
            let mut line = String::with_capacity(160);
            write_span(&mut line, &record);
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
        }
        if let Some(buffer) = &mut self.buffer {
            buffer.push(record);
        }
    }
}

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    buffer: None,
    stream: None,
});

fn collector() -> MutexGuard<'static, Collector> {
    COLLECTOR.lock().unwrap()
}

/// Starts buffering spans, clearing anything previously buffered.
pub fn start_tracing() {
    let mut c = collector();
    c.buffer = Some(Vec::new());
    c.update_active();
}

/// Stops buffering and returns every span finished since
/// [`start_tracing`]. Spans still open keep running but are only recorded
/// if tracing is active again when they drop. A span stream set with
/// [`set_span_stream`] keeps streaming.
pub fn stop_tracing() -> Vec<SpanRecord> {
    let mut c = collector();
    let spans = c.buffer.take().unwrap_or_default();
    c.update_active();
    spans
}

/// Drains the buffered spans without stopping collection.
pub fn take_spans() -> Vec<SpanRecord> {
    collector()
        .buffer
        .as_mut()
        .map(std::mem::take)
        .unwrap_or_default()
}

/// Installs (or, with `None`, flushes and removes) the span stream: every
/// span finished from now on is written to it as one JSON line, the same
/// object [`chrome_trace_json`](crate::chrome_trace_json) puts in its
/// `traceEvents` array. Streaming turns tracing on without buffering.
pub fn set_span_stream(stream: Option<Box<dyn Write + Send>>) {
    let mut c = collector();
    if let Some(mut old) = std::mem::replace(&mut c.stream, stream) {
        let _ = old.flush();
    }
    c.update_active();
}

/// True while spans are buffered or streamed — the one-atomic-load guard
/// every instrumentation point checks first.
#[inline]
pub fn tracing_active() -> bool {
    TRACING_ACTIVE.load(Ordering::Acquire)
}

/// The trace the current thread is inside, if any.
pub fn current_trace() -> Option<TraceId> {
    CURRENT.with(|c| c.get()).map(|(t, _)| t)
}

/// An open span: an RAII guard that records a [`SpanRecord`] on drop
/// (normal exit or unwinding) and restores the thread's previous context.
///
/// Created via the [`obs_trace!`](crate::obs_trace) macro in instrumented
/// crates, or [`TraceSpan::enter`] directly.
#[derive(Debug)]
pub struct TraceSpan {
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    started: Instant,
    attrs: Vec<(&'static str, Value)>,
    /// Context to restore on drop.
    prev: Option<(TraceId, SpanId)>,
}

impl TraceSpan {
    /// Opens a span, or returns `None` when tracing is inactive.
    ///
    /// With a span already open on this thread the new one becomes its
    /// child within the same trace; otherwise a fresh [`TraceId`] is
    /// minted and this span is the trace root.
    pub fn enter(name: &'static str, cat: &'static str) -> Option<TraceSpan> {
        if !tracing_active() {
            return None;
        }
        let prev = CURRENT.with(|c| c.get());
        let (trace, parent) = match prev {
            Some((trace, span)) => (trace, Some(span)),
            None => (TraceId::mint(), None),
        };
        let span = SpanId::mint();
        CURRENT.with(|c| c.set(Some((trace, span))));
        Some(TraceSpan {
            trace,
            span,
            parent,
            name,
            cat,
            start_ns: epoch_nanos(),
            started: Instant::now(),
            attrs: Vec::new(),
            prev,
        })
    }

    /// This span's trace.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// This span's id.
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// True when this span minted its trace (has no parent).
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// Attaches (or appends, keys are not deduplicated) an attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Value>) {
        self.attrs.push((key, value.into()));
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        let record = SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: self.name,
            cat: self.cat,
            start_ns: self.start_ns,
            dur_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            attrs: std::mem::take(&mut self.attrs),
        };
        // Re-check: tracing may have stopped while the span was open.
        if tracing_active() {
            collector().finish(record);
        }
    }
}
