//! Std-only observability for the RBPC workspace.
//!
//! The paper's whole claim is *speed of recovery* — restoration latency,
//! label-stack depth, signaling and table-update counts — so the hot
//! paths need first-class instrumentation, not ad-hoc timers in the eval
//! harness. This crate provides that layer with **no external
//! dependencies**: everything is built on `std::sync::atomic` and
//! `std::time`, so it compiles offline and adds nothing to the
//! dependency graph.
//!
//! # Pieces
//!
//! * [`Counter`] — a relaxed [`AtomicU64`](std::sync::atomic::AtomicU64)
//!   event counter;
//! * [`Histogram`] — a log-bucketed latency/size histogram with lock-free
//!   recording and p50/p95/p99/max [`summary`](Histogram::summary);
//! * [`Span`] — an RAII timer that records its elapsed nanoseconds into
//!   the histogram it was opened with on drop (including drops during
//!   unwinding), with per-thread nesting depth;
//! * [`Registry`] — a labeled metric-family store; the process-global one
//!   is [`Registry::global`], and [`Registry::global_snapshot`] freezes
//!   everything into a [`Snapshot`] for rendering or export. Entries are
//!   never removed, which is what lets call sites cache their handles;
//! * [`obs_trace!`] + [`TraceSpan`] — causal trace spans with typed
//!   [`Value`] attributes (`restore.source`, `decompose.greedy`,
//!   `mpls.fec_rewrite`, `mpls.ilm_splice`, …), buffered for
//!   [`chrome_trace_json`] / [`TraceTree`] and, with
//!   [`set_span_stream`], streamed as one JSON object per line;
//! * [`WindowedCounter`] / [`WindowedHistogram`] + [`Ticker`] — live
//!   time-series: per-window deltas and latency distributions in ring
//!   buffers, with mergeable [`WindowSnapshot`]s (ticks are injected, so
//!   only this crate touches the clock);
//! * [`render_prometheus`] / [`MetricsServer`] — text exposition format
//!   0.0.4 and a std-only `/metrics` + `/healthz` TCP endpoint (feature
//!   `obs-net`);
//! * [`Profiler`] — a span-stack sampler producing collapsed-stack
//!   (flamegraph) [`ProfileReport`]s from the same `obs_span!` sites the
//!   histograms use;
//! * [`FlightRecorder`] + [`obs_flight!`] — an always-on black-box ring
//!   of compact [`FlightRecord`]s (query endpoints, failure sets,
//!   outcomes, plan hashes) from the restoration hot paths;
//! * [`SloWatchdog`] + [`health_text`] — per-window budget checks (p99
//!   latency, drop rate) that latch the first breach — the trigger for
//!   freezing the ring into a replayable incident file — and the global
//!   health cell `/healthz` serves.
//!
//! # Feature gating
//!
//! Instrumented crates call the [`obs_count!`], [`obs_record!`],
//! [`obs_span!`], [`obs_trace!`] and [`obs_flight!`] macros. Each macro
//! expands an `#[cfg(feature = "obs")]` guard *in the consumer crate*, so
//! every instrumented crate declares its own default-on `obs` feature;
//! building with `--no-default-features` compiles every instrumentation
//! point to a no-op with zero runtime cost, so neither the span buffer
//! nor the span stream receives anything.
//!
//! With the feature on, an unlabeled [`obs_count!`], [`obs_record!`] or
//! [`obs_span!`] call site resolves its metric from the global registry
//! on first use and caches the handle in a call-site `static`. Every
//! later record is that handle plus its atomics: no lock, no map search,
//! no reference-count traffic. The names of these forms are therefore
//! string literals. The labeled forms look their member up on each call.
//!
//! ```
//! use rbpc_obs::{obs_count, obs_span, Registry};
//!
//! {
//!     let _span = obs_span!("doc.example");
//!     obs_count!("doc.example.calls");
//! }
//! let snap = Registry::global_snapshot();
//! assert!(snap.counter("doc.example.calls").unwrap_or(0) >= 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chrome;
mod counter;
mod expose;
mod histogram;
pub mod json;
mod profile;
mod recorder;
mod registry;
mod slo;
mod span;
mod timeseries;
mod trace;
mod value;

pub use chrome::{chrome_trace_json, TraceNode, TraceTree};
pub use counter::Counter;
pub use expose::{
    parse_prometheus, render_prometheus, sanitize_metric_name, MetricsServer, PromSample,
};
pub use histogram::{Histogram, HistogramSummary};
pub use profile::{ProfileReport, Profiler};
pub use recorder::{
    flight_record, flight_recorder, flight_recorder_active, set_flight_recorder, FlightKind,
    FlightRecord, FlightRecorder, STAMP_TICK,
};
pub use registry::{Registry, Snapshot};
pub use slo::{
    health_snapshot, health_text, set_health, HealthReport, HealthStatus, SloBreach, SloPolicy,
    SloWatchdog,
};
pub use span::Span;
pub use timeseries::{monotonic_ns, Ticker, WindowSnapshot, WindowedCounter, WindowedHistogram};
pub use trace::{
    current_trace, set_span_stream, start_tracing, stop_tracing, take_spans, tracing_active,
    SpanId, SpanRecord, TraceId, TraceSpan,
};
pub use value::{json_escape, Value};

/// The call site's cached handle to the global metric `$name`: resolved
/// through `Registry::global().$kind($name)` on first use, then read from
/// a `static` in this expansion. Used by the unlabeled `obs_*!` forms.
#[doc(hidden)]
#[macro_export]
macro_rules! __obs_site {
    ($kind:ident, $ty:ty, $name:literal) => {{
        static SITE: ::std::sync::OnceLock<::std::sync::Arc<$ty>> = ::std::sync::OnceLock::new();
        &**SITE.get_or_init(|| $crate::Registry::global().$kind($name))
    }};
}

/// Increments a counter in the global [`Registry`].
///
/// * `obs_count!("name")` — add 1;
/// * `obs_count!("name", n)` — add `n` (any unsigned integer expression);
/// * `obs_count!("name", label: l, n)` — add `n` to the `l`-labeled
///   member of the `name` family.
///
/// An unlabeled call site resolves its [`Counter`] once and keeps the
/// handle in a call-site `static`, so recording is one atomic add. Its
/// name must therefore be a string literal: a dynamic name would feed
/// every later name into the first one's counter. A labeled call looks
/// its member up in the registry on every call.
///
/// ```compile_fail
/// let name = "built.at.runtime";
/// rbpc_obs::obs_count!(name);
/// ```
///
/// Compiles to a no-op when the calling crate's `obs` feature is off.
#[macro_export]
macro_rules! obs_count {
    ($name:literal) => {
        $crate::obs_count!($name, 1u64)
    };
    ($name:expr, label: $label:expr, $n:expr) => {{
        #[cfg(feature = "obs")]
        $crate::Registry::global()
            .counter_with($name, $label)
            .add($n as u64);
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&$name, &$label, &$n);
        }
    }};
    ($name:literal, $n:expr) => {{
        #[cfg(feature = "obs")]
        $crate::__obs_site!(counter, $crate::Counter, $name).add($n as u64);
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&$name, &$n);
        }
    }};
}

/// Records a value into a histogram in the global [`Registry`].
///
/// * `obs_record!("name", v)` — record `v`;
/// * `obs_record!("name", label: l, v)` — record into the `l`-labeled
///   member of the `name` family.
///
/// As with [`obs_count!`], an unlabeled call site caches its
/// [`Histogram`] in a call-site `static` and its name must be a string
/// literal.
///
/// Compiles to a no-op when the calling crate's `obs` feature is off.
#[macro_export]
macro_rules! obs_record {
    ($name:expr, label: $label:expr, $v:expr) => {{
        #[cfg(feature = "obs")]
        $crate::Registry::global()
            .histogram_with($name, $label)
            .record($v as u64);
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&$name, &$label, &$v);
        }
    }};
    ($name:literal, $v:expr) => {{
        #[cfg(feature = "obs")]
        $crate::__obs_site!(histogram, $crate::Histogram, $name).record($v as u64);
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&$name, &$v);
        }
    }};
}

/// Opens an RAII [`Span`] timer: `let _span = obs_span!("core.restore");`.
///
/// Evaluates to an `Option<Span>`; when the span drops (normally or
/// during unwinding) its elapsed nanoseconds are recorded into the global
/// histogram of the same name. The call site resolves that histogram once
/// and keeps it in a `static`, so the name must be a string literal.
/// Evaluates to `None` — with no timer started — when the calling crate's
/// `obs` feature is off.
#[macro_export]
macro_rules! obs_span {
    ($name:literal) => {{
        #[cfg(feature = "obs")]
        let __obs_span = Some($crate::Span::enter(
            $name,
            $crate::__obs_site!(histogram, $crate::Histogram, $name),
        ));
        #[cfg(not(feature = "obs"))]
        let __obs_span: Option<$crate::Span> = {
            let _ = &$name;
            None
        };
        __obs_span
    }};
}

/// Opens a causal trace span: `let mut _t = obs_trace!("flood.timeline",
/// cat: "flood", hops = 3usize);`.
///
/// Evaluates to an `Option<TraceSpan>` guard — `None` (nothing allocated)
/// unless spans are buffered ([`start_tracing`]) or streamed
/// ([`set_span_stream`]). With a span already open on the
/// current thread the new span becomes its child in the same trace;
/// otherwise it mints a fresh [`TraceId`] and roots a new trace. On drop
/// the span's wall-clock duration and attributes are pushed to the global
/// collector.
///
/// When the calling crate's `obs` feature is off the macro evaluates to
/// the zero-sized `()` — the span context costs nothing, compile-time or
/// run-time.
#[macro_export]
macro_rules! obs_trace {
    ($name:expr, cat: $cat:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[cfg(feature = "obs")]
        let __obs_trace = match $crate::TraceSpan::enter($name, $cat) {
            Some(mut __s) => {
                $(__s.attr(stringify!($key), $crate::Value::from($val));)*
                Some(__s)
            }
            None => None,
        };
        #[cfg(not(feature = "obs"))]
        let __obs_trace = {
            let _ = (&$name, &$cat $(, &$val)*);
        };
        __obs_trace
    }};
}

/// Attaches an attribute to an open [`obs_trace!`] guard after creation —
/// for values only known once the traced step finishes:
/// `obs_trace_attr!(span, stretch = 1.25f64);`.
///
/// The guard must be a `mut` binding. Compiles to a no-op when the calling
/// crate's `obs` feature is off, and does nothing when tracing is inactive
/// (the guard is `None`).
#[macro_export]
macro_rules! obs_trace_attr {
    ($span:ident, $key:ident = $val:expr) => {{
        #[cfg(feature = "obs")]
        if let Some(__s) = $span.as_mut() {
            __s.attr(stringify!($key), $crate::Value::from($val));
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (&mut $span, &$val);
        }
    }};
}

/// Appends a [`FlightRecord`] to the global [`FlightRecorder`], if one is
/// installed: `obs_flight!(build_record_expr)`.
///
/// The record-building expression is **not evaluated** unless a recorder
/// is active — the un-recorded cost of a hook is one atomic load — so the
/// builder may allocate (failure-set vectors, detail strings) without
/// taxing the hot path. Compiles to a no-op when the calling crate's
/// `obs` feature is off.
#[macro_export]
macro_rules! obs_flight {
    ($build:expr) => {{
        #[cfg(feature = "obs")]
        {
            if $crate::flight_recorder_active() {
                $crate::flight_record($build);
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = || $build;
        }
    }};
}

/// A monotonic timestamp for flight-record latency stamps:
/// `let t0 = obs_flight_now!();`.
///
/// Evaluates to [`monotonic_ns`] when a global [`FlightRecorder`] is
/// installed and `0u64` otherwise (including when the calling crate's
/// `obs` feature is off) — the clock is only read when the result can
/// actually end up in a record.
#[macro_export]
macro_rules! obs_flight_now {
    () => {{
        #[cfg(feature = "obs")]
        {
            if $crate::flight_recorder_active() {
                $crate::monotonic_ns()
            } else {
                0u64
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            0u64
        }
    }};
}
