//! Integration tests for the observability layer: concurrency, quantile
//! correctness, span nesting (including unwinding), and the JSONL span
//! stream.

use rbpc_obs::json;
use rbpc_obs::{
    chrome_trace_json, obs_span, set_span_stream, start_tracing, stop_tracing, take_spans,
    tracing_active, Counter, Histogram, Registry, TraceSpan,
};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};

#[test]
fn counter_is_correct_under_contention() {
    let counter = Counter::new();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    counter.inc();
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn registry_counter_handles_share_state_across_threads() {
    let registry = Registry::new();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let handle = registry.counter("contended");
                for _ in 0..1_000 {
                    handle.inc();
                }
            });
        }
    });
    assert_eq!(registry.snapshot().counter("contended"), Some(4_000));
}

#[test]
fn histogram_quantiles_bound_the_true_values() {
    // Log-bucketed histograms return the inclusive upper bound of the
    // bucket holding the quantile: an over-estimate by at most 2x, never
    // an under-estimate, and exact at the maximum.
    let h = Histogram::new();
    for v in 1..=1_000u64 {
        h.record(v);
    }
    let s = h.summary();
    assert_eq!(s.count, 1_000);
    assert_eq!(s.sum, 500_500);
    assert_eq!(s.max, 1_000);
    let p50 = s.p50;
    let p95 = s.p95;
    let p99 = s.p99;
    assert!((500..=1_023).contains(&p50), "p50 = {p50}");
    assert!((950..=1_000).contains(&p95), "p95 = {p95}");
    assert!((990..=1_000).contains(&p99), "p99 = {p99}");
    assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone");
}

#[test]
fn histogram_concurrent_recording_loses_nothing() {
    let h = Histogram::new();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let h = &h;
            scope.spawn(move || {
                for i in 0..5_000 {
                    h.record(t * 5_000 + i + 1);
                }
            });
        }
    });
    assert_eq!(h.count(), 20_000);
    assert_eq!(h.max(), 20_000);
}

#[test]
fn spans_nest_and_record_on_drop() {
    let outer = obs_span!("obs_test.outer").unwrap();
    assert_eq!(outer.depth(), 0);
    {
        let inner = obs_span!("obs_test.inner").unwrap();
        assert_eq!(inner.depth(), 1);
    }
    drop(outer);
    let snap = Registry::global_snapshot();
    assert!(snap.histogram("obs_test.outer").unwrap().count >= 1);
    assert!(snap.histogram("obs_test.inner").unwrap().count >= 1);
}

#[test]
fn span_records_even_when_unwinding() {
    let before = Registry::global_snapshot()
        .histogram("obs_test.panicky")
        .map(|s| s.count)
        .unwrap_or(0);
    let result = std::panic::catch_unwind(|| {
        let _span = obs_span!("obs_test.panicky");
        panic!("boom");
    });
    assert!(result.is_err());
    let after = Registry::global_snapshot()
        .histogram("obs_test.panicky")
        .unwrap()
        .count;
    assert_eq!(after, before + 1, "drop during unwind must still record");
    // Unwinding must also restore the nesting depth.
    assert_eq!(obs_span!("obs_test.after_panic").unwrap().depth(), 0);
}

/// A writer capturing everything for inspection.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams the spans `run` finishes; returns the stream's text. Holds a
/// lock, since the span collector is process-global.
fn streamed(run: impl FnOnce()) -> String {
    static LOCK: Mutex<()> = Mutex::new(());
    let _serial = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let buf = Capture::default();
    set_span_stream(Some(Box::new(buf.clone())));
    run();
    set_span_stream(None);
    assert!(!tracing_active());
    let text = buf.0.lock().unwrap().clone();
    String::from_utf8(text).unwrap()
}

#[test]
fn jsonl_golden_line() {
    let mut ids = (0, 0);
    let text = streamed(|| {
        let mut root = TraceSpan::enter("restore.source", "restore").expect("streaming traces");
        root.attr("src", 0usize);
        root.attr("affected", true);
        root.attr("note", "a\"b");
        root.attr("ratio", f64::NAN);
        ids = (root.trace().value(), root.span().value());
    });
    // Mask the clock readings, `"ts":…,"dur":…`.
    let (head, rest) = text.split_once(",\"ts\":").expect("ts");
    let (_, tail) = rest.split_once(",\"pid\":").expect("pid");
    let (trace, span) = ids;
    assert_eq!(
        format!("{head},\"pid\":{tail}"),
        format!(
            "{{\"name\":\"restore.source\",\"cat\":\"restore\",\"ph\":\"X\",\"pid\":1,\
             \"tid\":{trace},\"args\":{{\"trace\":{trace},\"span\":{span},\"src\":0,\
             \"affected\":true,\"note\":\"a\\\"b\",\"ratio\":null}}}}\n"
        )
    );
}

#[test]
fn jsonl_stream_is_one_parseable_object_per_line() {
    let mut buffered = Vec::new();
    let text = streamed(|| {
        drop(TraceSpan::enter("alone", "test").expect("streaming traces"));
        assert!(take_spans().is_empty(), "streaming alone buffers nothing");
        start_tracing();
        for i in 0..50usize {
            let mut root = TraceSpan::enter("tick", "test").unwrap();
            root.attr("i", i);
            root.attr("label", "a\"b\nc");
            drop(TraceSpan::enter("tock", "test").unwrap());
        }
        buffered = stop_tracing();
        assert!(tracing_active(), "the stream keeps tracing on");
    });
    assert_eq!(buffered.len(), 100);
    let lines: Vec<&str> = text.lines().collect();
    for line in &lines {
        json::parse(line).expect("one JSON object per line");
    }
    assert!(lines[0].starts_with("{\"name\":\"alone\""));
    assert!(lines[2].contains("\"label\":\"a\\\"b\\nc\""));
    // With both on, the stream holds the buffered spans in order, byte
    // for byte the `traceEvents` elements `chrome_trace_json` writes.
    let exported = chrome_trace_json(&buffered);
    assert!(exported.ends_with(&format!(",{}]}}", lines[1..].join(","))));
}
