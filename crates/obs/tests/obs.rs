//! Integration tests for the observability layer: concurrency, quantile
//! correctness, span nesting (including unwinding), and the JSONL format.

use rbpc_obs::{obs_span, Counter, Event, Histogram, JsonlSink, Registry, Value};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

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
#[derive(Clone)]
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

#[test]
fn jsonl_golden_line() {
    let buf = Capture(Arc::new(Mutex::new(Vec::new())));
    let sink = JsonlSink::new(buf.clone());
    sink.emit(&Event {
        name: "restore_done",
        ts_us: 1_234,
        fields: vec![
            ("src", Value::from(0usize)),
            ("dst", Value::from(9usize)),
            ("affected", Value::from(true)),
            ("segments", Value::from(2usize)),
        ],
    });
    drop(sink);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(
        text,
        "{\"event\":\"restore_done\",\"ts_us\":1234,\"src\":0,\"dst\":9,\
         \"affected\":true,\"segments\":2}\n"
    );
}

#[test]
fn jsonl_stream_is_one_parseable_object_per_line() {
    let buf = Capture(Arc::new(Mutex::new(Vec::new())));
    let sink = JsonlSink::new(buf.clone());
    for i in 0..50usize {
        sink.emit(&Event::now(
            "tick",
            vec![("i", Value::from(i)), ("label", Value::from("a\"b\nc"))],
        ));
    }
    drop(sink);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 50);
    for (i, line) in lines.iter().enumerate() {
        // Minimal JSON object validation: balanced braces, quoted keys,
        // no raw control characters.
        assert!(line.starts_with('{') && line.ends_with('}'), "line {i}");
        assert!(!line.contains('\n') && !line.contains('\r'), "line {i}");
        assert!(line.contains("\"event\":\"tick\""), "line {i}");
        assert!(line.contains(&format!("\"i\":{i}")), "line {i}");
        assert!(line.contains("\"label\":\"a\\\"b\\nc\""), "line {i}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "line {i}"
        );
    }
}
