//! Call-site handle caching: an unlabeled `obs_count!`, `obs_record!` or
//! `obs_span!` resolves its metric once and records through the cached
//! handle from then on. These tests pin what that must not change.

use rbpc_obs::{obs_count, obs_record, obs_span, Registry};
use std::sync::Mutex;

/// `reset` zeroes the whole global registry, so the tests in this
/// binary must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> Option<u64> {
    Registry::global_snapshot().counter(name)
}

fn histogram(name: &str) -> Option<(u64, u64)> {
    Registry::global_snapshot()
        .histogram(name)
        .map(|s| (s.count, s.sum))
}

#[test]
fn two_call_sites_with_one_name_feed_one_metric() {
    let _serial = serial();
    for _ in 0..3 {
        obs_count!("sites.test.shared");
    }
    obs_count!("sites.test.shared", 10u64);
    obs_record!("sites.test.shared_hist", 5u64);
    obs_record!("sites.test.shared_hist", 7u64);
    assert_eq!(counter("sites.test.shared"), Some(13));
    assert_eq!(histogram("sites.test.shared_hist"), Some((2, 12)));
    // The handles are the registry's own entries, not private copies.
    Registry::global().counter("sites.test.shared").add(100);
    obs_count!("sites.test.shared");
    assert_eq!(counter("sites.test.shared"), Some(114));
}

#[test]
fn cached_call_sites_still_report_after_reset() {
    let _serial = serial();
    let hit = |n: u64| {
        obs_count!("sites.test.after_reset", n);
        obs_record!("sites.test.after_reset_hist", n);
        let _span = obs_span!("sites.test.after_reset_span");
    };
    hit(4);
    Registry::global().reset();
    assert_eq!(counter("sites.test.after_reset"), Some(0));
    assert_eq!(histogram("sites.test.after_reset_hist"), Some((0, 0)));
    hit(6);
    assert_eq!(counter("sites.test.after_reset"), Some(6));
    assert_eq!(histogram("sites.test.after_reset_hist"), Some((1, 6)));
    assert_eq!(
        histogram("sites.test.after_reset_span").map(|(count, _)| count),
        Some(1)
    );
}

#[test]
fn a_span_records_into_the_histogram_of_its_own_name() {
    let _serial = serial();
    for _ in 0..2 {
        let span = obs_span!("sites.test.span_a").expect("obs is on");
        assert_eq!(span.name(), "sites.test.span_a");
        let _inner = obs_span!("sites.test.span_b");
    }
    let open = obs_span!("sites.test.span_a");
    assert_eq!(histogram("sites.test.span_a").map(|(c, _)| c), Some(2));
    assert_eq!(histogram("sites.test.span_b").map(|(c, _)| c), Some(2));
    drop(open);
    assert_eq!(histogram("sites.test.span_a").map(|(c, _)| c), Some(3));
    // A span feeds only the histogram of its own name.
    assert_eq!(counter("sites.test.span_a"), None);
}
