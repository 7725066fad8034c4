//! Windowed time-series: per-tick counters and latency histograms in
//! lock-light ring buffers.
//!
//! The whole-run [`Histogram`](crate::Histogram)/[`Counter`](crate::Counter)
//! aggregates answer "how did the run go?"; a failure storm needs "how is
//! *this second* going?". The types here slice the same log-bucketed
//! statistics into **windows** identified by a caller-supplied tick
//! number. Ticks are injected rather than read from the wall clock so the
//! data path stays deterministic and the workspace's wall-clock lint only
//! has to trust this crate: callers mint ticks from a [`Ticker`] (or from
//! simulated time) and pass them to [`WindowedCounter::add`] /
//! [`WindowedHistogram::record`].
//!
//! Storage is a fixed ring of slots indexed by `tick % capacity`. Each
//! slot is guarded by its own small `Mutex`, so concurrent recorders
//! contend only when they hit the same window — "lock-light", not
//! lock-free, which is the right trade for per-window bucket arrays that
//! must rotate atomically. A slot whose stored tick differs from the
//! incoming one is zeroed and re-stamped (rotation); writes carrying a
//! tick older than the slot's current one are dropped, so a straggler
//! thread cannot corrupt a newer window.
//!
//! Windows freeze into [`WindowSnapshot`]s, which answer p50/p95/p99 via
//! the same bucket math as [`Histogram`](crate::Histogram) and
//! [`merge`](WindowSnapshot::merge) across windows, threads, or processes.

use crate::histogram::{bucket_index, bucket_upper, quantile_over, BUCKETS};
use crate::HistogramSummary;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tick value marking a slot that has never been written.
const EMPTY_TICK: u64 = u64::MAX;

/// Nanoseconds since the process's observability epoch.
///
/// The one sanctioned monotonic-time read for latency measurement outside
/// this crate: consumers (e.g. the load-test driver) take two readings
/// and record the difference, keeping `Instant::now()` itself confined to
/// `rbpc-obs` where the wall-clock lint allows it.
#[inline]
pub fn monotonic_ns() -> u64 {
    crate::trace::epoch_nanos()
}

/// Mints window ticks from real elapsed time.
///
/// `Ticker::start(window)` pins an origin;
/// [`current_tick`](Ticker::current_tick) is `elapsed / window`. The
/// ticker is the only
/// place wall-clock pacing happens — recording APIs take the tick as a
/// plain number, so tests and simulations can drive them with synthetic
/// ticks and never sleep.
#[derive(Debug)]
pub struct Ticker {
    start: Instant,
    window: Duration,
}

impl Ticker {
    /// Starts a ticker whose tick 0 begins now. A zero `window` is
    /// bumped to 1ns so tick arithmetic stays defined.
    pub fn start(window: Duration) -> Ticker {
        Ticker {
            start: Instant::now(),
            window: window.max(Duration::from_nanos(1)),
        }
    }

    /// The window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Nanoseconds since the ticker started.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The tick the current instant falls in (0-based).
    pub fn current_tick(&self) -> u64 {
        let window_ns = u64::try_from(self.window.as_nanos()).unwrap_or(u64::MAX);
        self.elapsed_ns() / window_ns.max(1)
    }

    /// Sleeps until window `tick` has begun, then returns the tick the
    /// ticker is actually in (>= `tick`; later if the caller overran).
    pub fn wait_for(&self, tick: u64) -> u64 {
        let window_ns = u64::try_from(self.window.as_nanos()).unwrap_or(u64::MAX);
        let target = Duration::from_nanos(window_ns.saturating_mul(tick));
        loop {
            let elapsed = self.start.elapsed();
            if elapsed >= target {
                return self.current_tick();
            }
            std::thread::sleep(target - elapsed);
        }
    }
}

/// One counter slot: the tick it currently represents and its total.
#[derive(Debug, Clone, Copy)]
struct CounterSlot {
    tick: u64,
    value: u64,
}

/// A ring of per-window counter deltas.
///
/// `add(tick, n)` accumulates into the window for `tick`; a window's
/// total survives until `capacity` newer windows have rotated past it.
#[derive(Debug)]
pub struct WindowedCounter {
    slots: Box<[Mutex<CounterSlot>]>,
}

impl WindowedCounter {
    /// A ring holding the most recent `capacity` (>= 1) windows.
    pub fn new(capacity: usize) -> WindowedCounter {
        let slots = (0..capacity.max(1))
            .map(|_| {
                Mutex::new(CounterSlot {
                    tick: EMPTY_TICK,
                    value: 0,
                })
            })
            .collect();
        WindowedCounter { slots }
    }

    /// Number of windows the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Adds `n` to the window for `tick`. Writes stamped older than the
    /// slot's resident window are dropped (a straggler never corrupts a
    /// newer window); a newer tick rotates the slot first.
    pub fn add(&self, tick: u64, n: u64) {
        let mut slot = self.lock_slot(tick);
        if slot.tick != tick {
            if slot.tick != EMPTY_TICK && slot.tick > tick {
                return;
            }
            slot.tick = tick;
            slot.value = 0;
        }
        slot.value = slot.value.saturating_add(n);
    }

    /// The total for window `tick`, or `None` once it has rotated out
    /// (or was never written).
    pub fn get(&self, tick: u64) -> Option<u64> {
        let slot = self.lock_slot(tick);
        (slot.tick == tick).then_some(slot.value)
    }

    /// Every live `(tick, total)` pair, sorted by tick.
    pub fn totals(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .slots
            .iter()
            .map(|s| *s.lock().unwrap())
            .filter(|s| s.tick != EMPTY_TICK)
            .map(|s| (s.tick, s.value))
            .collect();
        out.sort_unstable();
        out
    }

    fn lock_slot(&self, tick: u64) -> std::sync::MutexGuard<'_, CounterSlot> {
        self.slots[(tick % self.slots.len() as u64) as usize]
            .lock()
            .unwrap()
    }
}

/// One histogram slot: a full log-bucket array plus exact stats for the
/// tick it currently represents.
#[derive(Debug, Clone, Copy)]
struct HistSlot {
    tick: u64,
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl HistSlot {
    const fn empty() -> HistSlot {
        HistSlot {
            tick: EMPTY_TICK,
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// A ring of per-window log-bucketed histograms.
///
/// The windowed sibling of [`Histogram`](crate::Histogram): same
/// power-of-two buckets, same quantile semantics, but each window is an
/// independent distribution frozen on demand into a [`WindowSnapshot`].
#[derive(Debug)]
pub struct WindowedHistogram {
    slots: Box<[Mutex<HistSlot>]>,
}

impl WindowedHistogram {
    /// A ring holding the most recent `capacity` (>= 1) windows.
    pub fn new(capacity: usize) -> WindowedHistogram {
        let slots = (0..capacity.max(1))
            .map(|_| Mutex::new(HistSlot::empty()))
            .collect();
        WindowedHistogram { slots }
    }

    /// Number of windows the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one sample into the window for `tick`, with the same
    /// rotation/straggler rules as [`WindowedCounter::add`].
    pub fn record(&self, tick: u64, v: u64) {
        let mut slot = self.lock_slot(tick);
        if slot.tick != tick {
            if slot.tick != EMPTY_TICK && slot.tick > tick {
                return;
            }
            *slot = HistSlot::empty();
            slot.tick = tick;
        }
        slot.buckets[bucket_index(v)] = slot.buckets[bucket_index(v)].saturating_add(1);
        slot.count = slot.count.saturating_add(1);
        slot.sum = slot.sum.saturating_add(v);
        slot.max = slot.max.max(v);
    }

    /// Freezes window `tick`, or `None` once it has rotated out (or was
    /// never written).
    pub fn window(&self, tick: u64) -> Option<WindowSnapshot> {
        let slot = self.lock_slot(tick);
        (slot.tick == tick).then(|| WindowSnapshot::from_slot(&slot))
    }

    /// Freezes every live window, sorted by tick.
    pub fn snapshots(&self) -> Vec<WindowSnapshot> {
        let mut out: Vec<WindowSnapshot> = self
            .slots
            .iter()
            .map(|s| *s.lock().unwrap())
            .filter(|s| s.tick != EMPTY_TICK)
            .map(|s| WindowSnapshot::from_slot(&s))
            .collect();
        out.sort_unstable_by_key(|s| s.tick);
        out
    }

    /// Merges every live window into one distribution (tick = earliest
    /// live tick).
    pub fn merged(&self) -> WindowSnapshot {
        let mut merged = WindowSnapshot::empty(0);
        let mut first = true;
        for snap in self.snapshots() {
            if first {
                merged.tick = snap.tick;
                first = false;
            }
            merged.merge(&snap);
        }
        merged
    }

    fn lock_slot(&self, tick: u64) -> std::sync::MutexGuard<'_, HistSlot> {
        self.slots[(tick % self.slots.len() as u64) as usize]
            .lock()
            .unwrap()
    }
}

/// A frozen window distribution: mergeable, queryable, serializable.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// The tick this window represents (after merging: the earliest
    /// contributing tick).
    pub tick: u64,
    /// Samples in the window (saturating).
    pub count: u64,
    /// Sum of samples in the window (saturating).
    pub sum: u64,
    /// Exact maximum sample in the window.
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl WindowSnapshot {
    /// An empty snapshot for window `tick` (the identity for
    /// [`merge`](WindowSnapshot::merge)).
    pub fn empty(tick: u64) -> WindowSnapshot {
        WindowSnapshot {
            tick,
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn from_slot(slot: &HistSlot) -> WindowSnapshot {
        WindowSnapshot {
            tick: slot.tick,
            count: slot.count,
            sum: slot.sum,
            max: slot.max,
            buckets: slot.buckets,
        }
    }

    /// True when the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` (bucket-wise saturating addition; the
    /// tick keeps `self`'s value, callers merge in tick order). Merging
    /// is associative and commutative up to the retained tick, so
    /// windows can be combined across threads or processes in any order.
    pub fn merge(&mut self, other: &WindowSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile of this window — same bucket-upper-bound
    /// semantics as [`Histogram::quantile`](crate::Histogram::quantile),
    /// including the defined 0 for an empty window.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_over(&self.buckets, self.count, self.max, q)
    }

    /// Mean sample, or 0.0 for an empty window.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The standard count/mean/p50/p95/p99/max digest of this window.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// The count in the bucket containing `v` (mainly for tests probing
    /// bucket placement).
    pub fn bucket_count_for(&self, v: u64) -> u64 {
        self.buckets[bucket_index(v)]
    }

    /// The inclusive upper bound of the bucket containing `v` — the
    /// resolution at which this window reports quantiles near `v`.
    pub fn bucket_bound_for(v: u64) -> u64 {
        bucket_upper(bucket_index(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_independent() {
        let wh = WindowedHistogram::new(4);
        wh.record(0, 10);
        wh.record(0, 20);
        wh.record(1, 1000);
        let w0 = wh.window(0).expect("window 0 live");
        let w1 = wh.window(1).expect("window 1 live");
        assert_eq!(w0.count, 2);
        assert_eq!(w0.max, 20);
        assert_eq!(w1.count, 1);
        assert_eq!(w1.max, 1000);
        assert!(wh.window(2).is_none());
    }

    #[test]
    fn rotation_evicts_and_stragglers_are_dropped() {
        let wh = WindowedHistogram::new(2);
        wh.record(0, 5);
        wh.record(1, 6);
        // Tick 2 maps onto tick 0's slot and evicts it.
        wh.record(2, 7);
        assert!(wh.window(0).is_none());
        assert_eq!(wh.window(2).expect("window 2 live").count, 1);
        // A straggler stamped 0 must not corrupt window 2.
        wh.record(0, 999);
        let w2 = wh.window(2).expect("window 2 still live");
        assert_eq!((w2.count, w2.max), (1, 7));
    }

    #[test]
    fn counter_ring_matches_histogram_semantics() {
        let wc = WindowedCounter::new(2);
        wc.add(0, 3);
        wc.add(0, 4);
        wc.add(1, 1);
        assert_eq!(wc.get(0), Some(7));
        wc.add(2, 10); // evicts window 0
        assert_eq!(wc.get(0), None);
        wc.add(0, 99); // straggler dropped
        assert_eq!(wc.get(2), Some(10));
        assert_eq!(wc.totals(), vec![(1, 1), (2, 10)]);
    }

    #[test]
    fn merge_combines_distributions() {
        let wh = WindowedHistogram::new(8);
        for t in 0..4u64 {
            for v in [100u64, 200, 400] {
                wh.record(t, v * (t + 1));
            }
        }
        let snaps = wh.snapshots();
        assert_eq!(snaps.len(), 4);
        assert_eq!(snaps[0].tick, 0);
        let merged = wh.merged();
        assert_eq!(merged.tick, 0);
        assert_eq!(merged.count, 12);
        assert_eq!(merged.max, 1600);
        // Merged quantile equals a flat histogram over the same samples.
        let flat = crate::Histogram::new();
        for t in 0..4u64 {
            for v in [100u64, 200, 400] {
                flat.record(v * (t + 1));
            }
        }
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), flat.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn snapshot_quantiles_match_flat_histogram() {
        let wh = WindowedHistogram::new(4);
        let flat = crate::Histogram::new();
        for v in 1..=100u64 {
            wh.record(3, v);
            flat.record(v);
        }
        let w = wh.window(3).expect("window 3 live");
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(w.quantile(q), flat.quantile(q), "q = {q}");
        }
        assert_eq!(w.summary().p50, flat.summary().p50);
        // Empty window: defined quantile.
        assert_eq!(WindowSnapshot::empty(9).quantile(0.5), 0);
    }

    #[test]
    fn ticker_ticks_advance() {
        let t = Ticker::start(Duration::from_millis(2));
        let reached = t.wait_for(2);
        assert!(reached >= 2, "reached tick {reached}");
        assert!(t.current_tick() >= 2);
        assert!(t.elapsed_ns() >= 4_000_000);
        // Waiting for a past tick returns immediately with the present.
        assert!(t.wait_for(0) >= 2);
    }
}
