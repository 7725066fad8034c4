//! Span-based self-profiler: samples the per-thread [`Span`](crate::Span)
//! stack into collapsed-stack (flamegraph) format.
//!
//! Every `obs_span!` site already marks the interesting regions of the
//! hot path, so profiling is just bookkeeping: while a [`Profiler`] is
//! running, each [`Span`](crate::Span) pushes its (interned) name onto a
//! small per-thread frame stack on enter and pops it on drop. A sampler
//! thread wakes on a fixed interval, reads every registered thread's
//! stack, and counts occurrences per distinct stack. [`Profiler::stop`]
//! folds the counts into a [`ProfileReport`] whose
//! [`to_collapsed`](ProfileReport::to_collapsed) output
//! (`outer;inner <count>` per line) feeds any flamegraph renderer.
//!
//! The frame stacks are arrays of atomics written only by their owning
//! thread; the sampler reads them racily. The depth is published with
//! `Release` *after* the frame is written, so the sampler's `Acquire`
//! read always sees a consistent prefix — a sample is at worst one frame
//! stale, never garbage. When no profiler is running the per-span cost
//! is one relaxed atomic load.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread;
use std::time::Duration;

/// Frames deeper than this are counted toward depth but not recorded:
/// real span nests in this workspace are < 10 deep.
const MAX_DEPTH: usize = 32;

/// Sentinel for "no frame id".
const NO_FRAME: u32 = u32::MAX;

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Interned span names: ids are indices into this table. Span names are
/// `&'static str` literals, so the table is tiny and append-only.
fn intern_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern(name: &'static str) -> u32 {
    let mut table = intern_table().lock().unwrap();
    if let Some(i) = table.iter().position(|&n| n == name) {
        return i as u32;
    }
    table.push(name);
    (table.len() - 1) as u32
}

fn resolve(id: u32) -> &'static str {
    intern_table()
        .lock()
        .unwrap()
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// One thread's open-span stack, readable by the sampler.
#[derive(Debug)]
struct ThreadStack {
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_DEPTH],
}

impl ThreadStack {
    fn new() -> ThreadStack {
        ThreadStack {
            depth: AtomicUsize::new(0),
            frames: [const { AtomicU32::new(NO_FRAME) }; MAX_DEPTH],
        }
    }
}

/// Registry of every thread stack ever created; dead threads leave
/// dangling `Weak`s that upgrade to `None` and are skipped.
fn stack_registry() -> &'static Mutex<Vec<Weak<ThreadStack>>> {
    static STACKS: OnceLock<Mutex<Vec<Weak<ThreadStack>>>> = OnceLock::new();
    STACKS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_STACK: Arc<ThreadStack> = {
        let stack = Arc::new(ThreadStack::new());
        let mut registry = stack_registry().lock().unwrap();
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&stack));
        stack
    };
}

/// Pushes `name` onto this thread's frame stack if a profiler is
/// running. Returns whether a matching [`pop_frame`] is owed — the
/// caller ([`Span`](crate::Span)) stores the flag so a profiler starting
/// or stopping mid-span never unbalances the stack.
pub(crate) fn push_frame(name: &'static str) -> bool {
    // lint:allow(atomics-order) — a stale read only delays seeing the profiler start/stop by one span; no data is published through it
    if !PROFILING.load(Ordering::Relaxed) {
        return false;
    }
    let id = intern(name);
    MY_STACK
        .try_with(|stack| {
            // lint:allow(atomics-order) — only this thread stores `depth`, so its own read needs no ordering
            let depth = stack.depth.load(Ordering::Relaxed);
            if depth < MAX_DEPTH {
                // lint:allow(atomics-order) — the Release store of `depth` below publishes this frame write to the sampler
                stack.frames[depth].store(id, Ordering::Relaxed);
            }
            // Publish the frame before the new depth: Release pairs with
            // the sampler's Acquire load of `depth`.
            stack.depth.store(depth + 1, Ordering::Release);
        })
        .is_ok()
}

/// Pops the innermost frame pushed by [`push_frame`].
pub(crate) fn pop_frame() {
    let _ = MY_STACK.try_with(|stack| {
        // lint:allow(atomics-order) — only this thread stores `depth`, so its own read needs no ordering
        let depth = stack.depth.load(Ordering::Relaxed);
        stack
            .depth
            .store(depth.saturating_sub(1), Ordering::Release);
    });
}

/// Raw sampler output: per distinct stack (as interned ids), how many
/// samples saw it.
type RawProfile = std::collections::BTreeMap<Vec<u32>, u64>;

fn take_sample(into: &mut RawProfile) {
    let stacks: Vec<Arc<ThreadStack>> = stack_registry()
        .lock()
        .unwrap()
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    for stack in stacks {
        let depth = stack.depth.load(Ordering::Acquire).min(MAX_DEPTH);
        if depth == 0 {
            continue;
        }
        let frames: Vec<u32> = stack.frames[..depth]
            .iter()
            .map(|f| f.load(Ordering::Relaxed))
            .filter(|&f| f != NO_FRAME)
            .collect();
        if !frames.is_empty() {
            *into.entry(frames).or_insert(0) += 1;
        }
    }
}

/// A running span-stack sampler.
///
/// At most one profiler should run at a time (a second one samples the
/// same stacks — harmless but double-counted). Created by
/// [`Profiler::start`], consumed by [`Profiler::stop`].
#[derive(Debug)]
pub struct Profiler {
    stop: Arc<AtomicBool>,
    /// Sampling rounds completed so far, published by the sampler.
    rounds: Arc<AtomicU64>,
    handle: thread::JoinHandle<RawProfile>,
}

impl Profiler {
    /// Starts sampling every `interval` (clamped to >= 50µs so a typo
    /// cannot busy-spin the sampler thread).
    pub fn start(interval: Duration) -> Profiler {
        let interval = interval.max(Duration::from_micros(50));
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let (thread_stop, thread_rounds) = (Arc::clone(&stop), Arc::clone(&rounds));
        PROFILING.store(true, Ordering::Release);
        let handle = thread::Builder::new()
            .name("rbpc-profiler".to_string())
            .spawn(move || {
                let mut raw = RawProfile::new();
                while !thread_stop.load(Ordering::Acquire) {
                    take_sample(&mut raw);
                    // Release: a reader that sees this count also sees
                    // that the round's sample was taken.
                    thread_rounds.fetch_add(1, Ordering::Release);
                    thread::sleep(interval);
                }
                raw
            })
            .expect("spawning the profiler sampler thread failed");
        Profiler {
            stop,
            rounds,
            handle,
        }
    }

    /// Sampling rounds completed so far. A round is counted once its
    /// sample is taken, so spans that were open when this read `r` have
    /// been sampled by the time it reads `r + 2`.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Acquire)
    }

    /// Stops sampling and resolves the counts into a report.
    pub fn stop(self) -> ProfileReport {
        PROFILING.store(false, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        let raw = match self.handle.join() {
            Ok(raw) => raw,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let rounds = self.rounds.load(Ordering::Acquire);
        let mut stacks: Vec<(String, u64)> = raw
            .into_iter()
            .map(|(frames, count)| {
                let names: Vec<&'static str> = frames.iter().map(|&f| resolve(f)).collect();
                (names.join(";"), count)
            })
            .collect();
        // Heaviest stacks first; ties broken by name for determinism.
        stacks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ProfileReport { rounds, stacks }
    }
}

/// A finished profile: distinct span stacks and their sample counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    rounds: u64,
    stacks: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Sampling rounds taken (including rounds that saw no open spans).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The `(collapsed_stack, samples)` pairs, heaviest first. A
    /// collapsed stack is `outer;inner;…` in span-nesting order.
    pub fn stacks(&self) -> &[(String, u64)] {
        &self.stacks
    }

    /// Total samples that saw at least one open span.
    pub fn samples(&self) -> u64 {
        self.stacks.iter().map(|&(_, n)| n).sum()
    }

    /// True when no sample caught an open span.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Total samples in stacks containing frame `name` (at any depth).
    pub fn samples_containing(&self, name: &str) -> u64 {
        self.stacks
            .iter()
            .filter(|(stack, _)| stack.split(';').any(|frame| frame == name))
            .map(|&(_, n)| n)
            .sum()
    }

    /// Renders collapsed-stack (flamegraph) format: one
    /// `frame;frame;… count` line per distinct stack.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that start a profiler: the profiling flag is
    /// process-global, so one test's `stop` would otherwise stop another
    /// test's spans from being tracked.
    fn one_profiler() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn profiler_catches_open_spans() {
        let _one = one_profiler();
        let profiler = Profiler::start(Duration::from_micros(100));
        {
            let _outer = crate::obs_span!("profile.test.outer");
            let _inner = crate::obs_span!("profile.test.inner");
            // Hold the spans until a whole round has sampled them, however
            // loaded the host; the deadline only bounds a wedged sampler.
            let seen = profiler.rounds() + 2;
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while profiler.rounds() < seen && std::time::Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let report = profiler.stop();
        assert!(!report.is_empty(), "sampler saw no spans in 50ms");
        assert!(report.rounds() > 0);
        assert!(report.samples_containing("profile.test.outer") > 0);
        let collapsed = report.to_collapsed();
        assert!(
            collapsed.contains("profile.test.outer;profile.test.inner"),
            "nesting order lost: {collapsed}"
        );
        // Collapsed lines are `stack count`.
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("line has a count");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        }
    }

    #[test]
    fn frames_balance_across_profiler_lifetime() {
        // A span entered before the profiler starts owes no pop; one
        // entered while it runs owes exactly one.
        let _one = one_profiler();
        let early = push_frame("profile.test.balance.early");
        let profiler = Profiler::start(Duration::from_millis(1));
        let tracked = push_frame("profile.test.balance.tracked");
        if tracked {
            pop_frame();
        }
        let report = profiler.stop();
        assert!(tracked, "push while profiling must be tracked");
        // `early` may be true only if another test's profiler was live.
        if early {
            pop_frame();
        }
        let _ = report;
        // After balancing, this thread's stack depth is back to zero.
        MY_STACK.with(|s| assert_eq!(s.depth.load(Ordering::Relaxed), 0));
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("profile.test.intern.a");
        let b = intern("profile.test.intern.b");
        assert_ne!(a, b);
        assert_eq!(intern("profile.test.intern.a"), a);
        assert_eq!(resolve(a), "profile.test.intern.a");
        assert_eq!(resolve(u32::MAX - 1), "?");
    }
}
