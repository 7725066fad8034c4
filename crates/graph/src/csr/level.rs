//! The base-distance level queue the CSR settle loop pops, over the
//! whole graph or a repair's region.
//!
//! Every perturbed weight is `(base << 64) | pad` with `base ≥ 1`, and
//! pad sums never carry into the base half (see the
//! [`batch`](super::batch) module docs). So a node at base distance `L`
//! can only improve nodes at base distance `L + 1` or more: nodes on one
//! level cannot improve one another, and a frontier that pops levels in
//! increasing order may pop each level's nodes in any order and still
//! settle every node at its exact perturbed distance. Padded costs make
//! every shortest path unique, so the settled parents do not depend on
//! that order either.
//!
//! The queue holds `u32` node ids in one bucket per level. A relaxation
//! pushes a node when it is first touched or moves to a lower level; a
//! pad-only improvement rewrites the node's record and leaves the queue
//! alone. A node that moved down leaves its old entry behind, and pops
//! skip it (the caller's `live` test), so the queue needs no
//! decrease-key and no position array.
//!
//! Buckets cover the window `[floor, floor + WINDOW)`. A push past the
//! window goes to a spill list, and once the window drains the spill's
//! lowest level becomes the new floor and every spilled entry inside the
//! new window moves into its bucket. With every base weight at most
//! `WINDOW`, all of the spill fits the next window, so an entry is moved
//! at most once; heavier weights stay exact, and an entry far beyond the
//! window is rescanned once per window until it fits.

/// Levels per window. The repair kernel's regions span a few dozen
/// levels, and so do full trees under the topology families' weights.
const WINDOW: usize = 1024;

/// A monotone multi-level queue of node ids keyed by base distance (see
/// the module docs). Levels pushed must never lie below the level last
/// popped.
#[derive(Debug, Clone, Default)]
pub(super) struct LevelQueue {
    /// Base distance of `buckets[0]`.
    floor: u64,
    /// The lowest bucket that may hold entries; every bucket below it
    /// has drained.
    cur: usize,
    /// One past the highest bucket pushed to since the window moved.
    end: usize,
    /// Entries in the window's buckets.
    queued: usize,
    /// `WINDOW` buckets once the first run begins; empty until then, so
    /// an unused scratch allocates nothing.
    buckets: Vec<Vec<u32>>,
    /// `(level, node)` entries at or past `floor + WINDOW`.
    spill: Vec<(u64, u32)>,
}

impl LevelQueue {
    /// Empties the queue, whatever a previous run left in it, and sets
    /// its floor: a lower bound on every level the new run will push.
    pub(super) fn begin(&mut self, floor: u64) {
        if self.buckets.is_empty() {
            self.buckets.resize_with(WINDOW, Vec::new);
        }
        for b in &mut self.buckets[..self.end] {
            b.clear();
        }
        self.spill.clear();
        self.floor = floor;
        self.cur = 0;
        self.end = 0;
        self.queued = 0;
    }

    /// Queues `node` at base distance `level`.
    #[inline]
    pub(super) fn push(&mut self, level: u64, node: u32) {
        debug_assert!(
            level >= self.floor + self.cur as u64,
            "level {level} pushed below the queue's current level"
        );
        let at = level - self.floor;
        if at < WINDOW as u64 {
            let at = at as usize;
            self.buckets[at].push(node);
            self.queued += 1;
            self.end = self.end.max(at + 1);
        } else {
            self.spill.push((level, node));
        }
    }

    /// Removes and returns an entry of the lowest queued level for which
    /// `live(node, level)` holds, dropping every entry before it that
    /// fails the test; `None` once the queue is empty.
    #[inline]
    pub(super) fn pop(&mut self, mut live: impl FnMut(u32, u64) -> bool) -> Option<u32> {
        loop {
            if self.queued == 0 && !self.rebase() {
                return None;
            }
            while self.buckets[self.cur].is_empty() {
                self.cur += 1;
            }
            let node = self.buckets[self.cur].pop()?;
            self.queued -= 1;
            if live(node, self.floor + self.cur as u64) {
                return Some(node);
            }
        }
    }

    /// Moves the window to the spill's lowest level and re-buckets every
    /// spilled entry it now covers; `false` when the spill is empty too.
    #[cold]
    fn rebase(&mut self) -> bool {
        let Some(floor) = self.spill.iter().map(|&(level, _)| level).min() else {
            return false;
        };
        debug_assert!(self.queued == 0, "the window moved before it drained");
        self.floor = floor;
        self.cur = 0;
        self.end = 0;
        let LevelQueue {
            buckets,
            spill,
            queued,
            end,
            ..
        } = self;
        spill.retain(|&(level, node)| {
            let at = level - floor;
            if at >= WINDOW as u64 {
                return true;
            }
            let at = at as usize;
            buckets[at].push(node);
            *queued += 1;
            *end = (*end).max(at + 1);
            false
        });
        true
    }

    /// Entries the buckets and the spill have room for without growing.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>() + self.spill.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q`, keeping every entry, as `(level, node)` pairs.
    fn drain(q: &mut LevelQueue) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut level = 0;
        while let Some(v) = q.pop(|_, l| {
            level = l;
            true
        }) {
            out.push((level, v));
        }
        out
    }

    #[test]
    fn pops_are_monotone_and_complete() {
        let mut q = LevelQueue::default();
        q.begin(7);
        let pushed = [(9, 1), (7, 2), (12, 3), (9, 4), (7, 5), (30, 6)];
        for (level, v) in pushed {
            q.push(level, v);
        }
        let got = drain(&mut q);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "{got:?}");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        let mut want = pushed.to_vec();
        want.sort_unstable();
        assert_eq!(sorted, want);
        // A push between pops lands in order too.
        q.begin(0);
        q.push(3, 1);
        assert_eq!(q.pop(|_, _| true), Some(1));
        q.push(5, 2);
        q.push(3, 3);
        assert_eq!(drain(&mut q), vec![(3, 3), (5, 2)]);
        assert_eq!(q.pop(|_, _| true), None);
    }

    #[test]
    fn stale_and_duplicate_entries_are_skipped() {
        // Node 1 is queued at level 8, then moves down to level 4; node 2
        // is queued twice at level 6. The caller's record says where
        // each node lives now, and a settled node is dead.
        let mut q = LevelQueue::default();
        q.begin(0);
        q.push(8, 1);
        q.push(6, 2);
        q.push(6, 2);
        q.push(4, 1);
        let mut level_of = [0, 4, 6];
        let mut settled = [false; 3];
        let mut order = Vec::new();
        while let Some(v) = q.pop(|v, l| !settled[v as usize] && level_of[v as usize] == l) {
            settled[v as usize] = true;
            order.push(v);
        }
        assert_eq!(order, vec![1, 2]);
        // An unsettled entry at a level its node has left is skipped too.
        q.begin(0);
        q.push(2, 1);
        q.push(5, 1);
        level_of[1] = 5;
        assert_eq!(
            q.pop(|v, l| level_of[v as usize] == l),
            Some(1),
            "the level-2 entry is stale"
        );
        assert_eq!(q.pop(|_, _| true), None);
    }

    #[test]
    fn spilled_levels_are_rebucketed_in_order() {
        let mut q = LevelQueue::default();
        let far = u64::from(u32::MAX);
        q.begin(0);
        // Levels well past the window, out of order, mixed with near ones.
        let pushed = [
            (3 * far, 1),
            (1, 2),
            (far + 2, 3),
            (far, 4),
            (3 * far + 1, 5),
            (WINDOW as u64, 6),
        ];
        for (level, v) in pushed {
            q.push(level, v);
        }
        let mut got = Vec::new();
        let mut level = 0;
        while let Some(v) = q.pop(|_, l| {
            level = l;
            true
        }) {
            got.push((level, v));
            // Relaxing from a spilled level pushes at or above it.
            if v == 4 {
                q.push(far + 1, 7);
            }
        }
        assert_eq!(
            got,
            vec![
                (1, 2),
                (WINDOW as u64, 6),
                (far, 4),
                (far + 1, 7),
                (far + 2, 3),
                (3 * far, 1),
                (3 * far + 1, 5),
            ]
        );
        assert!(q.spill.is_empty());
    }

    #[test]
    fn begin_clears_a_half_drained_queue() {
        let mut q = LevelQueue::default();
        q.begin(10);
        for (level, v) in [(10, 1), (11, 2), (12, 3), (10 + 5 * WINDOW as u64, 4)] {
            q.push(level, v);
        }
        // A resumable run stops part-way and leaves the rest queued.
        assert_eq!(q.pop(|_, _| true), Some(1));
        q.begin(0);
        assert_eq!(q.pop(|_, _| true), None);
        q.push(2, 9);
        assert_eq!(drain(&mut q), vec![(2, 9)]);
    }
}
