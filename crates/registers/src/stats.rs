//! Shared-memory operation counters.
//!
//! The complexity experiments (EXPERIMENTS.md, experiment C1) compare how
//! much work each algorithm does per critical-section entry.  A register
//! handle counts its own reads, writes and compare&swaps, and each
//! snapshot's reads, collect rounds and completion, in plain fields
//! inside the handle.  It publishes them to its [`OpCounters`] with one
//! relaxed atomic add per counter that moved, when asked to
//! (`publish_counts`) and when dropped.  The threaded locks publish at
//! the end of every acquire, release and withdraw call, so the locked
//! adds (`lock xadd` on x86) leave the per-operation path: an
//! uncontended Algorithm 2 (n = 2, m = 3) lock/unlock cycle pays 3 of
//! them instead of 9, an Algorithm 1 cycle 6 instead of 21.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative counts of primitive shared-memory operations.
///
/// Cloning shares the underlying counters (handles and their memory hold
/// the same instance).  A handle's operations appear here when the
/// handle publishes them: a threaded lock's participant publishes at
/// the end of every call (`lock`, `try_lock`, a guard's drop, …), so a
/// reading taken between its calls is exact, and a reading taken
/// concurrently with a call lags it by up to that call's operations.
///
/// # Example
///
/// ```
/// use amx_ids::{PidPool, Slot};
/// use amx_registers::{AnonymousRwMemory, OpCounters, Permutation};
///
/// let mem = AnonymousRwMemory::new(2);
/// let me = PidPool::sequential().mint();
/// let c = OpCounters::new();
/// let h = mem.handle_with_counters(me, Permutation::identity(2), c.clone());
/// h.write(0, Slot::from(me));
/// let _ = h.read(0);
/// assert_eq!(c.total_primitive_ops(), 0, "still counted in the handle");
/// h.publish_counts();
/// assert_eq!((c.reads(), c.writes()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpCounters {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    reads: AtomicU64,
    writes: AtomicU64,
    cas: AtomicU64,
    snapshots: AtomicU64,
    collect_rounds: AtomicU64,
}

impl OpCounters {
    /// Creates a fresh set of zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every count of `counts` in bulk: one relaxed add per counter
    /// it moves, none for a zero count.
    pub fn add(&self, counts: &OpSnapshot) {
        let OpSnapshot {
            reads,
            writes,
            cas_ops,
            snapshots,
            collect_rounds,
        } = *counts;
        for (counter, n) in [
            (&self.inner.reads, reads),
            (&self.inner.writes, writes),
            (&self.inner.cas, cas_ops),
            (&self.inner.snapshots, snapshots),
            (&self.inner.collect_rounds, collect_rounds),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Total reads recorded.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.inner.reads.load(Ordering::Relaxed)
    }

    /// Total writes recorded.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.inner.writes.load(Ordering::Relaxed)
    }

    /// Total compare&swap operations recorded.
    #[must_use]
    pub fn cas_ops(&self) -> u64 {
        self.inner.cas.load(Ordering::Relaxed)
    }

    /// Total snapshots recorded.
    #[must_use]
    pub fn snapshots(&self) -> u64 {
        self.inner.snapshots.load(Ordering::Relaxed)
    }

    /// Total collect rounds recorded across all snapshots.
    #[must_use]
    pub fn collect_rounds(&self) -> u64 {
        self.inner.collect_rounds.load(Ordering::Relaxed)
    }

    /// Sum of all primitive operations (reads + writes + cas).
    #[must_use]
    pub fn total_primitive_ops(&self) -> u64 {
        self.reads() + self.writes() + self.cas_ops()
    }

    /// Adds every count from `other` into this counter set (used to
    /// aggregate per-participant counters into a per-run total).
    pub fn merge(&self, other: &OpCounters) {
        self.add(&other.snapshot_counts());
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.inner.reads.store(0, Ordering::Relaxed);
        self.inner.writes.store(0, Ordering::Relaxed);
        self.inner.cas.store(0, Ordering::Relaxed);
        self.inner.snapshots.store(0, Ordering::Relaxed);
        self.inner.collect_rounds.store(0, Ordering::Relaxed);
    }

    /// One coherent-enough copy of all five counts (each counter read
    /// once, relaxed), for reporting after the measured threads joined.
    ///
    /// Named `snapshot_counts` to avoid confusion with *register*
    /// snapshots (which [`snapshots`](Self::snapshots) tallies).
    #[must_use]
    pub fn snapshot_counts(&self) -> OpSnapshot {
        OpSnapshot {
            reads: self.reads(),
            writes: self.writes(),
            cas_ops: self.cas_ops(),
            snapshots: self.snapshots(),
            collect_rounds: self.collect_rounds(),
        }
    }
}

/// A handle's [`OpCounters`] and the counts it has not published yet.
///
/// The pending counts are plain cells that only the owning handle's
/// thread touches, so counting an operation is an ordinary add; the
/// cells make every handle `!Sync`.  Dropping publishes what is left.
#[derive(Debug)]
pub(crate) struct HandleCounts {
    shared: OpCounters,
    pending: Cell<OpSnapshot>,
}

impl HandleCounts {
    pub(crate) fn new(shared: OpCounters) -> Self {
        HandleCounts {
            shared,
            pending: Cell::default(),
        }
    }

    /// The counters this handle publishes to.
    pub(crate) fn shared(&self) -> &OpCounters {
        &self.shared
    }

    fn count(&self, f: impl FnOnce(&mut OpSnapshot)) {
        let mut pending = self.pending.get();
        f(&mut pending);
        self.pending.set(pending);
    }

    /// Counts one register read.
    pub(crate) fn read(&self) {
        self.count(|c| c.reads += 1);
    }

    /// Counts one register write.
    pub(crate) fn write(&self) {
        self.count(|c| c.writes += 1);
    }

    /// Counts one compare&swap (successful or not).
    pub(crate) fn cas(&self) {
        self.count(|c| c.cas_ops += 1);
    }

    /// Counts one snapshot attempt: `rounds` collect rounds of `m` reads
    /// each, and one completed snapshot when `completed`.
    pub(crate) fn collects(&self, rounds: u64, m: u64, completed: bool) {
        self.count(|c| {
            c.reads += rounds * m;
            c.collect_rounds += rounds;
            c.snapshots += u64::from(completed);
        });
    }

    /// Adds the pending counts to the shared counters and clears them.
    pub(crate) fn publish(&self) {
        self.shared.add(&self.pending.take());
    }
}

impl Drop for HandleCounts {
    fn drop(&mut self) {
        self.publish();
    }
}

/// A plain-value copy of an [`OpCounters`] reading, detached from the
/// shared atomics — subtractable, serializable, safe to hold across a
/// run boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Atomic register reads.
    pub reads: u64,
    /// Atomic register writes.
    pub writes: u64,
    /// Compare&swap invocations (successful or not).
    pub cas_ops: u64,
    /// Completed register-array snapshot operations.
    pub snapshots: u64,
    /// Collect rounds performed inside those snapshots.
    pub collect_rounds: u64,
}

impl OpSnapshot {
    /// Sum of all primitive operations (reads + writes + cas).
    #[must_use]
    pub fn total_primitive_ops(&self) -> u64 {
        self.reads + self.writes + self.cas_ops
    }

    /// Per-field saturating difference `self - earlier`, for windowed
    /// measurements over a shared counter set.
    #[must_use]
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            cas_ops: self.cas_ops.saturating_sub(earlier.cas_ops),
            snapshots: self.snapshots.saturating_sub(earlier.snapshots),
            collect_rounds: self.collect_rounds.saturating_sub(earlier.collect_rounds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(reads: u64, writes: u64, cas_ops: u64) -> OpSnapshot {
        OpSnapshot {
            reads,
            writes,
            cas_ops,
            ..OpSnapshot::default()
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let c = OpCounters::new();
        c.add(&counts(1, 1, 1));
        c.add(&OpSnapshot {
            reads: 2 * 3,
            snapshots: 1,
            collect_rounds: 2,
            ..OpSnapshot::default()
        });
        // A failed snapshot attempt counts its reads and rounds only.
        c.add(&OpSnapshot {
            reads: 3,
            collect_rounds: 1,
            ..OpSnapshot::default()
        });
        assert_eq!(c.reads(), 1 + 2 * 3 + 3);
        assert_eq!(c.writes(), 1);
        assert_eq!(c.cas_ops(), 1);
        assert_eq!(c.snapshots(), 1);
        assert_eq!(c.collect_rounds(), 3);
        assert_eq!(c.total_primitive_ops(), 12);
        c.reset();
        assert_eq!(c.total_primitive_ops(), 0);
        assert_eq!(c.snapshots(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = OpCounters::new();
        let b = OpCounters::new();
        a.add(&counts(1, 0, 0));
        b.add(&counts(1, 0, 1));
        a.merge(&b);
        assert_eq!(a.reads(), 2);
        assert_eq!(a.cas_ops(), 1);
        assert_eq!(b.reads(), 1, "merge must not mutate the source");
    }

    #[test]
    fn clones_share_state() {
        let c = OpCounters::new();
        let d = c.clone();
        c.add(&counts(0, 1, 0));
        d.add(&counts(0, 1, 0));
        assert_eq!(c.writes(), 2);
        assert_eq!(d.writes(), 2);
    }

    #[test]
    fn snapshot_counts_detach_and_subtract() {
        let c = OpCounters::new();
        c.add(&counts(1, 1, 0));
        let before = c.snapshot_counts();
        c.add(&counts(1, 0, 1));
        let after = c.snapshot_counts();
        let delta = after.since(&before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 0);
        assert_eq!(delta.cas_ops, 1);
        assert_eq!(delta.total_primitive_ops(), 2);
        // The detached copy does not move with the live counters.
        c.add(&counts(1, 0, 0));
        assert_eq!(after.reads, 2);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = OpCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(&counts(1, 0, 0));
                    }
                });
            }
        });
        assert_eq!(c.reads(), 4000);
    }
}
