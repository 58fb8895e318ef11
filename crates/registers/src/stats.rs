//! Shared-memory operation counters.
//!
//! The complexity experiments (EXPERIMENTS.md, experiment C1) compare how
//! much work each algorithm does per critical-section entry.  Handles
//! update an [`OpCounters`] with plain relaxed atomic adds: one per
//! read, write and compare&swap, and at most three per register-array
//! snapshot (its reads, collect rounds and completion, published in
//! bulk when it returns).  Each add is a locked read-modify-write on
//! x86, so they are not free: with one add per snapshot read, an
//! uncontended Algorithm 1 (n = 2, m = 3) entry paid 36 adds for its
//! four snapshots; in bulk it pays 12, and with the snapshots also
//! allocation-free a traced uncontended acquire fell from 735 to
//! 371 ns (2-vCPU VM).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative counts of primitive shared-memory operations.
///
/// Cloning shares the underlying counters (handles and their memory hold
/// the same instance).  An operation's counts appear when the operation
/// returns: a snapshot in progress has published none of its reads yet,
/// so a reading taken concurrently with one lags it by up to a whole
/// snapshot, and a reading taken between operations is exact.
///
/// # Example
///
/// ```
/// use amx_registers::OpCounters;
/// let c = OpCounters::new();
/// c.record_read();
/// c.record_write();
/// c.record_write();
/// assert_eq!(c.reads(), 1);
/// assert_eq!(c.writes(), 2);
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

    /// Records one atomic register read.
    pub fn record_read(&self) {
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one atomic register write.
    pub fn record_write(&self) {
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one compare&swap invocation (successful or not).
    pub fn record_cas(&self) {
        self.inner.cas.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one snapshot attempt in bulk: `rounds` collect rounds of
    /// `m` reads each, and one completed snapshot when `completed`.  One
    /// relaxed add per counter it moves.
    pub fn record_collects(&self, rounds: u64, m: u64, completed: bool) {
        self.inner.reads.fetch_add(rounds * m, Ordering::Relaxed);
        self.inner
            .collect_rounds
            .fetch_add(rounds, Ordering::Relaxed);
        if completed {
            self.inner.snapshots.fetch_add(1, Ordering::Relaxed);
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
        self.inner.reads.fetch_add(other.reads(), Ordering::Relaxed);
        self.inner
            .writes
            .fetch_add(other.writes(), Ordering::Relaxed);
        self.inner.cas.fetch_add(other.cas_ops(), Ordering::Relaxed);
        self.inner
            .snapshots
            .fetch_add(other.snapshots(), Ordering::Relaxed);
        self.inner
            .collect_rounds
            .fetch_add(other.collect_rounds(), Ordering::Relaxed);
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

    #[test]
    fn counters_accumulate_and_reset() {
        let c = OpCounters::new();
        c.record_read();
        c.record_write();
        c.record_cas();
        c.record_collects(2, 3, true);
        // A failed attempt counts its reads and rounds, not a snapshot.
        c.record_collects(1, 3, false);
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
        a.record_read();
        b.record_read();
        b.record_cas();
        a.merge(&b);
        assert_eq!(a.reads(), 2);
        assert_eq!(a.cas_ops(), 1);
        assert_eq!(b.reads(), 1, "merge must not mutate the source");
    }

    #[test]
    fn clones_share_state() {
        let c = OpCounters::new();
        let d = c.clone();
        c.record_write();
        d.record_write();
        assert_eq!(c.writes(), 2);
        assert_eq!(d.writes(), 2);
    }

    #[test]
    fn snapshot_counts_detach_and_subtract() {
        let c = OpCounters::new();
        c.record_read();
        c.record_write();
        let before = c.snapshot_counts();
        c.record_read();
        c.record_cas();
        let after = c.snapshot_counts();
        let delta = after.since(&before);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.writes, 0);
        assert_eq!(delta.cas_ops, 1);
        assert_eq!(delta.total_primitive_ops(), 2);
        // The detached copy does not move with the live counters.
        c.record_read();
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
                        c.record_read();
                    }
                });
            }
        });
        assert_eq!(c.reads(), 4000);
    }
}
