//! Anonymous read/write memory with linearizable snapshots.
//!
//! Each physical register is one `AtomicU64` holding a `(sequence, slot)`
//! pair (see [`amx_ids::codec`]).  Per the paper (§II-B), every write by a
//! process carries that process's next local sequence number; because no
//! two processes share an identity, each write's stored word is unique
//! among all writes ever applied to that register — which is exactly what
//! the double-collect snapshot needs to detect intervening writes.
//!
//! A snapshot repeatedly collects the whole array until two consecutive
//! collects return identical stamped words.  This satisfies the paper's
//! progress condition (1): if no process writes during the snapshot, two
//! collects suffice.  Under active contention the operation retries; the
//! bounded variant [`RwHandle::try_snapshot`] surfaces livelock to callers
//! that want to inject failure.
//!
//! One loop serves every snapshot method.  It collects into two buffers
//! the handle owns and swaps them between rounds, so after a handle's
//! first snapshot [`RwHandle::snapshot_into`] allocates nothing.  Like
//! every operation of the handle, its reads, rounds and completion are
//! counted in the handle and reach the [`OpCounters`] only when the
//! handle publishes them ([`RwHandle::publish_counts`], or its drop).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amx_ids::codec::{decode_stamped, encode_stamped};
use amx_ids::{Pid, Slot};

use crate::permutation::Permutation;
use crate::stats::{HandleCounts, OpCounters};

/// Error returned by [`RwHandle::try_snapshot`] when the bounded
/// double-collect could not observe a quiescent pair of collects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Number of collect rounds attempted.
    pub rounds: usize,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot did not stabilize within {} collect rounds",
            self.rounds
        )
    }
}

impl std::error::Error for SnapshotError {}

/// A shared array of `m` anonymous atomic read/write registers.
///
/// All registers are initialized to ⊥.  Processes access the array through
/// per-process [`RwHandle`]s carrying their adversary-chosen permutation.
///
/// # Example
///
/// ```
/// use amx_ids::{PidPool, Slot};
/// use amx_registers::{AnonymousRwMemory, Permutation};
///
/// let mem = AnonymousRwMemory::new(5);
/// let me = PidPool::sequential().mint();
/// let h = mem.handle(me, Permutation::random(5, 1));
/// h.write(3, Slot::from(me));
/// assert!(h.read(3).is_owned_by(me));
/// assert_eq!(h.snapshot().iter().filter(|s| s.is_owned_by(me)).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AnonymousRwMemory {
    cells: Arc<Vec<AtomicU64>>,
}

impl AnonymousRwMemory {
    /// Allocates `m` registers, all initialized to ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`; the model always has at least one register.
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "anonymous memory needs at least one register");
        AnonymousRwMemory {
            cells: Arc::new((0..m).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Never true; kept for API completeness alongside [`len`](Self::len).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Creates the access handle for process `id`, which will address the
    /// array through `permutation`.
    ///
    /// # Panics
    ///
    /// Panics if the permutation size differs from the memory size.
    #[must_use]
    pub fn handle(&self, id: Pid, permutation: Permutation) -> RwHandle {
        self.handle_with_counters(id, permutation, OpCounters::new())
    }

    /// Like [`handle`](Self::handle) but publishing operation counts to
    /// the caller's counters.
    ///
    /// # Panics
    ///
    /// Panics if the permutation size differs from the memory size.
    #[must_use]
    pub fn handle_with_counters(
        &self,
        id: Pid,
        permutation: Permutation,
        counters: OpCounters,
    ) -> RwHandle {
        assert_eq!(
            permutation.len(),
            self.cells.len(),
            "permutation size must match memory size"
        );
        RwHandle {
            cells: Arc::clone(&self.cells),
            perm: permutation,
            id,
            seq: Cell::new(0),
            counts: HandleCounts::new(counters),
            collects: RefCell::default(),
        }
    }

    /// Reads the *physical* register `phys` (no permutation) — an
    /// omniscient-observer view used by harnesses and tests, never by
    /// algorithm code.
    #[must_use]
    pub fn observe(&self, phys: usize) -> Slot {
        decode_stamped(self.cells[phys].load(Ordering::SeqCst)).1
    }

    /// Omniscient collect of all physical registers, in physical order.
    #[must_use]
    pub fn observe_all(&self) -> Vec<Slot> {
        (0..self.len()).map(|i| self.observe(i)).collect()
    }
}

/// Per-process access handle to an [`AnonymousRwMemory`].
///
/// A handle belongs to one process: it carries the process identity (used
/// to stamp writes), the adversary permutation, the local write
/// sequence counter, the operation counts it has not published yet and
/// the two collect buffers its snapshots reuse.  Handles are `Send` but
/// intentionally not `Sync`.
pub struct RwHandle {
    cells: Arc<Vec<AtomicU64>>,
    perm: Permutation,
    id: Pid,
    seq: Cell<u32>,
    counts: HandleCounts,
    /// The previous and the current collect of the double-collect loop,
    /// as stamped words; empty until the handle's first snapshot.
    collects: RefCell<(Vec<u64>, Vec<u64>)>,
}

impl fmt::Debug for RwHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwHandle")
            .field("id", &self.id)
            .field("perm", &self.perm)
            .field("seq", &self.seq.get())
            .finish_non_exhaustive()
    }
}

impl RwHandle {
    /// The identity of the process owning this handle.
    #[must_use]
    pub fn id(&self) -> Pid {
        self.id
    }

    /// Number of registers (the `m` of the model).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Never true.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operation counters this handle publishes to.
    #[must_use]
    pub fn counters(&self) -> &OpCounters {
        self.counts.shared()
    }

    /// Publishes the operations counted since the last publish to
    /// [`counters`](Self::counters), with one relaxed add per counter
    /// that moved.  Dropping the handle publishes too.
    pub fn publish_counts(&self) {
        self.counts.publish();
    }

    fn phys(&self, x: usize) -> &AtomicU64 {
        &self.cells[self.perm.apply(x)]
    }

    /// `R.read(x)`: atomically reads the register locally named `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ m`.
    #[must_use]
    pub fn read(&self, x: usize) -> Slot {
        self.counts.read();
        decode_stamped(self.phys(x).load(Ordering::SeqCst)).1
    }

    /// `R.write(x, v)`: atomically writes `v` to the register locally
    /// named `x`, stamped with this process's next sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ m`.
    pub fn write(&self, x: usize, v: Slot) {
        self.counts.write();
        let next = self.seq.get().wrapping_add(1);
        self.seq.set(next);
        self.phys(x)
            .store(encode_stamped(next, v), Ordering::SeqCst);
    }

    /// One collect: reads every register once, in local-name order,
    /// into `buf` as stamped words.  Counts nothing (the caller counts
    /// its rounds in bulk).
    fn collect_stamped(&self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend((0..self.len()).map(|x| self.phys(x).load(Ordering::SeqCst)));
    }

    /// An unordered, non-atomic read of all registers in local-name order
    /// (Algorithm 2's read loop — *not* a snapshot).
    #[must_use]
    pub fn collect(&self) -> Vec<Slot> {
        (0..self.len())
            .map(|x| {
                self.counts.read();
                decode_stamped(self.phys(x).load(Ordering::SeqCst)).1
            })
            .collect()
    }

    /// The double-collect loop behind every snapshot method: collects
    /// until two consecutive collects match, then decodes the matching
    /// collect into `out`.  With a `max_rounds` budget it gives up once
    /// that many collects ran (at least one always runs); without one it
    /// yields to the OS scheduler every 8 rounds to avoid starving the
    /// writers it is waiting out.
    ///
    /// The rounds are counted when the loop returns: `m` reads and one
    /// collect round per round, plus one snapshot on success.
    fn double_collect(
        &self,
        out: &mut Vec<Slot>,
        max_rounds: Option<usize>,
    ) -> Result<(), SnapshotError> {
        let mut collects = self.collects.borrow_mut();
        let (prev, cur) = &mut *collects;
        self.collect_stamped(prev);
        let mut rounds = 1usize;
        let stable = loop {
            if max_rounds.is_some_and(|max| rounds >= max) {
                break false;
            }
            self.collect_stamped(cur);
            rounds += 1;
            if cur == prev {
                break true;
            }
            std::mem::swap(prev, cur);
            if max_rounds.is_none() && rounds.is_multiple_of(8) {
                std::thread::yield_now();
            }
        };
        self.counts
            .collects(rounds as u64, self.len() as u64, stable);
        if !stable {
            return Err(SnapshotError {
                rounds: max_rounds.unwrap_or(rounds),
            });
        }
        out.clear();
        out.extend(prev.iter().map(|&w| decode_stamped(w).1));
        Ok(())
    }

    /// `R.snapshot()`: linearizable snapshot of all registers in
    /// local-name order, by unbounded double-collect.
    ///
    /// Terminates as soon as two consecutive collects observe identical
    /// stamped words; per the paper's progress condition (1) this is
    /// guaranteed once no process is writing.  Yields to the OS scheduler
    /// every 8 failed rounds to avoid starving the writers it is waiting
    /// out.  Allocates the returned `Vec`; hot paths use
    /// [`snapshot_into`](Self::snapshot_into).
    #[must_use]
    pub fn snapshot(&self) -> Vec<Slot> {
        let mut out = Vec::with_capacity(self.len());
        self.snapshot_into(&mut out);
        out
    }

    /// [`snapshot`](Self::snapshot) written into a caller-owned buffer:
    /// `out` is cleared and refilled, keeping its capacity.  Once this
    /// handle has taken one snapshot and `out` has room for `m` slots,
    /// the call allocates nothing.
    pub fn snapshot_into(&self, out: &mut Vec<Slot>) {
        // Without a round budget the loop cannot fail.
        let _ = self.double_collect(out, None);
    }

    /// Bounded variant of [`snapshot`](Self::snapshot): gives up after
    /// `max_rounds` collect rounds.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when no two consecutive collects matched
    /// within the budget.
    pub fn try_snapshot(&self, max_rounds: usize) -> Result<Vec<Slot>, SnapshotError> {
        let mut out = Vec::with_capacity(self.len());
        self.double_collect(&mut out, Some(max_rounds))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpSnapshot;
    use amx_ids::PidPool;

    fn two_handles(m: usize) -> (AnonymousRwMemory, RwHandle, RwHandle) {
        let mem = AnonymousRwMemory::new(m);
        let mut pool = PidPool::sequential();
        let (a, b) = (pool.mint(), pool.mint());
        let ha = mem.handle(a, Permutation::identity(m));
        let hb = mem.handle(b, Permutation::rotation(m, 1));
        (mem, ha, hb)
    }

    #[test]
    fn fresh_memory_is_all_bottom() {
        let (_mem, ha, _hb) = two_handles(5);
        for x in 0..5 {
            assert!(ha.read(x).is_bottom());
        }
        assert!(ha.snapshot().iter().all(|s| s.is_bottom()));
    }

    #[test]
    fn write_then_read_round_trip() {
        let (_mem, ha, _) = two_handles(4);
        let me = ha.id();
        ha.write(2, Slot::from(me));
        assert!(ha.read(2).is_owned_by(me));
        assert!(ha.read(0).is_bottom());
    }

    #[test]
    fn permutation_routes_to_physical_register() {
        let (mem, ha, hb) = two_handles(4);
        // ha uses identity, hb rotation by 1: hb local x → physical x+1.
        hb.write(0, Slot::from(hb.id()));
        assert!(mem.observe(1).is_owned_by(hb.id()));
        assert!(ha.read(1).is_owned_by(hb.id()));
        assert!(ha.read(0).is_bottom());
    }

    #[test]
    fn same_local_name_different_physical() {
        let (mem, ha, hb) = two_handles(3);
        ha.write(0, Slot::from(ha.id()));
        hb.write(0, Slot::from(hb.id()));
        assert!(mem.observe(0).is_owned_by(ha.id()));
        assert!(mem.observe(1).is_owned_by(hb.id()));
    }

    #[test]
    fn snapshot_is_in_local_name_order() {
        let (_mem, ha, hb) = two_handles(3);
        hb.write(0, Slot::from(hb.id())); // physical 1
        let snap_a = ha.snapshot();
        let snap_b = hb.snapshot();
        assert!(snap_a[1].is_owned_by(hb.id()));
        assert!(snap_b[0].is_owned_by(hb.id()));
    }

    #[test]
    fn overwrites_last_writer_wins() {
        let (_mem, ha, hb) = two_handles(3);
        ha.write(1, Slot::from(ha.id()));
        hb.write(0, Slot::from(hb.id())); // physical 1 too
        assert!(ha.read(1).is_owned_by(hb.id()));
        ha.write(1, Slot::BOTTOM);
        assert!(ha.read(1).is_bottom());
    }

    #[test]
    fn try_snapshot_succeeds_when_quiescent() {
        let (_mem, ha, _) = two_handles(6);
        ha.write(0, Slot::from(ha.id()));
        let snap = ha.try_snapshot(4).expect("quiescent memory must stabilize");
        assert!(snap[0].is_owned_by(ha.id()));
    }

    #[test]
    fn try_snapshot_counts_its_rounds_without_a_snapshot() {
        let mem = AnonymousRwMemory::new(5);
        let id = PidPool::sequential().mint();
        let c = OpCounters::new();
        let h = mem.handle_with_counters(id, Permutation::identity(5), c.clone());
        // One round can never compare two collects.
        assert_eq!(h.try_snapshot(1), Err(SnapshotError { rounds: 1 }));
        h.publish_counts();
        assert_eq!(c.reads(), 5);
        assert_eq!(c.collect_rounds(), 1);
        assert_eq!(c.snapshots(), 0);
        // Quiescent: two rounds suffice and complete one snapshot.
        assert!(h.try_snapshot(2).is_ok());
        h.publish_counts();
        assert_eq!(c.reads(), 5 + 10);
        assert_eq!(c.collect_rounds(), 3);
        assert_eq!(c.snapshots(), 1);
    }

    #[test]
    fn snapshot_into_matches_snapshot_and_reuses_buffer() {
        let (_mem, ha, hb) = two_handles(3);
        ha.write(1, Slot::from(ha.id()));
        let mut buf = vec![Slot::BOTTOM; 64]; // stale, oversized: must be cleared
        hb.snapshot_into(&mut buf);
        assert_eq!(buf, hb.snapshot());
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), 64, "the caller's buffer is reused");
        assert!(buf[0].is_owned_by(ha.id()), "hb's local 0 is physical 1");
    }

    #[test]
    fn try_snapshot_error_display() {
        let e = SnapshotError { rounds: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn counters_record_operations() {
        let mem = AnonymousRwMemory::new(4);
        let id = PidPool::sequential().mint();
        let c = OpCounters::new();
        let h = mem.handle_with_counters(id, Permutation::identity(4), c.clone());
        h.write(0, Slot::from(id));
        let _ = h.read(0);
        let _ = h.snapshot();
        h.publish_counts();
        assert_eq!(c.writes(), 1);
        assert_eq!(c.reads(), 1 + 2 * 4); // one read + 2 quiescent collects of 4
        assert_eq!(c.snapshots(), 1);
        assert_eq!(c.collect_rounds(), 2);
    }

    #[test]
    fn counts_stay_in_the_handle_until_published_or_dropped() {
        let mem = AnonymousRwMemory::new(3);
        let id = PidPool::sequential().mint();
        let c = OpCounters::new();
        let h = mem.handle_with_counters(id, Permutation::identity(3), c.clone());
        h.write(0, Slot::from(id));
        let _ = h.collect();
        let _ = h.snapshot();
        assert_eq!(c.snapshot_counts(), OpSnapshot::default());
        h.publish_counts();
        let published = OpSnapshot {
            reads: 3 + 2 * 3,
            writes: 1,
            cas_ops: 0,
            snapshots: 1,
            collect_rounds: 2,
        };
        assert_eq!(c.snapshot_counts(), published);
        // A second publish has nothing new to add.
        h.publish_counts();
        assert_eq!(c.snapshot_counts(), published);
        let _ = h.read(1);
        assert_eq!(c.reads(), 9);
        drop(h);
        assert_eq!(c.reads(), 10, "the drop publishes the last read");
    }

    #[test]
    fn snapshot_under_concurrent_writers_is_a_real_state() {
        // Writers fill disjoint registers with their own ids; any snapshot
        // must show each register either ⊥ or the unique writer that owns
        // it (no torn or mixed values).
        let m = 8;
        let mem = AnonymousRwMemory::new(m);
        let mut pool = PidPool::sequential();
        let ids: Vec<Pid> = pool.mint_many(4);
        let reader = mem.handle(pool.mint(), Permutation::identity(m));
        std::thread::scope(|s| {
            for (t, &id) in ids.iter().enumerate() {
                let h = mem.handle(id, Permutation::identity(m));
                s.spawn(move || {
                    for round in 0..200 {
                        let x = (t * 2) + (round % 2);
                        h.write(x, Slot::from(id));
                        h.write(x, Slot::BOTTOM);
                    }
                });
            }
            for _ in 0..50 {
                let snap = reader.snapshot();
                for (x, slot) in snap.iter().enumerate() {
                    if let Some(p) = slot.pid() {
                        assert_eq!(p, ids[x / 2], "register {x} owned by wrong process");
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_sized_memory_panics() {
        let _ = AnonymousRwMemory::new(0);
    }

    #[test]
    #[should_panic(expected = "permutation size")]
    fn mismatched_permutation_panics() {
        let mem = AnonymousRwMemory::new(3);
        let id = PidPool::sequential().mint();
        let _ = mem.handle(id, Permutation::identity(4));
    }
}
