//! Anonymous read/modify/write memory.
//!
//! The RMW model (paper §I-C) extends read/write registers with an atomic
//! `compare&swap`.  Registers here hold bare slots (no sequence stamps —
//! Algorithm 2 never snapshots), so `compare&swap(x, old, new)` compares
//! against exactly the stored slot value.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amx_ids::codec::{decode_slot, encode_slot};
use amx_ids::{Pid, Slot};

use crate::permutation::Permutation;
use crate::stats::{HandleCounts, OpCounters};

/// A shared array of `m` anonymous atomic read/modify/write registers,
/// all initialized to ⊥.
///
/// # Example
///
/// ```
/// use amx_ids::{PidPool, Slot};
/// use amx_registers::{AnonymousRmwMemory, Permutation};
///
/// let mem = AnonymousRmwMemory::new(3);
/// let me = PidPool::sequential().mint();
/// let h = mem.handle(me, Permutation::identity(3));
/// assert!(h.compare_and_swap(0, Slot::BOTTOM, Slot::from(me)));
/// assert!(!h.compare_and_swap(0, Slot::BOTTOM, Slot::from(me))); // already taken
/// assert!(h.read(0).is_owned_by(me));
/// ```
#[derive(Debug, Clone)]
pub struct AnonymousRmwMemory {
    cells: Arc<Vec<AtomicU64>>,
}

impl AnonymousRmwMemory {
    /// Allocates `m` registers, all ⊥.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "anonymous memory needs at least one register");
        AnonymousRmwMemory {
            cells: Arc::new((0..m).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Number of registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Never true.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Creates the access handle for process `id` with `permutation`.
    ///
    /// # Panics
    ///
    /// Panics if the permutation size differs from the memory size.
    #[must_use]
    pub fn handle(&self, id: Pid, permutation: Permutation) -> RmwHandle {
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
    ) -> RmwHandle {
        assert_eq!(
            permutation.len(),
            self.cells.len(),
            "permutation size must match memory size"
        );
        RmwHandle {
            cells: Arc::clone(&self.cells),
            perm: permutation,
            id,
            counts: HandleCounts::new(counters),
        }
    }

    /// Omniscient read of physical register `phys` (harness use only).
    #[must_use]
    pub fn observe(&self, phys: usize) -> Slot {
        decode_slot(self.cells[phys].load(Ordering::SeqCst))
    }

    /// Omniscient collect in physical order (harness use only).
    #[must_use]
    pub fn observe_all(&self) -> Vec<Slot> {
        (0..self.len()).map(|i| self.observe(i)).collect()
    }
}

/// Per-process access handle to an [`AnonymousRmwMemory`].
///
/// A handle belongs to one process: it carries the process identity,
/// the adversary permutation and the operation counts it has not
/// published yet.  Handles are `Send` but intentionally not `Sync`.
pub struct RmwHandle {
    cells: Arc<Vec<AtomicU64>>,
    perm: Permutation,
    id: Pid,
    counts: HandleCounts,
}

impl fmt::Debug for RmwHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RmwHandle")
            .field("id", &self.id)
            .field("perm", &self.perm)
            .finish_non_exhaustive()
    }
}

impl RmwHandle {
    /// The identity of the process owning this handle.
    #[must_use]
    pub fn id(&self) -> Pid {
        self.id
    }

    /// Number of registers.
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
        decode_slot(self.phys(x).load(Ordering::SeqCst))
    }

    /// `R.write(x, v)`: atomically writes `v`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ m`.
    pub fn write(&self, x: usize, v: Slot) {
        self.counts.write();
        self.phys(x).store(encode_slot(v), Ordering::SeqCst);
    }

    /// `R.compare&swap(x, old, new)`: atomically, if the register locally
    /// named `x` holds `old`, replace it with `new` and return `true`;
    /// otherwise leave it unchanged and return `false`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ m`.
    pub fn compare_and_swap(&self, x: usize, old: Slot, new: Slot) -> bool {
        self.counts.cas();
        self.phys(x)
            .compare_exchange(
                encode_slot(old),
                encode_slot(new),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Reads all registers once, in local-name order (Algorithm 2's
    /// asynchronous view — not a snapshot).
    #[must_use]
    pub fn collect(&self) -> Vec<Slot> {
        (0..self.len()).map(|x| self.read(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpSnapshot;
    use amx_ids::PidPool;

    #[test]
    fn cas_from_bottom() {
        let mem = AnonymousRmwMemory::new(3);
        let mut pool = PidPool::sequential();
        let (a, b) = (pool.mint(), pool.mint());
        let ha = mem.handle(a, Permutation::identity(3));
        let hb = mem.handle(b, Permutation::identity(3));
        assert!(ha.compare_and_swap(0, Slot::BOTTOM, Slot::from(a)));
        assert!(!hb.compare_and_swap(0, Slot::BOTTOM, Slot::from(b)));
        assert!(hb.read(0).is_owned_by(a));
    }

    #[test]
    fn cas_release() {
        let mem = AnonymousRmwMemory::new(2);
        let id = PidPool::sequential().mint();
        let h = mem.handle(id, Permutation::identity(2));
        assert!(h.compare_and_swap(1, Slot::BOTTOM, Slot::from(id)));
        assert!(h.compare_and_swap(1, Slot::from(id), Slot::BOTTOM));
        assert!(h.read(1).is_bottom());
    }

    #[test]
    fn cas_respects_permutation() {
        let mem = AnonymousRmwMemory::new(4);
        let mut pool = PidPool::sequential();
        let a = pool.mint();
        let h = mem.handle(a, Permutation::rotation(4, 2));
        assert!(h.compare_and_swap(0, Slot::BOTTOM, Slot::from(a)));
        assert!(mem.observe(2).is_owned_by(a));
        assert!(mem.observe(0).is_bottom());
    }

    #[test]
    fn plain_write_overwrites_anything() {
        let mem = AnonymousRmwMemory::new(2);
        let mut pool = PidPool::sequential();
        let (a, b) = (pool.mint(), pool.mint());
        let ha = mem.handle(a, Permutation::identity(2));
        let hb = mem.handle(b, Permutation::identity(2));
        ha.write(0, Slot::from(a));
        hb.write(0, Slot::from(b));
        assert!(ha.read(0).is_owned_by(b));
    }

    #[test]
    fn collect_orders_by_local_name() {
        let mem = AnonymousRmwMemory::new(3);
        let mut pool = PidPool::sequential();
        let a = pool.mint();
        let h = mem.handle(a, Permutation::rotation(3, 1));
        h.write(0, Slot::from(a)); // physical 1
        let view = h.collect();
        assert!(view[0].is_owned_by(a));
        assert!(view[1].is_bottom());
        assert!(mem.observe(1).is_owned_by(a));
    }

    #[test]
    fn concurrent_cas_grants_each_register_once() {
        // n threads race to CAS ⊥→id on every register; each register must
        // end owned by exactly one thread, and the total number of
        // successful CAS operations must equal m.
        let m = 7;
        let mem = AnonymousRmwMemory::new(m);
        let ids = PidPool::sequential().mint_many(4);
        let mut wins = [0usize; 4];
        std::thread::scope(|s| {
            let handles: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(t, &id)| {
                    let h = mem.handle(id, Permutation::rotation(m, t));
                    s.spawn(move || {
                        let mut won = 0;
                        for x in 0..m {
                            if h.compare_and_swap(x, Slot::BOTTOM, Slot::from(id)) {
                                won += 1;
                            }
                        }
                        won
                    })
                })
                .collect();
            for (t, jh) in handles.into_iter().enumerate() {
                wins[t] = jh.join().unwrap();
            }
        });
        assert_eq!(wins.iter().sum::<usize>(), m);
        let final_view = mem.observe_all();
        assert!(final_view.iter().all(|s| !s.is_bottom()));
        for (t, &id) in ids.iter().enumerate() {
            let owned = final_view.iter().filter(|s| s.is_owned_by(id)).count();
            assert_eq!(owned, wins[t], "thread {t} ownership mismatch");
        }
    }

    #[test]
    fn counters_record_cas() {
        let mem = AnonymousRmwMemory::new(2);
        let id = PidPool::sequential().mint();
        let c = OpCounters::new();
        let h = mem.handle_with_counters(id, Permutation::identity(2), c.clone());
        let _ = h.compare_and_swap(0, Slot::BOTTOM, Slot::from(id));
        let _ = h.compare_and_swap(0, Slot::BOTTOM, Slot::from(id));
        h.publish_counts();
        assert_eq!(c.cas_ops(), 2);
    }

    #[test]
    fn counts_stay_in_the_handle_until_published_or_dropped() {
        let mem = AnonymousRmwMemory::new(2);
        let id = PidPool::sequential().mint();
        let c = OpCounters::new();
        let h = mem.handle_with_counters(id, Permutation::identity(2), c.clone());
        assert!(h.compare_and_swap(0, Slot::BOTTOM, Slot::from(id)));
        h.write(1, Slot::from(id));
        let _ = h.collect();
        assert_eq!(c.snapshot_counts(), OpSnapshot::default());
        h.publish_counts();
        let published = OpSnapshot {
            reads: 2,
            writes: 1,
            cas_ops: 1,
            ..OpSnapshot::default()
        };
        assert_eq!(c.snapshot_counts(), published);
        // A second publish has nothing new to add.
        h.publish_counts();
        assert_eq!(c.snapshot_counts(), published);
        let _ = h.compare_and_swap(1, Slot::from(id), Slot::BOTTOM);
        assert_eq!(c.cas_ops(), 1);
        drop(h);
        assert_eq!(c.cas_ops(), 2, "the drop publishes the last CAS");
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_sized_memory_panics() {
        let _ = AnonymousRmwMemory::new(0);
    }
}
