//! The abstract anonymous-memory interface and its deterministic
//! implementation.

use amx_ids::Slot;
use amx_registers::Permutation;

/// The operations a process may apply to its (anonymous) view of the
/// shared memory.
///
/// Implementors route local register names through the process's
/// adversary-chosen permutation.  The trait is deliberately minimal — it
/// is the *entire* communication interface available to a symmetric
/// algorithm.
///
/// Which operations are *legal* depends on the communication model:
/// in the RW model `compare_and_swap` must not be called, and in this
/// crate's deterministic memory doing so panics (see [`MemoryModel`]).
pub trait MemoryOps {
    /// Number of registers `m`.
    fn m(&self) -> usize;

    /// Atomically reads the register locally named `x`.
    fn read(&mut self, x: usize) -> Slot;

    /// Atomically writes `v` into the register locally named `x`.
    fn write(&mut self, x: usize, v: Slot);

    /// Atomically compares-and-swaps the register locally named `x`.
    ///
    /// # Panics
    ///
    /// Implementations for read/write-only memories panic: `compare&swap`
    /// does not exist in the RW model.
    fn compare_and_swap(&mut self, x: usize, old: Slot, new: Slot) -> bool;

    /// Linearizable snapshot of all registers, in local-name order,
    /// written into a caller-owned buffer: `out` is cleared and refilled,
    /// keeping its capacity, so hot paths (Algorithm 1's line 4 in the
    /// simulator, the model checker and the threaded lock) reuse one
    /// allocation instead of allocating per step.  This is the one
    /// snapshot method every implementor provides; there is no default,
    /// so no implementor falls back to an allocating path unnoticed.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the underlying memory cannot provide
    /// a linearizable snapshot (not the case for either paper model, as
    /// snapshots are implementable from RW registers).
    fn snapshot_into(&mut self, out: &mut Vec<Slot>);

    /// [`snapshot_into`](Self::snapshot_into) into a fresh `Vec`, for
    /// callers off the hot path.
    ///
    /// # Panics
    ///
    /// Same conditions as [`snapshot_into`](Self::snapshot_into).
    fn snapshot(&mut self) -> Vec<Slot> {
        let mut out = Vec::with_capacity(self.m());
        self.snapshot_into(&mut out);
        out
    }
}

/// Which register family a [`SimMemory`] models.
///
/// The deterministic memory *enforces* the model: invoking
/// `compare_and_swap` on an RW memory panics, which turns an illegal
/// operation in an algorithm into a loud test failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Atomic read/write registers (+ snapshot).
    Rw,
    /// Read/modify/write registers (read, write, compare&swap, snapshot).
    Rmw,
}

/// A deterministic anonymous memory: `m` slots plus one permutation per
/// process.  Every operation is one atomic step.
///
/// # Example
///
/// ```
/// use amx_ids::{PidPool, Slot};
/// use amx_registers::Adversary;
/// use amx_sim::mem::{MemoryModel, MemoryOps, SimMemory};
///
/// let mut mem = SimMemory::new(MemoryModel::Rw, 3, &Adversary::Rotations { stride: 1 }, 2).unwrap();
/// let id = PidPool::sequential().mint();
/// mem.view(1).write(0, Slot::from(id)); // process 1, local 0 → physical 1
/// assert!(mem.slots()[1].is_owned_by(id));
/// assert!(mem.view(0).read(1).is_owned_by(id));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimMemory {
    model: MemoryModel,
    slots: Vec<Slot>,
    perms: Vec<Permutation>,
}

impl SimMemory {
    /// Creates a memory of `m` slots (all ⊥) for `n` processes whose
    /// permutations are drawn from `adversary`.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization errors (shape mismatches,
    /// ring divisibility).
    pub fn new(
        model: MemoryModel,
        m: usize,
        adversary: &amx_registers::Adversary,
        n: usize,
    ) -> Result<Self, amx_registers::adversary::AdversaryError> {
        assert!(m > 0, "anonymous memory needs at least one register");
        Ok(SimMemory {
            model,
            slots: vec![Slot::BOTTOM; m],
            perms: adversary.permutations(n, m)?,
        })
    }

    /// The memory model being enforced.
    #[must_use]
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Number of registers.
    #[must_use]
    pub fn m(&self) -> usize {
        self.slots.len()
    }

    /// Number of processes (permutations).
    #[must_use]
    pub fn n(&self) -> usize {
        self.perms.len()
    }

    /// The physical slots, in physical order (omniscient observer view).
    #[must_use]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The permutation assigned to process `i`.
    #[must_use]
    pub fn permutation(&self, i: usize) -> &Permutation {
        &self.perms[i]
    }

    /// Resets all slots to ⊥ (fresh execution, same adversary).
    pub fn reset(&mut self) {
        self.slots.fill(Slot::BOTTOM);
    }

    /// Overwrites the physical slots wholesale (harness/model-checker
    /// API — an algorithm can only write through [`SimMemory::view`]).
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() != m`.
    pub fn restore(&mut self, slots: &[Slot]) {
        assert_eq!(slots.len(), self.slots.len(), "slot count mismatch");
        self.slots.copy_from_slice(slots);
    }

    /// Serializes the physical slots into `out` as flat little-endian
    /// words (4 bytes per slot, 0 = ⊥) — the compact encoding the model
    /// checker's interned seen-set stores instead of cloned `Vec<Slot>`s.
    pub fn encode_slots_into(&self, out: &mut Vec<u8>) {
        for &slot in &self.slots {
            crate::encode::put_slot(slot, &amx_ids::codec::PidMap::identity(), out);
        }
    }

    /// Restores the physical slots from the front of an encoded buffer
    /// produced by [`SimMemory::encode_slots_into`], advancing `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `m` encoded slots.
    pub fn restore_from_encoded(&mut self, bytes: &mut &[u8]) {
        for slot in &mut self.slots {
            *slot = crate::encode::take_slot(bytes).expect("truncated slot encoding");
        }
    }

    /// Returns process `i`'s operational view of this memory.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn view(&mut self, i: usize) -> SimView<'_> {
        assert!(i < self.perms.len(), "process index out of range");
        SimView {
            mem: self,
            proc_index: i,
        }
    }
}

/// One process's permuted, model-enforcing view of a [`SimMemory`].
///
/// Created by [`SimMemory::view`]; implements [`MemoryOps`].
#[derive(Debug)]
pub struct SimView<'a> {
    mem: &'a mut SimMemory,
    proc_index: usize,
}

impl SimView<'_> {
    fn phys(&self, x: usize) -> usize {
        self.mem.perms[self.proc_index].apply(x)
    }
}

impl MemoryOps for SimView<'_> {
    fn m(&self) -> usize {
        self.mem.slots.len()
    }

    fn read(&mut self, x: usize) -> Slot {
        self.mem.slots[self.phys(x)]
    }

    fn write(&mut self, x: usize, v: Slot) {
        let p = self.phys(x);
        self.mem.slots[p] = v;
    }

    fn compare_and_swap(&mut self, x: usize, old: Slot, new: Slot) -> bool {
        assert!(
            self.mem.model == MemoryModel::Rmw,
            "compare&swap invoked on a read/write-only anonymous memory"
        );
        let p = self.phys(x);
        if self.mem.slots[p] == old {
            self.mem.slots[p] = new;
            true
        } else {
            false
        }
    }

    fn snapshot_into(&mut self, out: &mut Vec<Slot>) {
        out.clear();
        out.extend((0..self.m()).map(|x| self.mem.slots[self.phys(x)]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_ids::PidPool;
    use amx_registers::Adversary;

    fn mem(model: MemoryModel, m: usize, n: usize) -> SimMemory {
        SimMemory::new(model, m, &Adversary::Identity, n).unwrap()
    }

    #[test]
    fn fresh_memory_is_bottom() {
        let mut mm = mem(MemoryModel::Rw, 4, 2);
        assert!(mm.slots().iter().all(|s| s.is_bottom()));
        assert!(mm.view(0).snapshot().iter().all(|s| s.is_bottom()));
        assert_eq!(mm.m(), 4);
        assert_eq!(mm.n(), 2);
    }

    #[test]
    fn write_read_round_trip_with_permutation() {
        let mut mm =
            SimMemory::new(MemoryModel::Rw, 3, &Adversary::Rotations { stride: 1 }, 2).unwrap();
        let id = PidPool::sequential().mint();
        mm.view(1).write(0, Slot::from(id));
        assert!(mm.slots()[1].is_owned_by(id));
        assert!(mm.view(1).read(0).is_owned_by(id));
        assert!(mm.view(0).read(1).is_owned_by(id));
        assert!(mm.view(0).read(0).is_bottom());
    }

    #[test]
    fn snapshot_in_local_order() {
        let mut mm =
            SimMemory::new(MemoryModel::Rw, 3, &Adversary::Rotations { stride: 2 }, 2).unwrap();
        let id = PidPool::sequential().mint();
        mm.view(0).write(0, Slot::from(id)); // identity for process 0
        let snap1 = mm.view(1).snapshot(); // process 1 rotated by 2
        assert!(snap1[1].is_owned_by(id)); // local 1 → physical 0
    }

    #[test]
    fn cas_on_rmw_memory() {
        let mut mm = mem(MemoryModel::Rmw, 2, 1);
        let id = PidPool::sequential().mint();
        assert!(mm.view(0).compare_and_swap(0, Slot::BOTTOM, Slot::from(id)));
        assert!(!mm.view(0).compare_and_swap(0, Slot::BOTTOM, Slot::from(id)));
        assert!(mm.view(0).compare_and_swap(0, Slot::from(id), Slot::BOTTOM));
    }

    #[test]
    #[should_panic(expected = "read/write-only")]
    fn cas_on_rw_memory_panics() {
        let mut mm = mem(MemoryModel::Rw, 2, 1);
        let id = PidPool::sequential().mint();
        let _ = mm.view(0).compare_and_swap(0, Slot::BOTTOM, Slot::from(id));
    }

    #[test]
    fn reset_clears_slots() {
        let mut mm = mem(MemoryModel::Rw, 3, 1);
        let id = PidPool::sequential().mint();
        mm.view(0).write(2, Slot::from(id));
        mm.reset();
        assert!(mm.slots().iter().all(|s| s.is_bottom()));
    }

    #[test]
    fn memory_state_is_hashable_and_comparable() {
        let a = mem(MemoryModel::Rw, 3, 2);
        let b = mem(MemoryModel::Rw, 3, 2);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn snapshot_into_matches_snapshot_and_reuses_buffer() {
        let mut mm =
            SimMemory::new(MemoryModel::Rw, 3, &Adversary::Rotations { stride: 1 }, 2).unwrap();
        let id = PidPool::sequential().mint();
        mm.view(0).write(1, Slot::from(id));
        let mut buf = vec![Slot::BOTTOM; 64]; // stale, oversized: must be cleared
        mm.view(1).snapshot_into(&mut buf);
        assert_eq!(buf, mm.view(1).snapshot());
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn slot_codec_round_trips_through_bytes() {
        let mut mm = mem(MemoryModel::Rw, 3, 2);
        let id = PidPool::sequential().mint();
        mm.view(0).write(2, Slot::from(id));
        let mut bytes = Vec::new();
        mm.encode_slots_into(&mut bytes);
        assert_eq!(bytes.len(), 3 * 4);
        let mut other = mem(MemoryModel::Rw, 3, 2);
        let mut cur = bytes.as_slice();
        other.restore_from_encoded(&mut cur);
        assert!(cur.is_empty());
        assert_eq!(other.slots(), mm.slots());
    }

    #[test]
    #[should_panic(expected = "process index out of range")]
    fn view_index_out_of_range_panics() {
        let mut mm = mem(MemoryModel::Rw, 2, 1);
        let _ = mm.view(1);
    }
}
