//! [`MemoryOps`] adapters over the real atomic register arrays.
//!
//! The automata in this crate are written once against the abstract
//! [`MemoryOps`] interface; these adapters let the *same* transition logic
//! run over the lock-free arrays of `amx-registers`, so the threaded locks
//! and the model-checked automata cannot diverge.
//!
//! Model enforcement mirrors [`amx_sim::mem::SimMemory`]: invoking
//! `compare_and_swap` through an RW adapter (or a snapshot through an
//! RMW adapter) panics, because the corresponding operation does not
//! exist in that register family.
//!
//! The RW adapter's `snapshot_into` is the handle's own
//! [`RwHandle::snapshot_into`]: Algorithm 1's line-4 snapshot reuses the
//! automaton's buffer and the handle's collect buffers, so a steady-state
//! threaded lock/unlock cycle allocates nothing.
//!
//! [`Registers`] is how a lock object hands each process its adapter
//! over either register array.

use std::fmt;

use amx_ids::{Pid, Slot};
use amx_registers::{
    AnonymousRmwMemory, AnonymousRwMemory, OpCounters, Permutation, RmwHandle, RwHandle,
};
use amx_sim::mem::MemoryOps;

/// A shared register array a lock object hands each process an adapter
/// of.
pub trait Registers: fmt::Debug + Send + Sync {
    /// The per-process adapter.
    type Ops: MemoryOps + fmt::Debug + Send + 'static;

    /// Process `id`'s adapter, naming the registers through `perm` and
    /// counting its operations into `counters`.
    fn ops(&self, id: Pid, perm: Permutation, counters: OpCounters) -> Self::Ops;
}

impl Registers for AnonymousRwMemory {
    type Ops = RwMemoryOps;

    fn ops(&self, id: Pid, perm: Permutation, counters: OpCounters) -> RwMemoryOps {
        RwMemoryOps::new(self.handle_with_counters(id, perm, counters))
    }
}

impl Registers for AnonymousRmwMemory {
    type Ops = RmwMemoryOps;

    fn ops(&self, id: Pid, perm: Permutation, counters: OpCounters) -> RmwMemoryOps {
        RmwMemoryOps::new(self.handle_with_counters(id, perm, counters))
    }
}

/// [`MemoryOps`] over an anonymous **read/write** register array.
///
/// Snapshots delegate to the handle's allocation-free double collect.
#[derive(Debug)]
pub struct RwMemoryOps {
    handle: RwHandle,
}

impl RwMemoryOps {
    /// Wraps a per-process RW handle.
    #[must_use]
    pub fn new(handle: RwHandle) -> Self {
        RwMemoryOps { handle }
    }

    /// The wrapped handle.
    #[must_use]
    pub fn handle(&self) -> &RwHandle {
        &self.handle
    }

    /// Unwraps the adapter.
    #[must_use]
    pub fn into_inner(self) -> RwHandle {
        self.handle
    }
}

impl MemoryOps for RwMemoryOps {
    fn m(&self) -> usize {
        self.handle.len()
    }

    fn read(&mut self, x: usize) -> Slot {
        self.handle.read(x)
    }

    fn write(&mut self, x: usize, v: Slot) {
        self.handle.write(x, v);
    }

    fn compare_and_swap(&mut self, _x: usize, _old: Slot, _new: Slot) -> bool {
        panic!("compare&swap invoked on a read/write-only anonymous memory")
    }

    fn snapshot_into(&mut self, out: &mut Vec<Slot>) {
        self.handle.snapshot_into(out);
    }
}

/// [`MemoryOps`] over an anonymous **read/modify/write** register array.
#[derive(Debug)]
pub struct RmwMemoryOps {
    handle: RmwHandle,
}

impl RmwMemoryOps {
    /// Wraps a per-process RMW handle.
    #[must_use]
    pub fn new(handle: RmwHandle) -> Self {
        RmwMemoryOps { handle }
    }

    /// The wrapped handle.
    #[must_use]
    pub fn handle(&self) -> &RmwHandle {
        &self.handle
    }

    /// Unwraps the adapter.
    #[must_use]
    pub fn into_inner(self) -> RmwHandle {
        self.handle
    }
}

impl MemoryOps for RmwMemoryOps {
    fn m(&self) -> usize {
        self.handle.len()
    }

    fn read(&mut self, x: usize) -> Slot {
        self.handle.read(x)
    }

    fn write(&mut self, x: usize, v: Slot) {
        self.handle.write(x, v);
    }

    fn compare_and_swap(&mut self, x: usize, old: Slot, new: Slot) -> bool {
        self.handle.compare_and_swap(x, old, new)
    }

    fn snapshot_into(&mut self, _out: &mut Vec<Slot>) {
        panic!("Algorithm 2 takes no snapshots; RMW adapter does not provide them")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_ids::PidPool;
    use amx_registers::{AnonymousRmwMemory, AnonymousRwMemory, Permutation};

    #[test]
    fn rw_adapter_round_trips() {
        let mem = AnonymousRwMemory::new(4);
        let id = PidPool::sequential().mint();
        let mut ops = RwMemoryOps::new(mem.handle(id, Permutation::rotation(4, 1)));
        assert_eq!(ops.m(), 4);
        ops.write(0, Slot::from(id));
        assert!(ops.read(0).is_owned_by(id));
        assert!(mem.observe(1).is_owned_by(id));
        let snap = ops.snapshot();
        assert!(snap[0].is_owned_by(id));
        assert_eq!(snap.iter().filter(|s| !s.is_bottom()).count(), 1);
    }

    #[test]
    fn rw_adapter_snapshot_into_matches_snapshot_and_reuses_buffer() {
        let mem = AnonymousRwMemory::new(3);
        let mut pool = PidPool::sequential();
        let (a, b) = (pool.mint(), pool.mint());
        let mut ops_a = RwMemoryOps::new(mem.handle(a, Permutation::identity(3)));
        let mut ops_b = RwMemoryOps::new(mem.handle(b, Permutation::rotation(3, 1)));
        ops_a.write(1, Slot::from(a));
        let mut buf = vec![Slot::BOTTOM; 64]; // stale, oversized: must be cleared
        ops_b.snapshot_into(&mut buf);
        assert_eq!(buf, ops_b.snapshot());
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.capacity(), 64, "the caller's buffer is reused");
        assert!(buf[0].is_owned_by(a), "b's local 0 is physical 1");
    }

    #[test]
    #[should_panic(expected = "read/write-only")]
    fn rw_adapter_rejects_cas() {
        let mem = AnonymousRwMemory::new(2);
        let id = PidPool::sequential().mint();
        let mut ops = RwMemoryOps::new(mem.handle(id, Permutation::identity(2)));
        let _ = ops.compare_and_swap(0, Slot::BOTTOM, Slot::from(id));
    }

    #[test]
    fn rmw_adapter_round_trips() {
        let mem = AnonymousRmwMemory::new(3);
        let id = PidPool::sequential().mint();
        let mut ops = RmwMemoryOps::new(mem.handle(id, Permutation::identity(3)));
        assert!(ops.compare_and_swap(2, Slot::BOTTOM, Slot::from(id)));
        assert!(ops.read(2).is_owned_by(id));
        ops.write(2, Slot::BOTTOM);
        assert!(ops.read(2).is_bottom());
    }

    #[test]
    #[should_panic(expected = "no snapshots")]
    fn rmw_adapter_rejects_snapshot() {
        let mem = AnonymousRmwMemory::new(2);
        let id = PidPool::sequential().mint();
        let mut ops = RmwMemoryOps::new(mem.handle(id, Permutation::identity(2)));
        let _ = ops.snapshot();
    }

    #[test]
    fn into_inner_returns_handle() {
        let mem = AnonymousRwMemory::new(2);
        let id = PidPool::sequential().mint();
        let ops = RwMemoryOps::new(mem.handle(id, Permutation::identity(2)));
        assert_eq!(ops.handle().id(), id);
        let h = ops.into_inner();
        assert_eq!(h.id(), id);
    }
}
