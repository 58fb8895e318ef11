//! Threaded step-machine drivers for the classic baselines, behind the
//! unified [`AmxLock`] API.
//!
//! [`TasStepLock`], [`BurnsStepLock`] and [`PetersonTreeLock`] drive the
//! *model-checked* step machines of [`crate::automaton`] over the real
//! atomic arrays of `amx-registers` — the same runtime recipe
//! `amx-core::threaded` uses for the paper's algorithms.  That puts all
//! five lock families of the workspace behind one `Box<dyn AmxLock>`:
//! the contention rig (`lock_bench`) measures Algorithm 1/2 and these
//! baselines through the identical code path.
//!
//! Unlike the anonymous families, these locks are **non-anonymous**:
//! their algorithms presuppose a common naming of the registers (Burns–
//! Lynch indexes flags by process, Peterson hard-wires flag/victim
//! roles).  The adversary argument of [`AmxLock::participants`] is
//! therefore ignored — every process gets the identity permutation.
//! The [`ClassicLock`](crate::ClassicLock) implementations in this crate
//! remain the word-sized production variants; these drivers trade raw
//! speed for step-level parity with the model checker.
//!
//! # Example
//!
//! ```
//! use amx_baselines::threaded::TasStepLock;
//! use amx_core::lock::AmxLock;
//! use amx_registers::Adversary;
//!
//! let lock = TasStepLock::new(2);
//! let mut participants = lock.participants(&Adversary::Identity)?;
//! let mut p = participants.remove(0);
//! drop(p.lock()); // acquire + RAII release
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use amx_core::adapter::{RmwMemoryOps, RwMemoryOps};
use amx_core::lock::{AmxLock, BuildLock, Participant, RawEndpoint};
use amx_core::spec::{Model, MutexSpec};
use amx_ids::{Pid, PidPool, Slot};
use amx_registers::adversary::AdversaryError;
use amx_registers::{Adversary, AnonymousRmwMemory, AnonymousRwMemory, OpCounters, Permutation};
use amx_sim::automaton::{Automaton, Outcome};
use amx_sim::mem::MemoryOps;

use crate::automaton::{
    BurnsLynchAutomaton, BurnsState, PetersonTwoAutomaton, PetersonTwoState, TasAutomaton, TasState,
};

/// Test-and-set over one RMW register, as an [`AmxLock`].
///
/// The `m = 1` baseline every RMW lock is compared against: one CAS to
/// enter (under contention: spin on CAS), one write to leave.
#[derive(Debug, Clone)]
pub struct TasStepLock {
    mem: AnonymousRmwMemory,
    spec: MutexSpec,
    poison: Arc<AtomicBool>,
}

impl TasStepLock {
    /// A TAS lock for `n ≥ 2` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::from_spec(MutexSpec::rmw(n, 1).expect("m = 1 is valid for every n ≥ 2"))
    }
}

impl AmxLock for TasStepLock {
    fn family(&self) -> &'static str {
        "tas"
    }

    fn spec(&self) -> MutexSpec {
        self.spec
    }

    fn participants(&self, _adversary: &Adversary) -> Result<Vec<Participant>, AdversaryError> {
        let mut pool = PidPool::sequential();
        Ok((0..self.spec.n())
            .map(|_| {
                let id = pool.mint();
                let counters = OpCounters::new();
                let handle =
                    self.mem
                        .handle_with_counters(id, Permutation::identity(1), counters.clone());
                Participant::from_raw(
                    self.family(),
                    self.spec,
                    Arc::clone(&self.poison),
                    Box::new(TasEndpoint {
                        automaton: TasAutomaton::new(id),
                        state: TasState::Idle,
                        ops: RmwMemoryOps::new(handle),
                        counters,
                    }),
                )
            })
            .collect())
    }

    fn is_poisoned(&self) -> bool {
        self.poison.load(std::sync::atomic::Ordering::Acquire)
    }

    fn clear_poison(&self) {
        self.poison
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

impl BuildLock for TasStepLock {
    fn from_spec(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rmw, "TAS needs an RMW spec");
        assert_eq!(spec.m(), 1, "TAS uses exactly one register");
        TasStepLock {
            mem: AnonymousRmwMemory::new(1),
            spec,
            poison: Arc::new(AtomicBool::new(false)),
        }
    }
}

#[derive(Debug)]
struct TasEndpoint {
    automaton: TasAutomaton,
    state: TasState,
    ops: RmwMemoryOps,
    counters: OpCounters,
}

impl RawEndpoint for TasEndpoint {
    fn pid(&self) -> Pid {
        self.automaton.pid().expect("TAS writes its identity")
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn try_acquire(&mut self, max_steps: u64) -> bool {
        if self.state == TasState::Idle {
            self.automaton.start_lock(&mut self.state);
        }
        for _ in 0..max_steps {
            if self.automaton.step(&mut self.state, &mut self.ops) == Outcome::Acquired {
                return true;
            }
        }
        false
    }

    fn release(&mut self) {
        self.automaton.start_unlock(&mut self.state);
        while self.automaton.step(&mut self.state, &mut self.ops) != Outcome::Released {}
    }

    fn abandon(&mut self) {
        // A pending TAS attempt owns nothing (its CAS never succeeded).
        self.state = TasState::Idle;
    }
}

/// Burns–Lynch over `n` RW flag registers, as an [`AmxLock`].
///
/// The `m = n` read/write baseline matching the paper's RW lower bound:
/// the non-anonymous comparator for Algorithm 1.
#[derive(Debug, Clone)]
pub struct BurnsStepLock {
    mem: AnonymousRwMemory,
    spec: MutexSpec,
    poison: Arc<AtomicBool>,
}

impl BurnsStepLock {
    /// A Burns–Lynch lock for `2 ≤ n ≤ 64` processes (one flag each).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n` exceeds the register-array cap (64).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a mutual-exclusion baseline needs n ≥ 2");
        Self::from_spec(MutexSpec::rw_unchecked(n, n))
    }
}

impl AmxLock for BurnsStepLock {
    fn family(&self) -> &'static str {
        "burns-lynch"
    }

    fn spec(&self) -> MutexSpec {
        self.spec
    }

    fn participants(&self, _adversary: &Adversary) -> Result<Vec<Participant>, AdversaryError> {
        let n = self.spec.n();
        let mut pool = PidPool::sequential();
        Ok((0..n)
            .map(|index| {
                let id = pool.mint();
                let counters = OpCounters::new();
                let handle =
                    self.mem
                        .handle_with_counters(id, Permutation::identity(n), counters.clone());
                Participant::from_raw(
                    self.family(),
                    self.spec,
                    Arc::clone(&self.poison),
                    Box::new(BurnsEndpoint {
                        automaton: BurnsLynchAutomaton::new(id, index, n),
                        state: BurnsState::Idle,
                        ops: RwMemoryOps::new(handle),
                        counters,
                        index,
                    }),
                )
            })
            .collect())
    }

    fn is_poisoned(&self) -> bool {
        self.poison.load(std::sync::atomic::Ordering::Acquire)
    }

    fn clear_poison(&self) {
        self.poison
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

impl BuildLock for BurnsStepLock {
    fn from_spec(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rw, "Burns–Lynch needs an RW spec");
        assert_eq!(spec.m(), spec.n(), "Burns–Lynch uses one flag per process");
        BurnsStepLock {
            mem: AnonymousRwMemory::new(spec.m()),
            spec,
            poison: Arc::new(AtomicBool::new(false)),
        }
    }
}

#[derive(Debug)]
struct BurnsEndpoint {
    automaton: BurnsLynchAutomaton,
    state: BurnsState,
    ops: RwMemoryOps,
    counters: OpCounters,
    index: usize,
}

impl RawEndpoint for BurnsEndpoint {
    fn pid(&self) -> Pid {
        self.automaton
            .pid()
            .expect("Burns–Lynch writes its identity")
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn try_acquire(&mut self, max_steps: u64) -> bool {
        if self.state == BurnsState::Idle {
            self.automaton.start_lock(&mut self.state);
        }
        for _ in 0..max_steps {
            if self.automaton.step(&mut self.state, &mut self.ops) == Outcome::Acquired {
                return true;
            }
        }
        false
    }

    fn release(&mut self) {
        self.automaton.start_unlock(&mut self.state);
        while self.automaton.step(&mut self.state, &mut self.ops) != Outcome::Released {}
    }

    fn abandon(&mut self) {
        // The only shared trace a pending attempt can leave is its own
        // raised flag; lower it (idempotent if already down).
        self.ops.write(self.index, Slot::BOTTOM);
        self.state = BurnsState::Idle;
    }
}

/// Peterson tournament tree over `3 · (leaves − 1)` RW registers, as an
/// [`AmxLock`].
///
/// Each internal node of a complete binary tree with
/// `leaves = n.next_power_of_two()` leaves is one 2-process Peterson
/// lock (`flag₀`, `flag₁`, `victim` — three registers, laid out
/// consecutively).  A process enters by winning every node on its
/// leaf-to-root path and leaves by releasing them root-down.  Mutual
/// exclusion at each node guarantees at most one process per side plays
/// the node above, so the classic 2-process argument applies level by
/// level.
#[derive(Debug, Clone)]
pub struct PetersonTreeLock {
    mem: AnonymousRwMemory,
    spec: MutexSpec,
    poison: Arc<AtomicBool>,
}

impl PetersonTreeLock {
    /// A tournament for `2 ≤ n ≤ 16` processes (the register-array cap
    /// of 64 bounds the tree at 15 internal nodes × 3 registers).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 16`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a mutual-exclusion baseline needs n ≥ 2");
        Self::from_spec(MutexSpec::rw_unchecked(n, Self::registers_for(n)))
    }

    /// Registers a tournament for `n` processes occupies.
    #[must_use]
    pub fn registers_for(n: usize) -> usize {
        3 * (n.next_power_of_two().max(2) - 1)
    }
}

impl AmxLock for PetersonTreeLock {
    fn family(&self) -> &'static str {
        "peterson"
    }

    fn spec(&self) -> MutexSpec {
        self.spec
    }

    fn participants(&self, _adversary: &Adversary) -> Result<Vec<Participant>, AdversaryError> {
        let n = self.spec.n();
        let m = self.spec.m();
        let leaves = n.next_power_of_two().max(2);
        let mut pool = PidPool::sequential();
        Ok((0..n)
            .map(|t| {
                let id = pool.mint();
                let counters = OpCounters::new();
                let handle =
                    self.mem
                        .handle_with_counters(id, Permutation::identity(m), counters.clone());
                // Heap path leaf → root: node `leaves + t` up to node 1;
                // at each parent the child's parity picks the side.
                let mut nodes = Vec::new();
                let mut node = leaves + t;
                while node > 1 {
                    let side = node % 2;
                    node /= 2;
                    nodes.push(PetersonNode {
                        base: 3 * (node - 1),
                        side,
                        automaton: PetersonTwoAutomaton::new(id, side),
                        state: PetersonTwoState::Idle,
                    });
                }
                Participant::from_raw(
                    self.family(),
                    self.spec,
                    Arc::clone(&self.poison),
                    Box::new(PetersonEndpoint {
                        id,
                        nodes,
                        ops: RwMemoryOps::new(handle),
                        counters,
                        won: 0,
                    }),
                )
            })
            .collect())
    }

    fn is_poisoned(&self) -> bool {
        self.poison.load(std::sync::atomic::Ordering::Acquire)
    }

    fn clear_poison(&self) {
        self.poison
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

impl BuildLock for PetersonTreeLock {
    fn from_spec(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rw, "Peterson needs an RW spec");
        assert_eq!(
            spec.m(),
            Self::registers_for(spec.n()),
            "Peterson tournament needs 3 registers per internal node"
        );
        PetersonTreeLock {
            mem: AnonymousRwMemory::new(spec.m()),
            spec,
            poison: Arc::new(AtomicBool::new(false)),
        }
    }
}

#[derive(Debug)]
struct PetersonNode {
    base: usize,
    side: usize,
    automaton: PetersonTwoAutomaton,
    state: PetersonTwoState,
}

#[derive(Debug)]
struct PetersonEndpoint {
    id: Pid,
    nodes: Vec<PetersonNode>,
    ops: RwMemoryOps,
    counters: OpCounters,
    won: usize,
}

/// Presents one node's three registers (at `base..base + 3`) to its
/// 2-process automaton as a standalone array.
struct NodeView<'a> {
    ops: &'a mut RwMemoryOps,
    base: usize,
}

impl MemoryOps for NodeView<'_> {
    fn m(&self) -> usize {
        3
    }

    fn read(&mut self, x: usize) -> Slot {
        self.ops.read(self.base + x)
    }

    fn write(&mut self, x: usize, v: Slot) {
        self.ops.write(self.base + x, v);
    }

    fn compare_and_swap(&mut self, _x: usize, _old: Slot, _new: Slot) -> bool {
        panic!("Peterson is a read/write algorithm: compare&swap does not exist here")
    }

    fn snapshot_into(&mut self, _out: &mut Vec<Slot>) {
        panic!("Peterson never snapshots")
    }
}

impl RawEndpoint for PetersonEndpoint {
    fn pid(&self) -> Pid {
        self.id
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn try_acquire(&mut self, max_steps: u64) -> bool {
        let mut used = 0u64;
        while self.won < self.nodes.len() {
            let node = &mut self.nodes[self.won];
            if node.state == PetersonTwoState::Idle {
                node.automaton.start_lock(&mut node.state);
            }
            let mut view = NodeView {
                ops: &mut self.ops,
                base: node.base,
            };
            loop {
                if used >= max_steps {
                    return false;
                }
                used += 1;
                if node.automaton.step(&mut node.state, &mut view) == Outcome::Acquired {
                    break;
                }
            }
            self.won += 1;
        }
        true
    }

    fn release(&mut self) {
        // Root-down, the reverse of acquisition order.
        for i in (0..self.won).rev() {
            let node = &mut self.nodes[i];
            node.automaton.start_unlock(&mut node.state);
            let mut view = NodeView {
                ops: &mut self.ops,
                base: node.base,
            };
            while node.automaton.step(&mut node.state, &mut view) != Outcome::Released {}
        }
        self.won = 0;
    }

    fn abandon(&mut self) {
        // Lower the flag raised at the contested node (if the pending
        // attempt got that far) — a stale victim entry is harmless, the
        // rival only blocks on its *own* identity in the victim register.
        if let Some(node) = self.nodes.get_mut(self.won) {
            if node.state != PetersonTwoState::Idle {
                self.ops.write(node.base + node.side, Slot::BOTTOM);
                node.state = PetersonTwoState::Idle;
            }
        }
        // Then release every node already won, root-down.
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn stress(lock: &dyn AmxLock, iters: u64) -> u64 {
        let participants = lock.participants(&Adversary::Identity).unwrap();
        let n = participants.len() as u64;
        let in_cs = AtomicU64::new(0);
        let entries = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in participants {
                let (in_cs, entries) = (&in_cs, &entries);
                s.spawn(move || {
                    for _ in 0..iters {
                        let _g = p.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                        entries.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(entries.load(Ordering::Relaxed), n * iters);
        entries.load(Ordering::Relaxed)
    }

    #[test]
    fn tas_two_and_four_threads() {
        stress(&TasStepLock::new(2), 200);
        stress(&TasStepLock::new(4), 100);
    }

    #[test]
    fn burns_two_to_five_threads() {
        for n in 2..=5 {
            stress(&BurnsStepLock::new(n), 100);
        }
    }

    #[test]
    fn peterson_two_to_five_threads() {
        for n in 2..=5 {
            stress(&PetersonTreeLock::new(n), 100);
        }
    }

    #[test]
    fn peterson_register_budget() {
        assert_eq!(PetersonTreeLock::registers_for(2), 3);
        assert_eq!(PetersonTreeLock::registers_for(3), 9);
        assert_eq!(PetersonTreeLock::registers_for(4), 9);
        assert_eq!(PetersonTreeLock::registers_for(16), 45);
    }

    #[test]
    fn memory_clean_after_cycles() {
        for lock in [
            Box::new(BurnsStepLock::new(3)) as Box<dyn AmxLock>,
            Box::new(PetersonTreeLock::new(3)),
        ] {
            stress(lock.as_ref(), 50);
        }
        // Flags (and, for TAS, the single register) must be ⊥ again.
        let tas = TasStepLock::new(2);
        stress(&tas, 50);
        assert!(tas.mem.observe_all().iter().all(|s| s.is_bottom()));
        let burns = BurnsStepLock::new(3);
        stress(&burns, 50);
        assert!(burns.mem.observe_all().iter().all(|s| s.is_bottom()));
    }

    #[test]
    fn try_lock_contended_fails_cleanly() {
        for lock in [
            Box::new(TasStepLock::new(2)) as Box<dyn AmxLock>,
            Box::new(BurnsStepLock::new(2)),
            Box::new(PetersonTreeLock::new(2)),
        ] {
            let parts = lock.participants(&Adversary::Identity).unwrap();
            let (mut a, mut b) = {
                let mut it = parts.into_iter();
                (it.next().unwrap(), it.next().unwrap())
            };
            let guard = a.lock();
            assert!(b.try_lock().is_none(), "{}", lock.family());
            drop(guard);
            assert!(b.try_lock().is_some(), "{}", lock.family());
        }
    }
}
