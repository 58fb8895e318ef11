//! Threaded step-machine drivers for the classic baselines, behind the
//! unified [`AmxLock`] API.
//!
//! [`TasStepLock`], [`BurnsStepLock`] and [`PetersonTreeLock`] drive the
//! *model-checked* step machines of [`crate::automaton`] over the real
//! atomic arrays of `amx-registers` — the same [`BuildLock`] recipe
//! `amx-core::threaded` uses for the paper's algorithms.  TAS and
//! Burns–Lynch run the generic [`Endpoint`]; the Peterson tournament
//! walks its leaf-to-root path of 2-process nodes, stepping each
//! through [`closed_loop_step`].  That puts all five lock families of
//! the workspace behind one `Box<dyn AmxLock>`: the contention rig
//! (`lock_bench`) measures Algorithm 1/2 and these baselines through the
//! identical code path.
//!
//! Unlike the anonymous families, these locks are **non-anonymous**:
//! their algorithms presuppose a common naming of the registers (Burns–
//! Lynch indexes flags by process, Peterson hard-wires flag/victim
//! roles).  The adversary argument of [`AmxLock::participants`] is
//! therefore ignored — every process gets the identity permutation.
//! They trade the raw speed of word-sized spin locks for step-level
//! parity with the model checker: one step is one register operation.
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

use amx_core::adapter::{CountingOps, RmwMemoryOps, RwMemoryOps};
use amx_core::lock::{AmxLock, BuildLock, Endpoint, LockAutomaton, LockCore, RawEndpoint};
use amx_core::spec::{Model, MutexSpec};
use amx_ids::{Pid, Slot};
use amx_registers::{AnonymousRmwMemory, AnonymousRwMemory};
use amx_sim::automaton::{closed_loop_step, Automaton, Outcome, Phase};
use amx_sim::mem::MemoryOps;

use crate::automaton::{BurnsLynchAutomaton, PetersonTwoAutomaton, PetersonTwoState, TasAutomaton};

/// Test-and-set over one RMW register, as an [`AmxLock`].
///
/// The `m = 1` baseline every RMW lock is compared against: one CAS to
/// enter (under contention: spin on CAS), one write to leave.
#[derive(Debug, Clone)]
pub struct TasStepLock(LockCore<AnonymousRmwMemory>);

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

impl BuildLock for TasStepLock {
    type Registers = AnonymousRmwMemory;
    const FAMILY: &'static str = "tas";
    const ANONYMOUS: bool = false;

    fn from_spec(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rmw, "TAS needs an RMW spec");
        assert_eq!(spec.m(), 1, "TAS uses exactly one register");
        TasStepLock(LockCore::new(AnonymousRmwMemory::new(1), spec))
    }

    fn core(&self) -> &LockCore<AnonymousRmwMemory> {
        &self.0
    }

    fn endpoint(&self, _index: usize, pid: Pid, mem: RmwMemoryOps) -> Box<dyn RawEndpoint> {
        Box::new(Endpoint::new(TasAutomaton::new(pid), mem))
    }
}

/// Burns–Lynch over `n` RW flag registers, as an [`AmxLock`].
///
/// The `m = n` read/write baseline matching the paper's RW lower bound:
/// the non-anonymous comparator for Algorithm 1.
#[derive(Debug, Clone)]
pub struct BurnsStepLock(LockCore<AnonymousRwMemory>);

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

impl BuildLock for BurnsStepLock {
    type Registers = AnonymousRwMemory;
    const FAMILY: &'static str = "burns-lynch";
    const ANONYMOUS: bool = false;

    fn from_spec(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rw, "Burns–Lynch needs an RW spec");
        assert_eq!(spec.m(), spec.n(), "Burns–Lynch uses one flag per process");
        BurnsStepLock(LockCore::new(AnonymousRwMemory::new(spec.m()), spec))
    }

    fn core(&self) -> &LockCore<AnonymousRwMemory> {
        &self.0
    }

    fn endpoint(&self, index: usize, pid: Pid, mem: RwMemoryOps) -> Box<dyn RawEndpoint> {
        let automaton = BurnsLynchAutomaton::new(pid, index, self.spec().n());
        Box::new(Endpoint::new(automaton, mem))
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
pub struct PetersonTreeLock(LockCore<AnonymousRwMemory>);

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

impl BuildLock for PetersonTreeLock {
    type Registers = AnonymousRwMemory;
    const FAMILY: &'static str = "peterson";
    const ANONYMOUS: bool = false;

    fn from_spec(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rw, "Peterson needs an RW spec");
        assert_eq!(
            spec.m(),
            Self::registers_for(spec.n()),
            "Peterson tournament needs 3 registers per internal node"
        );
        PetersonTreeLock(LockCore::new(AnonymousRwMemory::new(spec.m()), spec))
    }

    fn core(&self) -> &LockCore<AnonymousRwMemory> {
        &self.0
    }

    fn endpoint(&self, index: usize, pid: Pid, ops: RwMemoryOps) -> Box<dyn RawEndpoint> {
        // Heap path leaf → root: node `leaves + index` up to node 1; at
        // each parent the child's parity picks the side.
        let mut nodes = Vec::new();
        let mut node = self.spec().n().next_power_of_two().max(2) + index;
        while node > 1 {
            let automaton = PetersonTwoAutomaton::new(pid, node % 2);
            node /= 2;
            nodes.push(PetersonNode {
                base: 3 * (node - 1),
                state: automaton.init_state(),
                automaton,
                phase: Phase::Remainder,
            });
        }
        Box::new(PetersonEndpoint { nodes, ops, won: 0 })
    }
}

/// One Peterson node on a process's path: its automaton, stepped
/// through [`closed_loop_step`] over the node's three registers.
#[derive(Debug)]
struct PetersonNode {
    base: usize,
    automaton: PetersonTwoAutomaton,
    state: PetersonTwoState,
    phase: Phase,
}

impl PetersonNode {
    fn step(&mut self, ops: &mut RwMemoryOps) -> Outcome {
        let mut view = NodeView {
            ops,
            base: self.base,
        };
        closed_loop_step(&self.automaton, &mut self.phase, &mut self.state, &mut view)
    }
}

#[derive(Debug)]
struct PetersonEndpoint {
    nodes: Vec<PetersonNode>,
    ops: RwMemoryOps,
    /// Nodes won so far, leaf first.
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

impl PetersonEndpoint {
    /// Wins nodes up the path, within `max_steps` steps in all.
    fn climb(&mut self, max_steps: u64) -> bool {
        let mut used = 0u64;
        while let Some(node) = self.nodes.get_mut(self.won) {
            loop {
                if used == max_steps {
                    return false;
                }
                used += 1;
                if node.step(&mut self.ops) == Outcome::Acquired {
                    break;
                }
            }
            self.won += 1;
        }
        true
    }
}

impl RawEndpoint for PetersonEndpoint {
    fn try_acquire(&mut self, max_steps: u64) -> bool {
        let acquired = self.climb(max_steps);
        self.ops.publish_counts();
        acquired
    }

    fn release(&mut self) {
        // Root-down, the reverse of acquisition order.
        for node in self.nodes[..self.won].iter_mut().rev() {
            while node.step(&mut self.ops) != Outcome::Released {}
        }
        self.won = 0;
        self.ops.publish_counts();
    }

    fn abandon(&mut self) {
        // Withdraw from the contested node if the attempt got there: the
        // step that leaves `Remainder` raises the flag.  Then release
        // every node already won.
        if let Some(node) = self.nodes.get_mut(self.won) {
            if node.phase == Phase::Trying {
                node.automaton.withdraw(&mut NodeView {
                    ops: &mut self.ops,
                    base: node.base,
                });
                node.state = node.automaton.init_state();
                node.phase = Phase::Remainder;
            }
        }
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_registers::Adversary;
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
        assert!(tas.0.memory().observe_all().iter().all(|s| s.is_bottom()));
        let burns = BurnsStepLock::new(3);
        stress(&burns, 50);
        assert!(burns.0.memory().observe_all().iter().all(|s| s.is_bottom()));
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
