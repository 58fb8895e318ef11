//! Threaded lock runtime for the paper's algorithms, behind the unified
//! [`AmxLock`] API.
//!
//! [`RwAnonLock`] (Algorithm 1) and [`RmwAnonLock`] (Algorithm 2) drive
//! the *same* automata that the simulator model-checks, but over the
//! lock-free arrays of `amx-registers`, one OS thread per process.  Each
//! is a [`BuildLock`] family: the lock object holds the anonymous
//! register array in a [`LockCore`] (cheaply clonable, `Arc` semantics)
//! and mints one `Send` [`Participant`](crate::lock::Participant) handle
//! per process.  Every participant runs the generic [`Endpoint`], which
//! steps its automaton only through
//! [`closed_loop_step`](amx_sim::automaton::closed_loop_step).
//! `lock()` on a participant steps the automaton until it acquires and
//! returns an RAII [`Guard`](crate::lock::Guard) whose drop runs the
//! wait-free unlock protocol — and marks the lock poisoned if the holder
//! is panicking.
//!
//! # Example
//!
//! ```
//! use amx_core::lock::BuildLock;
//! use amx_core::spec::MutexSpec;
//! use amx_core::threaded::RmwAnonLock;
//! use amx_registers::Adversary;
//!
//! let spec = MutexSpec::rmw(2, 3)?;
//! let mut participants = RmwAnonLock::with_participants(spec, &Adversary::Random(1))?;
//! let mut p = participants.remove(0);
//! {
//!     let guard = p.lock();
//!     assert_eq!(guard.spec(), spec);
//!     // …critical section…
//! } // guard drop runs the wait-free unlock
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The full acquisition menu (`try_lock`, `try_lock_for`,
//! `try_lock_steps`, `withdraw`) lives on the participant; see the
//! [`lock`](crate::lock) module docs.

use amx_ids::Pid;
use amx_registers::{AnonymousRmwMemory, AnonymousRwMemory};

use crate::adapter::{RmwMemoryOps, RwMemoryOps};
use crate::alg1::Alg1Automaton;
use crate::alg2::Alg2Automaton;
use crate::lock::{AmxLock, BuildLock, Endpoint, LockCore, RawEndpoint};
use crate::spec::{Model, MutexSpec};

/// The Algorithm 1 lock object: an anonymous RW register array shared by
/// `n` participants.
#[derive(Debug, Clone)]
pub struct RwAnonLock(LockCore<AnonymousRwMemory>);

impl RwAnonLock {
    /// Creates the lock object for a validated RW spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not an RW-model spec.
    #[must_use]
    pub fn new(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rw, "RwAnonLock needs an RW spec");
        RwAnonLock(LockCore::new(AnonymousRwMemory::new(spec.m()), spec))
    }

    /// Omniscient view of the register array (harness/diagnostics).
    #[must_use]
    pub fn memory(&self) -> &AnonymousRwMemory {
        self.0.memory()
    }
}

impl BuildLock for RwAnonLock {
    type Registers = AnonymousRwMemory;
    const FAMILY: &'static str = "alg1";
    const ANONYMOUS: bool = true;

    fn from_spec(spec: MutexSpec) -> Self {
        RwAnonLock::new(spec)
    }

    fn core(&self) -> &LockCore<AnonymousRwMemory> {
        &self.0
    }

    fn endpoint(&self, _index: usize, pid: Pid, mem: RwMemoryOps) -> Box<dyn RawEndpoint> {
        Box::new(Endpoint::new(Alg1Automaton::new(self.spec(), pid), mem))
    }
}

/// The Algorithm 2 lock object: an anonymous RMW register array shared by
/// `n` participants.
#[derive(Debug, Clone)]
pub struct RmwAnonLock(LockCore<AnonymousRmwMemory>);

impl RmwAnonLock {
    /// Creates the lock object for a validated RMW spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not an RMW-model spec.
    #[must_use]
    pub fn new(spec: MutexSpec) -> Self {
        assert_eq!(spec.model(), Model::Rmw, "RmwAnonLock needs an RMW spec");
        RmwAnonLock(LockCore::new(AnonymousRmwMemory::new(spec.m()), spec))
    }

    /// Omniscient view of the register array (harness/diagnostics).
    #[must_use]
    pub fn memory(&self) -> &AnonymousRmwMemory {
        self.0.memory()
    }
}

impl BuildLock for RmwAnonLock {
    type Registers = AnonymousRmwMemory;
    const FAMILY: &'static str = "alg2";
    const ANONYMOUS: bool = true;

    fn from_spec(spec: MutexSpec) -> Self {
        RmwAnonLock::new(spec)
    }

    fn core(&self) -> &LockCore<AnonymousRmwMemory> {
        &self.0
    }

    fn endpoint(&self, _index: usize, pid: Pid, mem: RmwMemoryOps) -> Box<dyn RawEndpoint> {
        Box::new(Endpoint::new(Alg2Automaton::new(self.spec(), pid), mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::Participant;
    use amx_registers::Adversary;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn rw_solo_lock_unlock() {
        let spec = MutexSpec::rw(2, 3).unwrap();
        let lock = RwAnonLock::new(spec);
        let mut parts = lock.participants(&Adversary::Identity).unwrap();
        {
            let expect_id = parts[0].pid();
            let guard = parts[0].lock();
            assert_eq!(guard.pid(), expect_id);
            assert_eq!(guard.spec(), spec);
            assert!(!guard.poisoned());
            assert!(lock.memory().observe_all().iter().all(|s| !s.is_bottom()));
        }
        assert!(lock.memory().observe_all().iter().all(|s| s.is_bottom()));
        assert_eq!(parts[0].entries(), 1);
    }

    #[test]
    fn rmw_solo_lock_unlock() {
        let spec = MutexSpec::rmw(2, 3).unwrap();
        let lock = RmwAnonLock::new(spec);
        let mut parts = lock.participants(&Adversary::Identity).unwrap();
        {
            let holder = parts[1].pid();
            let _guard = parts[1].lock();
            let owned = lock
                .memory()
                .observe_all()
                .iter()
                .filter(|s| s.is_owned_by(holder))
                .count();
            assert!(owned * 2 > 3, "majority held in CS");
        }
        assert!(lock.memory().observe_all().iter().all(|s| s.is_bottom()));
    }

    #[test]
    fn rw_two_threads_exclusion_and_counter() {
        let spec = MutexSpec::rw(2, 3).unwrap();
        let participants = RwAnonLock::with_participants(spec, &Adversary::Random(7)).unwrap();
        let counter = AtomicU64::new(0);
        let in_cs = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in participants {
                let (counter, in_cs) = (&counter, &in_cs);
                s.spawn(move || {
                    for _ in 0..200 {
                        let _g = p.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                        counter.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn rmw_three_threads_exclusion_and_counter() {
        let spec = MutexSpec::rmw(3, 5).unwrap();
        let participants = RmwAnonLock::with_participants(spec, &Adversary::Random(3)).unwrap();
        let counter = AtomicU64::new(0);
        let in_cs = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in participants {
                let (counter, in_cs) = (&counter, &in_cs);
                s.spawn(move || {
                    for _ in 0..200 {
                        let _g = p.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                        counter.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn rmw_single_register_two_threads() {
        // The degenerate m = 1 configuration: a pure CAS lock.
        let spec = MutexSpec::rmw(2, 1).unwrap();
        let participants = RmwAnonLock::with_participants(spec, &Adversary::Identity).unwrap();
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in participants {
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..100 {
                        let _g = p.lock();
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn try_lock_steps_can_fail_then_withdraw() {
        let spec = MutexSpec::rw(2, 3).unwrap();
        let lock = RwAnonLock::new(spec);
        let parts = lock.participants(&Adversary::Identity).unwrap();
        let (mut a, mut b) = {
            let mut it = parts.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        let guard = a.lock();
        // b cannot acquire while a holds everything.
        assert!(b.try_lock_steps(100).is_none());
        b.withdraw();
        assert!(lock
            .memory()
            .observe_all()
            .iter()
            .all(|s| !s.is_owned_by(b.pid())));
        drop(guard);
        // Now b succeeds.
        let g = b.lock();
        drop(g);
        assert_eq!(b.entries(), 1);
    }

    #[test]
    fn try_lock_and_try_lock_for_withdraw_on_failure() {
        let spec = MutexSpec::rmw(2, 3).unwrap();
        let lock = RmwAnonLock::new(spec);
        let parts = lock.participants(&Adversary::Identity).unwrap();
        let (mut a, mut b) = {
            let mut it = parts.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        assert!(a.try_lock().is_some(), "uncontended try_lock succeeds");
        let guard = a.lock();
        assert!(b.try_lock_for(Duration::from_millis(10)).is_none());
        // The failed attempts withdrew: b owns nothing.
        assert!(lock
            .memory()
            .observe_all()
            .iter()
            .all(|s| !s.is_owned_by(b.pid())));
        drop(guard);
        assert!(b.try_lock().is_some());
    }

    /// Exact per-cycle operation counts of one uncontended lock/unlock,
    /// read between cycles (where every count has been published).
    #[test]
    fn counters_accumulate_per_participant() {
        use amx_registers::OpSnapshot;
        fn cycle_counts(p: &mut Participant) -> OpSnapshot {
            let before = p.counters().snapshot_counts();
            drop(p.lock());
            p.counters().snapshot_counts().since(&before)
        }
        let spec = MutexSpec::rw(2, 3).unwrap();
        let mut parts = RwAnonLock::with_participants(spec, &Adversary::Identity).unwrap();
        // Alg 1 (2, 3): four quiescent snapshots of two collects each
        // (empty, then after each of the 3 claims) = 24 reads, plus the
        // unlock's 3 reads and 3 erases.
        let alg1 = OpSnapshot {
            reads: 27,
            writes: 6,
            cas_ops: 0,
            snapshots: 4,
            collect_rounds: 8,
        };
        for _ in 0..3 {
            assert_eq!(cycle_counts(&mut parts[0]), alg1);
        }
        let spec = MutexSpec::rmw(2, 3).unwrap();
        let mut parts = RmwAnonLock::with_participants(spec, &Adversary::Identity).unwrap();
        // Alg 2 (2, 3): one read loop over 3 registers, 3 claiming CASes
        // and 3 releasing CASes.
        let alg2 = OpSnapshot {
            reads: 3,
            writes: 0,
            cas_ops: 6,
            snapshots: 0,
            collect_rounds: 0,
        };
        for _ in 0..3 {
            assert_eq!(cycle_counts(&mut parts[0]), alg2);
        }
    }

    #[test]
    #[should_panic(expected = "RW spec")]
    fn rw_lock_rejects_rmw_spec() {
        let _ = RwAnonLock::new(MutexSpec::rmw(2, 3).unwrap());
    }

    #[test]
    #[should_panic(expected = "RMW spec")]
    fn rmw_lock_rejects_rw_spec() {
        let _ = RmwAnonLock::new(MutexSpec::rw(2, 3).unwrap());
    }
}
