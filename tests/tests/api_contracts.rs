//! API contracts: thread-safety markers, error types, and the symmetric
//! identity discipline.

use amx_core::{AmxLock, MutexSpec, RmwAnonLock, RwAnonLock};
use amx_ids::{Pid, PidPool};
use amx_registers::{
    Adversary, AnonymousRmwMemory, AnonymousRwMemory, OpCounters, Permutation, RmwHandle, RwHandle,
};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_value<T: Send>(_: &T) {}

#[test]
fn memories_are_shareable_handles_are_movable() {
    // The shared arrays can be referenced from many threads…
    assert_sync::<AnonymousRwMemory>();
    assert_sync::<AnonymousRmwMemory>();
    assert_send::<AnonymousRwMemory>();
    assert_send::<AnonymousRmwMemory>();
    // …while per-process handles move into their owning thread.
    assert_send::<RwHandle>();
    assert_send::<RmwHandle>();
    // Participants are one-per-thread objects (one unified type for
    // every lock family behind the `AmxLock` trait).
    assert_send::<amx_core::Participant>();
    assert_send::<OpCounters>();
    assert_sync::<OpCounters>();
}

#[test]
fn rw_handles_are_not_sync_by_construction() {
    // RwHandle contains the per-process write sequence counter (a Cell),
    // so sharing one handle across threads must be impossible.  This is
    // checked structurally: Cell<u32> is !Sync, and the handle embeds it.
    // (A compile-fail test would need trybuild; the structural argument
    // plus this documentation test suffices.)
    let mem = AnonymousRwMemory::new(2);
    let id = PidPool::sequential().mint();
    let handle = mem.handle(id, Permutation::identity(2));
    assert_send_value(&handle);
}

#[test]
fn error_types_are_std_errors() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<amx_core::SpecError>();
    assert_error::<amx_registers::PermutationError>();
    assert_error::<amx_registers::adversary::AdversaryError>();
    assert_error::<amx_registers::SnapshotError>();
    assert_error::<amx_lowerbound::RingError>();
    assert_error::<amx_sim::mc::StateSpaceExceeded>();
}

#[test]
fn errors_round_trip_through_boxed_dyn() {
    let err: Box<dyn std::error::Error> = Box::new(MutexSpec::rw(3, 6).unwrap_err());
    assert!(err.to_string().contains("M(3)"));
    let err: Box<dyn std::error::Error> =
        Box::new(Permutation::from_forward(vec![0, 0]).unwrap_err());
    assert!(!err.to_string().is_empty());
}

#[test]
fn pids_support_equality_and_nothing_ordered() {
    // The symmetric-algorithm contract: identities compare for equality
    // only.  `Pid` implements Eq (+ Hash for harness maps) but not
    // Ord/PartialOrd — this test documents the contract; the compiler
    // enforces it (uncommenting the line below must fail to compile):
    //
    //     fn requires_ord<T: PartialOrd>() {}
    //     requires_ord::<Pid>();
    let mut pool = PidPool::shuffled(1);
    let (a, b) = (pool.mint(), pool.mint());
    assert_eq!(a, a);
    assert_ne!(a, b);
    let _set: std::collections::HashSet<Pid> = [a, b].into_iter().collect();
}

#[test]
fn lock_objects_clone_share_memory() {
    // Cloning a lock object yields another reference to the same
    // registers (Arc semantics), so late participants can be minted.
    let lock = RwAnonLock::new(MutexSpec::rw(2, 3).unwrap());
    let lock2 = lock.clone();
    let mut parts = lock.participants(&Adversary::Identity).unwrap();
    {
        let _g = parts[0].lock();
        assert!(
            lock2.memory().observe_all().iter().any(|s| !s.is_bottom()),
            "clone must observe the same physical registers"
        );
    }
    assert!(lock2.memory().observe_all().iter().all(|s| s.is_bottom()));

    let lock = RmwAnonLock::new(MutexSpec::rmw(2, 3).unwrap());
    let lock2 = lock.clone();
    let mut parts = lock.participants(&Adversary::Identity).unwrap();
    let _g = parts[0].lock();
    assert!(lock2.memory().observe_all().iter().any(|s| !s.is_bottom()));
}

#[test]
fn spec_is_copy_and_hashable() {
    use std::collections::HashSet;
    let a = MutexSpec::rw(2, 3).unwrap();
    let b = a; // Copy
    assert_eq!(a, b);
    let set: HashSet<MutexSpec> = [a, MutexSpec::rmw(2, 3).unwrap()].into_iter().collect();
    assert_eq!(set.len(), 2, "same (n, m) but different model are distinct");
}
