//! Crash-injection chaos tests for the threaded lock runtime (PR 8).
//!
//! The model checker's crash semantics (`CrashMode` in `amx-sim`) have a
//! threaded twin, and these tests pin the correspondence down:
//!
//! * **Drop = clean withdraw.**  A `Participant` dropped mid-doorway
//!   (bounded probe exhausted, claims in shared memory) withdraws
//!   automatically: memory ends clean, the lock is *not* poisoned, and
//!   survivors proceed.  Poisoning is reserved for interrupted critical
//!   sections — a doorway holds no application state.
//! * **`hard_crash` leaves stale claims.**  Hard-dropping a participant
//!   leaves its claims in memory, as the model's `CrashMode::StaleClaims`
//!   does — but the threaded ghost never comes back, while the model's
//!   crashed process reboots and competes again.  A ghost claim can
//!   therefore wedge the survivors (for Algorithm 2, a 2–2 split of the
//!   other registers in which neither survivor wins), so the stress test
//!   bounds every wait and asserts survivor progress only when the crash
//!   left memory clean.
//! * **Backoff is waiting strategy only.**  Every `Backoff` policy must
//!   preserve mutual exclusion and per-thread completion under
//!   contention; only latency may differ.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use amx_core::lock::BuildLock;
use amx_core::threaded::{RmwAnonLock, RwAnonLock};
use amx_core::{AmxLock, Backoff, MutexSpec};
use amx_registers::Adversary;

/// Mid-doorway drop leaves memory clean and the lock unpoisoned: the
/// `Drop` auto-withdraw is equivalent to an explicit `withdraw()`.
#[test]
fn dropped_pending_participant_withdraws_cleanly() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let lock = RwAnonLock::new(spec);
    let parts = lock.participants(&Adversary::Identity).unwrap();
    let (mut a, mut b) = {
        let mut it = parts.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let guard = a.lock();
    // b runs out of steps mid-doorway: still competing, may own registers.
    assert!(b.try_lock_steps(100).is_none());
    assert!(b.has_pending());
    let b_pid = b.pid();
    drop(b);
    assert!(
        lock.memory()
            .observe_all()
            .iter()
            .all(|s| !s.is_owned_by(b_pid)),
        "a dropped doorway must erase its claims"
    );
    assert!(
        !lock.is_poisoned(),
        "a doorway drop is not a critical-section interruption"
    );
    drop(guard);
    // The survivor (and the lock) are fully usable afterwards.
    let g = a.lock();
    drop(g);
    assert_eq!(a.entries(), 2);
}

/// `hard_crash` is the opposite contract: the claims stay, bit-for-bit —
/// the threaded incarnation of `CrashMode::StaleClaims`.
#[test]
fn hard_crash_leaves_stale_claims_without_poisoning() {
    let spec = MutexSpec::rmw(2, 3).unwrap();
    let lock = RmwAnonLock::new(spec);
    let parts = lock.participants(&Adversary::Identity).unwrap();
    let (mut a, b) = {
        let mut it = parts.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let a_pid = a.pid();
    // A few protocol steps: a claims at least one register by CAS.
    while !lock
        .memory()
        .observe_all()
        .iter()
        .any(|s| s.is_owned_by(a_pid))
    {
        assert!(
            a.try_lock_steps(1).is_none(),
            "a must not reach the CS before claiming its first register"
        );
    }
    a.hard_crash();
    let stale = lock
        .memory()
        .observe_all()
        .iter()
        .filter(|s| s.is_owned_by(a_pid))
        .count();
    assert!(stale >= 1, "the crash must leave the claims in memory");
    assert!(!lock.is_poisoned(), "a crash outside the CS never poisons");

    // Algorithm 2 survivors out-claim the ghost: with one stale claim of
    // m = 3 registers, the survivor can still assemble a majority — the
    // threaded analogue of the model checker's Alg 2 crash-survival
    // verdict.
    let mut b = b;
    for _ in 0..50 {
        let g = b.lock();
        drop(g);
    }
    assert_eq!(b.entries(), 50);
    // And the stale claims are still there: nobody repaired them.
    assert_eq!(
        lock.memory()
            .observe_all()
            .iter()
            .filter(|s| s.is_owned_by(a_pid))
            .count(),
        stale,
        "survivors must not touch the crashed process's registers"
    );
}

/// Threaded stress: one process hard-crashes mid-doorway while the
/// survivors keep hammering Algorithm 2.  Mutual exclusion holds
/// throughout, nothing is poisoned, and the ghost keeps at most the two
/// registers its two doorway steps can claim.  Alg 2 does not promise
/// survivor progress past a crash-stop ghost that holds a claim, so
/// every wait is bounded and both survivors must complete only when the
/// crash left no stale claim.
#[test]
fn alg2_survivors_progress_past_a_mid_doorway_crash() {
    const CYCLES: u64 = 200;
    let spec = MutexSpec::rmw(3, 5).unwrap();
    let lock = RmwAnonLock::new(spec);
    let mut parts = lock.participants(&Adversary::Random(11)).unwrap();
    let crasher = parts.remove(0);
    let crasher_pid = crasher.pid();
    let in_cs = AtomicU64::new(0);
    let entries = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut crasher = crasher;
            // Step partway into the doorway, then die hard.
            let _ = crasher.try_lock_steps(2);
            crasher.hard_crash();
        });
        for mut p in parts {
            let (in_cs, entries) = (&in_cs, &entries);
            s.spawn(move || {
                let mut done = 0;
                while done < CYCLES && Instant::now() < deadline {
                    let Some(g) = p.try_lock_for(Duration::from_millis(20)) else {
                        continue;
                    };
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                    entries.fetch_add(1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    drop(g);
                    done += 1;
                }
            });
        }
    });
    assert!(!lock.is_poisoned());
    // Whatever the crasher claimed in its two steps is still claimed.
    let stale = lock
        .memory()
        .observe_all()
        .iter()
        .filter(|s| s.is_owned_by(crasher_pid))
        .count();
    assert!(
        stale <= 2,
        "two doorway steps (one CAS each) claim at most two registers, saw {stale}"
    );
    if stale == 0 {
        assert_eq!(
            entries.load(Ordering::Relaxed),
            2 * CYCLES,
            "with no stale claim left, both survivors must complete"
        );
    }
}

/// Every backoff policy preserves exclusion and completion under real
/// contention — the ladder is waiting strategy, not protocol.
#[test]
fn all_backoff_policies_preserve_exclusion() {
    for backoff in Backoff::all() {
        let spec = MutexSpec::rmw(3, 5).unwrap();
        let participants: Vec<_> = RmwAnonLock::with_participants(spec, &Adversary::Random(5))
            .unwrap()
            .into_iter()
            .map(|p| p.with_backoff(backoff))
            .collect();
        let counter = AtomicU64::new(0);
        let in_cs = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in participants {
                assert_eq!(p.backoff(), backoff);
                let (counter, in_cs) = (&counter, &in_cs);
                s.spawn(move || {
                    for _ in 0..100 {
                        let g = p.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0, "overlap!");
                        counter.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            300,
            "{}: every thread completes",
            backoff.name()
        );
    }
}

/// The parking policy still meets a deadline-bounded acquisition: a
/// `try_lock_for` under a parked waiter wakes up in time to win once the
/// holder leaves.
#[test]
fn parked_waiter_wakes_and_acquires() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let lock = RwAnonLock::new(spec);
    let parts = lock.participants(&Adversary::Identity).unwrap();
    let (mut a, b) = {
        let mut it = parts.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    };
    let guard = a.lock();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut b = b.with_backoff(Backoff::SpinYieldPark);
            let acquired = b.try_lock_for(Duration::from_secs(30)).is_some();
            acquired
        });
        // Let the waiter climb into the park band, then release.
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        assert!(
            waiter.join().expect("waiter thread"),
            "the parked waiter must wake and acquire"
        );
    });
}
