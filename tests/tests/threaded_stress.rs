//! Threaded stress: both algorithms on real atomics, across process
//! counts, memory sizes and adversaries, with an in-CS overlap detector.

use std::sync::atomic::{AtomicU64, Ordering};

use amx_core::lock::{AmxLock, BuildLock, Participant};
use amx_core::{FreeSlotPolicy, MutexSpec, RmwAnonLock, RwAnonLock};
use amx_numth::valid_memory_sizes;
use amx_registers::Adversary;

/// Runs `iters` cycles per thread; returns (entries, violations).
fn stress_rw(spec: MutexSpec, adversary: &Adversary, iters: u64) -> (u64, u64) {
    let participants = RwAnonLock::with_participants(spec, adversary).unwrap();
    stress(participants, iters)
}

fn stress_rmw(spec: MutexSpec, adversary: &Adversary, iters: u64) -> (u64, u64) {
    let participants = RmwAnonLock::with_participants(spec, adversary).unwrap();
    stress(participants, iters)
}

/// One harness for every lock family: participants are the unified
/// `amx_core::lock::Participant` regardless of the minting lock.
fn stress(participants: Vec<Participant>, iters: u64) -> (u64, u64) {
    let in_cs = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let entries = AtomicU64::new(0);
    std::thread::scope(|s| {
        for mut p in participants {
            let (in_cs, violations, entries) = (&in_cs, &violations, &entries);
            s.spawn(move || {
                for _ in 0..iters {
                    let _g = p.lock();
                    if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    entries.fetch_add(1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
    });
    (
        entries.load(Ordering::Relaxed),
        violations.load(Ordering::SeqCst),
    )
}

#[test]
fn alg1_two_to_four_threads_many_adversaries() {
    for n in 2..=4usize {
        let spec = MutexSpec::smallest_rw(n).unwrap();
        for adv in [
            Adversary::Identity,
            Adversary::Rotations { stride: 1 },
            Adversary::Random(n as u64),
        ] {
            let iters = 300;
            let (entries, violations) = stress_rw(spec, &adv, iters);
            assert_eq!(entries, n as u64 * iters, "n={n} adv={adv:?}");
            assert_eq!(violations, 0, "n={n} adv={adv:?}");
        }
    }
}

#[test]
fn alg1_non_minimal_memory_sizes() {
    // Larger members of M(n) must work as well as the smallest.
    for m in valid_memory_sizes(3).take(3) {
        let spec = MutexSpec::rw(3, m as usize).unwrap();
        let (entries, violations) = stress_rw(spec, &Adversary::Random(m), 150);
        assert_eq!(entries, 450, "m={m}");
        assert_eq!(violations, 0, "m={m}");
    }
}

#[test]
fn alg2_two_to_six_threads_many_adversaries() {
    for n in [2usize, 3, 4, 6] {
        let spec = MutexSpec::smallest_rmw(n).unwrap();
        for adv in [Adversary::Identity, Adversary::Random(n as u64 + 7)] {
            let iters = 300;
            let (entries, violations) = stress_rmw(spec, &adv, iters);
            assert_eq!(entries, n as u64 * iters, "n={n} adv={adv:?}");
            assert_eq!(violations, 0, "n={n} adv={adv:?}");
        }
    }
}

#[test]
fn alg2_single_register_heavy_contention() {
    let spec = MutexSpec::rmw(8, 1).unwrap();
    let (entries, violations) = stress_rmw(spec, &Adversary::Identity, 250);
    assert_eq!(entries, 2000);
    assert_eq!(violations, 0);
}

#[test]
fn alg1_policies_coexist() {
    // Different participants may use different free-slot policies; the
    // paper's proof never assumes a common rule.
    let spec = MutexSpec::rw(3, 5).unwrap();
    let lock = RwAnonLock::new(spec);
    let participants = lock.participants(&Adversary::Random(3)).unwrap();
    let policies = [
        FreeSlotPolicy::FirstFree,
        FreeSlotPolicy::LastFree,
        FreeSlotPolicy::RotatingFrom(2),
    ];
    let participants: Vec<_> = participants
        .into_iter()
        .zip(policies)
        .map(|(p, policy)| p.with_policy(policy))
        .collect();
    let (entries, violations) = stress(participants, 200);
    assert_eq!(entries, 600);
    assert_eq!(violations, 0);
}

#[test]
fn memory_is_clean_after_everyone_leaves() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let lock = RwAnonLock::new(spec);
    let participants = lock.participants(&Adversary::Random(1)).unwrap();
    let (entries, violations) = stress(participants, 100);
    assert_eq!((entries, violations), (200, 0));
    assert!(
        lock.memory().observe_all().iter().all(|s| s.is_bottom()),
        "every register must be ⊥ once all processes are in their remainder"
    );

    let spec = MutexSpec::rmw(2, 3).unwrap();
    let lock = RmwAnonLock::new(spec);
    let participants = lock.participants(&Adversary::Random(1)).unwrap();
    let (entries, violations) = stress(participants, 100);
    assert_eq!((entries, violations), (200, 0));
    assert!(lock.memory().observe_all().iter().all(|s| s.is_bottom()));
}

#[test]
fn counters_reflect_real_work() {
    let spec = MutexSpec::rw(2, 3).unwrap();
    let lock = RwAnonLock::new(spec);
    let participants = lock.participants(&Adversary::Identity).unwrap();
    let counters: Vec<_> = participants.iter().map(|p| p.counters().clone()).collect();
    let (entries, _) = stress(participants, 50);
    assert_eq!(entries, 100);
    for (t, c) in counters.iter().enumerate() {
        assert!(
            c.snapshots() >= 50,
            "thread {t} must snapshot at least once per entry"
        );
        assert!(
            c.writes() >= 50 * 3,
            "thread {t} must claim and erase registers"
        );
        assert_eq!(c.cas_ops(), 0, "Algorithm 1 never uses compare&swap");
    }
}
