//! The unified `AmxLock` API contract, exercised uniformly over every
//! lock family in the workspace: both anonymous algorithms (Alg 1 RW,
//! Alg 2 RMW) and the three non-anonymous baselines (TAS, Burns–Lynch,
//! Peterson tournament).
//!
//! Each test takes its locks from one factory and drives them through
//! `&dyn AmxLock` / `Participant` / `Guard` only — no per-family code
//! paths — so the contract (guard RAII, poisoning on CS panic, timeout
//! semantics, mutual exclusion) is checked on the exact surface the
//! contention rig and downstream users consume.  One table pins every
//! family's register operations per cycle and per withdraw.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use amx_baselines::{BurnsStepLock, PetersonTreeLock, TasStepLock};
use amx_core::lock::{AmxLock, BuildLock, Participant};
use amx_core::{MutexSpec, RmwAnonLock, RwAnonLock};
use amx_registers::{Adversary, OpSnapshot};

/// All five lock families at `n` processes, as trait objects.
fn families(n: usize) -> Vec<Box<dyn AmxLock>> {
    vec![
        Box::new(RwAnonLock::new(MutexSpec::smallest_rw(n).unwrap())),
        Box::new(RmwAnonLock::new(MutexSpec::smallest_rmw(n).unwrap())),
        Box::new(TasStepLock::new(n)),
        Box::new(BurnsStepLock::new(n)),
        Box::new(PetersonTreeLock::new(n)),
    ]
}

fn participants(lock: &dyn AmxLock) -> Vec<Participant> {
    // Random permutations for the anonymous families; the baselines
    // ignore the adversary (their processes legitimately know names).
    lock.participants(&Adversary::Random(7)).unwrap()
}

#[test]
fn every_family_mutual_exclusion_counter_stress() {
    for lock in families(4) {
        let parts = participants(lock.as_ref());
        let iters = 200u64;
        let counter = AtomicU64::new(0);
        let in_cs = AtomicU64::new(0);
        let violations = AtomicU64::new(0);
        std::thread::scope(|s| {
            for mut p in parts {
                let (counter, in_cs, violations) = (&counter, &in_cs, &violations);
                s.spawn(move || {
                    for _ in 0..iters {
                        let _g = p.lock();
                        if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            4 * iters,
            "{}: every increment must land",
            lock.family()
        );
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "{}: exclusion must hold",
            lock.family()
        );
        assert!(!lock.is_poisoned(), "{}: clean run", lock.family());
    }
}

#[test]
fn every_family_guard_raii_poisons_on_panic() {
    for lock in families(2) {
        let family = lock.family();
        let mut parts = participants(lock.as_ref());
        let (left, right) = parts.split_at_mut(1);
        let panicker = &mut left[0];
        let survivor = &mut right[0];

        // A clean cycle first: guards release on normal drop.
        {
            let g = panicker.lock();
            assert!(!g.poisoned(), "{family}: fresh lock is unpoisoned");
        }

        // Panic while holding the guard.  The unwind must run the
        // guard's Drop — releasing the lock via the wait-free exit AND
        // marking the lock object poisoned.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = panicker.lock();
            panic!("simulated critical-section failure");
        }));
        assert!(result.is_err(), "{family}: the panic must propagate");
        assert!(
            lock.is_poisoned(),
            "{family}: a CS panic must poison the lock"
        );

        // The next locker still gets in (the release ran!) but sees the
        // poison flag on its guard.
        {
            let g = survivor.lock();
            assert!(g.poisoned(), "{family}: next guard observes poison");
        }
        assert!(survivor.is_poisoned());

        // clear_poison restores clean guards.
        lock.clear_poison();
        assert!(!lock.is_poisoned(), "{family}: poison cleared");
        let g = survivor.lock();
        assert!(!g.poisoned(), "{family}: guard clean after clear_poison");
    }
}

#[test]
fn every_family_poison_crosses_threads() {
    // Same contract as above, but the panic happens on a real spawned
    // thread (join returns Err) — the shape production code hits.
    for lock in families(2) {
        let family = lock.family();
        let mut parts = participants(lock.as_ref());
        let mut panicker = parts.swap_remove(0);
        let survivor = &mut parts[0];
        let handle = std::thread::spawn(move || {
            let _g = panicker.lock();
            panic!("worker died in its critical section");
        });
        assert!(handle.join().is_err(), "{family}: join reports the panic");
        assert!(lock.is_poisoned(), "{family}: poison visible cross-thread");
        let g = survivor.lock();
        assert!(g.poisoned(), "{family}: survivor's guard sees it");
    }
}

#[test]
fn every_family_try_lock_uncontended_succeeds() {
    for lock in families(2) {
        let family = lock.family();
        let mut parts = participants(lock.as_ref());
        let mut p = parts.swap_remove(0);
        let g = p.try_lock();
        assert!(g.is_some(), "{family}: uncontended try_lock must win");
        drop(g);
        let g = p.try_lock_for(Duration::from_millis(50));
        assert!(g.is_some(), "{family}: uncontended try_lock_for must win");
    }
}

#[test]
fn every_family_try_lock_for_times_out_under_contention() {
    for lock in families(2) {
        let family = lock.family();
        let mut parts = participants(lock.as_ref());
        let mut second = parts.pop().unwrap();
        let mut first = parts.pop().unwrap();
        let _held = first.lock();
        let before = std::time::Instant::now();
        assert!(
            second.try_lock_for(Duration::from_millis(30)).is_none(),
            "{family}: contended try_lock_for must time out"
        );
        assert!(
            before.elapsed() >= Duration::from_millis(30),
            "{family}: the timeout must actually elapse"
        );
        // The timed-out attempt withdrew: once the holder leaves, the
        // second participant can still enter (nothing leaked).
        drop(_held);
        assert!(
            second.try_lock_for(Duration::from_secs(5)).is_some(),
            "{family}: participant usable after a timeout"
        );
    }
}

#[test]
fn every_family_guard_exposes_pid_and_spec() {
    for lock in families(3) {
        let family = lock.family();
        let spec = lock.spec();
        let mut parts = participants(lock.as_ref());
        let mut seen = std::collections::HashSet::new();
        for p in &mut parts {
            let expected = p.pid();
            let g = p.lock();
            assert_eq!(g.pid(), expected, "{family}: Guard::pid echoes its owner");
            assert_eq!(g.spec(), spec, "{family}: Guard::spec echoes the lock");
            seen.insert(g.pid());
        }
        assert_eq!(seen.len(), 3, "{family}: distinct pids per participant");
    }
}

#[test]
fn every_family_reports_coherent_spec() {
    for lock in families(5) {
        let spec = lock.spec();
        assert_eq!(spec.n(), 5, "{}: n matches the build", lock.family());
        let parts = participants(lock.as_ref());
        assert_eq!(
            parts.len(),
            5,
            "{}: one participant per process",
            lock.family()
        );
        for p in &parts {
            assert_eq!(p.family(), lock.family());
            assert_eq!(p.spec(), spec);
            assert_eq!(p.entries(), 0, "fresh participants have no entries");
        }
    }
}

#[test]
fn build_lock_generic_entry_point() {
    // `BuildLock::with_participants` is the one-call constructor; it
    // works identically through the generic bound for every implementor.
    fn mint<L: BuildLock>(spec: MutexSpec) -> Vec<Participant> {
        L::with_participants(spec, &Adversary::Identity).unwrap()
    }
    let rw = mint::<RwAnonLock>(MutexSpec::smallest_rw(2).unwrap());
    let rmw = mint::<RmwAnonLock>(MutexSpec::smallest_rmw(2).unwrap());
    let tas = mint::<TasStepLock>(MutexSpec::rmw(2, 1).unwrap());
    for mut p in rw.into_iter().chain(rmw).chain(tas) {
        let _g = p.lock();
    }
}

/// Register operations as `[reads, writes, CAS, snapshots]`.
type Ops = [u64; 4];

/// A lock, each participant's solo cycle, and participant 0's
/// `try_lock_steps(k)` + `withdraw()` for k = 1, 2, ….
type Pinned = (Box<dyn AmxLock>, Vec<Ops>, Vec<Ops>);

/// The operations `run` performs on `p`'s behalf.
fn ops_of(p: &mut Participant, run: impl FnOnce(&mut Participant)) -> Ops {
    let before = p.counters().snapshot_counts();
    run(p);
    let OpSnapshot {
        reads,
        writes,
        cas_ops,
        snapshots,
        ..
    } = p.counters().snapshot_counts().since(&before);
    [reads, writes, cas_ops, snapshots]
}

fn cycle(p: &mut Participant) -> Ops {
    ops_of(p, |p| drop(p.lock()))
}

fn probe_and_withdraw(p: &mut Participant, k: u64) -> Ops {
    ops_of(p, |p| {
        assert!(p.try_lock_steps(k).is_none(), "{k} steps must not acquire");
        p.withdraw();
    })
}

/// Solo runs under the identity adversary are deterministic, so each
/// family's register operations are exact: a lock/unlock cycle per
/// participant, and participant 0's `try_lock_steps(k)` + `withdraw()`
/// for every `k` below its acquisition length.  After each withdraw the
/// other participant's cycle must equal its solo cycle, which shows
/// the withdraw left memory clean.
#[test]
fn every_family_pins_its_register_operations() {
    let table: Vec<Pinned> = vec![
        (
            Box::new(RwAnonLock::new(MutexSpec::rw(2, 3).unwrap())),
            vec![[27, 6, 0, 4]; 2],
            vec![
                [12, 0, 0, 2],
                [13, 2, 0, 2],
                [19, 2, 0, 3],
                [20, 4, 0, 3],
                [26, 4, 0, 4],
                [27, 6, 0, 4],
            ],
        ),
        (
            Box::new(RmwAnonLock::new(MutexSpec::rmw(2, 3).unwrap())),
            vec![[3, 0, 6, 0]; 2],
            vec![
                [0, 0, 4, 0],
                [0, 0, 5, 0],
                [0, 0, 6, 0],
                [1, 0, 6, 0],
                [2, 0, 6, 0],
            ],
        ),
        // TAS acquires in its first step: its withdraw is pinned under
        // contention below.
        (Box::new(TasStepLock::new(2)), vec![[0, 1, 1, 0]; 2], vec![]),
        (
            Box::new(BurnsStepLock::new(2)),
            vec![[1, 3, 0, 0], [2, 3, 0, 0]],
            vec![[0, 2, 0, 0], [0, 3, 0, 0]],
        ),
        (
            Box::new(PetersonTreeLock::new(2)),
            vec![[1, 3, 0, 0]; 2],
            vec![[0, 2, 0, 0], [0, 3, 0, 0]],
        ),
        (
            Box::new(PetersonTreeLock::new(4)),
            vec![[2, 6, 0, 0]; 4],
            vec![
                [0, 2, 0, 0],
                [0, 3, 0, 0],
                [1, 4, 0, 0],
                [1, 5, 0, 0],
                [1, 6, 0, 0],
            ],
        ),
    ];
    for (lock, cycles, withdraws) in &table {
        let (family, n) = (lock.family(), lock.spec().n());
        let mut parts = lock.participants(&Adversary::Identity).unwrap();
        for (i, (p, expected)) in parts.iter_mut().zip(cycles).enumerate() {
            assert_eq!(cycle(p), *expected, "{family} ({n}) participant {i} cycle");
        }
        for (k, expected) in (1..).zip(withdraws) {
            assert_eq!(
                probe_and_withdraw(&mut parts[0], k),
                *expected,
                "{family} ({n}) try_lock_steps({k}) + withdraw"
            );
            assert_eq!(
                cycle(&mut parts[1]),
                cycles[1],
                "{family} ({n}) cycle after a withdraw at k = {k}"
            );
        }
    }

    // TAS under contention: each probe step is one failed CAS, and the
    // withdraw adds nothing.
    let lock = TasStepLock::new(2);
    let mut parts = lock.participants(&Adversary::Identity).unwrap();
    let (holder, waiter) = parts.split_at_mut(1);
    for k in 1..=3 {
        let guard = holder[0].lock();
        assert_eq!(
            probe_and_withdraw(&mut waiter[0], k),
            [0, 0, k, 0],
            "tas k = {k}"
        );
        drop(guard);
        assert_eq!(
            cycle(&mut waiter[0]),
            [0, 1, 1, 0],
            "tas cycle after k = {k}"
        );
    }
}
