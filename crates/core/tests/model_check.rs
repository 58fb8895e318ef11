//! Exhaustive verification of Algorithms 1 and 2 on small configurations.
//!
//! These tests *prove* (over the full reachable state space of the
//! simulator model) that:
//!
//! * for valid `m ∈ M(n)` both algorithms satisfy mutual exclusion and
//!   deadlock-freedom — the sufficiency half of the paper's Table II;
//! * for invalid `m ∉ M(n)` the algorithms admit a fair livelock — the
//!   behaviour the necessity half (Theorem 5 / Taubenfeld 2017) predicts
//!   for *any* symmetric algorithm.

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_registers::Adversary;
use amx_sim::mc::{ModelChecker, Symmetry, Verdict};
use amx_sim::MemoryModel;

fn check_alg1(n: usize, m: usize, adversary: &Adversary, policy: FreeSlotPolicy) -> Verdict {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = amx_ids::PidPool::sequential();
    let automata: Vec<Alg1Automaton> = (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(policy))
        .collect();
    ModelChecker::with_automata(automata, MemoryModel::Rw, m, adversary)
        .unwrap()
        .max_states(4_000_000)
        .run()
        .unwrap()
        .verdict
}

fn check_alg2(n: usize, m: usize, adversary: &Adversary) -> Verdict {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = amx_ids::PidPool::sequential();
    let automata: Vec<Alg2Automaton> = (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect();
    ModelChecker::with_automata(automata, MemoryModel::Rmw, m, adversary)
        .unwrap()
        .max_states(4_000_000)
        .run()
        .unwrap()
        .verdict
}

// ---------------------------------------------------------------- Alg 1 —

#[test]
fn alg1_n2_m3_is_correct_exhaustively() {
    assert_eq!(
        check_alg1(2, 3, &Adversary::Identity, FreeSlotPolicy::FirstFree),
        Verdict::Ok
    );
}

#[test]
fn alg1_n2_m3_correct_under_rotation_adversary() {
    let adv = Adversary::Rotations { stride: 1 };
    assert_eq!(
        check_alg1(2, 3, &adv, FreeSlotPolicy::FirstFree),
        Verdict::Ok
    );
}

#[test]
fn alg1_n2_m3_correct_under_random_adversaries() {
    for seed in 0..4 {
        assert_eq!(
            check_alg1(2, 3, &Adversary::Random(seed), FreeSlotPolicy::FirstFree),
            Verdict::Ok,
            "adversary seed {seed}"
        );
    }
}

#[test]
fn alg1_n2_m3_correct_under_table1_adversary() {
    assert_eq!(
        check_alg1(2, 3, &Adversary::table1(), FreeSlotPolicy::FirstFree),
        Verdict::Ok
    );
}

#[test]
fn alg1_n2_m3_correct_for_all_policies() {
    for policy in [
        FreeSlotPolicy::FirstFree,
        FreeSlotPolicy::LastFree,
        FreeSlotPolicy::RotatingFrom(1),
        FreeSlotPolicy::RotatingFrom(2),
    ] {
        assert_eq!(
            check_alg1(2, 3, &Adversary::Identity, policy),
            Verdict::Ok,
            "policy {policy:?}"
        );
    }
}

#[test]
fn alg1_n2_m2_invalid_livelocks() {
    // gcd(2, 2) = 2: with a 1-1 split of a full view neither process is
    // below average, so both spin forever.
    let v = check_alg1(2, 2, &Adversary::Identity, FreeSlotPolicy::FirstFree);
    assert!(
        matches!(v, Verdict::FairLivelock { .. }),
        "expected fair livelock for invalid m = 2, got {v:?}"
    );
}

#[test]
fn alg1_n2_m4_invalid_livelocks() {
    // gcd(2, 4) = 2: the 2-2 split is stable.
    let v = check_alg1(2, 4, &Adversary::Identity, FreeSlotPolicy::FirstFree);
    assert!(
        matches!(v, Verdict::FairLivelock { .. }),
        "expected fair livelock for invalid m = 4, got {v:?}"
    );
}

#[test]
fn alg1_n3_m3_invalid_livelocks() {
    // n = 3, m = 3: the 1-1-1 split is stable.
    let v = check_alg1(3, 3, &Adversary::Identity, FreeSlotPolicy::FirstFree);
    assert!(
        matches!(v, Verdict::FairLivelock { .. }),
        "expected fair livelock for invalid n = m = 3, got {v:?}"
    );
}

// ---------------------------------------------------------------- Alg 2 —

#[test]
fn alg2_n2_m1_degenerate_is_correct() {
    assert_eq!(check_alg2(2, 1, &Adversary::Identity), Verdict::Ok);
}

#[test]
fn alg2_n2_m3_is_correct_exhaustively() {
    assert_eq!(check_alg2(2, 3, &Adversary::Identity), Verdict::Ok);
}

#[test]
fn alg2_n2_m3_correct_under_adversaries() {
    for adv in [
        Adversary::Rotations { stride: 1 },
        Adversary::Random(11),
        Adversary::table1(),
    ] {
        assert_eq!(check_alg2(2, 3, &adv), Verdict::Ok, "adversary {adv:?}");
    }
}

#[test]
fn alg2_n3_m1_degenerate_is_correct() {
    assert_eq!(check_alg2(3, 1, &Adversary::Identity), Verdict::Ok);
}

#[test]
fn alg2_n2_m2_invalid_livelocks() {
    let v = check_alg2(2, 2, &Adversary::Identity);
    assert!(
        matches!(v, Verdict::FairLivelock { .. }),
        "expected fair livelock for invalid m = 2, got {v:?}"
    );
}

#[test]
fn alg2_n2_m4_invalid_livelocks() {
    let v = check_alg2(2, 4, &Adversary::Identity);
    assert!(
        matches!(v, Verdict::FairLivelock { .. }),
        "expected fair livelock for invalid m = 4, got {v:?}"
    );
}

#[test]
fn alg2_n2_m2_ring_adversary_livelocks() {
    // The Theorem 5 construction: ℓ = 2 divides m = 2, initial registers
    // spaced m/ℓ = 1 apart.
    let v = check_alg2(2, 2, &Adversary::Ring { ell: 2 });
    assert!(matches!(v, Verdict::FairLivelock { .. }), "got {v:?}");
}

// ------------------------------------------------------- heavier checks —

#[test]
fn alg1_n2_m5_is_correct_exhaustively() {
    assert_eq!(
        check_alg1(2, 5, &Adversary::Identity, FreeSlotPolicy::FirstFree),
        Verdict::Ok
    );
}

#[test]
fn alg2_n2_m5_is_correct_exhaustively() {
    assert_eq!(check_alg2(2, 5, &Adversary::Identity), Verdict::Ok);
}

#[test]
fn alg2_n3_m2_invalid_livelocks() {
    // n = 3 processes on m = 2 registers (gcd(2, 2) = 2 ≤ n).
    let v = check_alg2(3, 2, &Adversary::Identity);
    assert!(matches!(v, Verdict::FairLivelock { .. }), "got {v:?}");
}

#[test]
#[ignore = "large state space; run with --ignored or --release"]
fn alg1_n3_m5_is_correct_exhaustively() {
    // The smallest valid 3-process RW configuration, fully explored.
    assert_eq!(
        check_alg1(3, 5, &Adversary::Identity, FreeSlotPolicy::FirstFree),
        Verdict::Ok
    );
}

#[test]
#[ignore = "large state space; run with --ignored or --release"]
fn alg1_n2_m7_is_correct_exhaustively() {
    assert_eq!(
        check_alg1(2, 7, &Adversary::Identity, FreeSlotPolicy::FirstFree),
        Verdict::Ok
    );
}

// Larger 3-process Alg 2 configurations are covered three ways: the
// symmetry-reduced engine explores (3, 3) exhaustively below and
// (3, 5) — ~18.2M concrete states — in `mc_sweep`'s deep point; deep
// randomized executions cover valid m beyond that; and deterministic
// lock-step executions (the Theorem 5 schedule) drive invalid m.

#[test]
fn alg2_n3_m3_invalid_livelocks_symmetry_reduced() {
    // A configuration the seed suite declared out of exhaustive reach:
    // with symmetry reduction it completes (storing one state
    // per S₃ orbit) and confirms the Theorem 5 prediction.
    let spec = MutexSpec::rmw_unchecked(3, 3);
    let mut pool = amx_ids::PidPool::sequential();
    let automata: Vec<Alg2Automaton> = (0..3)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect();
    let report = ModelChecker::with_automata(automata, MemoryModel::Rmw, 3, &Adversary::Identity)
        .unwrap()
        .symmetry(Symmetry::Wreath)
        .max_states(4_000_000)
        .run()
        .unwrap();
    assert!(
        matches!(report.verdict, Verdict::FairLivelock { .. }),
        "got {:?}",
        report.verdict
    );
    assert!(
        report.canonical_states * 5 < report.full_states_estimate,
        "three interchangeable processes should reduce by nearly 6×: {} vs {}",
        report.canonical_states,
        report.full_states_estimate
    );
}

#[test]
fn alg2_n3_m5_randomized_runs_are_clean() {
    use amx_sim::{Runner, Scheduler, Workload};
    let spec = MutexSpec::rmw_unchecked(3, 5);
    for seed in 0..8u64 {
        let mut pool = amx_ids::PidPool::sequential();
        let automata: Vec<Alg2Automaton> = (0..3)
            .map(|_| Alg2Automaton::new(spec, pool.mint()))
            .collect();
        let report =
            Runner::with_adversary(automata, MemoryModel::Rmw, 5, &Adversary::Random(seed))
                .unwrap()
                .scheduler(Scheduler::random(seed ^ 0xABCD))
                .workload(Workload::cycles(50))
                .max_steps(4_000_000)
                .run();
        assert!(
            report.is_clean_completion(),
            "seed {seed}: {:?}",
            report.stop
        );
        assert_eq!(report.total_entries(), 150, "seed {seed}");
    }
}

#[test]
fn alg2_n3_m3_ring_lockstep_livelocks() {
    use amx_sim::{Runner, Scheduler, Stop, Workload};
    // gcd(3, 3) = 3: three processes spaced m/ℓ = 1 apart on the ring,
    // scheduled in lock steps, stay perfectly symmetric and never enter.
    let spec = MutexSpec::rmw_unchecked(3, 3);
    let mut pool = amx_ids::PidPool::sequential();
    let automata: Vec<Alg2Automaton> = (0..3)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect();
    let report = Runner::with_adversary(automata, MemoryModel::Rmw, 3, &Adversary::Ring { ell: 3 })
        .unwrap()
        .scheduler(Scheduler::round_robin())
        .workload(Workload::unbounded())
        .max_steps(100_000)
        .run();
    assert_eq!(report.stop, Stop::StepBudgetExhausted);
    assert_eq!(report.total_entries(), 0, "symmetry must never break");
}
