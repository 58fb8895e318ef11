//! Differential validation of the wreath (register-aware) symmetry
//! reduction.
//!
//! Three engine runs must agree on every automaton in this workspace:
//! exhaustive (`Symmetry::Off`), wreath-reduced (`Symmetry::Wreath`)
//! with one worker, and wreath-reduced on the multi-worker
//! level.  On top of verdict equivalence and exact orbit accounting we
//! check that the two wreath runs are identical (witnesses included) and
//! never store more than the exhaustive one — and, on rotation/ring
//! orbits where no two processes share a permutation (so only a joint
//! process × register symmetry can apply), that the reduction
//! genuinely bites: at least a 2× cut in canonical states with the same
//! verdict and a replayable witness.

use amx_core::{Alg1Automaton, Alg2Automaton, MutexSpec};
use amx_ids::PidPool;
use amx_registers::orbit::adversary_orbits;
use amx_registers::Adversary;
use amx_sim::automaton::closed_loop_step;
use amx_sim::mc::ModelChecker;
use amx_sim::toys::{CasLock, SpinForever};
use amx_sim::{Automaton, EncodeState, MemoryModel, Phase, SimMemory, Symmetry, Verdict};

/// Runs all three engine configurations and checks the three-way
/// contract; returns `(full, wreath)` for extra assertions.
fn three_way<A, F>(
    make: F,
    model: MemoryModel,
    m: usize,
    adv: &Adversary,
) -> (amx_sim::McReport, amx_sim::McReport)
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let run = |sym: Symmetry, threads: usize| {
        ModelChecker::with_automata(make(), model, m, adv)
            .unwrap()
            .max_states(4_000_000)
            .symmetry(sym)
            .threads(threads)
            .oversubscribe(threads > 1)
            .run()
            .unwrap()
    };
    let full = run(Symmetry::Off, 1);
    let wreath = run(Symmetry::Wreath, 1);
    let par = run(Symmetry::Wreath, 3);
    assert_eq!(
        std::mem::discriminant(&full.verdict),
        std::mem::discriminant(&wreath.verdict),
        "wreath verdict diverged: full {:?} vs {:?}",
        full.verdict,
        wreath.verdict
    );
    if !matches!(full.verdict, Verdict::MutualExclusionViolation { .. }) {
        assert_eq!(
            wreath.full_states_estimate, full.canonical_states,
            "wreath orbit accounting diverged from the exhaustive engine"
        );
    }
    assert_eq!(
        wreath.verdict, par.verdict,
        "worker count changed the verdict"
    );
    assert_eq!(wreath.canonical_states, par.canonical_states);
    assert_eq!(wreath.transitions, par.transitions);
    assert!(
        wreath.canonical_states <= full.canonical_states,
        "the reduction must never store more: wreath {} vs full {}",
        wreath.canonical_states,
        full.canonical_states
    );
    (full, wreath)
}

fn alg1_automata(n: usize, m: usize) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()))
        .collect()
}

fn alg2_automata(n: usize, m: usize) -> Vec<Alg2Automaton> {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect()
}

/// Replays a fair-livelock witness concretely and asserts it reaches a
/// state with exactly the reported pending set.
fn assert_livelock_witness_replays<A, F>(
    make: F,
    model: MemoryModel,
    m: usize,
    adv: &Adversary,
    verdict: &Verdict,
) where
    A: Automaton,
    F: Fn() -> Vec<A>,
{
    let Verdict::FairLivelock {
        pending,
        witness_schedule,
        ..
    } = verdict
    else {
        panic!("expected a fair livelock, got {verdict:?}");
    };
    let automata = make();
    let n = automata.len();
    let mut mem = SimMemory::new(model, m, adv, n).unwrap();
    let mut phases = vec![Phase::Remainder; n];
    let mut states: Vec<A::State> = automata.iter().map(Automaton::init_state).collect();
    for &a in witness_schedule {
        let _ = closed_loop_step(
            &automata[a],
            &mut phases[a],
            &mut states[a],
            &mut mem.view(a),
        );
    }
    let reached: Vec<usize> = (0..n)
        .filter(|&i| matches!(phases[i], Phase::Trying | Phase::Exiting))
        .collect();
    assert_eq!(
        &reached, pending,
        "witness must reach a state with the reported pending set"
    );
}

// ------------------------------------------------------------ toys —

#[test]
fn cas_lock_three_way_on_identity() {
    // Shared permutations: the wreath group is the symmetric group on
    // the three processes, and must halve-or-better the stored states.
    let (full, wreath) = three_way(
        || {
            let ids = PidPool::sequential().mint_many(3);
            ids.into_iter().map(CasLock::new).collect()
        },
        MemoryModel::Rmw,
        1,
        &Adversary::Identity,
    );
    assert_eq!(full.verdict, Verdict::Ok);
    assert!(2 * wreath.canonical_states <= full.canonical_states);
}

#[test]
fn spinners_three_way_on_rotations() {
    let adv = Adversary::Rotations { stride: 1 };
    let (full, wreath) = three_way(
        || vec![SpinForever, SpinForever, SpinForever],
        MemoryModel::Rw,
        3,
        &adv,
    );
    assert!(matches!(full.verdict, Verdict::FairLivelock { .. }));
    assert!(wreath.canonical_states < full.canonical_states);
    assert_livelock_witness_replays(
        || vec![SpinForever, SpinForever, SpinForever],
        MemoryModel::Rw,
        3,
        &adv,
        &wreath.verdict,
    );
}

// ------------------------------------------------- Algorithm 1 (RW) —

#[test]
fn alg1_three_way_across_all_n2_m3_orbits() {
    // The five (2, 3) orbit representatives: the shared-permutation
    // orbit swaps the processes with ρ = id; on the three involution
    // orbits the swap needs a register relabeling ρ ≠ id; on the
    // 3-cycle orbit the adversary has no automorphism and the reduction
    // is rightly trivial.
    let mut reduced = 0usize;
    for adv in adversary_orbits(2, 3) {
        let (full, wreath) = three_way(|| alg1_automata(2, 3), MemoryModel::Rw, 3, &adv);
        assert_eq!(full.verdict, Verdict::Ok);
        if wreath.canonical_states < full.canonical_states {
            reduced += 1;
        }
    }
    assert_eq!(
        reduced, 4,
        "every orbit with an automorphism must gain from the wreath group"
    );
}

#[test]
fn alg1_rotation_ring_point_gains_at_least_2x() {
    // Rotation ring at (3, 3): three distinct rotations, so no two
    // processes share a permutation, while the wreath group is the
    // cyclic Z_3 — the acceptance-bar point where the reduction must cut
    // canonical states by ≥ 2× with the same verdict.
    let adv = Adversary::Rotations { stride: 1 };
    let (full, wreath) = three_way(|| alg1_automata(3, 3), MemoryModel::Rw, 3, &adv);
    assert!(
        matches!(full.verdict, Verdict::FairLivelock { .. }),
        "3 | m = 3: outside M(3), the paper predicts livelock"
    );
    assert!(
        2 * wreath.canonical_states <= full.canonical_states,
        "wreath must reduce ≥ 2×: {} vs {}",
        wreath.canonical_states,
        full.canonical_states
    );
    assert_livelock_witness_replays(
        || alg1_automata(3, 3),
        MemoryModel::Rw,
        3,
        &adv,
        &wreath.verdict,
    );
}

// ------------------------------------------------ Algorithm 2 (RMW) —

#[test]
fn alg2_three_way_across_all_n2_m3_orbits() {
    for adv in adversary_orbits(2, 3) {
        let (full, _) = three_way(|| alg2_automata(2, 3), MemoryModel::Rmw, 3, &adv);
        assert_eq!(full.verdict, Verdict::Ok);
    }
}

#[test]
fn alg2_rotation_ring_point_gains_at_least_2x() {
    let adv = Adversary::Rotations { stride: 1 };
    let (full, wreath) = three_way(|| alg2_automata(3, 3), MemoryModel::Rmw, 3, &adv);
    assert!(
        matches!(full.verdict, Verdict::FairLivelock { .. }),
        "3 | m = 3: outside the valid set, Algorithm 2 livelocks"
    );
    assert!(
        2 * wreath.canonical_states <= full.canonical_states,
        "wreath must reduce ≥ 2×: {} vs {}",
        wreath.canonical_states,
        full.canonical_states
    );
    assert_livelock_witness_replays(
        || alg2_automata(3, 3),
        MemoryModel::Rmw,
        3,
        &adv,
        &wreath.verdict,
    );
}

#[test]
fn alg2_mutual_exclusion_witnesses_replay_under_wreath() {
    // A mutual-exclusion violation found by the wreath engine must
    // replay concretely.  Alg 2 on an undersized memory (m = 2, even)
    // livelocks rather than violates; the CasLock-on-rotations
    // configuration violates: each process CASes a *different* physical
    // register, so two enter together.
    let adv = Adversary::Rotations { stride: 1 };
    let make = || {
        let ids = PidPool::sequential().mint_many(3);
        ids.into_iter().map(CasLock::new).collect::<Vec<_>>()
    };
    let (full, wreath) = three_way(make, MemoryModel::Rmw, 3, &adv);
    assert!(matches!(
        full.verdict,
        Verdict::MutualExclusionViolation { .. }
    ));
    let Verdict::MutualExclusionViolation { schedule, .. } = wreath.verdict else {
        panic!("expected a violation, got {:?}", wreath.verdict);
    };
    let automata = make();
    let mut mem = SimMemory::new(MemoryModel::Rmw, 3, &adv, 3).unwrap();
    let mut phases = [Phase::Remainder; 3];
    let mut states: Vec<_> = automata.iter().map(Automaton::init_state).collect();
    for &a in &schedule {
        let _ = closed_loop_step(
            &automata[a],
            &mut phases[a],
            &mut states[a],
            &mut mem.view(a),
        );
    }
    assert_eq!(
        phases.iter().filter(|&&p| p == Phase::Cs).count(),
        2,
        "the replayed schedule must end with two processes in the CS"
    );
}
