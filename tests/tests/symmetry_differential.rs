//! Differential validation of the symmetry-reduced model checker.
//!
//! The symmetry-reduced engine (`Symmetry::Wreath`) must be *verdict
//! equivalent* to the exhaustive engine (`Symmetry::Off`) on every
//! automaton in this workspace — that is the soundness contract of the
//! reduction.  These tests compare the two engines on the toy locks and
//! on Algorithms 1 and 2 across small `(n, m)` grids, random
//! adversaries, and all adversary-orbit representatives, and also check
//! the quantitative contract: the reduced run's orbit accounting
//! (`full_states_estimate`) must reproduce the exhaustive engine's
//! stored-state count exactly.

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_props::predicate::full_view;
use amx_props::property::scc_query_for;
use amx_props::Observe;
use amx_registers::orbit::adversary_orbits;
use amx_registers::Adversary;
use amx_sim::mc::{CrashBudget, CrashMode, McReport, ModelChecker, Symmetry};
use amx_sim::toys::{CasLock, NaiveFlagLock, PetersonTwo, SpinForever};
use amx_sim::{Automaton, EncodeState, MemoryModel, Verdict};
use proptest::prelude::*;

/// Runs both engines and checks the differential contract; returns the
/// pair of reports for extra assertions.
fn differential<A, F>(
    make: F,
    model: MemoryModel,
    m: usize,
    adv: &Adversary,
) -> (McReport, McReport)
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let full = ModelChecker::with_automata(make(), model, m, adv)
        .unwrap()
        .max_states(4_000_000)
        .run()
        .unwrap();
    let reduced = ModelChecker::with_automata(make(), model, m, adv)
        .unwrap()
        .max_states(4_000_000)
        .symmetry(Symmetry::Wreath)
        .run()
        .unwrap();
    assert_eq!(
        std::mem::discriminant(&full.verdict),
        std::mem::discriminant(&reduced.verdict),
        "verdicts diverged: full {:?} vs reduced {:?}",
        full.verdict,
        reduced.verdict
    );
    assert!(
        reduced.canonical_states <= full.canonical_states,
        "reduction must never store more states"
    );
    if !matches!(full.verdict, Verdict::MutualExclusionViolation { .. }) {
        // Both explorations completed: the orbit accounting must
        // reproduce the concrete count exactly.
        assert_eq!(
            reduced.full_states_estimate, full.canonical_states,
            "orbit accounting diverged from the exhaustive engine"
        );
    }
    (full, reduced)
}

fn alg1_automata(n: usize, m: usize, policy: FreeSlotPolicy) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(policy))
        .collect()
}

fn alg2_automata(n: usize, m: usize) -> Vec<Alg2Automaton> {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect()
}

// ----------------------------------------------------------- toys —

#[test]
fn cas_lock_differential_n2_n3() {
    for n in [2usize, 3] {
        let (full, reduced) = differential(
            || {
                let ids = PidPool::sequential().mint_many(n);
                ids.into_iter().map(CasLock::new).collect()
            },
            MemoryModel::Rmw,
            1,
            &Adversary::Identity,
        );
        assert_eq!(full.verdict, Verdict::Ok);
        assert!(
            reduced.canonical_states < full.canonical_states,
            "n = {n}: interchangeable processes must collapse orbits"
        );
    }
}

#[test]
fn naive_flag_lock_differential_finds_the_violation() {
    let (full, reduced) = differential(
        || {
            let ids = PidPool::sequential().mint_many(2);
            ids.into_iter().map(NaiveFlagLock::new).collect()
        },
        MemoryModel::Rw,
        1,
        &Adversary::Identity,
    );
    assert!(matches!(
        full.verdict,
        Verdict::MutualExclusionViolation { .. }
    ));
    assert!(matches!(
        reduced.verdict,
        Verdict::MutualExclusionViolation { .. }
    ));
}

#[test]
fn spin_forever_differential_livelocks() {
    let (_, reduced) = differential(
        || vec![SpinForever, SpinForever, SpinForever],
        MemoryModel::Rw,
        1,
        &Adversary::Identity,
    );
    let Verdict::FairLivelock { pending, .. } = reduced.verdict else {
        panic!("expected livelock");
    };
    assert_eq!(pending, vec![0, 1, 2]);
}

#[test]
fn peterson_differential_is_exact_despite_asymmetry() {
    // Peterson's sides are not interchangeable; symmetry_class gives
    // each side its own class, so the reduction must degrade to the
    // exact exploration — same verdict, same state count.
    let (full, reduced) = differential(
        || {
            let mut pool = PidPool::sequential();
            vec![
                PetersonTwo::new(pool.mint(), 0),
                PetersonTwo::new(pool.mint(), 1),
            ]
        },
        MemoryModel::Rw,
        3,
        &Adversary::Identity,
    );
    assert_eq!(full.verdict, Verdict::Ok);
    assert_eq!(
        reduced.canonical_states, full.canonical_states,
        "asymmetric automata must not be reduced"
    );
}

// ------------------------------------------------- the algorithms —

#[test]
fn alg1_differential_identity_and_orbit_adversaries() {
    // Valid (2, 3) across all 5 adversary orbits and both extreme
    // policies; invalid (2, 2) and (3, 3) livelock equivalently.
    for policy in [FreeSlotPolicy::FirstFree, FreeSlotPolicy::LastFree] {
        for adv in adversary_orbits(2, 3) {
            let (full, _) = differential(|| alg1_automata(2, 3, policy), MemoryModel::Rw, 3, &adv);
            assert_eq!(full.verdict, Verdict::Ok, "policy {policy:?}, adv {adv:?}");
        }
    }
    for (n, m) in [(2usize, 2usize), (3, 3)] {
        let (full, _) = differential(
            || alg1_automata(n, m, FreeSlotPolicy::FirstFree),
            MemoryModel::Rw,
            m,
            &Adversary::Identity,
        );
        assert!(
            matches!(full.verdict, Verdict::FairLivelock { .. }),
            "invalid (n={n}, m={m}) must livelock, got {:?}",
            full.verdict
        );
    }
}

#[test]
fn alg1_differential_shrinks_the_symmetric_case() {
    let (full, reduced) = differential(
        || alg1_automata(2, 3, FreeSlotPolicy::FirstFree),
        MemoryModel::Rw,
        3,
        &Adversary::Identity,
    );
    assert_eq!(reduced.verdict, Verdict::Ok);
    assert!(
        reduced.canonical_states < full.canonical_states,
        "identity adversary makes both processes interchangeable: {} vs {}",
        reduced.canonical_states,
        full.canonical_states
    );
}

#[test]
fn alg2_differential_small_grid() {
    // Valid points (2,1), (2,3), (3,1); invalid points (2,2), (2,4), (3,2).
    for (n, m, expect_ok) in [
        (2usize, 1usize, true),
        (2, 3, true),
        (3, 1, true),
        (2, 2, false),
        (2, 4, false),
        (3, 2, false),
    ] {
        let (full, reduced) = differential(
            || alg2_automata(n, m),
            MemoryModel::Rmw,
            m,
            &Adversary::Identity,
        );
        if expect_ok {
            assert_eq!(full.verdict, Verdict::Ok, "(n={n}, m={m})");
            assert!(
                reduced.canonical_states < full.canonical_states,
                "(n={n}, m={m}) must reduce under the identity adversary"
            );
        } else {
            assert!(
                matches!(full.verdict, Verdict::FairLivelock { .. }),
                "(n={n}, m={m}) must livelock, got {:?}",
                full.verdict
            );
        }
    }
}

#[test]
fn alg2_differential_all_orbits_n2_m3() {
    for adv in adversary_orbits(2, 3) {
        let (full, _) = differential(|| alg2_automata(2, 3), MemoryModel::Rmw, 3, &adv);
        assert_eq!(full.verdict, Verdict::Ok, "adv {adv:?}");
    }
}

#[test]
fn orbit_equivalent_adversaries_have_isomorphic_state_graphs() {
    // The orbit quotient's justification, executed: adversaries in the
    // same orbit (same canonical form) must produce identical verdicts
    // AND identical state counts; the enumeration maps them to one rep.
    let f = amx_registers::Permutation::rotation(3, 1);
    let g = amx_registers::Permutation::from_forward(vec![2, 0, 1]).unwrap();
    let base = Adversary::explicit(vec![amx_registers::Permutation::identity(3), f.clone()]);
    let relabeled = Adversary::explicit(vec![g.clone(), g.compose(&f)]);
    let run = |adv: &Adversary| {
        ModelChecker::with_automata(alg2_automata(2, 3), MemoryModel::Rmw, 3, adv)
            .unwrap()
            .run()
            .unwrap()
    };
    let a = run(&base);
    let b = run(&relabeled);
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(
        a.canonical_states, b.canonical_states,
        "isomorphic graphs, same exploration"
    );
    assert_eq!(a.transitions, b.transitions);
}

#[test]
fn reduced_witness_schedules_replay_concretely() {
    use amx_sim::{Runner, Scheduler, Stop, Workload};
    // The broken flag lock's reduced violation schedule must replay to
    // an actual violation on the concrete (unreduced) system.
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .run()
            .unwrap();
    let Verdict::MutualExclusionViolation { schedule, .. } = report.verdict else {
        panic!("expected violation, got {:?}", report.verdict);
    };
    let rr = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
        .unwrap()
        .workload(Workload::unbounded())
        .scheduler(Scheduler::script(schedule))
        .max_steps(100)
        .run();
    assert!(matches!(rr.stop, Stop::MutualExclusionViolation { .. }));
}

#[test]
fn reduced_livelock_witness_replays_without_violation() {
    use amx_sim::{Runner, Scheduler, Stop, Workload};
    // Alg 1 on invalid m = 2 under symmetry: the livelock witness is
    // reconstructed through the canonicalization permutations; replaying
    // it concretely must be a legal execution — every scheduled process
    // runnable, no mutual-exclusion violation, and (being a path into a
    // completion-free component) no completed workload.
    let report = ModelChecker::with_automata(
        alg1_automata(2, 2, FreeSlotPolicy::FirstFree),
        MemoryModel::Rw,
        2,
        &Adversary::Identity,
    )
    .unwrap()
    .symmetry(Symmetry::Wreath)
    .run()
    .unwrap();
    let Verdict::FairLivelock {
        witness_schedule, ..
    } = report.verdict
    else {
        panic!("expected livelock, got {:?}", report.verdict);
    };
    let steps = witness_schedule.len() as u64;
    let rr = Runner::with_adversary(
        alg1_automata(2, 2, FreeSlotPolicy::FirstFree),
        MemoryModel::Rw,
        2,
        &Adversary::Identity,
    )
    .unwrap()
    .workload(Workload::unbounded())
    .scheduler(Scheduler::script(witness_schedule))
    .max_steps(steps)
    .run();
    assert!(
        matches!(rr.stop, Stop::StepBudgetExhausted | Stop::Stuck),
        "witness replay must stay violation-free, got {:?}",
        rr.stop
    );
}

/// What a fair-livelock run reports: the pending set, the component
/// size, the witness schedule and the `full-view` SCC query's witness.
type Livelock = (Vec<usize>, usize, Vec<usize>, Vec<usize>);

/// Checks `automata` with a `full-view` SCC query attached (and one
/// crash of `crash`'s mode, when given) and returns the livelock it
/// reports.
fn livelock<A>(
    automata: Vec<A>,
    model: MemoryModel,
    m: usize,
    adv: &Adversary,
    crash: Option<CrashMode>,
    symmetry: Symmetry,
) -> Livelock
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send,
{
    let perms = adv.permutations(automata.len(), m).unwrap();
    let mut mc = ModelChecker::with_automata(automata.clone(), model, m, adv)
        .unwrap()
        .symmetry(symmetry)
        .scc_query(scc_query_for(&full_view(), &automata, &perms));
    if let Some(mode) = crash {
        mc = mc.crashes(CrashBudget::total(1), mode);
    }
    let report = mc.run().unwrap();
    let Verdict::FairLivelock {
        pending,
        scc_states,
        witness_schedule,
    } = report.verdict
    else {
        panic!("expected a livelock, got {:?}", report.verdict);
    };
    let full_view = report.scc_queries[0].witness_schedule.clone();
    (
        pending,
        scc_states,
        witness_schedule,
        full_view.expect("a full view inside the component"),
    )
}

#[test]
fn smoke_livelock_witnesses_are_pinned_and_as_short_under_symmetry() {
    // The eight livelock points of `mc_sweep --smoke --crashes 1`, with
    // the pending set, component size and witness the default
    // `Symmetry::Off` reports.  Witnesses enter the component at its
    // least state id, so the full-view witness (the query holds on every
    // member) is the livelock witness.  The reduced run counts the same
    // concrete component, and its witness takes as many steps: the
    // quotient's least id is as shallow.
    let alg1 = |n, m| alg1_automata(n, m, FreeSlotPolicy::default());
    let rotations = Adversary::Rotations { stride: 1 };
    let orbits_2_4 = adversary_orbits(2, 4);
    let orbits_2_2 = adversary_orbits(2, 2);
    let run =
        |what: &str, expected: (&[usize], usize, &[usize]), go: &dyn Fn(Symmetry) -> Livelock| {
            let (pending, scc_states, witness, full_view) = go(Symmetry::Off);
            assert_eq!(
                (pending.as_slice(), scc_states, witness.as_slice()),
                expected,
                "{what}: Symmetry::Off"
            );
            assert_eq!(full_view, witness, "{what}: full-view witness");
            let (pending, scc_states, reduced, _) = go(Symmetry::Wreath);
            assert_eq!(
                (pending.as_slice(), scc_states),
                (expected.0, expected.1),
                "{what}: Symmetry::Wreath"
            );
            assert_eq!(
                reduced.len(),
                witness.len(),
                "{what}: Symmetry::Wreath witness {reduced:?} against {witness:?}"
            );
        };
    let alg1_2_4 = [0, 1, 0, 0, 0, 0, 0, 1, 1, 1];
    for (orbit, adv) in orbits_2_4.iter().take(3).enumerate() {
        run(
            &format!("alg1 (2,4) orbit {orbit}"),
            (&[0, 1], 1, &alg1_2_4),
            &|s| livelock(alg1(2, 4), MemoryModel::Rw, 4, adv, None, s),
        );
    }
    let alg2_2_2: [&[usize]; 2] = [&[0, 1, 1], &[0, 1]];
    for (orbit, adv) in orbits_2_2.iter().enumerate() {
        run(
            &format!("alg2 (2,2) orbit {orbit}"),
            (&[0, 1], 16, alg2_2_2[orbit]),
            &|s| livelock(alg2_automata(2, 2), MemoryModel::Rmw, 2, adv, None, s),
        );
    }
    run(
        "alg1 ring (3,3)",
        (&[0, 1, 2], 1, &[0, 1, 2, 0, 1, 2]),
        &|s| livelock(alg1(3, 3), MemoryModel::Rw, 3, &rotations, None, s),
    );
    run("alg2 ring (3,3)", (&[0, 1, 2], 216, &[0, 1, 2]), &|s| {
        livelock(
            alg2_automata(3, 3),
            MemoryModel::Rmw,
            3,
            &rotations,
            None,
            s,
        )
    });
    let stale = Some(CrashMode::StaleClaims);
    run(
        "alg2 (3,1) crash-stale",
        (&[1, 2], 1, &[0, 1, 1, 2, 2, 3]),
        &|s| {
            livelock(
                alg2_automata(3, 1),
                MemoryModel::Rmw,
                1,
                &Adversary::Identity,
                stale,
                s,
            )
        },
    );
}

// ------------------------------------------- randomized differential —

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random adversaries (which usually break interchangeability) and
    /// random policies: reduced and full engines always agree on
    /// Algorithm 1 at (2, 3).
    #[test]
    fn alg1_differential_random_adversaries(
        adv_seed in any::<u64>(),
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => FreeSlotPolicy::FirstFree,
            1 => FreeSlotPolicy::LastFree,
            _ => FreeSlotPolicy::RotatingFrom(1),
        };
        let (full, _) = differential(
            || alg1_automata(2, 3, policy),
            MemoryModel::Rw,
            3,
            &Adversary::Random(adv_seed),
        );
        prop_assert_eq!(full.verdict, Verdict::Ok);
    }

    /// Same for Algorithm 2, mixing valid and invalid memory sizes.
    #[test]
    fn alg2_differential_random_adversaries(
        adv_seed in any::<u64>(),
        m in 1usize..5,
    ) {
        let (full, _) = differential(
            || alg2_automata(2, m),
            MemoryModel::Rmw,
            m,
            &Adversary::Random(adv_seed),
        );
        let valid = amx_numth::is_valid_m(m as u64, 2);
        if valid {
            prop_assert_eq!(full.verdict, Verdict::Ok, "m = {}", m);
        } else {
            prop_assert!(
                matches!(full.verdict, Verdict::FairLivelock { .. }),
                "m = {} must livelock, got {:?}", m, full.verdict
            );
        }
    }
}
