//! Differential validation of the level engine across worker counts:
//! one worker (both phases on the calling thread) and 2–4
//! oversubscribed workers (work-stealing expansion) must produce the
//! same report on every automaton in this workspace.
//!
//! The contract under test: the verdict — witness schedule, `scc_states`
//! and pending set included —, every count, the monitor results and the
//! SCC-query answers (with their witnesses) are worker-count
//! independent, on completing and violating runs alike.  It also pins
//! the compressed arena's bytes per state below the raw encodings it
//! replaced.

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_props::predicate::{full_view, writer_collision};
use amx_props::property::{monitor_for, scc_query_for};
use amx_props::Observe;
use amx_registers::orbit::adversary_orbits;
use amx_registers::Adversary;
use amx_sim::mc::{CrashBudget, CrashMode, McReport, ModelChecker, Symmetry};
use amx_sim::toys::{CasLock, NaiveFlagLock, PetersonTwo, SpinForever};
use amx_sim::{EncodeState, MemoryModel, Verdict};

fn alg1_automata(n: usize, m: usize) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(FreeSlotPolicy::FirstFree))
        .collect()
}

fn alg2_automata(n: usize, m: usize) -> Vec<Alg2Automaton> {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect()
}

/// Runs the same configuration — with a `writer-collision` watch
/// monitor and a `full-view` SCC query attached — on one worker and on
/// 2, 3 and 4 oversubscribed workers, with and without symmetry
/// reduction; asserts the reports agree and returns the one-worker
/// reduced report for extra assertions.
fn engine_differential<A, F>(make: F, model: MemoryModel, m: usize, adv: &Adversary) -> McReport
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let n = make().len();
    let perms = adv.permutations(n, m).unwrap();
    let run = |symmetry: Symmetry, threads: usize| {
        let automata = make();
        ModelChecker::with_automata(automata.clone(), model, m, adv)
            .unwrap()
            .max_states(4_000_000)
            .symmetry(symmetry)
            .threads(threads)
            // The pool is normally clamped to available cores; lift the
            // clamp so the multi-worker, work-stealing level genuinely runs
            // even on a single-core test host.
            .oversubscribe(threads > 1)
            .monitor(monitor_for(&writer_collision(), &automata, &perms, false))
            .scc_query(scc_query_for(&full_view(), &automata, &perms))
            .run()
            .unwrap()
    };
    let mut reduced_one = None;
    for symmetry in [Symmetry::Off, Symmetry::Wreath] {
        let one = run(symmetry, 1);
        for threads in [2, 3, 4] {
            let many = run(symmetry, threads);
            let what = format!("symmetry {symmetry:?}, {threads} workers vs 1");
            assert_eq!(one.verdict, many.verdict, "{what}: verdict");
            assert_eq!(one.canonical_states, many.canonical_states, "{what}");
            assert_eq!(
                one.full_states_estimate, many.full_states_estimate,
                "{what}"
            );
            assert_eq!(one.transitions, many.transitions, "{what}");
            assert_eq!(one.acquisitions, many.acquisitions, "{what}");
            assert_eq!(one.peak_frontier, many.peak_frontier, "{what}");
            assert_eq!(one.max_pending_depth, many.max_pending_depth, "{what}");
            assert_eq!(one.monitors, many.monitors, "{what}: monitors");
            assert_eq!(one.scc_queries, many.scc_queries, "{what}: scc queries");
        }
        if symmetry == Symmetry::Wreath {
            reduced_one = Some(one);
        }
    }
    reduced_one.expect("reduced run recorded")
}

#[test]
fn toys_parallel_engine_differential() {
    let id = Adversary::Identity;
    let r = engine_differential(
        || {
            let ids = PidPool::sequential().mint_many(3);
            ids.into_iter().map(CasLock::new).collect()
        },
        MemoryModel::Rmw,
        1,
        &id,
    );
    assert_eq!(r.verdict, Verdict::Ok);

    let r = engine_differential(
        || {
            let ids = PidPool::sequential().mint_many(2);
            ids.into_iter().map(NaiveFlagLock::new).collect()
        },
        MemoryModel::Rw,
        1,
        &id,
    );
    assert!(matches!(
        r.verdict,
        Verdict::MutualExclusionViolation { .. }
    ));

    let r = engine_differential(
        || vec![SpinForever, SpinForever, SpinForever],
        MemoryModel::Rw,
        1,
        &id,
    );
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));

    engine_differential(
        || {
            let mut pool = PidPool::sequential();
            vec![
                PetersonTwo::new(pool.mint(), 0),
                PetersonTwo::new(pool.mint(), 1),
            ]
        },
        MemoryModel::Rw,
        3,
        &id,
    );
}

#[test]
fn algorithms_parallel_engine_differential() {
    // Valid and invalid configurations of both paper algorithms.
    let id = Adversary::Identity;
    let r = engine_differential(|| alg1_automata(2, 3), MemoryModel::Rw, 3, &id);
    assert_eq!(r.verdict, Verdict::Ok);
    let r = engine_differential(|| alg1_automata(2, 2), MemoryModel::Rw, 2, &id);
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));
    let r = engine_differential(|| alg2_automata(2, 3), MemoryModel::Rmw, 3, &id);
    assert_eq!(r.verdict, Verdict::Ok);
    let r = engine_differential(|| alg2_automata(2, 4), MemoryModel::Rmw, 4, &id);
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));
    let r = engine_differential(|| alg2_automata(3, 2), MemoryModel::Rmw, 2, &id);
    assert!(matches!(r.verdict, Verdict::FairLivelock { .. }));
}

/// `max_pending_depth` of a wreath-reduced check at `threads` workers
/// (oversubscribed above one), with a one-crash budget when `crash` is
/// set.
fn wreath_depths<A>(
    automata: Vec<A>,
    model: MemoryModel,
    m: usize,
    adv: &Adversary,
    crash: Option<CrashMode>,
    threads: usize,
) -> Vec<usize>
where
    A: amx_sim::Automaton + Sync,
    A::State: EncodeState + Send,
{
    let mut mc = ModelChecker::with_automata(automata, model, m, adv)
        .unwrap()
        .symmetry(Symmetry::Wreath)
        .threads(threads)
        .oversubscribe(threads > 1);
    if let Some(mode) = crash {
        mc = mc.crashes(CrashBudget::total(1), mode);
    }
    mc.run().unwrap().max_pending_depth
}

#[test]
fn pending_depths_equal_the_recorded_full_pass() {
    // The figures of the full pass that read every stored state back
    // after exploration, the checker's method before the depths moved
    // into the breadth-first levels (`amx-sim::mc`'s unit tests keep it
    // as their reference, on toy automata).
    let id = Adversary::Identity;
    let rot = Adversary::Rotations { stride: 1 };
    let wipe = Some(CrashMode::WipeRegisters);
    let stale = Some(CrashMode::StaleClaims);
    for threads in [1, 3] {
        let alg1 = |n, m, adv: &Adversary, crash| {
            wreath_depths(alg1_automata(n, m), MemoryModel::Rw, m, adv, crash, threads)
        };
        let alg2 = |n, m, adv: &Adversary, crash| {
            wreath_depths(
                alg2_automata(n, m),
                MemoryModel::Rmw,
                m,
                adv,
                crash,
                threads,
            )
        };
        let cases: [(&str, Vec<usize>, &[usize]); 10] = [
            ("alg1 (2,3) identity", alg1(2, 3, &id, None), &[14, 9]),
            ("alg1 (2,3) rotations", alg1(2, 3, &rot, None), &[10, 10]),
            ("alg1 (3,4) identity", alg1(3, 4, &id, None), &[27, 20, 19]),
            (
                "alg1 (3,3) rotations",
                alg1(3, 3, &rot, None),
                &[13, 12, 15],
            ),
            ("alg1 (2,3) wipe crash", alg1(2, 3, &id, wipe), &[14, 9]),
            ("alg1 (2,3) stale crash", alg1(2, 3, &id, stale), &[14, 9]),
            ("alg2 (2,3) identity", alg2(2, 3, &id, None), &[11, 10]),
            ("alg2 (2,3) rotations", alg2(2, 3, &rot, None), &[10, 11]),
            ("alg2 (2,3) wipe crash", alg2(2, 3, &id, wipe), &[11, 10]),
            ("alg2 (2,3) stale crash", alg2(2, 3, &id, stale), &[11, 10]),
        ];
        for (what, got, want) in cases {
            assert_eq!(got, want, "{what}, {threads} workers");
        }
    }
}

#[test]
fn livelock_witnesses_and_queries_are_worker_count_independent() {
    // The smoke grid's invalid-m orbit points, where worker-dependent
    // state numbering used to pick a different (longer) SCC-query
    // witness: alg1 (2, 4) orbits 0–2 and alg2 (2, 2) orbits 0–1.
    for adv in adversary_orbits(2, 4).into_iter().take(3) {
        let r = engine_differential(|| alg1_automata(2, 4), MemoryModel::Rw, 4, &adv);
        assert!(matches!(r.verdict, Verdict::FairLivelock { .. }), "{adv:?}");
        assert!(r.scc_queries[0].witness_schedule.is_some(), "{adv:?}");
    }
    for adv in adversary_orbits(2, 2) {
        let r = engine_differential(|| alg2_automata(2, 2), MemoryModel::Rmw, 2, &adv);
        assert!(matches!(r.verdict, Verdict::FairLivelock { .. }), "{adv:?}");
        assert!(r.scc_queries[0].witness_schedule.is_some(), "{adv:?}");
    }
}

#[test]
fn multi_worker_livelock_witness_replays() {
    // A livelock found by the multi-worker level must carry a
    // valid witness: replaying it concretely is a legal, violation-free
    // execution that completes no workload (it leads into a
    // completion-free component).
    use amx_sim::{Runner, Scheduler, Stop, Workload};
    let automata = alg1_automata(2, 2);
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 2, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .threads(4)
            .oversubscribe(true)
            .run()
            .unwrap();
    let Verdict::FairLivelock {
        witness_schedule,
        scc_states,
        ..
    } = report.verdict
    else {
        panic!("expected livelock, got {:?}", report.verdict);
    };
    assert!(scc_states >= 1);
    let steps = witness_schedule.len() as u64;
    let rr = Runner::with_adversary(automata, MemoryModel::Rw, 2, &Adversary::Identity)
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

#[test]
fn compressed_arena_beats_raw_encodings() {
    // The tentpole's memory claim, asserted: the compressed arena's
    // record+index bytes per canonical state must undercut the raw
    // encoding footprint (the old arena stored every state raw).
    let report = ModelChecker::with_automata(
        alg2_automata(2, 5),
        MemoryModel::Rmw,
        5,
        &Adversary::Identity,
    )
    .unwrap()
    .symmetry(Symmetry::Wreath)
    .run()
    .unwrap();
    assert_eq!(report.verdict, Verdict::Ok);
    // Raw would be ≥ (4 bytes per slot × 5 slots) + 2 processes ≥ 24
    // bytes per state before any index; require the compressed figure
    // (records + offset index) to be at least 30% under that floor's
    // realistic value, conservatively: under the raw slot bytes alone.
    let per_state = report.arena_bytes as f64 / report.canonical_states as f64;
    assert!(
        per_state < 24.0,
        "compressed arena too large: {per_state:.1} B/state"
    );
    assert!(report.seen_table_bytes > 0);
}

#[test]
fn steal_counter_is_consistent() {
    // steal_count is zero on one-worker runs; on multi-worker runs it
    // is machine-dependent (the pool is clamped to available cores),
    // so only the one-worker invariant is asserted exactly.
    let seq = ModelChecker::with_automata(
        alg2_automata(2, 3),
        MemoryModel::Rmw,
        3,
        &Adversary::Identity,
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(seq.steal_count, 0);
    assert_eq!(seq.threads, 1);
}
