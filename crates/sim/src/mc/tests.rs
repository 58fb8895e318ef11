use super::group::{
    build_group, canonicalize, decode_node, encode_node_with, Canon, Ranking, SymElem,
};
use super::level::Shard;
use super::*;
use crate::automaton::{closed_loop_step, Outcome};
use crate::encode;
use crate::intern::{PageCache, SpillError};
use crate::mem::MemoryModel;
use crate::toys::{CasLock, NaiveFlagLock, SpinForever};
use amx_ids::codec::{PidMap, RegMap};
use amx_ids::PidPool;
use amx_registers::Adversary;
use std::io;

/// Candidate components the fair-livelock pass met on this test
/// thread, by how it decided them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct LivelockBranches {
    /// Rejected on the quotient: some pending position never steps.
    rejected: usize,
    /// Passed on the quotient, on to the orbit confirmation.
    passed: usize,
    /// An internal edge relabels: the class-level fallback.
    relabeling: usize,
}

thread_local! {
    static LIVELOCK_BRANCHES: std::cell::Cell<LivelockBranches> =
        std::cell::Cell::new(LivelockBranches::default());
}

/// Records one candidate's branch, asserting that a decision taken
/// on the quotient is what the orbit confirmation finds.
pub(super) fn audit_livelock_decision(
    relabels: bool,
    passes: bool,
    confirmed: Option<(Verdict, Vec<SccQueryResult>)>,
) {
    LIVELOCK_BRANCHES.with(|b| {
        let mut counts = b.get();
        if relabels {
            counts.relabeling += 1;
        } else {
            assert_eq!(
                passes,
                confirmed.is_some(),
                "the quotient decision disagrees with the orbit confirmation"
            );
            if passes {
                counts.passed += 1;
            } else {
                counts.rejected += 1;
            }
        }
        b.set(counts);
    });
}

/// The branches the fair-livelock pass of one run takes.
fn livelock_branches(run: impl FnOnce() -> McReport) -> (McReport, LivelockBranches) {
    LIVELOCK_BRANCHES.with(|b| b.set(LivelockBranches::default()));
    let report = run();
    (report, LIVELOCK_BRANCHES.with(std::cell::Cell::get))
}

/// The pass [`Frontier`]'s pending depths replace: after
/// exploration, one decode per stored state in id (discovery)
/// order — a parent is numbered before its children — applying the
/// tree edge's recurrence to the decoded canonical state's phases,
/// with O(states · n) memory.
fn max_pending_depth_full_pass<S: EncodeState>(
    shard: &Shard,
    group: &[SymElem],
    m: usize,
    n: usize,
) -> Result<Vec<usize>, SpillError> {
    let n_states = shard.arena.len();
    let mut depth = vec![0u16; n_states * n];
    let mut maxima = vec![0u16; n];
    let mut slots: Vec<Slot> = Vec::new();
    let mut procs: Vec<(Phase, S)> = Vec::new();
    let mut crashes: Vec<u8> = Vec::new();
    let mut node: Vec<u8> = Vec::new();
    let mut cache = PageCache::new();
    // Id 0 is the root, whose depths are all zero.
    for c in 1..n_states {
        let meta = shard.meta[c];
        let v = meta.parent as usize;
        assert!(v < c, "discovery order numbers parents first");
        shard
            .arena
            .get_into_cached(c as u32, &mut cache, &mut node)?;
        decode_node::<S>(&node, m, n, &mut slots, &mut procs, &mut crashes);
        let pi_inv = &group[meta.sigma as usize].pi_inv;
        for j in 0..n {
            let pj = pi_inv[j];
            depth[c * n + j] = if procs[j].0 == Phase::Trying {
                let d = depth[v * n + pj].saturating_add(u16::from(pj == meta.actor as usize));
                maxima[j] = maxima[j].max(d);
                d
            } else {
                0
            };
        }
    }
    Ok(maxima.into_iter().map(usize::from).collect())
}

thread_local! {
    /// Completed runs on this test thread whose pending depths
    /// [`audit_pending_depths`] checked.
    static DEPTH_AUDITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Asserts that a completed run's pending-depth maxima, computed
/// during BFS, equal the full pass's over its stored states.
pub(super) fn audit_pending_depths<S: EncodeState>(
    shard: &Shard,
    group: &[SymElem],
    m: usize,
    maxima: &[usize],
) {
    let reference = max_pending_depth_full_pass::<S>(shard, group, m, maxima.len())
        .expect("the full pass reads every stored state");
    assert_eq!(
        maxima, reference,
        "pending depths disagree with the full pass"
    );
    DEPTH_AUDITS.with(|a| a.set(a.get() + 1));
}

/// Runs `run` and returns its report with the number of completed
/// runs whose pending depths it audited.
fn depth_audits<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = DEPTH_AUDITS.with(std::cell::Cell::get);
    let out = run();
    (out, DEPTH_AUDITS.with(std::cell::Cell::get) - before)
}

fn check<A: Automaton + Sync>(automata: Vec<A>, model: MemoryModel, m: usize) -> McReport
where
    A::State: EncodeState + Send,
{
    ModelChecker::with_automata(automata, model, m, &Adversary::Identity)
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn cas_lock_is_correct_for_two_processes() {
    let ids = PidPool::sequential().mint_many(2);
    let report = check(
        ids.into_iter().map(CasLock::new).collect(),
        MemoryModel::Rmw,
        1,
    );
    assert_eq!(report.verdict, Verdict::Ok);
    assert!(report.canonical_states > 1);
    assert!(report.acquisitions > 0);
    assert_eq!(report.canonical_states, report.full_states_estimate);
    assert!(report.peak_frontier >= 1);
    assert!(report.arena_bytes > 0);
    assert_eq!(report.threads, 1);
    assert_eq!(report.symmetry, Symmetry::Off);
}

#[test]
fn cas_lock_is_correct_for_three_processes() {
    let ids = PidPool::sequential().mint_many(3);
    let report = check(
        ids.into_iter().map(CasLock::new).collect(),
        MemoryModel::Rmw,
        1,
    );
    assert_eq!(report.verdict, Verdict::Ok);
}

#[test]
fn naive_flag_lock_violates_mutual_exclusion() {
    let ids = PidPool::sequential().mint_many(2);
    let report = check(
        ids.into_iter().map(NaiveFlagLock::new).collect(),
        MemoryModel::Rw,
        1,
    );
    match report.verdict {
        Verdict::MutualExclusionViolation { schedule, procs } => {
            assert!(!schedule.is_empty());
            assert_ne!(procs.0, procs.1);
            // Shortest counterexample: both check, then both claim.
            assert!(schedule.len() <= 6, "schedule {schedule:?} not minimal-ish");
        }
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn violation_schedule_replays_to_a_violation() {
    use crate::runner::{Runner, Stop, Workload};
    use crate::schedule::Scheduler;
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let report = check(automata.clone(), MemoryModel::Rw, 1);
    let Verdict::MutualExclusionViolation { schedule, .. } = report.verdict else {
        panic!("expected violation");
    };
    let runner = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
        .unwrap()
        .workload(Workload::unbounded())
        .scheduler(Scheduler::script(schedule))
        .max_steps(100);
    let rr = runner.run();
    assert!(matches!(rr.stop, Stop::MutualExclusionViolation { .. }));
}

#[test]
fn reduced_violation_schedule_also_replays() {
    use crate::runner::{Runner, Stop, Workload};
    use crate::schedule::Scheduler;
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .run()
            .unwrap();
    let Verdict::MutualExclusionViolation { schedule, .. } = report.verdict else {
        panic!("expected violation");
    };
    let runner = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
        .unwrap()
        .workload(Workload::unbounded())
        .scheduler(Scheduler::script(schedule))
        .max_steps(100);
    let rr = runner.run();
    assert!(
        matches!(rr.stop, Stop::MutualExclusionViolation { .. }),
        "reduced-engine schedule must replay concretely, got {:?}",
        rr.stop
    );
}

#[test]
fn spin_forever_is_a_fair_livelock() {
    let report = check(vec![SpinForever, SpinForever], MemoryModel::Rw, 1);
    match report.verdict {
        Verdict::FairLivelock {
            pending,
            scc_states,
            witness_schedule: _,
        } => {
            assert_eq!(pending, vec![0, 1]);
            assert!(scc_states >= 1);
        }
        other => panic!("expected livelock, got {other:?}"),
    }
}

#[test]
fn single_spinner_is_still_a_livelock() {
    // Even one process spinning forever violates deadlock-freedom.
    let report = check(vec![SpinForever], MemoryModel::Rw, 1);
    assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
}

#[test]
fn state_space_bound_is_enforced() {
    let ids = PidPool::sequential().mint_many(3);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    let err = ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
        .unwrap()
        .max_states(2)
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        McError::StateSpaceExceeded(StateSpaceExceeded { limit: 2 })
    ));
    assert!(!err.to_string().is_empty());
}

#[test]
fn symmetry_reduction_shrinks_cas_lock_space_and_agrees() {
    let make = || {
        let ids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity).unwrap()
    };
    let full = make().run().unwrap();
    let reduced = make().symmetry(Symmetry::Wreath).run().unwrap();
    assert_eq!(reduced.verdict, Verdict::Ok);
    assert_eq!(full.verdict, Verdict::Ok);
    assert!(
        reduced.canonical_states < full.canonical_states,
        "3 interchangeable processes must collapse orbits: {} vs {}",
        reduced.canonical_states,
        full.canonical_states
    );
    assert_eq!(
        reduced.full_states_estimate, full.canonical_states,
        "orbit accounting must reproduce the concrete count"
    );
}

#[test]
fn parallel_run_matches_sequential_verdict_and_counts() {
    let make = || {
        let ids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity).unwrap()
    };
    let seq = make().threads(1).run().unwrap();
    let par = make().threads(4).oversubscribe(true).run().unwrap();
    assert_eq!(seq.verdict, par.verdict);
    assert_eq!(seq.canonical_states, par.canonical_states);
    assert_eq!(seq.full_states_estimate, par.full_states_estimate);
    assert_eq!(seq.transitions, par.transitions);
    assert_eq!(seq.acquisitions, par.acquisitions);
    assert_eq!(seq.max_pending_depth, par.max_pending_depth);
    assert_eq!(seq.peak_frontier, par.peak_frontier);
    assert_eq!(seq.arena_bytes, par.arena_bytes);
    assert_eq!(seq.seen_table_bytes, par.seen_table_bytes);
    assert_eq!(par.threads, 4);
}

#[test]
fn both_admission_paths_report_the_same_run() {
    // One worker interns each successor where it is generated; three
    // probe the frozen seen set and drain.  With crash edges, a spilling
    // arena and a watch monitor, the runs must still agree on every
    // count and on the monitor's hits and witness.
    let make = |threads: usize| {
        cas_locks(6, 1, &Adversary::Identity, Symmetry::Off)
            .crashes(CrashBudget::total(1), CrashMode::WipeRegisters)
            .resident_budget(2 * 1024)
            .monitor(Monitor::watch("one-trying-rest-idle", |_, procs| {
                procs
                    .iter()
                    .filter(|(phase, _)| *phase == Phase::Trying)
                    .count()
                    == 1
                    && procs.iter().all(|(phase, _)| *phase != Phase::Cs)
            }))
            .threads(threads)
            .oversubscribe(true)
            .run()
            .unwrap()
    };
    let (one, three) = (make(1), make(3));
    assert_eq!(one.verdict, three.verdict);
    assert_eq!(one.canonical_states, three.canonical_states);
    assert_eq!(one.full_states_estimate, three.full_states_estimate);
    assert_eq!(one.transitions, three.transitions);
    assert_eq!(one.acquisitions, three.acquisitions);
    assert_eq!(one.max_pending_depth, three.max_pending_depth);
    assert_eq!(one.peak_frontier, three.peak_frontier);
    assert_eq!(one.arena_bytes, three.arena_bytes);
    assert_eq!(one.seen_table_bytes, three.seen_table_bytes);
    assert!(one.arena_spilled_bytes > 0, "the budget makes pages spill");
    assert_eq!(one.monitors.len(), 1);
    assert_eq!(one.monitors[0].hit_states, three.monitors[0].hit_states);
    assert_eq!(
        one.monitors[0].witness_schedule,
        three.monitors[0].witness_schedule
    );
    assert!(one.monitors[0].hit_states > 0);
}

#[test]
fn both_admission_paths_stop_at_the_state_bound() {
    for threads in [1, 3] {
        let err = cas_locks(4, 1, &Adversary::Identity, Symmetry::Off)
            .crashes(CrashBudget::total(1), CrashMode::WipeRegisters)
            .max_states(100)
            .threads(threads)
            .oversubscribe(true)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                McError::StateSpaceExceeded(StateSpaceExceeded { limit: 100 })
            ),
            "{threads} workers: {err:?}"
        );
    }
}

#[test]
fn parallel_violation_is_shortest_and_replays() {
    use crate::runner::{Runner, Stop, Workload};
    use crate::schedule::Scheduler;
    // The reported schedule is the same at every worker count, and
    // it must replay to a real violation.
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let seq =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .run()
            .unwrap();
    let par =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .threads(3)
            .oversubscribe(true)
            .run()
            .unwrap();
    let Verdict::MutualExclusionViolation {
        schedule: s_seq, ..
    } = seq.verdict
    else {
        panic!("expected violation, got {:?}", seq.verdict);
    };
    let Verdict::MutualExclusionViolation {
        schedule: s_par, ..
    } = par.verdict
    else {
        panic!("expected violation, got {:?}", par.verdict);
    };
    assert_eq!(
        s_seq, s_par,
        "the witness must not depend on the worker count"
    );
    let rr = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
        .unwrap()
        .workload(Workload::unbounded())
        .scheduler(Scheduler::script(s_par))
        .max_steps(100)
        .run();
    assert!(matches!(rr.stop, Stop::MutualExclusionViolation { .. }));
}

#[test]
fn reduced_livelock_witness_replays_to_the_pending_state() {
    // The quotient witness is mapped back through the accumulated
    // canonicalization permutation (and, for the orbit-expansion
    // confirmation, through h = g ∘ τ); replaying it concretely must
    // land in a state whose pending set matches the report exactly.
    let automata = vec![SpinForever, SpinForever, SpinForever];
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .run()
            .unwrap();
    let Verdict::FairLivelock {
        pending,
        witness_schedule,
        ..
    } = report.verdict
    else {
        panic!("expected livelock, got {:?}", report.verdict);
    };
    let mut mem = SimMemory::new(MemoryModel::Rw, 1, &Adversary::Identity, 3).unwrap();
    let mut procs: Vec<(Phase, crate::toys::SpinState)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in &witness_schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    let reached: Vec<usize> = (0..3)
        .filter(|&i| matches!(procs[i].0, Phase::Trying | Phase::Exiting))
        .collect();
    assert_eq!(
        reached, pending,
        "witness must reach a state with the reported pending set"
    );
}

#[test]
fn spinners_livelock_under_symmetry_too() {
    let run = |symmetry: Symmetry| {
        ModelChecker::with_automata(
            vec![SpinForever, SpinForever],
            MemoryModel::Rw,
            1,
            &Adversary::Identity,
        )
        .unwrap()
        .symmetry(symmetry)
        .run()
        .unwrap()
    };
    let (full, reduced) = (run(Symmetry::Off), run(Symmetry::Wreath));
    match reduced.verdict {
        Verdict::FairLivelock { pending, .. } => assert_eq!(pending, vec![0, 1]),
        other => panic!("expected livelock, got {other:?}"),
    }
    assert!(matches!(full.verdict, Verdict::FairLivelock { .. }));
    assert_eq!(reduced.full_states_estimate, full.canonical_states);
}

#[test]
fn group_is_trivial_for_asymmetric_adversaries() {
    // Permutations (id, 3-cycle) on three registers: no register
    // relabeling ρ maps one onto the other and back, so nothing is
    // interchangeable and the reduction must degrade to the exact
    // exploration.
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    let adv = Adversary::explicit(vec![
        amx_registers::Permutation::identity(3),
        amx_registers::Permutation::rotation(3, 1),
    ]);
    let mem = SimMemory::new(MemoryModel::Rmw, 3, &adv, 2).unwrap();
    let (group, class_of) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
    assert_eq!(group.len(), 1);
    assert_eq!(class_of, vec![0, 1]);
}

#[test]
fn group_covers_the_symmetric_case() {
    let ids = PidPool::sequential().mint_many(3);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    let mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, 3).unwrap();
    let (group, class_of) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
    assert_eq!(group.len(), 6, "S_3 on three interchangeable processes");
    assert_eq!(class_of, vec![0, 0, 0]);
    // Element 0 is the identity.
    assert!(group[0].pi.iter().enumerate().all(|(i, &v)| i == v));
    assert!(group[0].map.is_identity());
}

#[test]
fn wreath_group_equals_process_group_on_shared_permutations() {
    // Identity adversary: every ρ is forced to id, so the wreath
    // group degenerates to exactly the process-symmetry group — every
    // permutation of the three interchangeable processes, once.
    let ids = PidPool::sequential().mint_many(3);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    let mem = SimMemory::new(MemoryModel::Rmw, 2, &Adversary::Identity, 3).unwrap();
    let (wreath, class_w) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
    assert_eq!(class_w, vec![0, 0, 0]);
    assert!(wreath.iter().all(|e| e.rho_inv.is_empty()));
    let pis: std::collections::HashSet<Vec<usize>> = wreath.iter().map(|e| e.pi.clone()).collect();
    let s3: std::collections::HashSet<Vec<usize>> = amx_registers::all_permutations(3)
        .iter()
        .map(|p| p.as_slice().to_vec())
        .collect();
    assert_eq!(wreath.len(), 6);
    assert_eq!(pis, s3);
}

#[test]
fn wreath_group_bites_on_rotation_adversaries() {
    // Rotations with distinct permutations: process-only reduction
    // sees nothing to permute, the joint group is the cyclic Z_3
    // "shift processes ∘ rotate registers".
    let automata = vec![SpinForever, SpinForever, SpinForever];
    let mem = SimMemory::new(MemoryModel::Rw, 3, &Adversary::Rotations { stride: 1 }, 3).unwrap();
    let (wreath, class_of) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
    assert_eq!(wreath.len(), 3, "Z_3");
    assert_eq!(class_of, vec![0, 0, 0], "one π-orbit");
    assert!(wreath[0].pi.iter().enumerate().all(|(i, &v)| i == v));
    assert!(wreath[0].rho_inv.is_empty());
    assert!(wreath[1..].iter().all(|e| !e.rho_inv.is_empty()));
}

#[test]
fn wreath_reduction_on_rotations_agrees_with_full_and_shrinks() {
    // The smallest genuinely wreath-only configuration: spinners on
    // a rotated memory.  The exact exploration must agree on the
    // verdict and on the orbit accounting.
    let run = |symmetry: Symmetry| {
        ModelChecker::with_automata(
            vec![SpinForever, SpinForever, SpinForever],
            MemoryModel::Rw,
            3,
            &Adversary::Rotations { stride: 1 },
        )
        .unwrap()
        .symmetry(symmetry)
        .run()
        .unwrap()
    };
    let (full, report) = (run(Symmetry::Off), run(Symmetry::Wreath));
    assert!(matches!(full.verdict, Verdict::FairLivelock { .. }));
    assert_eq!(report.full_states_estimate, full.canonical_states);
    match report.verdict {
        Verdict::FairLivelock { ref pending, .. } => assert_eq!(pending, &vec![0, 1, 2]),
        ref other => panic!("expected livelock, got {other:?}"),
    }
    assert!(
        report.canonical_states < report.full_states_estimate,
        "the joint group must collapse rotation orbits: {} vs {}",
        report.canonical_states,
        report.full_states_estimate
    );
}

#[test]
fn wreath_livelock_witness_replays_to_the_pending_state() {
    let automata = vec![SpinForever, SpinForever, SpinForever];
    let adv = Adversary::Rotations { stride: 1 };
    let report = ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 3, &adv)
        .unwrap()
        .symmetry(Symmetry::Wreath)
        .run()
        .unwrap();
    let Verdict::FairLivelock {
        pending,
        witness_schedule,
        ..
    } = report.verdict
    else {
        panic!("expected livelock, got {:?}", report.verdict);
    };
    let mut mem = SimMemory::new(MemoryModel::Rw, 3, &adv, 3).unwrap();
    let mut procs: Vec<(Phase, crate::toys::SpinState)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in &witness_schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    let reached: Vec<usize> = (0..3)
        .filter(|&i| matches!(procs[i].0, Phase::Trying | Phase::Exiting))
        .collect();
    assert_eq!(reached, pending);
}

/// A [`CasLock`] whose `unlock()` takes two steps, a read and then the
/// clearing write.  Between them the holder is pending and the others
/// spin in place, so the fair-livelock pass meets components that a
/// pending process can only leave: candidates that are no livelock.
#[derive(Debug, Clone)]
struct TwoStepUnlock(amx_ids::Pid);

/// [`TwoStepUnlock`]'s program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TwoStep {
    Idle,
    TryCas,
    Read,
    Clear,
}

impl Automaton for TwoStepUnlock {
    type State = TwoStep;

    fn init_state(&self) -> TwoStep {
        TwoStep::Idle
    }

    fn start_lock(&self, state: &mut TwoStep) {
        *state = TwoStep::TryCas;
    }

    fn start_unlock(&self, state: &mut TwoStep) {
        *state = TwoStep::Read;
    }

    fn step<M: crate::mem::MemoryOps + ?Sized>(&self, state: &mut TwoStep, mem: &mut M) -> Outcome {
        match *state {
            TwoStep::TryCas => {
                if !mem.compare_and_swap(0, Slot::BOTTOM, Slot::from(self.0)) {
                    return Outcome::Progress;
                }
                *state = TwoStep::Idle;
                Outcome::Acquired
            }
            TwoStep::Read => {
                let _ = mem.read(0);
                *state = TwoStep::Clear;
                Outcome::Progress
            }
            TwoStep::Clear => {
                mem.write(0, Slot::BOTTOM);
                *state = TwoStep::Idle;
                Outcome::Released
            }
            TwoStep::Idle => panic!("step without pending invocation"),
        }
    }

    fn pid(&self) -> Option<amx_ids::Pid> {
        Some(self.0)
    }

    fn symmetry_class(&self) -> Option<u64> {
        Some(0)
    }
}

impl EncodeState for TwoStep {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let states = [
            TwoStep::Idle,
            TwoStep::TryCas,
            TwoStep::Read,
            TwoStep::Clear,
        ];
        states.get(usize::from(encode::take_u8(bytes)?)).copied()
    }
}

/// A lock that never acquires: `lock()` writes the caller's identity
/// into its local registers 0 and 1 in turn, forever.  Overwriting
/// another process's identity moves a state to another member of its
/// orbit, so quotient edges relabel positions.
#[derive(Debug, Clone)]
struct Scribbler(amx_ids::Pid);

/// [`Scribbler`]'s state: `None` idle, else the next local register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Cursor(Option<u8>);

impl Automaton for Scribbler {
    type State = Cursor;

    fn init_state(&self) -> Cursor {
        Cursor(None)
    }

    fn start_lock(&self, state: &mut Cursor) {
        *state = Cursor(Some(0));
    }

    fn start_unlock(&self, _state: &mut Cursor) {
        unreachable!("Scribbler never acquires")
    }

    fn step<M: crate::mem::MemoryOps + ?Sized>(&self, state: &mut Cursor, mem: &mut M) -> Outcome {
        let at = state.0.expect("step without pending invocation");
        mem.write(usize::from(at), Slot::from(self.0));
        *state = Cursor(Some(1 - at));
        Outcome::Progress
    }

    fn pid(&self) -> Option<amx_ids::Pid> {
        Some(self.0)
    }

    fn symmetry_class(&self) -> Option<u64> {
        Some(0)
    }
}

impl EncodeState for Cursor {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        out.push(self.0.map_or(0, |at| at + 1));
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        match encode::take_u8(bytes)? {
            0 => Some(Cursor(None)),
            b @ 1..=2 => Some(Cursor(Some(b - 1))),
            _ => None,
        }
    }
}

#[test]
fn quotient_livelock_decisions_agree_with_the_orbit_confirmation() {
    // Test builds audit every candidate component against
    // `confirm_livelock_on_orbit` (see `audit_livelock_decision`);
    // these three configurations take each branch.
    fn run<A: Automaton + Sync>(
        automata: Vec<A>,
        model: MemoryModel,
        m: usize,
        adv: &Adversary,
        symmetry: Symmetry,
    ) -> McReport
    where
        A::State: EncodeState + Send,
    {
        ModelChecker::with_automata(automata, model, m, adv)
            .unwrap()
            .symmetry(symmetry)
            .run()
            .unwrap()
    }
    let pending = |report: &McReport| match &report.verdict {
        Verdict::FairLivelock { pending, .. } => Some(pending.clone()),
        _ => None,
    };
    for n in 2..=4 {
        let pids = PidPool::sequential().mint_many(n);
        let id = &Adversary::Identity;
        // Ok, with spin-while-exiting candidates: rejected on the
        // quotient, one per number of spinners.
        let two_step: Vec<TwoStepUnlock> = pids.iter().copied().map(TwoStepUnlock).collect();
        let (report, branches) =
            livelock_branches(|| run(two_step.clone(), MemoryModel::Rmw, 1, id, Symmetry::Wreath));
        assert_eq!(report.verdict, Verdict::Ok);
        let expected = LivelockBranches {
            rejected: n - 1,
            ..LivelockBranches::default()
        };
        assert_eq!(branches, expected, "n = {n}");
        assert_eq!(
            run(two_step, MemoryModel::Rmw, 1, id, Symmetry::Off).verdict,
            Verdict::Ok
        );

        // A livelock whose edges keep every position: passed on.
        let (report, branches) = livelock_branches(|| {
            run(
                vec![SpinForever; n],
                MemoryModel::Rw,
                1,
                id,
                Symmetry::Wreath,
            )
        });
        assert_eq!(pending(&report), Some((0..n).collect()));
        let expected = LivelockBranches {
            passed: 1,
            ..LivelockBranches::default()
        };
        assert_eq!(branches, expected, "n = {n}");

        // Rotations, overwritten identities: edges relabel, so the
        // class-level check and the confirmation decide.
        let rot = &Adversary::Rotations { stride: 1 };
        let scribblers: Vec<Scribbler> = pids.iter().copied().map(Scribbler).collect();
        let (report, branches) = livelock_branches(|| {
            run(
                scribblers.clone(),
                MemoryModel::Rw,
                n,
                rot,
                Symmetry::Wreath,
            )
        });
        assert_eq!(pending(&report), Some((0..n).collect()));
        assert_eq!(
            pending(&run(scribblers, MemoryModel::Rw, n, rot, Symmetry::Off)),
            pending(&report)
        );
        let expected = LivelockBranches {
            relabeling: 1,
            ..LivelockBranches::default()
        };
        assert_eq!(branches, expected, "n = {n}");
    }
}

/// Both processes of a [`NaiveFlagLock`] pair sit in the post-check
/// `Claim` state — the check-then-act hazard window, reached two
/// levels before the mutual-exclusion violation itself.
fn both_past_check(_slots: &[Slot], procs: &[(Phase, crate::toys::NaiveFlagState)]) -> bool {
    procs
        .iter()
        .filter(|(_, s)| *s == crate::toys::NaiveFlagState::Claim)
        .count()
        >= 2
}

#[test]
fn fatal_monitor_aborts_with_a_replayable_schedule() {
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .monitor(Monitor::fatal("both-past-check", both_past_check))
            .run()
            .unwrap();
    let Verdict::PropertyViolation { property, schedule } = report.verdict else {
        panic!("expected property violation, got {:?}", report.verdict);
    };
    assert_eq!(property, "both-past-check");
    // The hazard window opens two steps before the violation: the
    // monitor must fire at the shorter depth.
    assert_eq!(schedule.len(), 2);
    // The fatal monitor's own result row agrees with the verdict.
    assert!(report.monitors[0].hit_somewhere());
    assert_eq!(
        report.monitors[0].witness_schedule.as_deref(),
        Some(&schedule[..])
    );
    // Replay: the reached state must satisfy the watched predicate.
    let mut mem = SimMemory::new(MemoryModel::Rw, 1, &Adversary::Identity, 2).unwrap();
    let mut procs: Vec<(Phase, crate::toys::NaiveFlagState)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in &schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    assert!(both_past_check(mem.slots(), &procs), "witness must replay");
}

#[test]
fn watch_monitor_counts_hits_without_changing_the_verdict() {
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let report = ModelChecker::with_automata(automata, MemoryModel::Rw, 1, &Adversary::Identity)
        .unwrap()
        .monitor(Monitor::watch("both-past-check", both_past_check))
        .run()
        .unwrap();
    assert!(
        matches!(report.verdict, Verdict::MutualExclusionViolation { .. }),
        "non-fatal monitors must not mask the violation, got {:?}",
        report.verdict
    );
    assert_eq!(report.monitors.len(), 1);
    assert!(report.monitors[0].hit_somewhere());
    assert_eq!(
        report.monitors[0].witness_schedule.as_ref().unwrap().len(),
        2
    );
}

#[test]
fn watch_monitor_that_never_hits_reports_zero() {
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    let report = ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
        .unwrap()
        .monitor(Monitor::watch("two-in-cs", |_s, procs: &[(Phase, _)]| {
            procs.iter().filter(|(p, _)| *p == Phase::Cs).count() >= 2
        }))
        .run()
        .unwrap();
    assert_eq!(report.verdict, Verdict::Ok);
    assert_eq!(report.monitors[0].hit_states, 0);
    assert!(report.monitors[0].witness_schedule.is_none());
}

#[test]
fn monitor_sees_the_initial_state() {
    let report = ModelChecker::with_automata(
        vec![SpinForever, SpinForever],
        MemoryModel::Rw,
        1,
        &Adversary::Identity,
    )
    .unwrap()
    .monitor(Monitor::fatal("memory-empty", |slots: &[Slot], _p| {
        slots.iter().all(|s| s.is_bottom())
    }))
    .run()
    .unwrap();
    let Verdict::PropertyViolation { schedule, .. } = report.verdict else {
        panic!("expected property violation, got {:?}", report.verdict);
    };
    assert!(schedule.is_empty(), "the initial state itself hits");
}

#[test]
fn scc_queries_answer_over_the_livelock_component() {
    let report = ModelChecker::with_automata(
        vec![SpinForever, SpinForever],
        MemoryModel::Rw,
        1,
        &Adversary::Identity,
    )
    .unwrap()
    .scc_query(SccQuery::invariant(
        "all-pending",
        |_s, procs: &[(Phase, _)]| procs.iter().all(|(p, _)| *p == Phase::Trying),
    ))
    .scc_query(SccQuery::invariant(
        "someone-in-cs",
        |_s, procs: &[(Phase, _)]| procs.iter().any(|(p, _)| *p == Phase::Cs),
    ))
    .run()
    .unwrap();
    assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
    assert_eq!(report.scc_queries.len(), 2);
    let all_pending = &report.scc_queries[0];
    assert!(all_pending.holds_somewhere && all_pending.holds_everywhere);
    assert!(all_pending.witness_schedule.is_some());
    assert!(all_pending.witness_state.is_some());
    let in_cs = &report.scc_queries[1];
    assert!(!in_cs.holds_somewhere && !in_cs.holds_everywhere);
    assert!(in_cs.witness_schedule.is_none());
    assert_eq!(all_pending.states_examined, in_cs.states_examined);
    assert!(all_pending.states_examined >= 1);
}

#[test]
fn scc_query_witness_replays_under_symmetry() {
    // Wreath-reduced rotation livelock: the query witness schedule
    // must reach a concrete state satisfying the (invariant)
    // predicate, exactly like the livelock witness itself.
    let automata = vec![SpinForever, SpinForever, SpinForever];
    let adv = Adversary::Rotations { stride: 1 };
    let report = ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 3, &adv)
        .unwrap()
        .symmetry(Symmetry::Wreath)
        .scc_query(SccQuery::invariant(
            "all-pending",
            |_s, procs: &[(Phase, _)]| procs.iter().all(|(p, _)| *p == Phase::Trying),
        ))
        .run()
        .unwrap();
    assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
    let q = &report.scc_queries[0];
    assert!(q.holds_somewhere && q.holds_everywhere);
    let schedule = q.witness_schedule.as_ref().unwrap();
    let mut mem = SimMemory::new(MemoryModel::Rw, 3, &adv, 3).unwrap();
    let mut procs: Vec<(Phase, crate::toys::SpinState)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    assert!(procs.iter().all(|(p, _)| *p == Phase::Trying));
}

#[test]
fn max_pending_depth_is_reported_and_sane() {
    // CasLock n=2: a process can spin in Trying while the other
    // cycles through its CS, so some wait depth must be observed.
    let ids = PidPool::sequential().mint_many(2);
    let report = check(
        ids.into_iter().map(CasLock::new).collect(),
        MemoryModel::Rmw,
        1,
    );
    assert_eq!(report.max_pending_depth.len(), 2);
    assert!(report.max_pending_depth.iter().all(|&d| d >= 1));
    // Symmetric processes: the per-position maxima coincide.
    assert_eq!(report.max_pending_depth[0], report.max_pending_depth[1]);
}

/// The CAS toy lock of `n` processes over `m` registers.
fn cas_locks(
    n: usize,
    m: usize,
    adversary: &Adversary,
    symmetry: Symmetry,
) -> ModelChecker<CasLock> {
    let ids = PidPool::sequential().mint_many(n);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    ModelChecker::with_automata(automata, MemoryModel::Rmw, m, adversary)
        .unwrap()
        .symmetry(symmetry)
}

/// Runs `make`'s checker at one worker and at three and asserts that
/// each run's pending depths were audited and agree, and that some
/// process waits.
fn assert_depths_audited<A: Automaton + Sync>(what: &str, make: impl Fn() -> ModelChecker<A>)
where
    A::State: EncodeState + Send,
{
    let (one, audits) = depth_audits(|| make().run().unwrap());
    assert_eq!(audits, 1, "{what}: one audited run");
    assert!(
        one.max_pending_depth.iter().any(|&d| d >= 1),
        "{what}: some process waits: {:?}",
        one.max_pending_depth
    );
    let (three, audits) = depth_audits(|| make().threads(3).oversubscribe(true).run().unwrap());
    assert_eq!(audits, 1, "{what}: one audited run at three workers");
    assert_eq!(
        one.max_pending_depth, three.max_pending_depth,
        "{what}: worker count"
    );
}

#[test]
fn pending_depths_match_the_full_pass() {
    // Every completed run of a test build checks its BFS-computed
    // maxima against the full pass (`audit_pending_depths`).  These
    // configurations reach it through each kind of tree edge:
    // identity and relabeling canonicalizations (S_3 without ρ, Z_3
    // rotating the registers) and crash edges of both modes.
    assert_depths_audited("cas n=2 off", || {
        cas_locks(2, 1, &Adversary::Identity, Symmetry::Off)
    });
    assert_depths_audited("cas n=3 wreath", || {
        cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
    });
    for mode in [CrashMode::WipeRegisters, CrashMode::StaleClaims] {
        assert_depths_audited(&format!("cas n=3 wreath {mode:?}"), || {
            cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
                .crashes(CrashBudget::total(1), mode)
        });
    }
    // Rotations: the CAS lock breaks mutual exclusion there (and a
    // violation reports no depths), so scribblers stand in.
    assert_depths_audited("scribblers n=3 m=3 rotations wreath", || {
        let pids = PidPool::sequential().mint_many(3);
        let scribblers: Vec<Scribbler> = pids.into_iter().map(Scribbler).collect();
        let rotations = Adversary::Rotations { stride: 1 };
        ModelChecker::with_automata(scribblers, MemoryModel::Rw, 3, &rotations)
            .unwrap()
            .symmetry(Symmetry::Wreath)
    });
}

/// A fresh, empty directory for one test's checkpoints.
fn checkpoint_test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amx-mc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resumed_run_continues_the_pending_depths() {
    let make = || {
        cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
            .crashes(CrashBudget::total(1), CrashMode::WipeRegisters)
    };
    let whole = make().run().unwrap();
    for (halt_threads, resume_threads) in [(1, 1), (1, 3), (3, 1)] {
        let dir = checkpoint_test_dir(&format!("depths-{halt_threads}-{resume_threads}"));
        let configure = |mc: ModelChecker<CasLock>, threads: usize| {
            mc.threads(threads)
                .oversubscribe(true)
                .resident_budget(0)
                .checkpoint_dir(&dir)
                .checkpoint_every(3)
        };
        let (halted, audits) = depth_audits(|| {
            configure(make(), halt_threads)
                .halt_after_checkpoints(1)
                .run()
                .unwrap()
        });
        assert!(matches!(
            halted.verdict,
            Verdict::Interrupted { level: 3, .. }
        ));
        assert!(halted.max_pending_depth.is_empty());
        assert_eq!(audits, 0, "an interrupted run reports no depths");
        let (resumed, audits) = depth_audits(|| {
            configure(make(), resume_threads)
                .resume(true)
                .run()
                .unwrap()
        });
        assert_eq!(resumed.resumed_from_level, Some(3));
        assert_eq!(audits, 1);
        assert_eq!(resumed.max_pending_depth, whole.max_pending_depth);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_depths_that_do_not_match_the_frontier_are_refused() {
    let make = || {
        cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
            .checkpoint_every(2)
            .halt_after_checkpoints(1)
    };
    let n = 3;
    // Each checkpoint is rewritten with the checksum it then needs,
    // so only the checker's length checks can refuse it.
    for what in [
        "one depth short",
        "one depth extra",
        "no depths",
        "one maximum short",
    ] {
        let dir = checkpoint_test_dir(&format!("bad-depths-{}", what.replace(' ', "-")));
        let mc = make().checkpoint_dir(&dir);
        let halted = mc.run().unwrap();
        assert!(matches!(halted.verdict, Verdict::Interrupted { .. }));
        let fingerprint = mc.fingerprint();
        let (restored, _) = checkpoint::load_latest(&dir, fingerprint).unwrap();
        let mut ck = restored.expect("the halted run's checkpoint");
        assert_eq!(ck.frontier_depths.len(), ck.frontier.len() * n);
        match what {
            "one depth short" => {
                ck.frontier_depths.pop();
            }
            "one depth extra" => ck.frontier_depths.push(0),
            "no depths" => ck.frontier_depths.clear(),
            _ => {
                ck.depth_maxima.pop();
            }
        }
        let snap = checkpoint::Snapshot {
            fingerprint,
            level: ck.level,
            transitions: ck.transitions,
            acquisitions: ck.acquisitions,
            peak_frontier: ck.peak_frontier,
            orbit_sum: ck.orbit_sum,
            monitor_hits: &ck.monitor_hits,
            frontier: &ck.frontier,
            shard: &ck.shard,
            edge_targets: &ck.edge_targets,
            edge_sigmas: &ck.edge_sigmas,
            depth_maxima: &ck.depth_maxima,
            frontier_depths: &ck.frontier_depths,
        };
        checkpoint::write(&dir, &snap, None).unwrap();
        let err = make().checkpoint_dir(&dir).resume(true).run().unwrap_err();
        let McError::Checkpoint(e) = err else {
            panic!("{what}: expected a checkpoint error, got {err:?}");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The crash-mode differential on the CAS toy lock: a process that
/// crashes inside its critical section leaves the register claimed
/// forever under [`CrashMode::StaleClaims`] (nobody — itself
/// included, it rebooted with no memory of the claim — can ever
/// CAS it back), a fair livelock; under
/// [`CrashMode::WipeRegisters`] the claim evaporates with the
/// process and the lock stays deadlock-free.
#[test]
fn crash_mode_differential_on_cas_lock() {
    let run = |mode: CrashMode| {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .crashes(CrashBudget::total(1), mode)
            .run()
            .unwrap()
    };
    let wiped = run(CrashMode::WipeRegisters);
    assert_eq!(wiped.verdict, Verdict::Ok, "wiped crash must recover");
    let stale = run(CrashMode::StaleClaims);
    let Verdict::FairLivelock {
        ref witness_schedule,
        ..
    } = stale.verdict
    else {
        panic!("stale crash must livelock CasLock, got {:?}", stale.verdict);
    };
    // The witness must actually schedule a crash (entry n + i) —
    // the crash-free model of this lock verifies Ok.
    let n = 2;
    assert!(
        witness_schedule.iter().any(|&a| a >= n),
        "livelock stem must contain a crash entry: {witness_schedule:?}"
    );
}

/// Replays the stale-claims livelock witness concretely: applying
/// the schedule (normal steps via `closed_loop_step`, entries
/// `n + i` as crashes) must land in a state where the register is
/// claimed while nobody is in — or can ever again reach — the
/// critical section.
#[test]
fn crash_witness_replays_concretely() {
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    let report =
        ModelChecker::with_automata(automata.clone(), MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .crashes(CrashBudget::total(1), CrashMode::StaleClaims)
            .run()
            .unwrap();
    let Verdict::FairLivelock {
        witness_schedule, ..
    } = report.verdict
    else {
        panic!("expected a livelock");
    };
    let n = 2;
    let mut mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, n).unwrap();
    let mut phases = vec![Phase::Remainder; n];
    let mut states: Vec<_> = automata.iter().map(Automaton::init_state).collect();
    for a in witness_schedule {
        if a >= n {
            // StaleClaims: the memory is untouched, the process
            // reboots with no local memory.
            phases[a - n] = Phase::Remainder;
            states[a - n] = automata[a - n].crash_state();
        } else {
            crate::automaton::closed_loop_step(
                &automata[a],
                &mut phases[a],
                &mut states[a],
                &mut mem.view(a),
            );
        }
    }
    assert!(
        !mem.slots()[0].is_bottom(),
        "the livelock state must carry the stale claim"
    );
    assert!(
        phases.iter().all(|&p| p != Phase::Cs),
        "nobody is in the critical section — the claim is dead"
    );
}

/// A zero crash budget explores exactly the crash-free state space:
/// the crash axis changes the node encoding (trailing crash
/// counts), but with no crash edge admissible every count and the
/// verdict are identical to a run without the axis.
#[test]
fn zero_crash_budget_matches_crash_free_run() {
    let make = || {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity).unwrap()
    };
    let plain = make().run().unwrap();
    let zero = make()
        .crashes(CrashBudget::total(0), CrashMode::StaleClaims)
        .run()
        .unwrap();
    assert_eq!(plain.verdict, zero.verdict);
    assert_eq!(plain.canonical_states, zero.canonical_states);
    assert_eq!(plain.transitions, zero.transitions);
    assert_eq!(plain.acquisitions, zero.acquisitions);
}

/// Crash counts permute with the processes: symmetry-reduced crash
/// exploration agrees with the unreduced one on the verdict and on
/// the exact concrete state count (orbit accounting).
#[test]
fn crash_exploration_is_symmetry_invariant() {
    let run = |symmetry: Symmetry| {
        let ids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .symmetry(symmetry)
            .crashes(CrashBudget::total(2), CrashMode::WipeRegisters)
            .run()
            .unwrap()
    };
    let off = run(Symmetry::Off);
    let sym = run(Symmetry::Wreath);
    assert_eq!(
        std::mem::discriminant(&off.verdict),
        std::mem::discriminant(&sym.verdict),
        "{:?} vs {:?}",
        off.verdict,
        sym.verdict
    );
    assert_eq!(
        off.canonical_states, sym.full_states_estimate,
        "orbit accounting must reproduce the concrete crash state count"
    );
    assert!(
        sym.canonical_states < off.canonical_states,
        "the reduction must actually bite on crash states"
    );
}

/// Per-process crash budgets bind independently of the total: with
/// `per_process = 1, total = 2` both processes can crash once, but
/// no process twice — strictly fewer states than `total(2)`.
#[test]
fn per_process_crash_budget_binds() {
    let run = |budget: CrashBudget| {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .crashes(budget, CrashMode::StaleClaims)
            .run()
            .unwrap()
    };
    let total2 = run(CrashBudget::total(2));
    let capped = run(CrashBudget {
        total: 2,
        per_process: 1,
    });
    assert!(
        capped.canonical_states < total2.canonical_states,
        "capping per-process crashes must prune double-crash states \
         ({} vs {})",
        capped.canonical_states,
        total2.canonical_states
    );
}

fn cas_pair() -> ModelChecker<CasLock> {
    let ids = PidPool::sequential().mint_many(2);
    let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
    ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity).unwrap()
}

#[test]
fn resume_without_checkpoint_dir_is_a_config_error() {
    let err = cas_pair().resume(true).run().unwrap_err();
    assert_eq!(err.config(), Some(&ConfigError::ResumeWithoutCheckpointDir));
    assert!(err.to_string().starts_with("invalid configuration"));
}

#[test]
fn more_than_64_monitors_run() {
    let mut mc = cas_pair();
    for i in 0..65 {
        mc = mc.monitor(Monitor::watch(format!("m{i}"), move |_s, _p| i == 64));
    }
    let report = mc.run().unwrap();
    assert_eq!(report.monitors.len(), 65);
    assert_eq!(report.monitors[64].hit_states, report.canonical_states);
    assert!(report.monitors[..64].iter().all(|m| m.hit_states == 0));
}

#[test]
fn max_states_beyond_the_id_encoding_is_a_config_error() {
    let err = cas_pair().max_states(usize::MAX).run().unwrap_err();
    assert!(matches!(
        err.config(),
        Some(ConfigError::MaxStatesTooLarge {
            max_states: usize::MAX,
            ..
        })
    ));
    // The largest admissible bound still runs.
    let ConfigError::MaxStatesTooLarge { limit, .. } = err.config().unwrap().clone() else {
        unreachable!()
    };
    assert_eq!(
        cas_pair().max_states(limit).run().unwrap().verdict,
        Verdict::Ok
    );
    // One seen set at every worker count: the limit does not move.
    let par = cas_pair()
        .threads(3)
        .oversubscribe(true)
        .max_states(usize::MAX)
        .run()
        .unwrap_err();
    assert_eq!(
        par.config(),
        Some(&ConfigError::MaxStatesTooLarge {
            max_states: usize::MAX,
            limit,
        })
    );
}

#[test]
fn concretize_maps_actors_through_the_permutation() {
    // Group: identity and the swap of two processes.
    let group = vec![
        SymElem {
            pi: vec![0, 1],
            pi_inv: vec![0, 1],
            map: PidMap::identity(),
            rho_inv: Vec::new(),
            regs: RegMap::identity(),
        },
        SymElem {
            pi: vec![1, 0],
            pi_inv: vec![1, 0],
            map: PidMap::identity(),
            rho_inv: Vec::new(),
            regs: RegMap::identity(),
        },
    ];
    // Step quotient actor 0 canonicalized by the swap, then actor 0
    // again: the second concrete actor must be process 1.
    let chain = vec![(0usize, 1u16), (0usize, 0u16)];
    let (schedule, tau, tau_inv) = concretize(&group, &chain);
    assert_eq!(schedule, vec![0, 1]);
    assert_eq!(tau, vec![1, 0]);
    assert_eq!(tau_inv, vec![1, 0]);
}

#[test]
fn oversized_symmetry_group_is_a_config_error() {
    // Nine and ten interchangeable processes: S_9 and S_10 have more
    // elements than a 16-bit group-element index can name.  The order
    // is counted, not enumerated (enumerating S_10 took 626 MB).
    for (n, order) in [(9, 362_880), (10, 3_628_800)] {
        let ids = PidPool::sequential().mint_many(n);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let err = ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .run()
            .unwrap_err();
        assert_eq!(
            err.config(),
            Some(&ConfigError::SymmetryGroupTooLarge { order })
        );
        assert!(err.to_string().starts_with("invalid configuration"));
    }
}

/// The full scan [`canonicalize`] prunes: every image encoded in
/// full, the stabilizer counted against the identity image.
fn canonicalize_full_scan<S: EncodeState>(
    group: &[SymElem],
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
) -> (Vec<u8>, u16, u32) {
    let (mut enc, mut best) = (Vec::new(), Vec::new());
    encode_node_with(&group[0], slots, procs, crashes, &mut best);
    let first = best.clone();
    let mut sigma = 0u16;
    let mut stabilizer = 1u32;
    for (gi, elem) in group.iter().enumerate().skip(1) {
        encode_node_with(elem, slots, procs, crashes, &mut enc);
        if enc == first {
            stabilizer += 1;
        }
        if enc < best {
            std::mem::swap(&mut enc, &mut best);
            sigma = gi as u16;
        }
    }
    (best, sigma, group.len() as u32 / stabilizer)
}

/// Asserts that [`canonicalize`] returns the full scan's `(best, σ,
/// orbit)` on one node, from scratch buffers holding stale bytes and
/// stale rankings of another image, and that its stage 1 ties exactly
/// the elements whose image has the least slot section; returns the
/// orbit size and that tie count.
fn assert_pruned_matches_full<S: EncodeState>(
    group: &[SymElem],
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
) -> (u32, usize) {
    let stale = || Ranking {
        image: vec![Slot::BOTTOM; slots.len() + 1],
        keys: vec![7; 2],
        ties: vec![5],
    };
    let mut canon = Canon {
        best: vec![0x00; 3],
        enc: vec![0xFF; 9],
        rankings: [stale(), stale()],
    };
    assert_canonicalize_matches_full(&mut canon, group, slots, procs, crashes)
}

/// [`assert_pruned_matches_full`] on a given [`Canon`].
fn assert_canonicalize_matches_full<S: EncodeState>(
    canon: &mut Canon,
    group: &[SymElem],
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
) -> (u32, usize) {
    let (sigma, orbit) = canonicalize(group, slots, procs, crashes, canon);
    let (best, full_sigma, full_orbit) = canonicalize_full_scan(group, slots, procs, crashes);
    assert_eq!(
        (&canon.best, sigma, orbit),
        (&best, full_sigma, full_orbit),
        "slots {slots:?}, procs {procs:?}, crashes {crashes:?}"
    );
    let slot_bytes = encode::SLOT_BYTES * slots.len();
    let mut image = Vec::new();
    let ties: Vec<u16> = (0..group.len() as u16)
        .filter(|&gi| {
            encode_node_with(&group[gi as usize], slots, procs, crashes, &mut image);
            image[..slot_bytes] == best[..slot_bytes]
        })
        .collect();
    assert_eq!(canon.rankings[0].ties, ties, "slots {slots:?}");
    (orbit, ties.len())
}

#[test]
fn the_ranking_cache_never_serves_a_stale_ranking() {
    // S_3 over three registers.  Image B and B' differ in one slot and
    // rank differently (two elements tie on B, one on B'), so serving
    // B's ranking for B' would write a wrong slot section.
    let pids = PidPool::sequential().mint_many(3);
    let automata: Vec<CasLock> = pids.iter().copied().map(CasLock::new).collect();
    let mem = SimMemory::new(MemoryModel::Rmw, 3, &Adversary::Identity, 3).unwrap();
    let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
    assert_eq!(group.len(), 6);
    let procs = vec![
        (Phase::Trying, crate::toys::CasLockState::TryCas),
        (Phase::Remainder, crate::toys::CasLockState::Idle),
        (Phase::Cs, crate::toys::CasLockState::Unlock),
    ];
    let [p0, p1, p2] = [0, 1, 2].map(|i| Slot::from(pids[i]));
    let a = [p0, Slot::BOTTOM, p1];
    let b = [Slot::BOTTOM, p2, Slot::BOTTOM];
    let b_changed = [p1, p2, Slot::BOTTOM];
    let mut canon = Canon::default();
    let ties: Vec<usize> = [&a, &b, &a, &b_changed]
        .into_iter()
        .map(|slots| assert_canonicalize_matches_full(&mut canon, &group, slots, &procs, &[]).1)
        .collect();
    assert_eq!(ties, [1, 2, 1, 1]);
}

/// A node's slots, processes and crash counts.
type Node<S> = (Vec<Slot>, Vec<(Phase, S)>, Vec<u8>);

/// Every state a symmetry-off check of `automata` stores (watch
/// monitors see each one), without crash counts.
fn reachable_states<A: Automaton + Sync>(
    automata: Vec<A>,
    model: MemoryModel,
    m: usize,
    adv: &Adversary,
) -> Vec<Node<A::State>>
where
    A::State: EncodeState + Send + Sync + 'static,
{
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let report = ModelChecker::with_automata(automata, model, m, adv)
        .unwrap()
        .monitor(Monitor::watch("collect", move |slots, procs| {
            sink.lock()
                .push((slots.to_vec(), procs.to_vec(), Vec::new()));
            false
        }))
        .run()
        .unwrap();
    let states = std::mem::take(&mut *seen.lock());
    assert!(states.len() >= report.canonical_states);
    states
}

const PHASES: [Phase; 4] = [Phase::Remainder, Phase::Trying, Phase::Cs, Phase::Exiting];

const CAS_STATES: [crate::toys::CasLockState; 3] = [
    crate::toys::CasLockState::Idle,
    crate::toys::CasLockState::TryCas,
    crate::toys::CasLockState::Unlock,
];

/// Random nodes over `m` slots (⊥ or one of `pids`) and `n`
/// processes (phases and states drawn from `states`), with trailing
/// crash counts on every other node.  Small alphabets make ties and
/// nontrivial stabilizers common.
fn random_nodes<S: Clone>(
    seed: u64,
    count: usize,
    m: usize,
    n: usize,
    pids: &[amx_ids::Pid],
    states: &[S],
) -> Vec<Node<S>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|k| {
            let slots = (0..m)
                .map(|_| match rng.gen_range(0..=pids.len()) {
                    0 => Slot::BOTTOM,
                    p => Slot::from(pids[p - 1]),
                })
                .collect();
            let procs = (0..n)
                .map(|_| {
                    let phase = PHASES[rng.gen_range(0..PHASES.len())];
                    (phase, states[rng.gen_range(0..states.len())].clone())
                })
                .collect();
            let crashes = if k % 2 == 0 {
                Vec::new()
            } else {
                (0..n).map(|_| rng.gen_range(0..3u8)).collect()
            };
            (slots, procs, crashes)
        })
        .collect()
}

/// Stage 1 ties one coset of the least slot section's stabilizer.
/// Under `S_n` acting on slots that name `d` distinct identities that
/// is `(n − d)!` elements, so these are the tie counts `0 ≤ d ≤
/// min(n, m)` allow: the whole group at `d = 0` (every slot ⊥), down
/// to one element once `d ≥ n − 1`.
fn symmetric_tie_counts(n: usize, m: usize) -> std::collections::BTreeSet<usize> {
    (0..=n.min(m))
        .map(|d| (1..=n - d).product::<usize>())
        .collect()
}

#[test]
fn pruned_canonicalization_matches_full_scan_under_full_symmetric_groups() {
    // S_3 and S_4 with ρ = id: n interchangeable CasLocks on the
    // identity adversary.
    for (n, order) in [(3usize, 6usize), (4, 24)] {
        let pids = PidPool::sequential().mint_many(n);
        let automata: Vec<CasLock> = pids.iter().copied().map(CasLock::new).collect();
        let mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, n).unwrap();
        let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        assert_eq!(group.len(), order);
        assert!(group.iter().all(|e| e.rho_inv.is_empty()));

        let states = reachable_states(automata, MemoryModel::Rmw, 1, &Adversary::Identity);
        let (orbits, ties): (Vec<u32>, std::collections::BTreeSet<usize>) = states
            .iter()
            .map(|(slots, procs, crashes)| {
                assert_pruned_matches_full(&group, slots, procs, crashes)
            })
            .unzip();
        // The all-⊥ start is fixed by the whole group; states with
        // some processes alike have stabilizers strictly between.
        assert_eq!(orbits[0], 1, "the initial state's orbit");
        assert!(orbits.iter().any(|&o| o > 1 && (o as usize) < order));
        assert_eq!(ties, symmetric_tie_counts(n, 1));

        let (orbits, ties): (Vec<u32>, std::collections::BTreeSet<usize>) =
            random_nodes(n as u64, 2_000, 3, n, &pids, &CAS_STATES)
                .iter()
                .map(|(slots, procs, crashes)| {
                    assert_pruned_matches_full(&group, slots, procs, crashes)
                })
                .unzip();
        assert!(orbits.contains(&(order as u32)), "some random node is free");
        assert_eq!(ties, symmetric_tie_counts(n, 3));
        assert_eq!(ties.first(), Some(&1));
        assert_eq!(ties.last(), Some(&order));
    }
}

#[test]
fn pruned_canonicalization_matches_full_scan_under_rotations() {
    // Z_3 with ρ ≠ id: CasLocks on a rotated memory, so images
    // permute the physical slots and relabel the identities in them.
    let pids = PidPool::sequential().mint_many(3);
    let automata: Vec<CasLock> = pids.iter().copied().map(CasLock::new).collect();
    let adv = Adversary::Rotations { stride: 1 };
    let mem = SimMemory::new(MemoryModel::Rmw, 3, &adv, 3).unwrap();
    let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
    assert_eq!(group.len(), 3, "Z_3");
    assert!(group[1..].iter().all(|e| !e.rho_inv.is_empty()));

    let states = reachable_states(automata, MemoryModel::Rmw, 3, &adv);
    let (orbits, mut ties): (Vec<u32>, std::collections::BTreeSet<usize>) = states
        .iter()
        .map(|(slots, procs, crashes)| assert_pruned_matches_full(&group, slots, procs, crashes))
        .unzip();
    assert_eq!(orbits[0], 1, "the initial state's orbit");
    let (orbits, random_ties): (Vec<u32>, std::collections::BTreeSet<usize>) =
        random_nodes(7, 2_000, 3, 3, &pids, &CAS_STATES)
            .iter()
            .map(|(slots, procs, crashes)| {
                assert_pruned_matches_full(&group, slots, procs, crashes)
            })
            .unzip();
    assert!(orbits.contains(&3), "some random node is free");
    // Z_3 has no subgroup between: one element or all three tie.
    ties.extend(random_ties);
    assert_eq!(ties, [1, 3].into());
}

/// Test-only process state whose encodings differ in length: 7-bit
/// digits, the high bit set on every byte but the last.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Ragged(Vec<u8>);

impl EncodeState for Ragged {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        let (last, init) = self.0.split_last().expect("at least one digit");
        out.extend(init.iter().map(|d| d | 0x80));
        out.push(*last);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let end = bytes.iter().position(|b| b & 0x80 == 0)?;
        let (head, rest) = bytes.split_at(end + 1);
        *bytes = rest;
        Some(Ragged(head.iter().map(|b| b & 0x7F).collect()))
    }
}

#[test]
fn pruned_canonicalization_matches_full_scan_on_ragged_encodings() {
    // Processes of one, two and three bytes: images compare
    // components of different lengths at the same offset, and a
    // component can end inside the running minimum's longer one.
    let ragged = [
        Ragged(vec![0]),
        Ragged(vec![1]),
        Ragged(vec![1, 0]),
        Ragged(vec![1, 1]),
        Ragged(vec![1, 0, 0]),
        Ragged(vec![0, 0, 5]),
    ];
    let mut bytes = Vec::new();
    for r in &ragged {
        r.encode(&mut bytes);
    }
    let mut cur = bytes.as_slice();
    for r in &ragged {
        assert_eq!(Ragged::decode(&mut cur).as_ref(), Some(r));
    }
    let pids = PidPool::sequential().mint_many(4);
    for n in [3usize, 4] {
        let automata: Vec<CasLock> = pids[..n].iter().copied().map(CasLock::new).collect();
        let mem = SimMemory::new(MemoryModel::Rmw, 2, &Adversary::Identity, n).unwrap();
        let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        let ties: std::collections::BTreeSet<usize> =
            random_nodes(11 + n as u64, 3_000, 2, n, &pids, &ragged)
                .iter()
                .map(|(slots, procs, crashes)| {
                    assert_pruned_matches_full(&group, slots, procs, crashes).1
                })
                .collect();
        assert_eq!(ties, symmetric_tie_counts(n, 2));
    }
}
