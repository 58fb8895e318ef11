//! Replays the Algorithm 1 `(n = 4, m = 5)` fair-livelock witness found
//! by the model checker (PR 3's n = 4 frontier sweep) through the trace
//! machinery, and pins down *how* the livelock component is entered.
//!
//! Background (ROADMAP "Alg 1 n = 4 livelock"): `5 ∈ M(4)`, so the paper
//! claims deadlock-freedom, yet the exhaustive engine reports a fair
//! livelock with all four processes pending, a 64,504-state
//! completion-free SCC and the 4-step entry schedule `[3, 2, 1, 0]`:
//! the component already holds the state in which every process has
//! snapshotted the empty memory.  Earlier engines entered the component
//! at another member and reported the 12-step schedule
//! `[3, 2, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1]`, which the annotated replay
//! below walks (its first four steps reach the same state).
//!
//! What the annotated replay shows (the findings note in ROADMAP
//! summarizes this):
//!
//! * Steps 0–3: all four processes snapshot the **empty** memory.  The
//!   line-4 inner loop admits a process on an all-⊥ view, so every one
//!   of them legitimately commits to `WriteFree { x: 0 }` — four
//!   pending writes to the *same* register, each justified by a view
//!   that is stale by the time the write lands.
//! * Steps 4–11: pairs of those stale writes overwrite each other
//!   (`p1`'s claim on register 0 is erased by `p0` at step 6 without
//!   `p1` ever withdrawing), while the writer re-snapshots, sees a
//!   partially-owned view, and claims the next free register.
//! * The `shrink()` path (`ShrinkRead`/`ShrinkWrite`, the ROADMAP's
//!   original suspect) is **never exercised** on the way into the SCC:
//!   no full view ever forms — registers 3 and 4 stay ⊥ through the
//!   whole prefix — so the line-7–9 withdrawal arithmetic never runs.
//!   The suspect therefore shifts from the shrink/bitmask arithmetic to
//!   the unbounded staleness of the line-5/6 free-slot write (the
//!   window between the snapshot and the write it justifies).
//!
//! **PR 5 update — the SCC-interior query answers the follow-up.**  The
//! ROADMAP asked whether any full view occurs anywhere inside the
//! 64,504-state completion-free SCC (if none did, the withdrawal rule
//! would be provably inert in the component).  The `amx-props`
//! SCC-interior query pass (`mc_sweep --smoke --deep --scc-query
//! full-view`) streamed the component and answered: **full views occur
//! on 1,070 of the 2,949 canonical member states** (somewhere, not
//! everywhere), with a 21-step concrete witness replayed by
//! [`full_view_witness_reaches_a_full_view_inside_the_scc`] below (the
//! engine now reports a 16-step one, replayed by
//! [`the_engine_full_view_witness_reaches_a_full_view_inside_the_scc`]).  So
//! the withdrawal rule is **not** inert — views do fill inside the
//! component and the line-7–9 arithmetic fires — and the livelock
//! persists *through* withdrawal activity: at the witness state the
//! minority owner p0 (2 of 5 registers, cnt = 2, 2·2 < 5) is obliged to
//! shrink, while three stale `WriteFree` decisions (p0 → r2, p2 → r0,
//! p3 → r2) stand ready to overwrite claims and re-open the view.  The
//! paper's potential-function argument must therefore fail at the
//! *interaction* of withdrawal with claim-stealing overwrites, not
//! because withdrawal never triggers.

use amx_core::alg1::Alg1State;
use amx_core::{Alg1Automaton, MutexSpec};
use amx_ids::PidPool;
use amx_registers::Adversary;
use amx_sim::automaton::closed_loop_step;
use amx_sim::trace::{render, summarize};
use amx_sim::{Automaton, MemoryModel, Outcome, Phase, Runner, Scheduler, SimMemory, Workload};

/// A 12-step entry schedule into the livelock SCC: the model checker's
/// witness while its orbit confirmation entered a component at the
/// first member Tarjan's decomposition emitted.  Still a valid path in;
/// annotated step by step below.
const WITNESS: [usize; 12] = [3, 2, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1];

/// The model checker's entry schedule into the livelock SCC: a
/// component is entered at its member with the least state id, and
/// ids are breadth-first discovery order, so this is a shortest
/// schedule in.  It is [`WITNESS`]'s first four steps, reordered: the
/// component already holds the state in which all four processes have
/// snapshotted the empty memory.
const STEM: [usize; 4] = [3, 2, 1, 0];

/// A 21-step witness to a **full view inside** the livelock component:
/// the SCC-interior query's witness (`mc_sweep --smoke --deep
/// --scc-query full-view`, point alg1 (4, 5) identity: full-view
/// "somewhere", 1,070 of 2,949 canonical states) while the component
/// was entered at the first member Tarjan's decomposition emitted.
const FULL_VIEW_WITNESS: [usize; 21] = [
    2, 0, 3, 1, 1, 1, 3, 3, 0, 0, 3, 3, 1, 1, 0, 0, 1, 1, 1, 1, 1,
];

/// The same query's witness now that members are examined least state
/// id first: 16 steps to a full view inside the component.
const FULL_VIEW_STEM_WITNESS: [usize; 16] = [2, 0, 3, 1, 1, 1, 1, 1, 1, 3, 3, 0, 0, 0, 0, 0];

fn automata() -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(4, 5);
    let mut pool = PidPool::sequential();
    (0..4)
        .map(|_| Alg1Automaton::new(spec, pool.mint()))
        .collect()
}

#[test]
fn witness_reaches_the_all_pending_state_with_annotated_steps() {
    use amx_core::alg1::Alg1State as S;
    let automata = automata();
    let ids: Vec<_> = automata.iter().map(|a| a.id()).collect();
    let mut mem = SimMemory::new(MemoryModel::Rw, 5, &Adversary::Identity, 4).unwrap();
    let mut phases = vec![Phase::Remainder; 4];
    let mut states: Vec<S> = automata.iter().map(Automaton::init_state).collect();

    // The annotated expectation per step: (actor, state after the step,
    // owner of each register after the step, ⊥ as None).
    let own = |slots: &[amx_ids::Slot], expect: [Option<usize>; 5]| {
        let got: Vec<Option<usize>> = slots
            .iter()
            .map(|s| ids.iter().position(|&id| s.is_owned_by(id)))
            .collect();
        assert_eq!(got, expect.to_vec());
    };
    let expected: [(usize, S); 12] = [
        // Steps 0–3: four snapshots of the empty memory, four identical
        // free-slot decisions — the stale-write seed of the livelock.
        (3, S::WriteFree { x: 0 }),
        (2, S::WriteFree { x: 0 }),
        (0, S::WriteFree { x: 0 }),
        (1, S::WriteFree { x: 0 }),
        // Step 4: p1's write lands first; register 0 is p1's.
        (1, S::Snap),
        // Step 5: p1 re-snapshots (owns 1 of 5, not all, view not
        // empty) and claims the next free register.
        (1, S::WriteFree { x: 1 }),
        // Step 6: p0's stale write OVERWRITES p1's claim on register 0
        // — p1 loses a register without withdrawing, p0 now owns it.
        (0, S::Snap),
        (0, S::WriteFree { x: 1 }),
        // Steps 8–11: p1, snapshotting fresh each time, keeps claiming
        // the next free slot; p2 and p3 still hold their stale
        // WriteFree { x: 0 } decisions from the empty view.
        (1, S::Snap),
        (1, S::WriteFree { x: 2 }),
        (1, S::Snap),
        (1, S::WriteFree { x: 3 }),
    ];
    for (k, &(actor, ref after)) in expected.iter().enumerate() {
        assert_eq!(actor, WITNESS[k], "annotation out of sync with witness");
        let out = closed_loop_step(
            &automata[actor],
            &mut phases[actor],
            &mut states[actor],
            &mut mem.view(actor),
        );
        assert_eq!(out, Outcome::Progress, "step {k}: nothing may complete");
        assert_eq!(&states[actor], after, "step {k}: unexpected state");
        assert!(
            !matches!(states[actor], S::ShrinkRead { .. } | S::ShrinkWrite { .. }),
            "step {k}: the shrink path must never run on the way in"
        );
    }
    // The SCC entry state: all four pending, p2/p3 still aiming their
    // stale writes at register 0, registers 3 and 4 never written.
    assert_eq!(phases, vec![Phase::Trying; 4]);
    own(mem.slots(), [Some(0), Some(1), Some(1), None, None]);
    assert_eq!(states[0], S::WriteFree { x: 1 });
    assert_eq!(states[1], S::WriteFree { x: 3 });
    assert_eq!(states[2], S::WriteFree { x: 0 });
    assert_eq!(states[3], S::WriteFree { x: 0 });

    // Two more steps inside the component: the stale writes land, and
    // ownership of register 0 churns p0 → p2 → p3 with no process ever
    // withdrawing — the overwrite engine that sustains the livelock.
    let _ = closed_loop_step(
        &automata[2],
        &mut phases[2],
        &mut states[2],
        &mut mem.view(2),
    );
    own(mem.slots(), [Some(2), Some(1), Some(1), None, None]);
    let _ = closed_loop_step(
        &automata[3],
        &mut phases[3],
        &mut states[3],
        &mut mem.view(3),
    );
    own(mem.slots(), [Some(3), Some(1), Some(1), None, None]);
    assert_eq!(phases, vec![Phase::Trying; 4], "still nobody completes");
}

/// The concrete state a completion-free replay of `schedule` reaches:
/// memory, phases and local states.
type Replayed = (SimMemory, Vec<Phase>, Vec<Alg1State>);

/// Replays `schedule` from the initial state, asserting that no step
/// completes a lock or unlock.
fn replay(automata: &[Alg1Automaton], schedule: &[usize]) -> Replayed {
    let mut mem = SimMemory::new(MemoryModel::Rw, 5, &Adversary::Identity, 4).unwrap();
    let mut phases = vec![Phase::Remainder; 4];
    let mut states: Vec<Alg1State> = automata.iter().map(Automaton::init_state).collect();
    for (k, &a) in schedule.iter().enumerate() {
        let out = closed_loop_step(
            &automata[a],
            &mut phases[a],
            &mut states[a],
            &mut mem.view(a),
        );
        assert_eq!(out, Outcome::Progress, "step {k}: completion-free");
    }
    (mem, phases, states)
}

/// Replays a full-view witness and asserts what it reaches: a full view
/// with all four processes still trying.  Returns the register owners
/// (process indices) and the replayed state.
fn replay_to_full_view(automata: &[Alg1Automaton], schedule: &[usize]) -> (Vec<usize>, Replayed) {
    let (mem, phases, states) = replay(automata, schedule);
    assert_eq!(phases, vec![Phase::Trying; 4]);
    let owners = mem
        .slots()
        .iter()
        .map(|s| {
            automata
                .iter()
                .position(|a| s.is_owned_by(a.id()))
                .expect("the view must be full")
        })
        .collect();
    (owners, (mem, phases, states))
}

#[test]
fn the_engine_stem_reaches_the_witness_after_four_steps() {
    // Both schedules let every process snapshot the empty memory once:
    // the order of the four snapshots leaves no trace.
    let automata = automata();
    let (stem_mem, stem_phases, stem_states) = replay(&automata, &STEM);
    let (mem, phases, states) = replay(&automata, &WITNESS[..4]);
    assert_eq!(stem_mem.slots(), mem.slots());
    assert_eq!(stem_phases, phases);
    assert_eq!(stem_states, states);
    assert_eq!(states, vec![Alg1State::WriteFree { x: 0 }; 4]);
}

#[test]
fn the_engine_full_view_witness_reaches_a_full_view_inside_the_scc() {
    // Five steps shorter than the earlier witness, to a 3-vs-2 split
    // between p0 and p1.
    let (owners, _) = replay_to_full_view(&automata(), &FULL_VIEW_STEM_WITNESS);
    assert_eq!(owners, [0, 1, 1, 0, 0]);
}

#[test]
fn full_view_witness_reaches_a_full_view_inside_the_scc() {
    // Replays the SCC-interior query's witness: a completion-free
    // 21-step schedule reaching a state whose view is FULL while all
    // four processes are pending — machine-checked evidence that the
    // line-7–9 withdrawal rule is live inside the livelock component.
    use amx_core::alg1::Alg1State as S;
    let automata = automata();
    let ids: Vec<_> = automata.iter().map(|a| a.id()).collect();
    let (owners, (mut mem, mut phases, mut states)) =
        replay_to_full_view(&automata, &FULL_VIEW_WITNESS);
    assert_eq!(owners, [0, 0, 1, 1, 1], "a 2-vs-3 split between p0 and p1");
    // The withdrawal rule FIRES here: p0 owns 2 of 5 with cnt = 2
    // competitors, and 2·2 < 5, so p0's next snapshot starts a shrink —
    // the rule is not inert in the component.
    assert_eq!(states[1], S::Snap);
    let before = states[0];
    let out = closed_loop_step(
        &automata[0],
        &mut phases[0],
        &mut states[0],
        &mut mem.view(0),
    );
    assert_eq!(out, Outcome::Progress);
    // p0 was mid-decision (WriteFree { x: 2 }): its stale write lands
    // first, stealing p1's claim on register 2 — the claim-stealing
    // overwrite that keeps the component alive THROUGH withdrawals.
    assert_eq!(before, S::WriteFree { x: 2 });
    let owners2: Vec<Option<usize>> = mem
        .slots()
        .iter()
        .map(|s| ids.iter().position(|&id| s.is_owned_by(id)))
        .collect();
    assert_eq!(
        owners2,
        vec![Some(0), Some(0), Some(0), Some(1), Some(1)],
        "p0's stale write stole register 2 from p1 without p1 withdrawing"
    );
}

#[test]
fn witness_replays_through_the_trace_machinery() {
    // The same schedule through the Runner's recorded-trace path: the
    // rendered listing is the human-readable form of the annotation
    // above, and the summary confirms no completions of any kind.
    let report = Runner::with_adversary(automata(), MemoryModel::Rw, 5, &Adversary::Identity)
        .unwrap()
        .workload(Workload::unbounded())
        .scheduler(Scheduler::script(WITNESS.to_vec()))
        .max_steps(WITNESS.len() as u64)
        .record_trace()
        .run();
    let events = report.trace.as_ref().expect("trace was recorded");
    assert_eq!(events.len(), WITNESS.len());
    let scheduled: Vec<usize> = events.iter().map(|e| e.proc_index).collect();
    assert_eq!(scheduled, WITNESS.to_vec());

    let summary = summarize(events, 4);
    assert_eq!(summary.steps_per_proc, vec![3, 7, 1, 1]);
    assert_eq!(summary.acquisitions, vec![0; 4], "no lock ever completes");
    assert_eq!(summary.releases, vec![0; 4]);

    let listing = render(events, false);
    assert_eq!(listing.lines().count(), WITNESS.len());
    assert!(
        !listing.contains("ACQUIRED") && !listing.contains("released"),
        "completion-free prefix:\n{listing}"
    );
    // Every step after the first per process runs in the trying phase.
    assert!(listing.contains("try"));
}
