//! Differential suite for the `amx-props` property subsystem.
//!
//! Two independent implementations answer every property question:
//!
//! * the production path — predicates compiled into on-the-fly
//!   [`amx_sim::mc::Monitor`]s evaluated during the engine's BFS
//!   (byte-encoded states, interned arenas, optional symmetry
//!   reduction);
//! * the oracle path — [`amx_props::graph`]'s naive `HashMap` explorer
//!   with post-hoc predicate evaluation over every cloned concrete
//!   state.
//!
//! They share no state representation, so agreement on hit counts,
//! hit/no-hit answers and shortest-witness depths is evidence the
//! on-the-fly compilation is correct.  A deliberately broken toy (the
//! check-then-act [`NaiveFlagLock`]) must be caught by a fatal safety
//! monitor with a *replayable* counterexample, and the starvation
//! analysis must separate the paper's deadlock-free-only algorithms
//! from the genuinely starvation-free Peterson lock.

use amx_baselines::automaton::PetersonTwoAutomaton;
use amx_core::{Alg1Automaton, Alg2Automaton, MutexSpec};
use amx_props::graph;
use amx_props::liveness;
use amx_props::obs::Observe;
use amx_props::predicate::{
    all_pending, at_most_one_writer_per_register, empty_view, full_view, mutual_exclusion,
    someone_in_cs, someone_withdrawing, writer_collision, StatePredicate,
};
use amx_props::property::{monitor_for, PropertySuite};
use amx_registers::Adversary;
use amx_sim::automaton::closed_loop_step;
use amx_sim::mc::{ModelChecker, Verdict};
use amx_sim::toys::{CasLock, NaiveFlagLock, PetersonTwo, SpinForever};
use amx_sim::{Automaton, EncodeState, MemoryModel, Phase, SimMemory, Symmetry};

/// The standard predicate battery the differential checks sweep.
fn battery() -> Vec<StatePredicate> {
    vec![
        mutual_exclusion(),
        full_view(),
        empty_view(),
        writer_collision(),
        at_most_one_writer_per_register(),
        all_pending(),
        someone_in_cs(),
        someone_withdrawing(),
    ]
}

/// On-the-fly monitor sweep ≡ naive post-hoc sweep, for one
/// configuration: every predicate's hit count AND shortest-witness
/// depth must agree exactly (symmetry off ⇒ both sides count concrete
/// states).
fn differential<A>(automata: Vec<A>, model: MemoryModel, m: usize)
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send,
{
    let adv = Adversary::Identity;
    let perms = adv.permutations(automata.len(), m).unwrap();
    let mut mc = ModelChecker::with_automata(automata.clone(), model, m, &adv).unwrap();
    for pred in battery() {
        mc = mc.monitor(monitor_for(&pred, &automata, &perms, false));
    }
    let report = mc.run().unwrap();
    assert!(
        !matches!(report.verdict, Verdict::MutualExclusionViolation { .. }),
        "differential configurations must explore the whole space"
    );

    let g = graph::explore(&automata, model, m, &adv, 500_000).unwrap();
    assert_eq!(
        g.len(),
        report.canonical_states,
        "state counts must agree first"
    );
    for (pred, mon) in battery().iter().zip(&report.monitors) {
        let (hits, first) = g.count_hits(&automata, pred);
        assert_eq!(
            mon.hit_states,
            hits,
            "hit-count mismatch for {} (engine {} vs oracle {})",
            pred.name(),
            mon.hit_states,
            hits
        );
        match (&mon.witness_schedule, first) {
            (None, None) => {}
            (Some(w), Some(v)) => assert_eq!(
                w.len(),
                g.schedule_to(v).len(),
                "shortest-witness depth mismatch for {}",
                pred.name()
            ),
            (w, f) => panic!(
                "witness existence mismatch for {}: engine {w:?} vs oracle {f:?}",
                pred.name()
            ),
        }
    }
}

#[test]
fn on_the_fly_equals_post_hoc_on_the_toys() {
    let ids = amx_ids::PidPool::sequential().mint_many(3);
    differential(
        ids.iter().copied().map(CasLock::new).collect::<Vec<_>>(),
        MemoryModel::Rmw,
        1,
    );
    differential(vec![SpinForever, SpinForever], MemoryModel::Rw, 2);
    let mut pool = amx_ids::PidPool::sequential();
    differential(
        vec![
            PetersonTwo::new(pool.mint(), 0),
            PetersonTwo::new(pool.mint(), 1),
        ],
        MemoryModel::Rw,
        3,
    );
}

#[test]
fn on_the_fly_equals_post_hoc_on_the_algorithms() {
    let spec = MutexSpec::rw_unchecked(2, 3);
    let mut pool = amx_ids::PidPool::sequential();
    differential(
        vec![
            Alg1Automaton::new(spec, pool.mint()),
            Alg1Automaton::new(spec, pool.mint()),
        ],
        MemoryModel::Rw,
        3,
    );
    let spec2 = MutexSpec::rmw_unchecked(2, 3);
    differential(
        vec![
            Alg2Automaton::new(spec2, pool.mint()),
            Alg2Automaton::new(spec2, pool.mint()),
        ],
        MemoryModel::Rmw,
        3,
    );
}

#[test]
fn reduced_monitors_agree_with_concrete_hit_existence() {
    // Under symmetry reduction the engine counts canonical hit states;
    // for an orbit-invariant predicate, "hits somewhere" and the
    // shortest-witness depth are still concrete facts and must match
    // the naive oracle exactly.
    let spec = MutexSpec::rw_unchecked(2, 3);
    let mut pool = amx_ids::PidPool::sequential();
    let automata = vec![
        Alg1Automaton::new(spec, pool.mint()),
        Alg1Automaton::new(spec, pool.mint()),
    ];
    let adv = Adversary::Identity;
    let perms = adv.permutations(2, 3).unwrap();
    let mut mc = ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 3, &adv)
        .unwrap()
        .symmetry(Symmetry::Wreath);
    for pred in battery() {
        mc = mc.monitor(monitor_for(&pred, &automata, &perms, false));
    }
    let report = mc.run().unwrap();
    let g = graph::explore(&automata, MemoryModel::Rw, 3, &adv, 500_000).unwrap();
    for (pred, mon) in battery().iter().zip(&report.monitors) {
        let (hits, first) = g.count_hits(&automata, pred);
        assert_eq!(
            mon.hit_somewhere(),
            hits > 0,
            "existence mismatch for {} under reduction",
            pred.name()
        );
        assert!(
            mon.hit_states <= hits,
            "canonical hits cannot exceed concrete hits ({})",
            pred.name()
        );
        if let (Some(w), Some(v)) = (&mon.witness_schedule, first) {
            assert_eq!(
                w.len(),
                g.schedule_to(v).len(),
                "shortest-witness depth mismatch for {} under reduction",
                pred.name()
            );
        }
    }
}

#[test]
fn broken_toy_is_caught_with_a_replayable_counterexample() {
    // The deliberately broken lock: NaiveFlagLock's check-then-act
    // race.  The safety property "at most one writer per register"
    // fails before mutual exclusion itself does; a fatal monitor must
    // catch it and its counterexample must REPLAY to a state where two
    // processes hold committed writes on the same register.
    let ids = amx_ids::PidPool::sequential().mint_many(2);
    let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
    let adv = Adversary::Identity;
    let perms = adv.permutations(2, 1).unwrap();
    let violation = at_most_one_writer_per_register().not();
    let report = ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &adv)
        .unwrap()
        .monitor(monitor_for(&violation, &automata, &perms, true))
        .run()
        .unwrap();
    let Verdict::PropertyViolation { property, schedule } = report.verdict else {
        panic!("expected a property violation, got {:?}", report.verdict);
    };
    assert_eq!(property, "¬at-most-one-writer-per-register");
    assert_eq!(schedule.len(), 2, "hazard opens after one check each");

    // Replay concretely and re-evaluate the predicate on the reached
    // state through the SAME observation layer the monitor used.
    let mut mem = SimMemory::new(MemoryModel::Rw, 1, &adv, 2).unwrap();
    let mut procs: Vec<(Phase, _)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in &schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    let obs = amx_props::Obs::observe(&automata, &perms, mem.slots(), &procs);
    assert!(
        writer_collision().eval(&obs),
        "counterexample must replay to the violating state"
    );

    // And the full suite still reports the mutual-exclusion violation
    // when no fatal monitor cuts exploration short.
    let suite = PropertySuite::new(automata, MemoryModel::Rw, 1)
        .unwrap()
        .always(at_most_one_writer_per_register())
        .run()
        .unwrap();
    assert!(!suite.mutual_exclusion);
    assert!(
        !suite
            .property("at-most-one-writer-per-register")
            .unwrap()
            .holds
    );
}

#[test]
fn starvation_separates_deadlock_free_from_starvation_free() {
    // Algorithm 1 at the smallest valid point: deadlock-free (the
    // paper's claim) but NOT starvation-free (the paper deliberately
    // contrasts with it) — the analysis must find a starving fair
    // cycle for some process.
    let spec = MutexSpec::rw_unchecked(2, 3);
    let mut pool = amx_ids::PidPool::sequential();
    let automata = vec![
        Alg1Automaton::new(spec, pool.mint()),
        Alg1Automaton::new(spec, pool.mint()),
    ];
    let suite = PropertySuite::new(automata.clone(), MemoryModel::Rw, 3)
        .unwrap()
        .check_starvation(500_000)
        .run()
        .unwrap();
    assert!(suite.mutual_exclusion && suite.deadlock_free);
    let starvation = suite.starvation.unwrap();
    assert!(
        !starvation.starvation_free(),
        "Algorithm 1 is only deadlock-free; got {:?}",
        starvation.starvable
    );
    // The starvation witness replays into a state where the starving
    // process is pending.
    let i = starvation.starvable.iter().position(|&s| s).unwrap();
    let schedule = starvation.witness_schedules[i].as_ref().unwrap();
    let mut mem = SimMemory::new(MemoryModel::Rw, 3, &Adversary::Identity, 2).unwrap();
    let mut procs: Vec<(Phase, _)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    assert_eq!(procs[i].0, Phase::Trying);

    // The baseline Peterson automaton, in contrast, is starvation-free.
    let mut pool = amx_ids::PidPool::sequential();
    let peterson = vec![
        PetersonTwoAutomaton::new(pool.mint(), 0),
        PetersonTwoAutomaton::new(pool.mint(), 1),
    ];
    let g = graph::explore(&peterson, MemoryModel::Rw, 3, &Adversary::Identity, 500_000).unwrap();
    assert!(liveness::starvation(&g).starvation_free());
}

#[test]
fn max_pending_depth_quantifies_starvation_results() {
    // The quantitative wait metric rides the same run.  Algorithm 1's
    // waiters make real progress-free *state changes* (claims, shrink
    // reads/writes), so long waits show up on breadth-first tree paths
    // — unlike a pure spin (a self-loop), which the metric's
    // shortest-path semantics deliberately excludes.
    let spec = MutexSpec::rw_unchecked(2, 3);
    let mut pool = amx_ids::PidPool::sequential();
    let automata = vec![
        Alg1Automaton::new(spec, pool.mint()),
        Alg1Automaton::new(spec, pool.mint()),
    ];
    let report = ModelChecker::with_automata(automata, MemoryModel::Rw, 3, &Adversary::Identity)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.verdict, Verdict::Ok);
    assert_eq!(report.max_pending_depth.len(), 2);
    assert!(
        report.max_pending_depth.iter().all(|&d| d >= 5),
        "multi-step waits must be observed on Alg 1, got {:?}",
        report.max_pending_depth
    );
    // A pure spinner shows the self-loop exclusion: SpinForever's wait
    // never extends past its first Trying step.
    let spin = ModelChecker::with_automata(
        vec![SpinForever, SpinForever],
        MemoryModel::Rw,
        1,
        &Adversary::Identity,
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(spin.max_pending_depth, vec![1, 1]);
}

#[test]
fn scc_queries_differentially_validated_on_a_livelock() {
    // Invalid-m Alg 1 point (2, 4): the engine reports a fair livelock;
    // SCC-interior queries must agree with direct inspection of the
    // frozen split (both processes pending forever on a full view).
    let spec = MutexSpec::rw_unchecked(2, 4);
    let mut pool = amx_ids::PidPool::sequential();
    let automata = vec![
        Alg1Automaton::new(spec, pool.mint()),
        Alg1Automaton::new(spec, pool.mint()),
    ];
    let suite = PropertySuite::new(automata, MemoryModel::Rw, 4)
        .unwrap()
        .scc_query(full_view())
        .scc_query(all_pending())
        .scc_query(someone_in_cs())
        .run()
        .unwrap();
    assert!(!suite.deadlock_free, "gcd(2,4) = 2 must livelock");
    let queries = &suite.mc.scc_queries;
    assert!(
        queries[0].holds_everywhere,
        "the frozen even split is a full view"
    );
    assert!(queries[1].holds_everywhere, "both stay pending");
    assert!(!queries[2].holds_somewhere, "nobody ever enters");
    // The full-view witness replays to a genuinely full memory.
    let schedule = queries[0].witness_schedule.as_ref().unwrap();
    let spec = MutexSpec::rw_unchecked(2, 4);
    let mut pool = amx_ids::PidPool::sequential();
    let automata = [
        Alg1Automaton::new(spec, pool.mint()),
        Alg1Automaton::new(spec, pool.mint()),
    ];
    let mut mem = SimMemory::new(MemoryModel::Rw, 4, &Adversary::Identity, 2).unwrap();
    let mut procs: Vec<(Phase, _)> = automata
        .iter()
        .map(|a| (Phase::Remainder, a.init_state()))
        .collect();
    for &a in schedule {
        let (phase, state) = &mut procs[a];
        let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
    }
    assert!(mem.slots().iter().all(|s| !s.is_bottom()), "view is full");
}
