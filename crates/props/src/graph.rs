//! A deliberately naive full-state-graph explorer.
//!
//! This is the *differential oracle* of the property subsystem: a
//! straightforward `HashMap`-interned breadth-first exploration storing
//! every concrete state as a cloned `(Vec<Slot>, Vec<(Phase, State)>)`
//! pair, with the complete labeled edge table materialized.  It shares
//! no code with the production engine in `amx_sim::mc` — no byte
//! encodings, no symmetry reduction, no arena — so agreement between
//! the two (post-hoc predicate evaluation here versus on-the-fly
//! [`amx_sim::mc::Monitor`]s there) is evidence, not tautology.
//!
//! It is also the substrate of the [`crate::liveness`] analyses, which
//! need the *full* edge table with acquisition labels — something the
//! production engine deliberately never materializes.
//!
//! Small configurations only: everything is cloned and nothing is
//! compressed.  The default bound is 200,000 states.

use std::collections::HashMap;

use amx_ids::Slot;
use amx_registers::{Adversary, Permutation};
use amx_sim::automaton::{closed_loop_step, Automaton, Outcome, Phase};
use amx_sim::{MemoryModel, SimMemory};

use crate::obs::{Obs, Observe};
use crate::predicate::StatePredicate;

/// Error: the naive exploration exceeded its state bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphTooLarge {
    /// The configured bound.
    pub limit: usize,
}

impl std::fmt::Display for GraphTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "naive state graph exceeded the bound of {} states",
            self.limit
        )
    }
}

impl std::error::Error for GraphTooLarge {}

/// One concrete state of the closed-loop system.
pub type ConcreteState<S> = (Vec<Slot>, Vec<(Phase, S)>);

/// The fully materialized concrete state graph.
#[derive(Debug, Clone)]
pub struct StateGraph<A: Automaton> {
    /// Number of processes.
    pub n: usize,
    /// Number of registers.
    pub m: usize,
    /// Adversary permutations, one per process.
    pub perms: Vec<Permutation>,
    /// Every reachable state, in breadth-first discovery order (index 0
    /// is the initial state).
    pub states: Vec<ConcreteState<A::State>>,
    /// Dense successor table: `succ[v * n + k]` is the state reached by
    /// scheduling process `k` in state `v` (always present — the closed
    /// loop never blocks).
    pub succ: Vec<u32>,
    /// Per edge: the step completed a `lock()` (outcome `Acquired`).
    pub acquired: Vec<bool>,
    /// Per edge: the step completed a `lock()` or `unlock()` — the
    /// completion edges the fair-livelock analysis deletes.
    pub completed: Vec<bool>,
    /// Breadth-first tree parent of each state as `(parent, actor)`;
    /// `(u32::MAX, 0)` for the root.
    pub parent: Vec<(u32, u8)>,
}

/// Explores the complete concrete state graph of `automata` over an
/// `m`-register memory under `adversary`.
///
/// # Errors
///
/// Returns [`GraphTooLarge`] past `max_states`, and propagates
/// adversary materialization failures as a panic (the callers construct
/// adversaries they know are valid).
///
/// # Panics
///
/// Panics if the adversary cannot be materialized for `(n, m)`.
pub fn explore<A: Automaton>(
    automata: &[A],
    model: MemoryModel,
    m: usize,
    adversary: &Adversary,
    max_states: usize,
) -> Result<StateGraph<A>, GraphTooLarge> {
    let n = automata.len();
    let mut mem = SimMemory::new(model, m, adversary, n).expect("valid adversary");
    let perms: Vec<Permutation> = (0..n).map(|i| mem.permutation(i).clone()).collect();

    let init: ConcreteState<A::State> = (
        vec![Slot::BOTTOM; m],
        automata
            .iter()
            .map(|a| (Phase::Remainder, a.init_state()))
            .collect(),
    );
    let mut index: HashMap<ConcreteState<A::State>, u32> = HashMap::new();
    index.insert(init.clone(), 0);
    let mut states = vec![init];
    let mut parent: Vec<(u32, u8)> = vec![(u32::MAX, 0)];
    let mut succ: Vec<u32> = Vec::new();
    let mut acquired: Vec<bool> = Vec::new();
    let mut completed: Vec<bool> = Vec::new();

    let mut v = 0usize;
    while v < states.len() {
        for k in 0..n {
            let (slots, procs) = states[v].clone();
            mem.restore(&slots);
            let mut procs = procs;
            let outcome = {
                let (phase, state) = &mut procs[k];
                closed_loop_step(&automata[k], phase, state, &mut mem.view(k))
            };
            let child = (mem.slots().to_vec(), procs);
            let next_id = states.len() as u32;
            let id = *index.entry(child.clone()).or_insert(next_id);
            if id == next_id {
                if states.len() >= max_states {
                    return Err(GraphTooLarge { limit: max_states });
                }
                states.push(child);
                parent.push((v as u32, k as u8));
            }
            succ.push(id);
            acquired.push(outcome == Outcome::Acquired);
            completed.push(matches!(outcome, Outcome::Acquired | Outcome::Released));
        }
        v += 1;
    }
    Ok(StateGraph {
        n,
        m,
        perms,
        states,
        succ,
        acquired,
        completed,
        parent,
    })
}

impl<A: Automaton> StateGraph<A> {
    /// Number of reachable states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when the graph is empty (never: the root always exists).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The breadth-first schedule from the initial state to `v` —
    /// replayable through [`amx_sim::Scheduler::script`] or
    /// [`closed_loop_step`].
    #[must_use]
    pub fn schedule_to(&self, v: u32) -> Vec<usize> {
        let mut rev = Vec::new();
        let mut cur = v;
        while self.parent[cur as usize].0 != u32::MAX {
            let (p, actor) = self.parent[cur as usize];
            rev.push(actor as usize);
            cur = p;
        }
        rev.reverse();
        rev
    }
}

impl<A: Observe> StateGraph<A> {
    /// Post-hoc predicate sweep: evaluates `pred` on *every* reachable
    /// state and returns `(hit count, first hit in discovery order)`.
    /// Discovery order is breadth-first, so the first hit sits at
    /// minimal depth — its [`StateGraph::schedule_to`] schedule has the
    /// same length as the production engine's shortest witness.
    #[must_use]
    pub fn count_hits(&self, automata: &[A], pred: &StatePredicate) -> (usize, Option<u32>) {
        let mut hits = 0;
        let mut first = None;
        for (v, (slots, procs)) in self.states.iter().enumerate() {
            let obs = Obs::observe(automata, &self.perms, slots, procs);
            if pred.eval(&obs) {
                hits += 1;
                if first.is_none() {
                    first = Some(v as u32);
                }
            }
        }
        (hits, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_sim::toys::{CasLock, NaiveFlagLock, SpinForever};

    #[test]
    fn cas_lock_graph_matches_the_engine_count() {
        let ids = amx_ids::PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let g = explore(
            &automata,
            MemoryModel::Rmw,
            1,
            &Adversary::Identity,
            100_000,
        )
        .unwrap();
        let report = amx_sim::mc::ModelChecker::with_automata(
            automata,
            MemoryModel::Rmw,
            1,
            &Adversary::Identity,
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(
            g.len(),
            report.canonical_states,
            "independent engines must agree"
        );
        assert_eq!(g.succ.len(), g.len() * 2);
    }

    #[test]
    fn schedules_replay_to_their_state() {
        let ids = amx_ids::PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.into_iter().map(NaiveFlagLock::new).collect();
        let g = explore(&automata, MemoryModel::Rw, 1, &Adversary::Identity, 100_000).unwrap();
        let mut mem = SimMemory::new(MemoryModel::Rw, 1, &Adversary::Identity, 2).unwrap();
        for v in 0..g.len() as u32 {
            let schedule = g.schedule_to(v);
            mem.reset();
            let mut procs: Vec<(Phase, _)> = automata
                .iter()
                .map(|a| (Phase::Remainder, a.init_state()))
                .collect();
            for &a in &schedule {
                let (phase, state) = &mut procs[a];
                let _ = closed_loop_step(&automata[a], phase, state, &mut mem.view(a));
            }
            assert_eq!(mem.slots(), &g.states[v as usize].0[..], "state {v}");
            assert_eq!(procs, g.states[v as usize].1, "state {v}");
        }
    }

    #[test]
    fn bound_is_enforced() {
        let err = explore(
            &[SpinForever, SpinForever],
            MemoryModel::Rw,
            1,
            &Adversary::Identity,
            2,
        )
        .unwrap_err();
        assert_eq!(err, GraphTooLarge { limit: 2 });
        assert!(!err.to_string().is_empty());
    }
}
