//! Per-process starvation-freedom under the fair scheduler.
//!
//! Deadlock-freedom (the engine's fair-livelock pass) asks: can the
//! *system* stop making progress?  Starvation-freedom asks the stronger
//! per-process question the paper deliberately does not claim: can
//! process `i` wait forever while *others* keep completing?
//!
//! Decision procedure, layered on [`amx_sim::scc`] over the
//! [`crate::graph::StateGraph`]'s labeled edge table: process `i` is
//! **starvable** iff the graph with `i`'s acquisition edges deleted has
//! an SCC in which
//!
//! 1. every process takes some internal step (the closed-loop workload
//!    schedules every process infinitely often, so a fair infinite
//!    execution's limit component must step everyone), and
//! 2. process `i` is in its `Trying` phase throughout (its phase can
//!    only change via its own deleted acquisition edges, so checking
//!    one member suffices).
//!
//! Such a component is exactly a fair execution in which `i` is
//! scheduled infinitely often, never acquires, and everyone else is
//! free to churn through their critical sections — a starvation
//! witness, reported with a replayable entry schedule.
//!
//! Runs on the *concrete* graph (no symmetry): naming a specific
//! process is the whole point, so the quotient would have to expand
//! every candidate anyway.

use amx_sim::automaton::{Automaton, Phase};
use amx_sim::scc::{tarjan_sccs_csr, NO_EDGE};

use crate::graph::StateGraph;

/// Starvation analysis results, indexed by process.
#[derive(Debug, Clone)]
pub struct StarvationReport {
    /// `starvable[i]`: a fair execution exists in which process `i`
    /// waits forever while being scheduled infinitely often.
    pub starvable: Vec<bool>,
    /// Size of the starving component found for each starvable process.
    pub scc_states: Vec<Option<usize>>,
    /// A replayable schedule from the initial state into the starving
    /// component (process `i` is `Trying` in the reached state).
    pub witness_schedules: Vec<Option<Vec<usize>>>,
}

impl StarvationReport {
    /// `true` when no process is starvable — the protocol is
    /// starvation-free on this configuration.
    #[must_use]
    pub fn starvation_free(&self) -> bool {
        self.starvable.iter().all(|&s| !s)
    }
}

/// Runs the starvation analysis over a materialized state graph.
#[must_use]
pub fn starvation<A: Automaton>(g: &StateGraph<A>) -> StarvationReport {
    let n = g.n;
    let n_states = g.len();
    let mut report = StarvationReport {
        starvable: vec![false; n],
        scc_states: vec![None; n],
        witness_schedules: vec![None; n],
    };
    let mut csr = vec![NO_EDGE; n_states * n];
    for i in 0..n {
        // The subgraph of executions in which process `i` never
        // acquires: every edge except `i`'s acquisitions.
        for v in 0..n_states {
            for k in 0..n {
                let e = v * n + k;
                csr[e] = if k == i && g.acquired[e] {
                    NO_EDGE
                } else {
                    g.succ[e]
                };
            }
        }
        'sccs: for members in tarjan_sccs_csr(n_states, n, &csr).iter() {
            // Singletons without a self-loop carry no infinite run.
            if members.len() == 1 {
                let v = members[0] as usize;
                if csr[v * n..(v + 1) * n].iter().all(|&w| w != members[0]) {
                    continue;
                }
            }
            // Process `i` must be waiting throughout.  Its phase can
            // only change through its own completion edges; acquisition
            // edges are deleted, and Trying cannot reach any other
            // phase without one, so one member decides for the
            // component.
            let (_, procs) = &g.states[members[0] as usize];
            if procs[i].0 != Phase::Trying {
                continue;
            }
            debug_assert!(
                members
                    .iter()
                    .all(|&v| g.states[v as usize].1[i].0 == Phase::Trying),
                "phase of a non-completing process is constant per SCC"
            );
            // Fairness: every process steps inside the component.
            let mut comp = vec![false; n_states];
            for &v in members {
                comp[v as usize] = true;
            }
            let mut steppers = vec![false; n];
            for &v in members {
                for k in 0..n {
                    let w = csr[v as usize * n + k];
                    if w != NO_EDGE && comp[w as usize] {
                        steppers[k] = true;
                    }
                }
            }
            if steppers.iter().all(|&s| s) {
                let entry = *members.iter().min().expect("nonempty SCC");
                report.starvable[i] = true;
                report.scc_states[i] = Some(members.len());
                report.witness_schedules[i] = Some(g.schedule_to(entry));
                break 'sccs;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::explore;
    use amx_baselines::PetersonTwoAutomaton;
    use amx_registers::Adversary;
    use amx_sim::toys::CasLock;
    use amx_sim::MemoryModel;

    #[test]
    fn tas_is_deadlock_free_but_starvable() {
        // A TAS/CAS lock admits starvation: the winner can cycle
        // forever while the loser's CAS keeps failing.
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
        let report = starvation(&g);
        assert_eq!(report.starvable, vec![true, true]);
        assert!(!report.starvation_free());
        for i in 0..2 {
            assert!(report.scc_states[i].unwrap() >= 2);
            let schedule = report.witness_schedules[i].as_ref().unwrap();
            // Replay: the schedule must land on a state with i Trying.
            let entry = schedule
                .iter()
                .fold(0u32, |v, &a| g.succ[v as usize * 2 + a]);
            assert_eq!(g.states[entry as usize].1[i].0, Phase::Trying);
        }
    }

    #[test]
    fn peterson_is_starvation_free() {
        let ids = amx_ids::PidPool::sequential().mint_many(2);
        let automata = vec![
            PetersonTwoAutomaton::new(ids[0], 0),
            PetersonTwoAutomaton::new(ids[1], 1),
        ];
        let g = explore(&automata, MemoryModel::Rw, 3, &Adversary::Identity, 100_000).unwrap();
        let report = starvation(&g);
        assert!(
            report.starvation_free(),
            "Peterson must be starvation-free, got {:?}",
            report.starvable
        );
    }
}
