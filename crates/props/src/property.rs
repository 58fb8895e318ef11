//! Properties: predicates compiled into a model-checking run.
//!
//! [`PropertySuite`] is the high-level driver.  It owns an automaton
//! vector plus a memory configuration and compiles declared properties
//! into the engine hooks of [`amx_sim::mc::ModelChecker`]:
//!
//! * [`PropertySuite::always`] — safety: the predicate must hold on
//!   every reachable state.  Compiled to an on-the-fly
//!   [`Monitor`] watching the predicate's negation during the BFS;
//!   a violated property reports a shortest counterexample schedule
//!   reconstructed through the engine's witness machinery.
//! * [`PropertySuite::reachable`] — diagnosis: does the predicate hold
//!   *somewhere*?  Compiled to a monitor watching the predicate itself.
//! * [`PropertySuite::scc_query`] — an SCC-interior query streamed over
//!   a detected fair-livelock component ([`SccQuery`]),
//!   symmetry-expanded when the predicate is not orbit-invariant.
//! * [`PropertySuite::check_starvation`] — per-process
//!   starvation-freedom, decided on the naive concrete graph by
//!   [`crate::liveness::starvation`].
//!
//! Deadlock-freedom and mutual exclusion need no declaration: the
//! engine always decides both, and [`SuiteReport`] surfaces them.
//!
//! Free-standing compilers ([`monitor_for`], [`scc_query_for`]) are
//! exported for callers that drive [`ModelChecker`] directly (the
//! `mc_sweep` harness does).

use amx_registers::adversary::AdversaryError;
use amx_registers::{Adversary, Permutation};
use amx_sim::mc::{McError, McReport, ModelChecker, Monitor, SccQuery, Verdict};
use amx_sim::{EncodeState, MemoryModel, Symmetry};

use crate::graph;
use crate::liveness::{self, StarvationReport};
use crate::obs::{Obs, Observe};
use crate::predicate::StatePredicate;

/// Compiles a [`StatePredicate`] into an engine [`Monitor`].
///
/// The monitor observes each stored state through [`Obs::observe`]
/// (capturing clones of the automata and the adversary permutations)
/// and fires when `pred` **holds** — for a safety property "always P",
/// pass `P.not()`.  All of [`crate::predicate`]'s built-ins are
/// orbit-invariant, satisfying the [`Monitor`] symmetry contract; a
/// custom non-invariant predicate is only sound with
/// [`Symmetry::Off`].
///
/// Cost: each compiled monitor builds its own [`Obs`] per stored state
/// (one `O(n + m)` scan plus a small allocation).  That is noise next
/// to the engine's per-state canonicalization (which encodes every
/// group image), but with many monitors on a huge run, prefer one
/// composed predicate over k separate monitors where the per-name
/// accounting is not needed.
pub fn monitor_for<A>(
    pred: &StatePredicate,
    automata: &[A],
    perms: &[Permutation],
    fatal: bool,
) -> Monitor<A::State>
where
    A: Observe + Clone + Send + Sync + 'static,
{
    let pred = pred.clone();
    let automata = automata.to_vec();
    let perms = perms.to_vec();
    Monitor {
        name: pred.name().to_string(),
        fatal,
        eval: std::sync::Arc::new(move |slots, procs| {
            pred.eval(&Obs::observe(&automata, &perms, slots, procs))
        }),
    }
}

/// Compiles a [`StatePredicate`] into an engine [`SccQuery`], carrying
/// the predicate's orbit-invariance declaration (non-invariant
/// predicates are evaluated on every symmetry image of every component
/// member).
pub fn scc_query_for<A>(
    pred: &StatePredicate,
    automata: &[A],
    perms: &[Permutation],
) -> SccQuery<A::State>
where
    A: Observe + Clone + Send + Sync + 'static,
{
    let pred = pred.clone();
    let automata = automata.to_vec();
    let perms = perms.to_vec();
    SccQuery {
        name: pred.name().to_string(),
        orbit_invariant: pred.orbit_invariant(),
        eval: std::sync::Arc::new(move |slots, procs| {
            pred.eval(&Obs::observe(&automata, &perms, slots, procs))
        }),
    }
}

/// What a declared property asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// The predicate holds on every reachable state.
    Always,
    /// The predicate holds on at least one reachable state.
    Reachable,
}

/// Outcome of one declared property.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// Property name (`always` properties carry the predicate name;
    /// `reachable` ones are wrapped as `reachable(name)`).
    pub name: String,
    /// The assertion kind.
    pub kind: PropertyKind,
    /// Whether the property holds as stated.
    pub holds: bool,
    /// Stored states on which the underlying *predicate-of-interest*
    /// held (the violation for `Always`, the predicate for
    /// `Reachable`).
    pub hit_states: usize,
    /// Shortest schedule to a hit state: the counterexample for a
    /// violated `Always`, the witness for a satisfied `Reachable`.
    pub witness_schedule: Option<Vec<usize>>,
}

/// Results of a [`PropertySuite`] run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The underlying engine report (verdict, state counts, monitors,
    /// SCC-query answers, per-process `max_pending_depth`).
    pub mc: McReport,
    /// Declared property outcomes, in declaration order.
    pub properties: Vec<PropertyReport>,
    /// Mutual exclusion held on the whole reachable space (the engine's
    /// built-in check).
    pub mutual_exclusion: bool,
    /// No fair livelock exists (the engine's SCC pass).
    pub deadlock_free: bool,
    /// Per-process starvation analysis, when requested.
    pub starvation: Option<StarvationReport>,
    /// `true` when exploration aborted early (mutual-exclusion
    /// violation): property hit counts then cover only the explored
    /// prefix.
    pub truncated: bool,
}

impl SuiteReport {
    /// Looks up a declared property's outcome by name.
    #[must_use]
    pub fn property(&self, name: &str) -> Option<&PropertyReport> {
        self.properties.iter().find(|p| p.name == name)
    }
}

/// Declarative property checking over one automaton configuration; see
/// the [module docs](self) and the crate-level example.
#[derive(Debug)]
pub struct PropertySuite<A: Observe> {
    automata: Vec<A>,
    model: MemoryModel,
    m: usize,
    adversary: Adversary,
    perms: Vec<Permutation>,
    symmetry: Symmetry,
    max_states: usize,
    threads: Option<usize>,
    always: Vec<StatePredicate>,
    reachable: Vec<StatePredicate>,
    queries: Vec<StatePredicate>,
    starvation: bool,
    starvation_max_states: usize,
}

impl<A> PropertySuite<A>
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send,
{
    /// A suite over `automata` and an `m`-register memory with the
    /// identity adversary.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization failures.
    pub fn new(automata: Vec<A>, model: MemoryModel, m: usize) -> Result<Self, AdversaryError> {
        Self::with_adversary(automata, model, m, Adversary::Identity)
    }

    /// A suite with an explicit adversary.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization failures.
    pub fn with_adversary(
        automata: Vec<A>,
        model: MemoryModel,
        m: usize,
        adversary: Adversary,
    ) -> Result<Self, AdversaryError> {
        let perms = adversary.permutations(automata.len(), m)?;
        Ok(PropertySuite {
            automata,
            model,
            m,
            adversary,
            perms,
            symmetry: Symmetry::Off,
            max_states: 2_000_000,
            threads: None,
            always: Vec::new(),
            reachable: Vec::new(),
            queries: Vec::new(),
            starvation: false,
            starvation_max_states: 200_000,
        })
    }

    /// Sets the engine symmetry mode (default [`Symmetry::Off`]).
    /// Declared predicates must be orbit-invariant under reduction.
    #[must_use]
    pub fn symmetry(mut self, symmetry: Symmetry) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Sets the engine state bound (default 2,000,000).
    #[must_use]
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Sets the engine worker-thread cap.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Declares a safety property: `pred` holds on every state.
    #[must_use]
    pub fn always(mut self, pred: StatePredicate) -> Self {
        self.always.push(pred);
        self
    }

    /// Declares a reachability diagnosis: does `pred` hold anywhere?
    #[must_use]
    pub fn reachable(mut self, pred: StatePredicate) -> Self {
        self.reachable.push(pred);
        self
    }

    /// Declares an SCC-interior query over a detected fair-livelock
    /// component.
    #[must_use]
    pub fn scc_query(mut self, pred: StatePredicate) -> Self {
        self.queries.push(pred);
        self
    }

    /// Requests the per-process starvation analysis (naive concrete
    /// graph, bounded by `max_states`).
    #[must_use]
    pub fn check_starvation(mut self, max_states: usize) -> Self {
        self.starvation = true;
        self.starvation_max_states = max_states;
        self
    }

    /// Runs the suite: one engine exploration carrying every compiled
    /// monitor and query, plus the starvation analysis when requested.
    ///
    /// # Errors
    ///
    /// Returns [`McError::StateSpaceExceeded`] when the engine
    /// exploration overflows its bound, and the other [`McError`]
    /// variants when an out-of-core run loses spilled state or cannot
    /// resume from its checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if the starvation analysis was requested and its (naive,
    /// separately bounded) exploration overflows — raise the bound via
    /// [`PropertySuite::check_starvation`].
    pub fn run(self) -> Result<SuiteReport, McError> {
        let mut mc =
            ModelChecker::with_automata(self.automata.clone(), self.model, self.m, &self.adversary)
                .expect("permutations already materialized for this adversary")
                .symmetry(self.symmetry)
                .max_states(self.max_states);
        if let Some(t) = self.threads {
            mc = mc.threads(t);
        }
        // Registration order = declaration order: `always` violations
        // first, then `reachable` predicates — mirrored below when the
        // monitor results are folded back into property outcomes.
        for pred in &self.always {
            mc = mc.monitor(monitor_for(
                &pred.clone().not(),
                &self.automata,
                &self.perms,
                false,
            ));
        }
        for pred in &self.reachable {
            mc = mc.monitor(monitor_for(pred, &self.automata, &self.perms, false));
        }
        for pred in &self.queries {
            mc = mc.scc_query(scc_query_for(pred, &self.automata, &self.perms));
        }
        let mc_report = mc.run()?;

        let mut properties = Vec::with_capacity(self.always.len() + self.reachable.len());
        for (pred, mon) in self.always.iter().zip(&mc_report.monitors) {
            properties.push(PropertyReport {
                name: pred.name().to_string(),
                kind: PropertyKind::Always,
                holds: !mon.hit_somewhere(),
                hit_states: mon.hit_states,
                witness_schedule: mon.witness_schedule.clone(),
            });
        }
        for (pred, mon) in self
            .reachable
            .iter()
            .zip(&mc_report.monitors[self.always.len()..])
        {
            properties.push(PropertyReport {
                name: format!("reachable({})", pred.name()),
                kind: PropertyKind::Reachable,
                holds: mon.hit_somewhere(),
                hit_states: mon.hit_states,
                witness_schedule: mon.witness_schedule.clone(),
            });
        }

        let starvation = self.starvation.then(|| {
            let g = graph::explore(
                &self.automata,
                self.model,
                self.m,
                &self.adversary,
                self.starvation_max_states,
            )
            .expect("starvation graph exceeded its bound; raise check_starvation's limit");
            liveness::starvation(&g)
        });

        let mutual_exclusion =
            !matches!(mc_report.verdict, Verdict::MutualExclusionViolation { .. });
        let deadlock_free = !matches!(mc_report.verdict, Verdict::FairLivelock { .. });
        let truncated = !mutual_exclusion;
        Ok(SuiteReport {
            mc: mc_report,
            properties,
            mutual_exclusion,
            deadlock_free,
            starvation,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{
        all_pending, at_most_one_writer_per_register, full_view, mutual_exclusion, writer_collision,
    };
    use amx_sim::toys::{CasLock, NaiveFlagLock, SpinForever};

    #[test]
    fn suite_certifies_cas_lock() {
        let ids = amx_ids::PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let report = PropertySuite::new(automata, MemoryModel::Rmw, 1)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .always(mutual_exclusion())
            .always(at_most_one_writer_per_register())
            .reachable(full_view())
            .run()
            .unwrap();
        assert!(report.mutual_exclusion && report.deadlock_free);
        assert!(!report.truncated);
        assert!(report.property("mutual-exclusion").unwrap().holds);
        assert!(
            report
                .property("at-most-one-writer-per-register")
                .unwrap()
                .holds
        );
        // The lock holder's id fills the single register: full view occurs.
        let reach = report.property("reachable(full-view)").unwrap();
        assert!(reach.holds && reach.hit_states > 0);
        assert!(reach.witness_schedule.is_some());
    }

    #[test]
    fn suite_reports_naive_flag_lock_hazards() {
        let ids = amx_ids::PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.into_iter().map(NaiveFlagLock::new).collect();
        let report = PropertySuite::new(automata, MemoryModel::Rw, 1)
            .unwrap()
            .always(at_most_one_writer_per_register())
            .run()
            .unwrap();
        // The engine's native check still fires (and truncates).
        assert!(!report.mutual_exclusion);
        assert!(report.truncated);
        // The stale-write collision is hit strictly earlier.
        let p = report.property("at-most-one-writer-per-register").unwrap();
        assert!(!p.holds);
        assert_eq!(p.witness_schedule.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn suite_queries_the_livelock_component() {
        let report = PropertySuite::new(vec![SpinForever, SpinForever], MemoryModel::Rw, 1)
            .unwrap()
            .scc_query(all_pending())
            .scc_query(writer_collision())
            .run()
            .unwrap();
        assert!(!report.deadlock_free);
        let q = &report.mc.scc_queries;
        assert_eq!(q.len(), 2);
        assert!(q[0].holds_everywhere, "spinners stay pending in the SCC");
        assert!(!q[1].holds_somewhere, "spinners never write");
    }

    #[test]
    fn suite_starvation_analysis_round_trip() {
        let ids = amx_ids::PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let report = PropertySuite::new(automata, MemoryModel::Rmw, 1)
            .unwrap()
            .check_starvation(100_000)
            .run()
            .unwrap();
        let starvation = report.starvation.unwrap();
        assert!(!starvation.starvation_free(), "TAS-style locks starve");
        assert!(report.deadlock_free, "but they are deadlock-free");
    }
}
