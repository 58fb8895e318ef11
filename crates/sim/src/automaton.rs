//! Mutual-exclusion protocols as explicit step machines.
//!
//! An [`Automaton`] separates a protocol's immutable *configuration*
//! (memory size, process identity, tie-breaking policy) from its mutable
//! per-execution [`Automaton::State`].  Drivers — the random-schedule
//! [`crate::runner::Runner`], the exhaustive [`crate::mc::ModelChecker`],
//! the Theorem 5 lock-step executor in `amx-lowerbound`, and the threaded
//! adapters in `amx-core` — advance the state one step at a time.
//!
//! **Step discipline:** every call to [`Automaton::step`] performs at most
//! one shared-memory operation.  Local computation rides along with the
//! step that consumes its input, which keeps simulated interleavings in
//! one-to-one correspondence with sequences of memory linearization
//! points (local steps commute with everything).

use std::fmt::Debug;
use std::hash::Hash;

use crate::mem::MemoryOps;

/// What a protocol step produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The step performed a shared-memory operation (or a bookkeeping
    /// transition) and the current invocation is still in progress.
    Progress,
    /// The pending `lock()` completed — the process is now in its
    /// critical section.
    Acquired,
    /// The pending `unlock()` completed — the process is back in its
    /// remainder section.
    Released,
}

/// Where a process is in its lifecycle, as tracked by drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Not competing: no pending invocation.
    Remainder,
    /// Inside `lock()`.
    Trying,
    /// Inside the critical section.
    Cs,
    /// Inside `unlock()`.
    Exiting,
}

/// A mutual-exclusion protocol, instantiated for one process.
///
/// The implementor owns configuration (its identity, `m`, policies);
/// execution state lives in [`Automaton::State`] so drivers can clone,
/// hash, and compare it (the model checker's state space is the product
/// of process states and memory contents).
pub trait Automaton {
    /// Mutable per-execution protocol state.
    type State: Clone + Eq + Hash + Debug;

    /// State of a process in its remainder section, before any invocation.
    fn init_state(&self) -> Self::State;

    /// Begins a `lock()` invocation.  The next [`step`](Self::step) call
    /// executes the first operation of the entry protocol.
    fn start_lock(&self, state: &mut Self::State);

    /// Begins an `unlock()` invocation.
    fn start_unlock(&self, state: &mut Self::State);

    /// Executes one step of the pending invocation against `mem`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called with no pending invocation
    /// (i.e. without a preceding `start_lock`/`start_unlock`) — drivers
    /// never do this.
    fn step<M: MemoryOps + ?Sized>(&self, state: &mut Self::State, mem: &mut M) -> Outcome;

    /// The process identity this automaton writes into shared registers,
    /// if any.
    ///
    /// Used by the model checker's process-symmetry reduction to relabel
    /// identities consistently when permuting process roles.  The default
    /// `None` declares "this automaton never stores an identity" (e.g.
    /// [`crate::toys::SpinForever`]); automata that do write their id
    /// must override it for the reduction to be sound.
    fn pid(&self) -> Option<amx_ids::Pid> {
        None
    }

    /// State a process restarts from after a *crash*: the model
    /// checker's crash–recovery mode ([`crate::mc::ModelChecker::crashes`])
    /// resets a crashed process to its remainder section with this
    /// state.  The default — a fresh [`init_state`](Self::init_state) —
    /// models a process that reboots with no local memory, which is the
    /// paper-relevant semantics for anonymous-memory algorithms (a
    /// recovering process cannot even remember *which* registers it
    /// claimed).  Whether its shared-memory claims survive the crash is
    /// the checker's [`crate::mc::CrashMode`] knob, not the automaton's.
    fn crash_state(&self) -> Self::State {
        self.init_state()
    }

    /// Symmetry handshake: a token identifying this automaton's
    /// configuration *with the process identity erased*.
    ///
    /// The model checker's [`crate::mc::Symmetry::Wreath`] reduction
    /// only maps a process onto another that returns an equal `Some`
    /// token (and only along an automorphism of the adversary, which
    /// relabels the physical registers to match their permutations).
    /// Returning `Some(t)` is a promise: another automaton with the same
    /// token behaves identically after swapping the two identities
    /// everywhere.  The default `None` opts out — a process that never
    /// declares a class is never permuted, so the reduction degrades
    /// gracefully to the full exploration instead of becoming unsound.
    /// Asymmetric automata (e.g. Peterson's, where each side is
    /// hard-wired) must return distinct tokens per role or `None`.
    fn symmetry_class(&self) -> Option<u64> {
        None
    }
}

/// Drives one scheduled step of the closed-loop workload `remainder →
/// lock → CS → unlock → …` that the model checker explores and the
/// deadlock-freedom property is stated under: a process scheduled in
/// its remainder (resp. critical) section first begins a `lock()`
/// (resp. `unlock()`) invocation, then executes one protocol step, and
/// the phase advances on completion outcomes.
///
/// The model checker's successor generation delegates here, and witness
/// replays (tests, trace tooling) should too, so the phase-machine
/// contract lives in exactly one place.
///
/// # Example
///
/// ```
/// use amx_sim::automaton::closed_loop_step;
/// use amx_sim::toys::SpinForever;
/// use amx_sim::{Automaton, MemoryModel, Outcome, Phase, SimMemory};
///
/// let aut = SpinForever;
/// let mut mem = SimMemory::new(MemoryModel::Rw, 1, &amx_registers::Adversary::Identity, 1).unwrap();
/// let mut phase = Phase::Remainder;
/// let mut state = aut.init_state();
/// let out = closed_loop_step(&aut, &mut phase, &mut state, &mut mem.view(0));
/// assert_eq!((out, phase), (Outcome::Progress, Phase::Trying));
/// ```
pub fn closed_loop_step<A: Automaton + ?Sized, M: MemoryOps + ?Sized>(
    aut: &A,
    phase: &mut Phase,
    state: &mut A::State,
    mem: &mut M,
) -> Outcome {
    match *phase {
        Phase::Remainder => {
            aut.start_lock(state);
            *phase = Phase::Trying;
        }
        Phase::Cs => {
            aut.start_unlock(state);
            *phase = Phase::Exiting;
        }
        Phase::Trying | Phase::Exiting => {}
    }
    let outcome = aut.step(state, mem);
    match outcome {
        Outcome::Acquired => *phase = Phase::Cs,
        Outcome::Released => *phase = Phase::Remainder,
        Outcome::Progress => {}
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_and_phase_are_plain_data() {
        // Hash/Eq/Copy smoke tests; these types key maps in drivers.
        use std::collections::HashSet;
        let outcomes: HashSet<Outcome> = [Outcome::Progress, Outcome::Acquired, Outcome::Released]
            .into_iter()
            .collect();
        assert_eq!(outcomes.len(), 3);
        let phases: HashSet<Phase> = [Phase::Remainder, Phase::Trying, Phase::Cs, Phase::Exiting]
            .into_iter()
            .collect();
        assert_eq!(phases.len(), 4);
        let p = Phase::Trying;
        let q = p; // Copy
        assert_eq!(p, q);
    }
}
