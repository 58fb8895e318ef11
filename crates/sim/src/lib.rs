//! Deterministic concurrency simulator and bounded model checker.
//!
//! The correctness arguments of the PODC 2019 paper quantify over *all*
//! asynchronous schedules and *all* adversary permutations.  Real threads
//! only sample a few schedules; this crate makes schedules first-class so
//! the arguments become executable:
//!
//! * [`mem::MemoryOps`] — the abstract interface of an anonymous memory
//!   (read / write / compare&swap / snapshot), implemented both by the
//!   deterministic [`mem::SimMemory`] here and by the real atomic arrays
//!   in `amx-registers` (via adapters in `amx-core`).
//! * [`automaton::Automaton`] — a mutual-exclusion protocol as an explicit
//!   step machine: each step performs **exactly one** shared-memory
//!   operation (or completes a lock/unlock).  Algorithms 1 and 2 of the
//!   paper are implemented against this trait in `amx-core`.
//! * [`schedule::Scheduler`] — round-robin, seeded-random, lock-step and
//!   scripted schedules.
//! * [`runner::Runner`] — closed-loop executions with invariant monitors
//!   (mutual exclusion, progress counters, traces).
//! * [`mc::ModelChecker`] — exhaustive exploration of the reachable state
//!   space, checking mutual exclusion on every state and detecting *fair
//!   livelock* (the formal negation of deadlock-freedom) by SCC analysis.
//!
//! The model checker is built for scale, not just small configurations:
//!
//! * **Compressed interned states** — every reachable node is one byte
//!   string ([`encode::EncodeState`]) interned in a page-compressed
//!   arena ([`intern::StateArena`]): states are byte-mask deltas
//!   against per-page raw bases, roughly halving the bytes per stored
//!   state.  Successors are generated into reused scratch buffers, so
//!   the hot loop performs no per-step clones or per-node allocations
//!   beyond the single arena append.
//! * **Symmetry reduction** ([`mc::Symmetry::Wreath`]) — the paper's
//!   algorithms are symmetric (identities support equality only) and
//!   the memory is *anonymous*, so states that differ by permuting
//!   interchangeable processes, consistently relabeling their
//!   identities, and relabeling the physical registers along an
//!   automorphism of the adversary (`ρ ∘ f_i = f_{π(i)}`) are
//!   isomorphic.  The checker canonicalizes each state under that joint
//!   group, storing one representative per orbit (up to the group order
//!   fewer states — and the group is nontrivial even on rotation/ring
//!   adversaries where no two processes share a permutation) while
//!   still producing *concrete* witness schedules, and reports the
//!   exact concrete state count alongside the canonical one.
//! * **One level engine at every worker count**
//!   ([`mc::ModelChecker::threads`], or the `AMX_MC_THREADS`
//!   environment variable) — every breadth-first level expands its
//!   nodes against the frozen seen set, then interns the survivors in
//!   `(parent position, actor)` order.  One worker runs both phases on
//!   the calling thread; more split the expansion over work-stealing
//!   deques and the interning over 64 worker-owned seen-set shards, and
//!   the pool is capped at the machine's available parallelism.  States
//!   are numbered in breadth-first discovery order at every worker
//!   count, so verdicts, witnesses, counts and query answers are
//!   identical whatever the worker count.
//! * **O(states) memory livelock pass** — exploration records each
//!   completion-free edge (target id and canonicalizing group element)
//!   into a dense `states × n` table as it expands a state, and the
//!   deadlock-freedom pass runs Tarjan's decomposition
//!   ([`scc::tarjan_sccs_csr`]) straight over it: no successor is
//!   regenerated and no transition list is buffered.
//! * **Out-of-core exploration** — each seen-set shard's arena can
//!   spill cold compressed pages to disk under a resident-byte budget
//!   ([`mc::ModelChecker::resident_budget`], CLOCK eviction, transparent
//!   fault-in — the SCC and query passes run unchanged against a
//!   spilled arena), and completed BFS levels can be checkpointed to
//!   disk ([`mc::ModelChecker::checkpoint_dir`]) so a killed multi-hour
//!   sweep resumes bit-identically ([`mc::ModelChecker::resume`]).
//!
//! The simulator linearizes each operation (including `snapshot`) at a
//! single step, which is exactly the atomicity the paper's proofs assume.
//!
//! # Example: model-check a toy broken lock
//!
//! ```
//! use amx_sim::mc::{ModelChecker, Verdict};
//! use amx_sim::toys::NaiveFlagLock;
//! use amx_sim::MemoryModel;
//!
//! // Two processes, one register, a lock with a classic check-then-act
//! // race: the checker finds the mutual-exclusion violation.
//! let report = ModelChecker::from_factory(NaiveFlagLock::new, MemoryModel::Rw, 2, 1)
//!     .run()
//!     .unwrap();
//! assert!(matches!(report.verdict, Verdict::MutualExclusionViolation { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
mod checkpoint;
pub mod encode;
pub mod fault;
pub mod intern;
pub mod mc;
pub mod mem;
pub mod runner;
pub mod scc;
pub mod schedule;
pub mod toys;
pub mod trace;

pub use automaton::{closed_loop_step, Automaton, Outcome, Phase};
pub use encode::EncodeState;
pub use fault::FaultPlan;
pub use intern::SpillError;
pub use mc::{
    ConfigError, CrashBudget, CrashMode, McError, McReport, ModelChecker, Monitor, SccQuery,
    Symmetry, Verdict,
};
pub use mem::{MemoryModel, MemoryOps, SimMemory};
pub use runner::{RunReport, Runner, Stop, TraceEvent, Workload};
pub use schedule::Scheduler;
