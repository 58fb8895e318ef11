//! Property & state-space-query subsystem for the `amx` model checker.
//!
//! The exploration engine in `amx-sim` answers one fixed question per
//! run — mutual exclusion plus fair-livelock of the global automaton.
//! The paper's claims, however, are a *family* of properties (mutual
//! exclusion, deadlock-freedom, and the stronger starvation-freedom the
//! paper deliberately does **not** claim), and the open questions in
//! the ROADMAP hinge on queries the raw engine cannot express ("does
//! any full view occur anywhere inside a livelock SCC?").  This crate
//! turns the engine into a scenario-diverse checker:
//!
//! * [`obs`] — the [`Observe`] trait: a uniform,
//!   per-algorithm observation of a decoded state (who is in the
//!   critical section, who is pending, which registers are claimed,
//!   whether the view is full, which register each process has a
//!   committed pending write aimed at).  Implemented for Algorithm 1,
//!   Algorithm 2, `GreedyClaimer`, the `amx-sim` toys and the
//!   `amx-baselines` automata.
//! * [`predicate`] — composable [`StatePredicate`]s over those
//!   observations (`and`/`or`/`not`), with the built-ins the paper's
//!   claims map onto: [`predicate::mutual_exclusion`],
//!   [`predicate::full_view`], [`predicate::writer_collision`],
//!   [`predicate::all_pending`], …
//! * [`property`] — predicates compiled into the model-checking run:
//!   safety checked *on-the-fly* during the BFS (through the engine's
//!   [`amx_sim::mc::Monitor`] hook, with counterexample schedules
//!   reconstructed through the existing witness machinery), liveness
//!   (deadlock-freedom) decided by the engine's SCC pass, and
//!   SCC-interior queries (through [`amx_sim::mc::SccQuery`]) streamed
//!   over detected livelock components, symmetry-expanded where a
//!   predicate is not orbit-invariant.
//! * [`graph`] — a deliberately naive full-state-graph explorer, the
//!   independent differential oracle: post-hoc predicate evaluation
//!   over every reachable state must agree with the on-the-fly
//!   monitors (`tests/tests/props_differential.rs`).
//! * [`liveness`] — per-process **starvation-freedom** under the fair
//!   scheduler, decided by predicate-labeled SCC analysis layered on
//!   [`amx_sim::scc`]: process `i` is starvable iff the graph minus
//!   `i`'s acquisition edges has a fair cycle keeping `i` pending.
//!
//! # Property ↔ paper claim map
//!
//! | Property | Paper claim |
//! |----------|-------------|
//! | `always(mutual_exclusion())` | Theorem 3 / Theorem 6: Algorithms 1 and 2 are mutexes |
//! | deadlock-freedom (no fair livelock) | Theorems 3/6: deadlock-free for `m ∈ M(n)` |
//! | starvation-freedom | **Not** claimed — the paper contrasts deadlock-freedom with it; [`liveness`] exhibits the starving executions |
//! | `reachable(full_view())` | Lines 7–9 of Algorithm 1 only run on a full view; absence inside an SCC proves the withdrawal rule inert there |
//! | `reachable(writer_collision())` | The line-5/6 stale-write window: two processes committed to write the same register |
//!
//! # Example: certify a toy, quantitatively
//!
//! ```
//! use amx_props::predicate::{mutual_exclusion, writer_collision};
//! use amx_props::property::PropertySuite;
//! use amx_sim::toys::CasLock;
//! use amx_sim::MemoryModel;
//!
//! let ids = amx_ids::PidPool::sequential().mint_many(2);
//! let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
//! let report = PropertySuite::new(automata, MemoryModel::Rmw, 1)
//!     .unwrap()
//!     .always(mutual_exclusion())
//!     .reachable(writer_collision())
//!     .run()
//!     .unwrap();
//! assert!(report.property("mutual-exclusion").unwrap().holds);
//! assert!(!report.property("reachable(writer-collision)").unwrap().holds);
//! assert!(report.deadlock_free);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod liveness;
pub mod obs;
pub mod predicate;
pub mod property;

pub use obs::{Obs, Observe};
pub use predicate::StatePredicate;
pub use property::{PropertyReport, PropertySuite, SuiteReport};
