//! Classic *non-anonymous* mutual-exclusion baselines.
//!
//! The anonymous-memory algorithms of `amx-core` pay for the missing
//! naming agreement with extra register traffic.  To measure that price,
//! the contention rig (`lock_bench`) compares them against three locks a
//! non-anonymous shared memory affords:
//!
//! | Lock | Registers | Primitive | Fairness |
//! |------|-----------|-----------|----------|
//! | [`TasStepLock`] | 1 | compare&swap | none |
//! | [`BurnsStepLock`] | `n` flags | read/write only | none |
//! | [`PetersonTreeLock`] | `3 · (leaves − 1)` | read/write only | per level |
//!
//! The last two are read/write-only algorithms, the right non-anonymous
//! comparators for Algorithm 1; Burns–Lynch in particular is the
//! `m ≥ n` lower-bound-matching RW lock the paper cites.  Both hard-wire
//! each register's role to a process index — exactly the naming
//! agreement anonymous algorithms must do without (TAS, over a single
//! register, needs none).
//!
//! Each lock exists once, as a step machine in the [`automaton`] module
//! ([`TasAutomaton`], [`BurnsLynchAutomaton`], [`PetersonTwoAutomaton`]).
//! The exhaustive model checker certifies those with the same machinery
//! (and the same property monitors) as the paper's anonymous algorithms
//! — see `mc_sweep`'s baseline grid points — and the [`threaded`]
//! module drives the same step machines over real atomic registers
//! behind the unified `amx_core::lock::AmxLock` API, so the contention
//! rig measures baselines and anonymous algorithms through one trait
//! object.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod threaded;

pub use automaton::{BurnsLynchAutomaton, PetersonTwoAutomaton, TasAutomaton};
pub use threaded::{BurnsStepLock, PetersonTreeLock, TasStepLock};
