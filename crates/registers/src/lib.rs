//! Anonymous shared-memory substrate.
//!
//! Implements the memory model of the PODC 2019 paper: a shared array
//! `R[0..m)` of atomic registers where **each process addresses the array
//! through its own hidden permutation** `f_i` chosen by a static adversary
//! before the execution begins.  When process `p_i` accesses its local name
//! `R[x]` it actually touches `R[f_i(x)]`; the same local name used by two
//! processes may denote different physical registers (paper Table I).
//!
//! Two register families are provided, mirroring the paper's two models:
//!
//! * [`AnonymousRwMemory`] — atomic read/write registers, plus a
//!   linearizable `snapshot()` built from them by the classic double-collect
//!   construction with per-write sequence stamps (paper §II-B).
//! * [`AnonymousRmwMemory`] — read/modify/write registers adding
//!   `compare&swap`.
//!
//! Adversaries (permutation assignments) are built with
//! [`adversary::Adversary`]; see [`permutation::Permutation`] for the
//! underlying algebra.
//!
//! # Example: the paper's Table I
//!
//! ```
//! use amx_ids::{PidPool, Slot};
//! use amx_registers::{Adversary, AnonymousRwMemory};
//!
//! let mem = AnonymousRwMemory::new(3);
//! let perms = Adversary::table1().permutations(2, 3).unwrap();
//!
//! let mut pool = PidPool::sequential();
//! let (p, q) = (pool.mint(), pool.mint());
//! let hp = mem.handle(p, perms[0].clone());
//! let hq = mem.handle(q, perms[1].clone());
//!
//! // The physical register the paper calls R[1] is p's local R[2] and
//! // q's local R[3] (1-based); 0-based: p's name 1, q's name 2.
//! hp.write(1, Slot::from(p));
//! assert!(hq.read(2).is_owned_by(p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod automorphism;
pub mod orbit;
pub mod permutation;
pub mod rmw;
pub mod rw;
pub mod stats;

pub use adversary::Adversary;
pub use automorphism::{adversary_automorphism_count, adversary_automorphisms, AdvAutomorphism};
pub use orbit::{adversary_orbits, canonical_form};
pub use permutation::{all_permutations, Permutation, PermutationError};
pub use rmw::{AnonymousRmwMemory, RmwHandle};
pub use rw::{AnonymousRwMemory, RwHandle, SnapshotError};
pub use stats::{OpCounters, OpSnapshot};
