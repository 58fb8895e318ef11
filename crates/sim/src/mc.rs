//! Exhaustive state-space exploration for small configurations.
//!
//! For `n` automata over an `m`-register [`SimMemory`], every process
//! always has exactly one next step, so the reachable state space is the
//! graph whose nodes are `(memory contents, per-process phase+state)` and
//! whose edges are "process `i` takes its next step".  The automata of
//! this workspace have finite state in the simulator model, so the graph
//! is finite and the paper's two correctness properties become decidable:
//!
//! * **Mutual exclusion** — no reachable node has two processes in phase
//!   [`Phase::Cs`].  Checked on every node during exploration; on failure
//!   the breadth-first parent chain yields a shortest violating schedule.
//! * **Deadlock-freedom** — no *fair livelock*: after deleting all
//!   completion edges (lock/unlock finishing), no strongly-connected
//!   component may contain steps of every pending process while some
//!   process is pending and none is parked inside its critical section.
//!   A fair infinite execution without completions must eventually stay
//!   inside one SCC of the completion-free graph, so this check is sound
//!   and complete for the explored model.
//!
//! Processes run the closed loop `remainder → lock → CS → unlock → …`
//! forever (the workload under which deadlock-freedom is stated).
//!
//! # Engine architecture
//!
//! The explorer stores each reachable node as one flat byte string (the
//! [`crate::encode::EncodeState`] encoding of the memory slots plus all
//! process phase/state pairs) inside one interned
//! [`crate::intern::StateArena`] — no cloned `Vec<Slot>` per node and no
//! cloned node per successor step (successors are generated into reused
//! scratch buffers).
//!
//! Every breadth-first level runs the same two-phase code, in rounds of
//! at most 16K frontier nodes:
//!
//! 1. **Expand** — each node is decoded, stepped once per process (and
//!    per admissible crash), and every successor canonicalized; a probe
//!    of the frozen seen set drops successors interned by an earlier
//!    round or level, and the survivors are queued.
//! 2. **Drain** — the calling thread interns the queue in `(frontier
//!    position, actor)` order, so the first generator of a state becomes
//!    its breadth-first parent and the next frontier keeps that order.
//!
//! With one worker both phases run on the calling thread.  With more
//! ([`ModelChecker::threads`]), the expand phase runs on per-worker
//! deques with back-half work stealing, each worker probing the frozen
//! seen set through its own page cache.  Either way there is one seen
//! set, and a state's id is its index in it: breadth-first discovery
//! order, so verdicts, witness schedules, counts and SCC-query answers
//! are identical whatever the worker count.
//!
//! The builder's knobs beyond the state bound:
//!
//! * [`ModelChecker::symmetry`] — with [`Symmetry::Wreath`], each node
//!   is canonicalized under the memory's *joint* symmetry group before
//!   interning: pairs `(π, ρ)` of a process permutation and a physical
//!   register relabeling that are automorphisms of the adversary
//!   (`ρ ∘ f_i = f_{π(i)}`), enumerated once per run by
//!   [`amx_registers::automorphism::adversary_automorphisms`] and
//!   restricted to processes with equal [`Automaton::symmetry_class`]
//!   tokens; identities are relabeled consistently in every register
//!   slot via [`amx_ids::codec::PidMap`].  The paper's algorithms are
//!   symmetric by construction, so orbits collapse by up to the group
//!   order and the stored state count drops accordingly.  The
//!   canonical representative is the lexicographically least image.
//!   Images are ranked on their slot sections first, as integer keys
//!   without writing a byte; only the elements tied on the least slot
//!   section are encoded, component by component, each abandoned at its
//!   first component above the running minimum.  The elements whose
//!   image equals the minimum form one coset of the state's stabilizer,
//!   so counting them gives the exact orbit size.  Witness
//!   schedules remain concrete: the group element used on each tree
//!   edge is recorded, and parent chains are mapped back through the
//!   accumulated permutation (`ρ` never appears in schedules — it only
//!   relabels the register array).
//! * [`ModelChecker::threads`] — the worker cap described above (the
//!   pool is also capped at the machine's available parallelism).
//! * [`ModelChecker::progress`] — optional throttled live-progress
//!   callback (states, exact concrete-orbit accounting, transitions).
//! * [`ModelChecker::monitor`] — on-the-fly state predicates: fatal
//!   monitors abort with [`Verdict::PropertyViolation`] plus a shortest
//!   counterexample schedule; watch monitors count hits and record a
//!   shortest witness in [`McReport::monitors`].  The `amx-props` crate
//!   compiles its composable predicate layer into this hook.
//! * [`ModelChecker::scc_query`] — SCC-interior queries: when the
//!   fair-livelock pass confirms a component, its states are streamed
//!   back out of the interned store and each query reports
//!   somewhere/everywhere with a concrete witness schedule
//!   ([`McReport::scc_queries`]), symmetry-expanding members for
//!   non-orbit-invariant predicates.
//! * [`ModelChecker::resident_budget`], [`ModelChecker::checkpoint_dir`]
//!   and [`ModelChecker::crashes`] — out-of-core exploration, resumable
//!   levels and crash–recovery edges.
//!
//! The deadlock-freedom pass reads an edge table that exploration
//! fills as it goes: when a level expands a state, each
//! completion-free successor's id (from the seen-set probe, or from the
//! drain that interned it) and canonicalizing group element are
//! written into the state's row of a dense `states × n` table, rows in
//! breadth-first discovery order.  After BFS, Tarjan's SCC
//! decomposition ([`crate::scc::tarjan_sccs_csr`]) runs straight over
//! that table, so the pass steps no automaton, canonicalizes nothing
//! and probes no seen table, and memory stays O(states · n) rather than
//! O(stored transitions).  Checkpoints carry the rows of the states
//! already expanded, so a resumed run needs no regeneration either.
//!
//! Under [`Symmetry::Wreath`], the fair-livelock check runs on the orbit
//! quotient.  A component none of whose internal edges relabels
//! positions is decided exactly there, per position, without decoding
//! more than one member; a component whose edges relabel is checked at
//! the granularity of symmetry classes (processes in one group orbit are
//! indistinguishable in the quotient).  Candidates that pass are then
//! confirmed exactly on their concrete orbit expansion, the only path
//! that reports a livelock under symmetry.  The differential test suites
//! cross-validate the reduction against the full exploration on every
//! algorithm in this workspace; [`Symmetry::Off`] remains the default
//! and is exact.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use amx_ids::codec::{PidMap, RegMap};
use amx_ids::Slot;

use crate::automaton::{Automaton, Outcome, Phase};
use crate::checkpoint;
use crate::encode::{self, EncodeState};
use crate::fault::FaultPlan;
use crate::intern::{anon_spill_file, hash_bytes, PageCache, SpillError, StateArena};
use crate::mem::SimMemory;
use crate::scc;

/// Actor-byte flag marking a BFS-tree edge as a *crash* of process
/// `actor & !CRASH_ACTOR` (process indices are capped at 64, so the
/// high bit is free).  In reported witness schedules a crash of process
/// `i` appears as the entry `n + i` (`n` the process count) — see
/// [`Verdict`].
const CRASH_ACTOR: u8 = 0x80;

/// Final verdict of a model-checking run.
///
/// **Witness schedules under crash–recovery:** when the run enabled
/// [`ModelChecker::crashes`], schedule entries `< n` (the process
/// count) schedule a normal step of that process, and an entry `n + i`
/// means "process `i` crashes here" (resets to its remainder section
/// per the configured [`CrashMode`]).  Runs without crashes only ever
/// report entries `< n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both properties hold on the full reachable state space.
    Ok,
    /// Two processes can be in the critical section simultaneously.
    MutualExclusionViolation {
        /// A shortest schedule (sequence of process indices) reaching the
        /// violation from the initial state.
        schedule: Vec<usize>,
        /// The two processes simultaneously in the critical section.
        procs: (usize, usize),
    },
    /// A fair livelock: the processes in `pending` can step forever
    /// without any lock/unlock completing, no other process holding the
    /// critical section.
    FairLivelock {
        /// Processes with pending invocations that all keep stepping.
        pending: Vec<usize>,
        /// Number of states in the livelock component (canonical states
        /// under the active symmetry mode).
        scc_states: usize,
        /// A schedule (sequence of process indices) leading from the
        /// initial state into the livelock component.
        witness_schedule: Vec<usize>,
    },
    /// A fatal safety [`Monitor`] hit a state: the watched predicate
    /// held on a reachable state (monitors watch for *violations*, so
    /// the predicate is the negation of the safety property).
    PropertyViolation {
        /// Name of the monitor that fired.
        property: String,
        /// A shortest schedule (sequence of process indices) reaching
        /// the hit state from the initial state (empty when the initial
        /// state itself hits).
        schedule: Vec<usize>,
    },
    /// Exploration stopped voluntarily at a level boundary after
    /// writing the number of checkpoints requested via
    /// [`ModelChecker::halt_after_checkpoints`].  Not a property
    /// verdict: re-run with [`ModelChecker::resume`] against the same
    /// checkpoint directory to continue bit-identically.
    Interrupted {
        /// Completed breadth-first levels at the halt (the level the
        /// resumed run continues from).
        level: u32,
        /// Checkpoints this run wrote before halting.
        checkpoints: u32,
    },
}

/// Shared predicate type of [`Monitor`] and [`SccQuery`]: evaluated on
/// `(physical slots, per-process (phase, state))` of a decoded node.
pub type StateEval<S> = Arc<dyn Fn(&[Slot], &[(Phase, S)]) -> bool + Send + Sync>;

/// A state predicate watched on-the-fly during exploration — the
/// engine-level hook the `amx-props` property subsystem compiles
/// [`StatePredicate`](https://docs.rs)-style predicates into.
///
/// The predicate is evaluated once per *stored* state, on the state's
/// canonical representative (physical slot order).  Under symmetry
/// reduction the
/// predicate therefore **must be orbit-invariant** (invariant under
/// permuting processes, relabeling their identities, and — under
/// [`Symmetry::Wreath`] — relabeling the physical registers), the same
/// contract the reduction itself rests on; with [`Symmetry::Off`] any
/// predicate is fine.  Mutual-exclusion violations abort exploration
/// before monitors see the violating state (that check is built in).
pub struct Monitor<S> {
    /// Monitor name, quoted in reports and verdicts.
    pub name: String,
    /// `true`: a hit aborts exploration with
    /// [`Verdict::PropertyViolation`] (use for must-hold safety
    /// invariants, watching their negation).  `false`: hits are counted
    /// and the first witness recorded in [`McReport::monitors`], and
    /// exploration continues (use for "does this ever happen?"
    /// reachability queries).
    pub fatal: bool,
    /// The predicate: `(physical slots, per-process (phase, state))`.
    pub eval: StateEval<S>,
}

impl<S> std::fmt::Debug for Monitor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("name", &self.name)
            .field("fatal", &self.fatal)
            .finish_non_exhaustive()
    }
}

impl<S> Monitor<S> {
    /// A non-fatal reachability monitor.
    pub fn watch(
        name: impl Into<String>,
        eval: impl Fn(&[Slot], &[(Phase, S)]) -> bool + Send + Sync + 'static,
    ) -> Self {
        Monitor {
            name: name.into(),
            fatal: false,
            eval: Arc::new(eval),
        }
    }

    /// A fatal safety monitor (the predicate is the *violation*).
    pub fn fatal(
        name: impl Into<String>,
        eval: impl Fn(&[Slot], &[(Phase, S)]) -> bool + Send + Sync + 'static,
    ) -> Self {
        Monitor {
            name: name.into(),
            fatal: true,
            eval: Arc::new(eval),
        }
    }
}

/// Outcome of one non-fatal [`Monitor`] over a completed exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorResult {
    /// Monitor name.
    pub name: String,
    /// How many stored (canonical) states hit the predicate.
    pub hit_states: usize,
    /// A shortest schedule reaching some hit state, when any state hit
    /// (empty schedule ⇒ the initial state hits).
    pub witness_schedule: Option<Vec<usize>>,
}

impl MonitorResult {
    /// `true` when the predicate held on at least one explored state.
    #[must_use]
    pub fn hit_somewhere(&self) -> bool {
        self.hit_states > 0
    }
}

/// A predicate query evaluated over the *interior* of a detected
/// fair-livelock SCC: which states of the component satisfy it?
///
/// Queries run after the fair-livelock pass confirms a component, by
/// streaming the component's states back out of the interned store.
/// With symmetry reduction active, an orbit-invariant query is
/// evaluated once per canonical member; a non-invariant query is
/// evaluated on every group image of every member (the symmetry
/// expansion), so `somewhere`/`everywhere` answers always quantify over
/// the *concrete* component.
pub struct SccQuery<S> {
    /// Query name, quoted in reports.
    pub name: String,
    /// Whether the predicate is invariant under the active symmetry
    /// group's action (process permutation + identity relabeling +
    /// physical register relabeling).  Invariant queries skip the orbit
    /// expansion; claiming invariance for a non-invariant predicate
    /// yields answers about canonical representatives only.
    pub orbit_invariant: bool,
    /// The predicate: `(physical slots, per-process (phase, state))`.
    pub eval: StateEval<S>,
}

impl<S> std::fmt::Debug for SccQuery<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SccQuery")
            .field("name", &self.name)
            .field("orbit_invariant", &self.orbit_invariant)
            .finish_non_exhaustive()
    }
}

impl<S> SccQuery<S> {
    /// An orbit-invariant SCC-interior query.
    pub fn invariant(
        name: impl Into<String>,
        eval: impl Fn(&[Slot], &[(Phase, S)]) -> bool + Send + Sync + 'static,
    ) -> Self {
        SccQuery {
            name: name.into(),
            orbit_invariant: true,
            eval: Arc::new(eval),
        }
    }

    /// A query that must be evaluated on every symmetry image.
    pub fn expanded(
        name: impl Into<String>,
        eval: impl Fn(&[Slot], &[(Phase, S)]) -> bool + Send + Sync + 'static,
    ) -> Self {
        SccQuery {
            name: name.into(),
            orbit_invariant: false,
            eval: Arc::new(eval),
        }
    }
}

/// Answer to one [`SccQuery`] over a detected livelock component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccQueryResult {
    /// Query name.
    pub name: String,
    /// States of the component examined (canonical members for
    /// orbit-invariant queries, concrete expansion states otherwise).
    pub states_examined: usize,
    /// Examined states satisfying the predicate.
    pub hit_states: usize,
    /// Predicate holds on at least one state of the concrete component.
    pub holds_somewhere: bool,
    /// Predicate holds on every state of the concrete component.
    pub holds_everywhere: bool,
    /// A concrete schedule from the initial state to a state satisfying
    /// the predicate, when one exists.
    pub witness_schedule: Option<Vec<usize>>,
    /// Human-readable rendering of the witness state the schedule
    /// reaches (canonical frame).
    pub witness_state: Option<String>,
}

/// Which state-graph symmetry the explorer quotients by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Symmetry {
    /// No reduction: every concrete state is stored.  Exact.
    #[default]
    Off,
    /// Wreath (register-aware) reduction: the full joint symmetry group
    /// of the anonymous memory.  Elements are pairs `(π, ρ)` — process
    /// permutation plus physical register relabeling — that are
    /// automorphisms of the adversary itself (`ρ ∘ f_i = f_{π(i)}`,
    /// enumerated once per run by
    /// [`amx_registers::automorphism::adversary_automorphisms`]), each
    /// with the matching identity relabeling.  Processes sharing an
    /// adversary permutation may be swapped with `ρ = id`, so on such
    /// adversaries (the identity adversary among them) the group is
    /// exactly the symmetric group on each set of interchangeable
    /// processes; on rotation/ring orbits, where no two processes share
    /// a permutation, it is still nontrivial.  Sound for automata
    /// honouring the [`Automaton::symmetry_class`] contract (processes
    /// that opt out with `None` are never permuted) whose states quote
    /// registers by local name only (or relabel quoted physical indices
    /// through the [`amx_ids::codec::RegMap`] codec hook).
    Wreath,
}

/// Statistics and verdict of a model-checking run.
#[derive(Debug, Clone)]
pub struct McReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Transitions explored.
    ///
    /// On a [`Verdict::MutualExclusionViolation`] or
    /// [`Verdict::PropertyViolation`] this and the other exploration
    /// counts (`acquisitions`, `canonical_states`,
    /// `full_states_estimate` and the monitor hit counts) cover the
    /// explored prefix only: exploration stops at the end of the
    /// expansion round (at most 16K frontier nodes) in which the
    /// violation was found.  The prefix is the same at every worker
    /// count, and so is the reported schedule.
    pub transitions: usize,
    /// How many transitions were critical-section acquisitions.
    pub acquisitions: usize,
    /// States stored during exploration (canonical states when symmetry
    /// reduction is active).
    pub canonical_states: usize,
    /// Exact size of the union of the stored states' orbits — i.e. the
    /// number of *concrete* states a [`Symmetry::Off`] run of the same
    /// configuration would store (assuming it completes).  Equals
    /// `canonical_states` when symmetry is off.
    pub full_states_estimate: usize,
    /// Largest breadth-first level encountered.
    pub peak_frontier: usize,
    /// Wall-clock duration of the exploration.
    pub wall_time: Duration,
    /// Wall-clock duration of the fair-livelock pass alone: SCC
    /// decomposition of the edge table recorded during exploration,
    /// component scan, orbit confirmation of candidates and
    /// [`SccQuery`] evaluation.  Zero when the pass did not run
    /// (violation, overflow or interruption).
    pub scc_wall_time: Duration,
    /// *Logical* bytes of the interned state arena after exploration:
    /// compressed records plus the offset index, shrunk to fit (the
    /// like-for-like successor of PR 2's flat-data figure), counting
    /// spilled pages as if resident.  With spill disabled this is also
    /// the resident figure; with a [`ModelChecker::resident_budget`]
    /// the RAM split is [`McReport::arena_resident_bytes`] vs.
    /// [`McReport::arena_spilled_bytes`].  The seen-set hash table is
    /// reported separately in [`McReport::seen_table_bytes`].
    pub arena_bytes: usize,
    /// Bytes of arena payload resident in RAM at report time (hot
    /// pages plus the open page and the offset index).  Equals
    /// [`McReport::arena_bytes`] when nothing spilled.
    pub arena_resident_bytes: usize,
    /// Bytes of arena payload evicted to the spill file at report
    /// time (zero without a [`ModelChecker::resident_budget`]).
    pub arena_spilled_bytes: usize,
    /// Page fault-ins served from the spill file across the whole run
    /// (exploration, checkpointing *and* the SCC/query passes).
    pub spill_faults: u64,
    /// Page evictions to the spill file across the whole run.
    pub spill_evictions: u64,
    /// Checkpoints written to [`ModelChecker::checkpoint_dir`] by this
    /// run (zero when checkpointing is off).
    pub checkpoints_written: u32,
    /// The completed-level count this run resumed from, when it was
    /// started via [`ModelChecker::resume`] and a checkpoint existed.
    pub resumed_from_level: Option<u32>,
    /// Resident bytes of the seen-set hash table (8 bytes per bucket).
    pub seen_table_bytes: usize,
    /// How many times an idle frontier worker stole work from a peer
    /// (always zero with one worker).
    pub steal_count: usize,
    /// Requested worker-thread cap (the pool itself is additionally
    /// clamped to the machine's available parallelism).
    pub threads: usize,
    /// Symmetry mode the run used.
    pub symmetry: Symmetry,
    /// Results of every registered [`Monitor`], in registration order.
    /// A fatal monitor that fired also reports here (its first hit and
    /// count up to the abort); on any early-aborting verdict the counts
    /// cover only the explored prefix (see [`McReport::transitions`]).
    pub monitors: Vec<MonitorResult>,
    /// Results of the [`SccQuery`]s over the detected fair-livelock
    /// component, in registration order; empty unless the verdict is
    /// [`Verdict::FairLivelock`] and queries were registered.
    pub scc_queries: Vec<SccQueryResult>,
    /// Per-process longest observed wait: the maximum number of steps a
    /// process takes inside one `lock()` invocation (its `Trying`
    /// phase) along any breadth-first tree path — i.e. along
    /// shortest-path executions — indexed by canonical process
    /// position.  Quantifies how close the explored space comes to
    /// starvation; saturates at `u16::MAX`.  Pure spin steps that leave
    /// the global state unchanged are self-loops, not tree edges, so
    /// they do not extend the metric (unbounded waiting is the
    /// starvation analysis' job — see `amx-props`).  Populated on
    /// completing runs (empty after a violation, overflow or
    /// interruption).  With symmetry reduction active, positions within
    /// one symmetry class are interchangeable, so read per-class maxima.
    /// Computed during exploration: each state's depths follow from its
    /// tree parent's when the state is stored, and checkpoints carry the
    /// frontier's depths and the running maxima.
    pub max_pending_depth: Vec<usize>,
    /// Degradation events of this run, in occurrence order: spill
    /// writes that failed (arena fell back to fully resident),
    /// checkpoint writes that failed (checkpointing disabled), corrupt
    /// checkpoints skipped on resume (fell back to an earlier level),
    /// spill files that could not be created (ran fully resident).
    /// Empty on a clean run; a non-empty list means the verdict is
    /// still exact but the run did not get the out-of-core behavior it
    /// asked for.
    pub degraded: Vec<String>,
}

/// Live snapshot handed to a [`ModelChecker::progress`] callback while
/// exploration runs.
#[derive(Debug, Clone, Copy)]
pub struct McProgress {
    /// Canonical states stored so far.
    pub states: usize,
    /// Exact concrete-state figure for the stored states (orbit
    /// accounting; equals `states` with symmetry off).
    pub full_states_estimate: usize,
    /// Transitions explored so far.
    pub transitions: usize,
    /// Time since the run started.
    pub elapsed: Duration,
}

/// Callback type for [`ModelChecker::progress`].
pub type ProgressFn = dyn Fn(&McProgress) + Send + Sync;

/// Error: the state space exceeded the configured bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSpaceExceeded {
    /// The configured bound.
    pub limit: usize,
}

impl std::fmt::Display for StateSpaceExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state space exceeded the bound of {} states", self.limit)
    }
}

impl std::error::Error for StateSpaceExceeded {}

/// What happens to a crashed process's shared-memory claims.
///
/// Both modes reset the process itself to its remainder section with
/// [`Automaton::crash_state`]; they differ only in what the *memory*
/// remembers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashMode {
    /// The crash atomically erases every register owned by the crashed
    /// process (its identity disappears from the array).  Models a
    /// runtime that cleans up after a dead participant — the friendly
    /// case.
    WipeRegisters,
    /// Registers keep whatever the process wrote: stale claims survive
    /// in the anonymous memory.  This is the adversarial,
    /// anonymous-memory-relevant case — survivors cannot distinguish a
    /// dead process's claim from a live slow one's.
    StaleClaims,
}

/// Adversary budget for crash edges: how many crashes the exploration
/// may schedule in one execution.
///
/// Crash counts are part of the explored state, so the state space
/// grows with the budget; small budgets (1 or 2) answer the
/// paper-level question "does the verdict survive `k` crashes?".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrashBudget {
    /// Crashes allowed across all processes in one execution.
    pub total: u8,
    /// Crashes allowed per individual process.
    pub per_process: u8,
}

impl CrashBudget {
    /// Budget of `k` crashes total, with no tighter per-process bound.
    #[must_use]
    pub fn total(k: u8) -> Self {
        CrashBudget {
            total: k,
            per_process: k,
        }
    }
}

/// Error of a [`ModelChecker::run`]: either the state space outgrew
/// the configured bound, or the out-of-core engine hit an I/O failure
/// it could not degrade around (spilled state became unreadable, or a
/// resume found no compatible checkpoint).
///
/// Recoverable I/O failures — a spill *write* failing, a checkpoint
/// write failing, a corrupt newest checkpoint with an older valid one
/// behind it — do **not** surface here: the engine degrades (fully
/// resident arena, checkpointing disabled, fall back a level) and
/// records what happened in [`McReport::degraded`].
#[derive(Debug)]
pub enum McError {
    /// More states are reachable than [`ModelChecker::max_states`].
    StateSpaceExceeded(StateSpaceExceeded),
    /// A spilled arena page could not be read back — interned state
    /// was lost, so no sound verdict exists.
    Spill(SpillError),
    /// [`ModelChecker::resume`] could not restore any checkpoint (I/O
    /// error on the directory, or a fingerprint from an incompatible
    /// configuration) — or the configuration itself is invalid: then
    /// the error has kind [`io::ErrorKind::InvalidInput`] and wraps a
    /// [`ConfigError`] (see [`McError::config`]), returned before any
    /// state is explored.
    Checkpoint(io::Error),
}

impl McError {
    /// The configuration error behind this error, when the run was
    /// refused before exploring anything.
    #[must_use]
    pub fn config(&self) -> Option<&ConfigError> {
        match self {
            McError::Checkpoint(e) => e.get_ref()?.downcast_ref(),
            _ => None,
        }
    }
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McError::StateSpaceExceeded(e) => e.fmt(f),
            McError::Spill(e) => write!(f, "spilled state lost: {e}"),
            McError::Checkpoint(e) => match self.config() {
                Some(c) => write!(f, "invalid configuration: {c}"),
                None => write!(f, "cannot resume: {e}"),
            },
        }
    }
}

/// A [`ModelChecker`] configuration that [`ModelChecker::run`] refuses
/// before exploring (carried by [`McError::Checkpoint`]; see
/// [`McError::config`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// [`ModelChecker::resume`] was requested without a
    /// [`ModelChecker::checkpoint_dir`] to resume from.
    ResumeWithoutCheckpointDir,
    /// [`ModelChecker::max_states`] exceeds what the 32-bit state ids
    /// can number.
    MaxStatesTooLarge {
        /// The configured bound.
        max_states: usize,
        /// The largest bound the id encoding admits, `u32::MAX - 1` at
        /// every worker count.
        limit: usize,
    },
    /// The [`Symmetry::Wreath`] group has more elements than the 16-bit
    /// group-element index of the BFS metadata and the edge table can
    /// name (`u16::MAX`); nine interchangeable processes (`9!` elements)
    /// already exceed it.  The order is counted
    /// ([`amx_registers::adversary_automorphism_count`]) before the
    /// group is enumerated, so refusing a large group costs no memory.
    SymmetryGroupTooLarge {
        /// The group order (saturating at `usize::MAX`).
        order: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ResumeWithoutCheckpointDir => {
                write!(f, "resume(true) requires a checkpoint_dir")
            }
            ConfigError::MaxStatesTooLarge { max_states, limit } => write!(
                f,
                "max_states {max_states} exceeds the id encoding's limit of {limit}"
            ),
            ConfigError::SymmetryGroupTooLarge { order } => write!(
                f,
                "the wreath symmetry group has {order} elements, more than the {} \
                 a group-element index can name",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for McError {
    fn from(e: ConfigError) -> Self {
        McError::Checkpoint(io::Error::new(io::ErrorKind::InvalidInput, e))
    }
}

impl std::error::Error for McError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McError::StateSpaceExceeded(e) => Some(e),
            McError::Spill(e) => Some(e),
            McError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<StateSpaceExceeded> for McError {
    fn from(e: StateSpaceExceeded) -> Self {
        McError::StateSpaceExceeded(e)
    }
}

impl From<SpillError> for McError {
    fn from(e: SpillError) -> Self {
        McError::Spill(e)
    }
}

/// Exhaustive explorer; see the module docs.
///
/// # Example
///
/// ```
/// use amx_ids::PidPool;
/// use amx_sim::mc::{ModelChecker, Symmetry, Verdict};
/// use amx_sim::toys::CasLock;
///
/// let ids = PidPool::sequential().mint_many(2);
/// let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
/// let report = ModelChecker::with_automata(
///     automata,
///     amx_sim::MemoryModel::Rmw,
///     1,
///     &amx_registers::Adversary::Identity,
/// )
/// .unwrap()
/// .symmetry(Symmetry::Wreath)
/// .run()
/// .unwrap();
/// assert_eq!(report.verdict, Verdict::Ok);
/// assert!(report.canonical_states <= report.full_states_estimate);
/// ```
pub struct ModelChecker<A: Automaton> {
    automata: Vec<A>,
    mem0: SimMemory,
    max_states: usize,
    symmetry: Symmetry,
    threads: usize,
    oversubscribe: bool,
    progress: Option<Arc<ProgressFn>>,
    monitors: Vec<Monitor<A::State>>,
    scc_queries: Vec<SccQuery<A::State>>,
    resident_budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u32,
    resume: bool,
    halt_after_checkpoints: Option<u32>,
    crashes: Option<(CrashBudget, CrashMode)>,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl<A: Automaton + std::fmt::Debug> std::fmt::Debug for ModelChecker<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelChecker")
            .field("automata", &self.automata)
            .field("mem0", &self.mem0)
            .field("max_states", &self.max_states)
            .field("symmetry", &self.symmetry)
            .field("threads", &self.threads)
            .field("oversubscribe", &self.oversubscribe)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("monitors", &self.monitors)
            .field("scc_queries", &self.scc_queries)
            .field("resident_budget", &self.resident_budget)
            .field("spill_dir", &self.spill_dir)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume)
            .field("halt_after_checkpoints", &self.halt_after_checkpoints)
            .field("crashes", &self.crashes)
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

/// Most expand workers a run uses: a [`PendingInsert`] names its
/// worker's outbox in 16 bits.
const MAX_WORKERS: usize = u16::MAX as usize;

/// Caps a requested thread count at the machine's available
/// parallelism: oversubscribing cores only adds context-switch and
/// cache pressure, so the pool never exceeds the hardware (unless
/// [`ModelChecker::oversubscribe`] disables the cap).  One worker, the
/// default, never asks the machine (see [`ModelChecker::threads`]).
fn effective_workers(threads: usize, oversubscribe: bool) -> usize {
    let cap = if threads <= 1 || oversubscribe {
        MAX_WORKERS
    } else {
        std::thread::available_parallelism().map_or(MAX_WORKERS, std::num::NonZeroUsize::get)
    };
    threads.min(cap).clamp(1, MAX_WORKERS)
}

impl<A: Automaton> ModelChecker<A> {
    /// Checker for `n` processes whose automata are minted by `factory`
    /// (one fresh [`amx_ids::Pid`] each) over an `m`-register memory with
    /// the identity adversary.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `m == 0`.
    #[must_use]
    pub fn from_factory(
        mut factory: impl FnMut(amx_ids::Pid) -> A,
        model: crate::mem::MemoryModel,
        n: usize,
        m: usize,
    ) -> Self {
        let mut pool = amx_ids::PidPool::sequential();
        let automata: Vec<A> = (0..n).map(|_| factory(pool.mint())).collect();
        Self::with_automata(automata, model, m, &amx_registers::Adversary::Identity)
            .expect("identity adversary is always valid")
    }

    /// Checker for the given per-process automata, memory model, size and
    /// adversary.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization failures.
    ///
    /// # Panics
    ///
    /// Panics if `automata` is empty or holds more than 64 processes
    /// (actor indices are stored in one byte, and the algorithm states'
    /// bitmasks cap `m` at 64 anyway).
    pub fn with_automata(
        automata: Vec<A>,
        model: crate::mem::MemoryModel,
        m: usize,
        adversary: &amx_registers::Adversary,
    ) -> Result<Self, amx_registers::adversary::AdversaryError> {
        assert!(!automata.is_empty(), "need at least one process");
        assert!(automata.len() <= 64, "at most 64 processes");
        let n = automata.len();
        Ok(ModelChecker {
            automata,
            mem0: SimMemory::new(model, m, adversary, n)?,
            max_states: 2_000_000,
            symmetry: Symmetry::Off,
            threads: 1,
            oversubscribe: false,
            progress: None,
            monitors: Vec::new(),
            scc_queries: Vec::new(),
            resident_budget: None,
            spill_dir: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            halt_after_checkpoints: None,
            crashes: None,
            fault_plan: None,
        })
    }

    /// Sets the state-space bound (default 2,000,000).  With symmetry
    /// reduction active the bound applies to *canonical* states.
    #[must_use]
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Sets the symmetry mode (default [`Symmetry::Off`]).
    #[must_use]
    pub fn symmetry(mut self, symmetry: Symmetry) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Sets the worker thread count (default 1).  Every report field
    /// except `threads`, `steal_count`, the timings and the spill
    /// figures (faults, evictions and the resident/spilled split) is
    /// identical at any thread count: verdicts, witness schedules,
    /// counts, monitor and SCC-query results, `arena_bytes` and
    /// `seen_table_bytes`.  So is a checkpoint, which resumes at any
    /// thread count.
    ///
    /// The count is a *cap*: the engine never spawns more compute
    /// workers than the machine's available parallelism, because
    /// oversubscribing cores only adds context-switch and cache
    /// pressure (measured ~2× wall-time on a single-core host), nor more
    /// than 65,535.  The parallelism is queried only when more than one
    /// worker is requested: the query reads the process's cgroup limits
    /// and took a median 21 µs per call on a 2-vCPU VM, more than the
    /// rest of a four-state check's run.  A run whose effective pool is
    /// one worker runs entirely on the calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Disables the available-parallelism cap on the worker pool, so
    /// `threads(t)` spawns exactly `t` workers (at most 65,535) even on
    /// a host with fewer cores.  A correctness/test hook — the differential suite
    /// uses it to drive the multi-worker, work-stealing level regardless
    /// of the machine it runs on; production runs should leave the cap
    /// alone (oversubscription measured ~2× slower on a single-core
    /// host).
    #[must_use]
    pub fn oversubscribe(mut self, on: bool) -> Self {
        self.oversubscribe = on;
        self
    }

    /// Installs a live-progress callback, invoked from the exploration
    /// loop at most every ~200 ms with the running state counts.  The
    /// callback must be cheap and must not re-enter the checker.
    #[must_use]
    pub fn progress(mut self, f: impl Fn(&McProgress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Registers a state [`Monitor`] evaluated on-the-fly on every
    /// stored state (and the initial state).  Non-fatal monitors report
    /// through [`McReport::monitors`]; fatal ones abort with
    /// [`Verdict::PropertyViolation`].  Under symmetry reduction the
    /// predicate must be orbit-invariant (see [`Monitor`]).
    #[must_use]
    pub fn monitor(mut self, monitor: Monitor<A::State>) -> Self {
        self.monitors.push(monitor);
        self
    }

    /// Registers an [`SccQuery`] evaluated over the interior of a
    /// detected fair-livelock component; answers land in
    /// [`McReport::scc_queries`].
    #[must_use]
    pub fn scc_query(mut self, query: SccQuery<A::State>) -> Self {
        self.scc_queries.push(query);
        self
    }

    /// Caps the *resident* bytes of the interned-state arena: once the
    /// compressed page payload exceeds the budget, cold pages are
    /// evicted (CLOCK second-chance) to an anonymous spill file and
    /// faulted back transparently on access.
    /// The budget covers compressed state records only — hash tables,
    /// offset indices and BFS metadata stay resident (they are a small
    /// fraction of state bytes).  Off by default (everything resident).
    #[must_use]
    pub fn resident_budget(mut self, bytes: usize) -> Self {
        self.resident_budget = Some(bytes);
        self
    }

    /// Directory the spill files are created in (default:
    /// [`std::env::temp_dir`]).  Files are unlinked immediately after
    /// creation, so nothing survives the process whatever happens.
    #[must_use]
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Enables checkpointing: after each completed breadth-first level
    /// (subject to [`checkpoint_every`](Self::checkpoint_every)) the
    /// full exploration state — arena, seen table, BFS metadata,
    /// frontier with its pending depths, monitor accumulators, the
    /// pending-depth maxima and the livelock pass's edge rows — is
    /// written atomically to `<dir>/mc-<level>.ckpt`, and
    /// [`resume`](Self::resume) continues a killed run from there
    /// bit-identically.
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Writes a checkpoint every `levels` completed levels instead of
    /// every level (default 1).  Zero is treated as 1.
    #[must_use]
    pub fn checkpoint_every(mut self, levels: u32) -> Self {
        self.checkpoint_every = levels.max(1);
        self
    }

    /// Resume from the checkpoint in
    /// [`checkpoint_dir`](Self::checkpoint_dir) when one exists (a
    /// missing checkpoint starts from scratch).  The checkpoint records
    /// a fingerprint of the full configuration — automaton type,
    /// process/register counts, memory model, adversary, symmetry mode,
    /// state bound, crash axis, monitors — and resuming under any other
    /// configuration fails with [`McError::Checkpoint`] rather than
    /// silently mixing state spaces.  The worker count is not part of
    /// it: a checkpoint resumes at any [`threads`](Self::threads).
    /// Without a checkpoint directory the run is refused with
    /// [`ConfigError::ResumeWithoutCheckpointDir`].
    #[must_use]
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Halt exploration (verdict [`Verdict::Interrupted`]) after this
    /// many checkpoints have been written — the test/CI hook that
    /// simulates killing a long sweep at a level boundary.
    #[must_use]
    pub fn halt_after_checkpoints(mut self, checkpoints: u32) -> Self {
        self.halt_after_checkpoints = Some(checkpoints);
        self
    }

    /// Enables crash–recovery exploration: in every state, each process
    /// with a pending invocation (or inside its critical section) may
    /// additionally *crash* — reset to its remainder section with
    /// [`Automaton::crash_state`] — as long as `budget` allows it, with
    /// `mode` deciding whether its shared-memory claims are wiped or
    /// left stale.  Crash edges go through symmetry reduction and
    /// witness reconstruction like any other edge (schedules report a
    /// crash of process `i` as entry `n + i`; see [`Verdict`]), but are
    /// excluded from the fair-livelock pass: crash counts strictly
    /// increase along them, so no cycle — and hence no livelock — can
    /// contain one, and fairness never obliges the adversary to crash
    /// anyone.  Off by default.
    #[must_use]
    pub fn crashes(mut self, budget: CrashBudget, mode: CrashMode) -> Self {
        self.crashes = Some((budget, mode));
        self
    }

    /// Installs a deterministic [`FaultPlan`] on this run's spill and
    /// checkpoint I/O — the chaos-testing hook.  Injected faults follow
    /// the same degradation rules as real ones (see
    /// [`McReport::degraded`] and [`McError`]).
    #[must_use]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

impl<A: Automaton + Sync> ModelChecker<A>
where
    A::State: EncodeState + Send,
{
    /// Explores the full reachable state space (quotiented by the
    /// configured symmetry).
    ///
    /// # Errors
    ///
    /// Returns [`McError::StateSpaceExceeded`] if more than the
    /// configured number of states are reachable, the other
    /// [`McError`] variants on unrecoverable out-of-core I/O failures
    /// (recoverable ones degrade instead — see [`McReport::degraded`]),
    /// and a [`ConfigError`] (see [`McError::config`]) before exploring
    /// anything when the configuration is invalid.
    pub fn run(&self) -> Result<McReport, McError> {
        let start = Instant::now();
        let m = self.mem0.m();
        let symmetry = self.symmetry;
        let workers = effective_workers(self.threads, self.oversubscribe);
        if self.max_states > MAX_STATES_LIMIT {
            return Err(ConfigError::MaxStatesTooLarge {
                max_states: self.max_states,
                limit: MAX_STATES_LIMIT,
            }
            .into());
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return Err(ConfigError::ResumeWithoutCheckpointDir.into());
        }
        let (group, class_of) = build_group(&self.automata, &self.mem0, symmetry)?;
        let mut edges = EdgeTable::new(self.automata.len(), group.len() > 1);
        let shared = EngineShared {
            automata: &self.automata,
            mem0: &self.mem0,
            group: &group,
            monitors: &self.monitors,
            max_states: self.max_states,
            orbit_sum: AtomicUsize::new(0),
            overflow: AtomicBool::new(false),
            steals: AtomicUsize::new(0),
            crashes: self.crashes,
            spill_error: Mutex::new(None),
        };
        // The fingerprint formats the whole configuration; only the
        // checkpoint files read it.
        let ckpt = self
            .checkpoint_dir
            .as_deref()
            .map(|dir| (dir, self.fingerprint()));
        let n = self.automata.len();

        let mut scratch: Scratch<A::State> = Scratch::new(self.mem0.clone());
        let mut peak_frontier = 0usize;
        let mut acquisitions = 0usize;
        let mut transitions = 0usize;
        let mut violation: Option<Violation> = None;
        let mut prop_violation: Option<PropViolation> = None;
        let mut monitor_hits: Vec<MonitorHit> = vec![MonitorHit::default(); self.monitors.len()];
        // Per-level minimum `(order, node)` per monitor (reset between
        // levels; see the witness-shortest-ness note in the loop).
        let mut level_best: Vec<Option<((usize, usize), u32)>> = vec![None; self.monitors.len()];
        let mut last_progress = Instant::now();
        let mut completed_levels: u32 = 0;
        let mut checkpoints_written: u32 = 0;
        let mut resumed_from_level: Option<u32> = None;

        let mut degraded: Vec<String> = Vec::new();
        let restored = if let Some((dir, fingerprint)) = ckpt.filter(|_| self.resume) {
            let (restored, skipped) =
                checkpoint::load_latest(dir, fingerprint).map_err(McError::Checkpoint)?;
            degraded.extend(skipped);
            restored
        } else {
            None
        };
        let mut shard: Shard;
        let mut frontier = Frontier::new(n);
        // The next level's buffer, swapped with `frontier` after every
        // level so both keep their capacity.
        let mut next = Frontier::new(n);
        // Per-position maxima of every stored state's pending depths
        // (see `McReport::max_pending_depth`).
        let mut depth_maxima = vec![0u16; n];
        if let Some(ck) = restored {
            shard = ck.shard;
            let states = shard.arena.len();
            shared
                .orbit_sum
                .store(ck.orbit_sum as usize, Ordering::Relaxed);
            transitions = ck.transitions as usize;
            acquisitions = ck.acquisitions as usize;
            peak_frontier = ck.peak_frontier as usize;
            monitor_hits = ck.monitor_hits;
            completed_levels = ck.level;
            resumed_from_level = Some(ck.level);
            // One row of pending depths per frontier node, one maximum
            // per position.
            if ck.depth_maxima.len() != n
                || ck.frontier.len().checked_mul(n) != Some(ck.frontier_depths.len())
            {
                return Err(McError::Checkpoint(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint pending depths do not match its frontier",
                )));
            }
            depth_maxima = ck.depth_maxima;
            // The checkpoint stores frontier *ids*; the bytes come back
            // out of the restored arena.
            let mut bytes = Vec::new();
            for (&id, depths) in ck.frontier.iter().zip(ck.frontier_depths.chunks_exact(n)) {
                if id as usize >= states {
                    return Err(McError::Checkpoint(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "checkpoint frontier names an unknown state",
                    )));
                }
                shard
                    .arena
                    .get_into(id, &mut bytes)
                    .map_err(McError::Spill)?;
                frontier.push(id, &bytes, depths.iter().copied());
            }
            // Every state but the frontier has been expanded and owns a
            // row; each target must name a stored state.
            let rows = states.checked_sub(ck.frontier.len());
            let stored = |t: u32| t == scc::NO_EDGE || (t as usize) < states;
            let sigma_len = if edges.track_sigma {
                ck.edge_targets.len()
            } else {
                0
            };
            if rows.map(|r| r * edges.n) != Some(ck.edge_targets.len())
                || ck.edge_sigmas.len() != sigma_len
                || !ck.edge_targets.iter().all(|&t| stored(t))
                || ck
                    .edge_sigmas
                    .iter()
                    .any(|&g| usize::from(g) >= group.len())
            {
                return Err(McError::Checkpoint(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint edge table does not match its states",
                )));
            }
            edges.targets = ck.edge_targets;
            edges.sigmas = ck.edge_sigmas;
        } else {
            shard = Shard::default();
            // Seed the frontier with the (group-invariant) initial state.
            scratch.slots = vec![Slot::BOTTOM; m];
            scratch.procs = self
                .automata
                .iter()
                .map(|a| (Phase::Remainder, a.init_state()))
                .collect();
            scratch.crashes = if self.crashes.is_some() {
                vec![0; self.automata.len()]
            } else {
                Vec::new()
            };
            let (sigma0, orbit0) = canonicalize(
                &group,
                &scratch.slots,
                &scratch.procs,
                &scratch.crashes,
                &mut scratch.canon,
            );
            debug_assert_eq!(
                (sigma0, orbit0),
                (0, 1),
                "the initial state must be fixed by the symmetry group \
                 (is a symmetry_class contract violated?)"
            );
            let meta0 = NodeMeta {
                parent: u32::MAX,
                actor: 0,
                sigma: sigma0,
            };
            let root_bytes = &scratch.canon.best;
            let (root, _) = intern_into(
                &shared,
                &mut shard,
                hash_bytes(root_bytes),
                root_bytes,
                meta0,
                orbit0,
            );
            // No process is pending in the initial state.
            frontier.push(root, root_bytes, std::iter::repeat_n(0, n));

            // The initial state is reachable too: monitors see it first.
            for (mi, mon) in self.monitors.iter().enumerate() {
                if (mon.eval)(&scratch.slots, &scratch.procs) {
                    monitor_hits[mi].record((0, 0), root);
                    if mon.fatal && prop_violation.is_none() {
                        prop_violation = Some(PropViolation {
                            order: (0, 0),
                            node: root,
                            monitor: mi as u32,
                        });
                    }
                }
            }
        }
        if let Some(budget) = self.resident_budget {
            let dir = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
            match anon_spill_file(&dir) {
                Ok(file) => {
                    shard.arena.set_spill(file, budget);
                    if let Some(plan) = &self.fault_plan {
                        shard.arena.set_fault_plan(plan.clone());
                    }
                }
                Err(e) => degraded.push(format!(
                    "cannot create a spill file in {}: {e}; running fully resident",
                    dir.display()
                )),
            }
        }

        let mut round_bufs = RoundBufs::new(workers);
        let mut halted = false;
        let mut ckpt_enabled = true;
        while !frontier.is_empty()
            && violation.is_none()
            && prop_violation.is_none()
            && !shared.overflow.load(Ordering::Relaxed)
            && !halted
        {
            peak_frontier = peak_frontier.max(frontier.len());
            let out = run_level(
                &shared,
                &mut shard,
                &frontier,
                &mut next,
                &mut edges,
                &mut scratch,
                &mut round_bufs,
            );
            acquisitions += out.acquisitions;
            transitions += out.transitions;
            for (max, &d) in depth_maxima.iter_mut().zip(&out.depth_maxima) {
                *max = (*max).max(d);
            }
            if let Some(v) = out.violation {
                if violation.as_ref().is_none_or(|best| v.order < best.order) {
                    violation = Some(v);
                }
            }
            if let Some(p) = out.prop_violation {
                if prop_violation
                    .as_ref()
                    .is_none_or(|best| (p.order, p.monitor) < (best.order, best.monitor))
                {
                    prop_violation = Some(p);
                }
            }
            for (lb, hit) in level_best.iter_mut().zip(&out.monitor_hits) {
                if let Some(b) = hit.best {
                    if lb.is_none_or(|(order, _)| b.0 < order) {
                        *lb = Some(b);
                    }
                }
            }
            for (acc, hit) in monitor_hits.iter_mut().zip(&out.monitor_hits) {
                acc.count += hit.count;
            }
            // Witness shortest-ness: the `(position, actor)` order only
            // ranks hits of ONE level, so the first level with a hit
            // commits its minimum and later levels never override it.
            for (acc, lb) in monitor_hits.iter_mut().zip(level_best.iter_mut()) {
                if acc.best.is_none() {
                    acc.best = lb.take();
                }
                *lb = None;
            }
            std::mem::swap(&mut frontier, &mut next);
            completed_levels += 1;
            if let Some(e) = shared.spill_error.lock().take() {
                return Err(McError::Spill(e));
            }
            if let Some((dir, fingerprint)) = ckpt {
                if ckpt_enabled
                    && !frontier.is_empty()
                    && violation.is_none()
                    && prop_violation.is_none()
                    && !shared.overflow.load(Ordering::Relaxed)
                    && completed_levels.is_multiple_of(self.checkpoint_every)
                {
                    let snap = checkpoint::Snapshot {
                        fingerprint,
                        level: completed_levels,
                        transitions: transitions as u64,
                        acquisitions: acquisitions as u64,
                        peak_frontier: peak_frontier as u64,
                        orbit_sum: shared.orbit_sum.load(Ordering::Relaxed) as u64,
                        monitor_hits: &monitor_hits,
                        frontier: &frontier.ids,
                        shard: &shard,
                        edge_targets: &edges.targets,
                        edge_sigmas: &edges.sigmas,
                        depth_maxima: &depth_maxima,
                        frontier_depths: &frontier.depths,
                    };
                    match checkpoint::write(dir, &snap, self.fault_plan.as_deref()) {
                        Ok(()) => {
                            checkpoints_written += 1;
                            if self
                                .halt_after_checkpoints
                                .is_some_and(|k| checkpoints_written >= k)
                            {
                                halted = true;
                            }
                        }
                        Err(e) => {
                            degraded.push(format!(
                                "checkpoint write at level {completed_levels} failed ({e}); \
                                 checkpointing disabled for the rest of the run"
                            ));
                            ckpt_enabled = false;
                        }
                    }
                }
            }
            if let Some(cb) = &self.progress {
                if last_progress.elapsed() >= Duration::from_millis(200) {
                    last_progress = Instant::now();
                    cb(&McProgress {
                        states: shard.arena.len(),
                        full_states_estimate: shared.orbit_sum.load(Ordering::Relaxed),
                        transitions,
                        elapsed: start.elapsed(),
                    });
                }
            }
        }

        let states = shard.arena.len();
        let full_states_estimate = shared.orbit_sum.load(Ordering::Relaxed);
        let overflowed = shared.overflow.load(Ordering::Relaxed);
        let steal_count = shared.steals.load(Ordering::Relaxed);
        let store = Store::new(shard);
        degraded.extend(store.shard.arena.degraded().map(str::to_string));
        let mut report = McReport {
            verdict: Verdict::Ok,
            transitions,
            acquisitions,
            canonical_states: states,
            full_states_estimate,
            peak_frontier,
            wall_time: start.elapsed(),
            scc_wall_time: Duration::ZERO,
            arena_bytes: store.shard.arena.arena_bytes(),
            arena_resident_bytes: 0,
            arena_spilled_bytes: 0,
            spill_faults: 0,
            spill_evictions: 0,
            checkpoints_written,
            resumed_from_level,
            seen_table_bytes: store.shard.arena.table_bytes(),
            steal_count,
            threads: self.threads,
            symmetry,
            monitors: Vec::new(),
            scc_queries: Vec::new(),
            max_pending_depth: Vec::new(),
            degraded,
        };
        report.monitors = self.monitor_results(&store, &group, &monitor_hits);

        if let Some(v) = violation {
            let chain = chain_from_root(&store, v.from);
            let (mut schedule, _, tau_inv) = concretize(&group, &chain);
            schedule.push(tau_inv[v.actor]);
            report.verdict = Verdict::MutualExclusionViolation {
                schedule,
                procs: (tau_inv[v.other], tau_inv[v.actor]),
            };
            return Ok(finish_report(report, &store, start));
        }
        if let Some(p) = prop_violation {
            let chain = chain_from_root(&store, p.node);
            let (schedule, _, _) = concretize(&group, &chain);
            report.verdict = Verdict::PropertyViolation {
                property: self.monitors[p.monitor as usize].name.clone(),
                schedule,
            };
            return Ok(finish_report(report, &store, start));
        }
        if overflowed {
            return Err(McError::StateSpaceExceeded(StateSpaceExceeded {
                limit: self.max_states,
            }));
        }
        if halted {
            report.verdict = Verdict::Interrupted {
                level: completed_levels,
                checkpoints: checkpoints_written,
            };
            return Ok(finish_report(report, &store, start));
        }

        report.max_pending_depth = depth_maxima.iter().map(|&d| usize::from(d)).collect();
        #[cfg(test)]
        tests::audit_pending_depths::<A::State>(&store, &group, m, &report.max_pending_depth);

        let scc_start = Instant::now();
        if let Some((verdict, queries)) =
            self.find_fair_livelock(&store, &group, &class_of, &edges, &mut scratch)?
        {
            report.verdict = verdict;
            report.scc_queries = queries;
        }
        report.scc_wall_time = scc_start.elapsed();
        Ok(finish_report(report, &store, start))
    }

    /// A configuration fingerprint for checkpoint compatibility:
    /// automaton type, process/register counts, memory model, adversary
    /// permutations, symmetry mode, state bound, crash axis and monitor
    /// set.  Two runs with equal fingerprints explore the same state
    /// space in the same order at any worker count, so a checkpoint from
    /// one continues bit-identically under the other.
    fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "AMXCKPT|v1|{}|n={}|m={}|model={:?}|sym={:?}|max={}|page={}",
            std::any::type_name::<A>(),
            self.automata.len(),
            self.mem0.m(),
            self.mem0.model(),
            self.symmetry,
            self.max_states,
            crate::intern::PAGE,
        );
        if let Some((budget, mode)) = self.crashes {
            let _ = write!(s, "|crash={mode:?}/{}/{}", budget.total, budget.per_process);
        }
        for i in 0..self.automata.len() {
            let _ = write!(s, "|perm{i}={:?}", self.mem0.permutation(i));
        }
        for mon in &self.monitors {
            let _ = write!(s, "|mon={}|fatal={}", mon.name, mon.fatal);
        }
        hash_bytes(s.as_bytes())
    }

    /// Turns the accumulated [`MonitorHit`]s into reportable results,
    /// reconstructing a shortest witness schedule for each monitor that
    /// hit at least one state.
    fn monitor_results(
        &self,
        store: &Store,
        group: &[SymElem],
        hits: &[MonitorHit],
    ) -> Vec<MonitorResult> {
        self.monitors
            .iter()
            .zip(hits)
            .map(|(mon, hit)| MonitorResult {
                name: mon.name.clone(),
                hit_states: hit.count,
                witness_schedule: hit.best.map(|(_, node)| {
                    let chain = chain_from_root(store, node);
                    concretize(group, &chain).0
                }),
            })
            .collect()
    }

    /// Fair-livelock search on the completion-free subgraph.
    ///
    /// Runs over the edge table exploration recorded (`edges`):
    /// Tarjan's decomposition over node ids in breadth-first discovery
    /// order — so the candidate order, and with it the reported
    /// component and witnesses, is the same at every worker count — then
    /// a fairness decision per component.  Nothing is stepped,
    /// canonicalized or looked up here.
    ///
    /// Each component's internal edges (those whose target is in it) are
    /// scanned once without decoding: which positions step, and whether
    /// any edge relabels positions (`σ ≠ id`).  One member is decoded,
    /// for its phases.  When no internal edge relabels, the decision is
    /// exact on the quotient: each position's phase is constant across
    /// the component (a `Progress` edge moves a phase one way only, and
    /// no edge moves it to another position), and its orbit expansion is
    /// `|G|` copies of it with positions renamed, so a concrete fair
    /// component exists exactly when every pending position steps on an
    /// internal edge.  Under [`Symmetry::Off`] this is the per-process
    /// check itself.  A component whose edges relabel takes a cheap
    /// necessary check per symmetry class instead.  Under symmetry,
    /// every component that passes is confirmed on its concrete orbit by
    /// [`Self::confirm_livelock_on_orbit`], the only path that reports a
    /// livelock there.
    fn find_fair_livelock(
        &self,
        store: &Store,
        group: &[SymElem],
        class_of: &[usize],
        edges: &EdgeTable,
        scratch: &mut Scratch<A::State>,
    ) -> Result<Option<(Verdict, Vec<SccQueryResult>)>, SpillError> {
        let n_states = store.node_count();
        let n = self.automata.len();
        let m = self.mem0.m();
        if n_states == 0 {
            return Ok(None);
        }
        let csr = edges.targets.as_slice();
        debug_assert_eq!(csr.len(), n_states * n, "one edge row per stored state");

        // SCC decomposition over the table (Tarjan emits in reverse
        // topological order).
        let sccs = scc::tarjan_sccs_csr(n_states, n, csr);

        // Component id per node for internal-edge testing.
        let mut comp = vec![u32::MAX; n_states];
        for (cid, members) in sccs.iter().enumerate() {
            for &v in members {
                comp[v as usize] = cid as u32;
            }
        }
        // Built on the first candidate that needs orbit confirmation: a
        // |G|² table, which Ok verdicts on large groups never touch.
        let mut gtab: Option<GroupTables> = None;
        for members in sccs.iter() {
            let cid = comp[members[0] as usize];
            // Internal edges, undecoded.  A singleton without a
            // self-loop — most components on Ok verdicts — has none.
            let (mut steps, mut relabels, mut has_edge) = (0u64, false, false);
            for &v in members {
                let row = v as usize * n;
                for k in 0..n {
                    let w = csr[row + k];
                    if w != scc::NO_EDGE && comp[w as usize] == cid {
                        has_edge = true;
                        steps |= 1 << k;
                        relabels |= edges.sigmas.get(row + k).is_some_and(|&g| g != 0);
                    }
                }
            }
            if !has_edge {
                continue;
            }
            // Phases, off one member: within a completion-free SCC each
            // process's phase is constant up to relabeling (phase changes
            // other than via completions cannot be undone without one).
            store.bytes_into(members[0], &mut scratch.cache, &mut scratch.node)?;
            decode_node(
                &scratch.node,
                m,
                n,
                &mut scratch.slots,
                &mut scratch.procs,
                &mut scratch.crashes,
            );
            if scratch.procs.iter().any(|(p, _)| *p == Phase::Cs) {
                // Someone is parked in the CS: the antecedent of
                // deadlock-freedom fails; this is just "the lock is held".
                continue;
            }
            // Positions as bits: `n ≤ 64` (see `with_automata`).
            let pending = (0..n)
                .filter(|&i| matches!(scratch.procs[i].0, Phase::Trying | Phase::Exiting))
                .fold(0u64, |mask, i| mask | 1 << i);
            if pending == 0 {
                continue;
            }
            #[cfg(test)]
            if group.len() > 1 {
                // Every decision is audited against the confirmation.
                let gtab = gtab.get_or_insert_with(|| group_tables(group));
                let sigmas = &edges.sigmas;
                let confirmed = self.confirm_livelock_on_orbit(
                    store, group, gtab, members, csr, sigmas, &comp, cid, scratch,
                )?;
                tests::audit_livelock_decision(relabels, pending & !steps == 0, confirmed);
            }
            if relabels {
                // Which symmetry classes step, while pending, inside this
                // component?  The quotient folds interchangeable processes
                // together, so this is only *necessary* for a concrete
                // fair component (every one projects onto a quotient SCC
                // passing it); the confirmation below decides.
                let mut classes = 0u64; // at most n ≤ 64 classes
                for &v in members {
                    store.bytes_into(v, &mut scratch.cache, &mut scratch.node)?;
                    decode_node(
                        &scratch.node,
                        m,
                        n,
                        &mut scratch.slots,
                        &mut scratch.procs,
                        &mut scratch.crashes,
                    );
                    for k in 0..n {
                        let w = csr[v as usize * n + k];
                        if w != scc::NO_EDGE
                            && comp[w as usize] == cid
                            && matches!(scratch.procs[k].0, Phase::Trying | Phase::Exiting)
                        {
                            classes |= 1 << class_of[k];
                        }
                    }
                }
                if (0..n).any(|i| pending & 1 << i != 0 && classes & 1 << class_of[i] == 0) {
                    continue;
                }
            } else if pending & !steps != 0 {
                // Fairness, exact on the quotient: a component where some
                // pending process is starved is an unfair execution and
                // proves nothing.
                continue;
            }
            if group.len() == 1 {
                // No reduction: the quotient IS the concrete graph and
                // the check was per process; done.
                let pending = (0..n).filter(|&i| pending & 1 << i != 0).collect();
                let queries = self.eval_queries_concrete(store, group, members, scratch)?;
                let entry = *members.iter().min().expect("nonempty SCC");
                let chain = chain_from_root(store, entry);
                let (witness_schedule, _, _) = concretize(group, &chain);
                return Ok(Some((
                    Verdict::FairLivelock {
                        pending,
                        scc_states: members.len(),
                        witness_schedule,
                    },
                    queries,
                )));
            }
            // Reduced mode: confirm exactly on the concrete orbit of this
            // component (≤ |SCC|·|G| states).
            let gtab = gtab.get_or_insert_with(|| group_tables(group));
            if let Some(v) = self.confirm_livelock_on_orbit(
                store,
                group,
                gtab,
                members,
                csr,
                &edges.sigmas,
                &comp,
                cid,
                scratch,
            )? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Expands a candidate quotient SCC into its concrete orbit, finds
    /// the concrete completion-free SCCs inside, and applies the exact
    /// per-process fairness check there.  Returns a concrete witness on
    /// success.
    ///
    /// Under symmetry this is the only path that reports a livelock.
    /// [`Self::find_fair_livelock`] calls it only for components that
    /// can be livelocks: those without a relabeling internal edge that
    /// pass the position check (which then always confirm), and those
    /// with one that pass the class-level check.
    ///
    /// Every concrete fair-livelock component is contained in the orbit
    /// expansion of exactly one quotient SCC (projection of a strongly
    /// connected set is strongly connected), so confirming candidates
    /// this way keeps the reduced livelock verdict exact — not just
    /// differential-tested.
    ///
    /// The expansion is walked as `(canonical member, group element)`
    /// pairs using the edge table recorded during exploration: by
    /// equivariance, concrete actor `a` in state `g·ŝ_v` is quotient actor
    /// `g⁻¹(a)` in `ŝ_v`, and with `ŝ_v --k--> t`, `ŝ_w = σ·t` the
    /// successor is `(w, g∘σ⁻¹)` — so no automaton is stepped and no
    /// state is re-encoded here, only table composition.  When a state
    /// has a nontrivial stabilizer, its orbit appears as `|Stab|`
    /// disconnected isomorphic copies; every copy carries the same
    /// fairness structure and the true component size, so the verdict
    /// and `scc_states` are unaffected.
    #[allow(clippy::too_many_arguments)]
    fn confirm_livelock_on_orbit(
        &self,
        store: &Store,
        group: &[SymElem],
        gtab: &GroupTables,
        members: &[u32],
        csr: &[u32],
        sigmas: &[u16],
        comp: &[u32],
        cid: u32,
        scratch: &mut Scratch<A::State>,
    ) -> Result<Option<(Verdict, Vec<SccQueryResult>)>, SpillError> {
        let n = self.automata.len();
        let m = self.mem0.m();
        let gl = group.len();
        let k_nodes = members.len() * gl;

        // Quotient phases per member, decoded once; the concrete copy
        // `g·ŝ_v` reads its position-`j` phase from position `g⁻¹(j)`.
        let local_of: std::collections::HashMap<u32, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut phases_q: Vec<Phase> = Vec::with_capacity(members.len() * n);
        for &v in members {
            store.bytes_into(v, &mut scratch.cache, &mut scratch.node)?;
            decode_node(
                &scratch.node,
                m,
                n,
                &mut scratch.slots,
                &mut scratch.procs,
                &mut scratch.crashes,
            );
            phases_q.extend(scratch.procs.iter().map(|(p, _)| *p));
        }

        // Concrete non-completion adjacency restricted to the expansion
        // (edges leaving it cannot belong to a component inside it).
        let mut adj: Vec<u32> = vec![scc::NO_EDGE; k_nodes * n];
        for (vi, &vm) in members.iter().enumerate() {
            let v = vm as usize;
            for (gi, elem) in group.iter().enumerate() {
                let x = vi * gl + gi;
                let pi_inv = &elem.pi_inv;
                for a in 0..n {
                    let k = pi_inv[a];
                    let w = csr[v * n + k];
                    if w == scc::NO_EDGE || comp[w as usize] != cid {
                        continue;
                    }
                    let wl = local_of[&w] as usize;
                    let sigma = sigmas[v * n + k] as usize;
                    let h = gtab.compose[gi * gl + gtab.inv[sigma] as usize] as usize;
                    adj[x * n + a] = (wl * gl + h) as u32;
                }
            }
        }

        let sub_sccs = scc::tarjan_sccs_csr(k_nodes, n, &adj);
        let mut sub_comp = vec![u32::MAX; k_nodes];
        for (sc_id, s) in sub_sccs.iter().enumerate() {
            for &v in s {
                sub_comp[v as usize] = sc_id as u32;
            }
        }
        let phase_at = |x: usize, j: usize| {
            let (vi, gi) = (x / gl, x % gl);
            phases_q[vi * n + group[gi].pi_inv[j]]
        };
        for sub in sub_sccs.iter() {
            let mut actors = vec![false; n];
            let mut has_edge = false;
            for &v in sub {
                for (actor, &w) in adj[v as usize * n..(v as usize + 1) * n].iter().enumerate() {
                    if w != scc::NO_EDGE && sub_comp[w as usize] == sub_comp[v as usize] {
                        actors[actor] = true;
                        has_edge = true;
                    }
                }
            }
            if !has_edge {
                continue;
            }
            let x0 = sub[0] as usize;
            if (0..n).any(|j| phase_at(x0, j) == Phase::Cs) {
                continue;
            }
            let pending: Vec<usize> = (0..n)
                .filter(|&j| matches!(phase_at(x0, j), Phase::Trying | Phase::Exiting))
                .collect();
            if pending.is_empty() || !pending.iter().all(|&i| actors[i]) {
                continue;
            }
            // Concrete fair livelock confirmed.  Build a witness: the
            // quotient chain reaches u with τ·u = c (c the canonical
            // origin of this component's entry state s = g·c); the
            // relabeling h = g ∘ τ is a graph automorphism fixing the
            // initial state, so mapping every scheduled actor through h
            // turns the chain into a concrete schedule reaching s.
            let entry = *sub.iter().min().expect("nonempty sub-SCC");
            let (vi, gi) = (entry as usize / gl, entry as usize % gl);
            let chain = chain_from_root(store, members[vi]);
            let (schedule_u, tau, _) = concretize(group, &chain);
            let g_pi = &group[gi].pi;
            // Crash entries (`a >= n`) relabel the crashed process the
            // same way normal entries relabel the stepped one.
            let witness_schedule: Vec<usize> = schedule_u
                .into_iter()
                .map(|a| {
                    if a >= n {
                        n + g_pi[tau[a - n]]
                    } else {
                        g_pi[tau[a]]
                    }
                })
                .collect();
            // Exact distinct-state count: nontrivial stabilizers make
            // the pair walk cover the concrete component several times
            // over, so dedup by concrete encoding (success path only —
            // at most one confirmation per run reaches this).
            let mut distinct: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
            for &x in sub {
                let (xvi, xgi) = (x as usize / gl, x as usize % gl);
                store.bytes_into(members[xvi], &mut scratch.cache, &mut scratch.node)?;
                decode_node(
                    &scratch.node,
                    m,
                    n,
                    &mut scratch.slots,
                    &mut scratch.procs,
                    &mut scratch.crashes,
                );
                encode_node_with(
                    &group[xgi],
                    &scratch.slots,
                    &scratch.procs,
                    &scratch.crashes,
                    &mut scratch.canon.enc,
                );
                distinct.insert(scratch.canon.enc.clone());
            }
            let queries = self.eval_queries_orbit(store, group, members, sub, scratch)?;
            // `pending` (from sub[0]) equals the pending set at `entry`:
            // phases are constant across a concrete completion-free SCC.
            return Ok(Some((
                Verdict::FairLivelock {
                    pending,
                    scc_states: distinct.len(),
                    witness_schedule,
                },
                queries,
            )));
        }
        Ok(None)
    }

    /// Evaluates the registered [`SccQuery`]s over a concrete (trivial
    /// group) livelock component: decode every member once, evaluate
    /// every query on it, and reconstruct a witness schedule to the
    /// least hit member per query.
    fn eval_queries_concrete(
        &self,
        store: &Store,
        group: &[SymElem],
        members: &[u32],
        scratch: &mut Scratch<A::State>,
    ) -> Result<Vec<SccQueryResult>, SpillError> {
        if self.scc_queries.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.automata.len();
        let m = self.mem0.m();
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        let mut hits = vec![0usize; self.scc_queries.len()];
        let mut first: Vec<Option<(u32, String)>> = vec![None; self.scc_queries.len()];
        for &v in &sorted {
            store.bytes_into(v, &mut scratch.cache, &mut scratch.node)?;
            decode_node(
                &scratch.node,
                m,
                n,
                &mut scratch.slots,
                &mut scratch.procs,
                &mut scratch.crashes,
            );
            for (qi, q) in self.scc_queries.iter().enumerate() {
                if (q.eval)(&scratch.slots, &scratch.procs) {
                    hits[qi] += 1;
                    if first[qi].is_none() {
                        first[qi] = Some((v, render_state(&scratch.slots, &scratch.procs)));
                    }
                }
            }
        }
        Ok(self
            .scc_queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let witness = first[qi].take();
                SccQueryResult {
                    name: q.name.clone(),
                    states_examined: sorted.len(),
                    hit_states: hits[qi],
                    holds_somewhere: hits[qi] > 0,
                    holds_everywhere: hits[qi] == sorted.len(),
                    witness_schedule: witness.as_ref().map(|(v, _)| {
                        let chain = chain_from_root(store, *v);
                        concretize(group, &chain).0
                    }),
                    witness_state: witness.map(|(_, s)| s),
                }
            })
            .collect())
    }

    /// Evaluates the registered [`SccQuery`]s over the confirmed
    /// concrete sub-SCC of a reduced run, given as `(canonical member
    /// index, group element)` pairs.  Orbit-invariant queries decode
    /// each distinct canonical member once; non-invariant queries
    /// materialize every group image (the symmetry expansion), deduped
    /// by concrete encoding so stabilizer copies are not double-counted.
    fn eval_queries_orbit(
        &self,
        store: &Store,
        group: &[SymElem],
        members: &[u32],
        sub: &[u32],
        scratch: &mut Scratch<A::State>,
    ) -> Result<Vec<SccQueryResult>, SpillError> {
        if self.scc_queries.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.automata.len();
        let m = self.mem0.m();
        let gl = group.len();
        let mut sorted = sub.to_vec();
        sorted.sort_unstable();
        // Distinct canonical members of the sub-component, ascending.
        let mut canon: Vec<u32> = sorted.iter().map(|&x| x / gl as u32).collect();
        canon.dedup();

        let mut results = Vec::with_capacity(self.scc_queries.len());
        for q in &self.scc_queries {
            let mut hits = 0usize;
            let mut examined = 0usize;
            let mut witness: Option<(usize, usize, String)> = None; // (vi, gi, render)
            if q.orbit_invariant {
                for &vi in &canon {
                    store.bytes_into(
                        members[vi as usize],
                        &mut scratch.cache,
                        &mut scratch.node,
                    )?;
                    decode_node(
                        &scratch.node,
                        m,
                        n,
                        &mut scratch.slots,
                        &mut scratch.procs,
                        &mut scratch.crashes,
                    );
                    examined += 1;
                    if (q.eval)(&scratch.slots, &scratch.procs) {
                        hits += 1;
                        if witness.is_none() {
                            witness = Some((
                                vi as usize,
                                0,
                                render_state(&scratch.slots, &scratch.procs),
                            ));
                        }
                    }
                }
            } else {
                let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
                let mut slots_img: Vec<Slot> = Vec::new();
                let mut procs_img: Vec<(Phase, A::State)> = Vec::new();
                let mut crashes_img: Vec<u8> = Vec::new();
                for &x in &sorted {
                    let (vi, gi) = (x as usize / gl, x as usize % gl);
                    store.bytes_into(members[vi], &mut scratch.cache, &mut scratch.node)?;
                    decode_node(
                        &scratch.node,
                        m,
                        n,
                        &mut scratch.slots,
                        &mut scratch.procs,
                        &mut scratch.crashes,
                    );
                    encode_node_with(
                        &group[gi],
                        &scratch.slots,
                        &scratch.procs,
                        &scratch.crashes,
                        &mut scratch.canon.enc,
                    );
                    if !seen.insert(scratch.canon.enc.clone()) {
                        continue; // a stabilizer copy of an examined state
                    }
                    decode_node(
                        &scratch.canon.enc,
                        m,
                        n,
                        &mut slots_img,
                        &mut procs_img,
                        &mut crashes_img,
                    );
                    examined += 1;
                    if (q.eval)(&slots_img, &procs_img) {
                        hits += 1;
                        if witness.is_none() {
                            witness = Some((vi, gi, render_state(&slots_img, &procs_img)));
                        }
                    }
                }
            }
            let (witness_schedule, witness_state) = match witness {
                None => (None, None),
                Some((vi, gi, render)) => {
                    // Same construction as the livelock witness: the
                    // quotient chain reaches the canonical member; the
                    // relabeling h = g ∘ τ maps every scheduled actor so
                    // the concrete replay reaches the g-image the
                    // predicate was evaluated on (any image, for
                    // invariant queries).
                    let chain = chain_from_root(store, members[vi]);
                    let (schedule_u, tau, _) = concretize(group, &chain);
                    let g_pi = &group[gi].pi;
                    let schedule = schedule_u
                        .into_iter()
                        .map(|a| {
                            if a >= n {
                                n + g_pi[tau[a - n]]
                            } else {
                                g_pi[tau[a]]
                            }
                        })
                        .collect();
                    (Some(schedule), Some(render))
                }
            };
            results.push(SccQueryResult {
                name: q.name.clone(),
                states_examined: examined,
                hit_states: hits,
                holds_somewhere: hits > 0,
                holds_everywhere: hits == examined,
                witness_schedule,
                witness_state,
            });
        }
        Ok(results)
    }
}

// ------------------------------------------------------------------ //
//  Engine internals
// ------------------------------------------------------------------ //

fn phase_to_u8(p: Phase) -> u8 {
    match p {
        Phase::Remainder => 0,
        Phase::Trying => 1,
        Phase::Cs => 2,
        Phase::Exiting => 3,
    }
}

fn phase_from_u8(b: u8) -> Option<Phase> {
    Some(match b {
        0 => Phase::Remainder,
        1 => Phase::Trying,
        2 => Phase::Cs,
        3 => Phase::Exiting,
        _ => return None,
    })
}

/// Stamps the final wall clock and the spill accounting — the
/// resident/spilled split and the fault/eviction totals, which keep
/// advancing through the SCC and query passes — onto a finished report.
fn finish_report(mut report: McReport, store: &Store, start: Instant) -> McReport {
    let spill = store.shard.arena.spill_stats();
    report.arena_resident_bytes = store.shard.arena.resident_bytes();
    report.arena_spilled_bytes = spill.spilled_bytes;
    report.spill_faults = spill.faults;
    report.spill_evictions = spill.evictions;
    report.wall_time = start.elapsed();
    report
}

/// One element of the symmetry group: a role permutation plus the
/// matching identity relabeling, and — under [`Symmetry::Wreath`] — the
/// physical register relabeling the role permutation forces.
///
/// The `π`-projection is injective across the group (the adversary
/// automorphism condition determines `ρ` from `π`), so composition and
/// inverse tables keyed on `pi` remain valid for wreath elements.
#[derive(Debug, Clone)]
struct SymElem {
    /// Role map: process `i`'s component moves to position `pi[i]`.
    pi: Vec<usize>,
    /// Inverse role map.
    pi_inv: Vec<usize>,
    /// Identity relabeling: `pid_i ↦ pid_{pi[i]}`.
    map: PidMap,
    /// Inverse physical register relabeling: the image's slot `j` is
    /// read from physical slot `rho_inv[j]`.  Empty ⇒ `ρ = id` (always
    /// the case under [`Symmetry::Off`]), keeping the hot encode loop
    /// free of indirection.
    rho_inv: Vec<usize>,
    /// Forward physical relabeling as the codec hook handed to
    /// [`EncodeState::encode_with`] for states quoting physical indices.
    regs: RegMap,
}

impl SymElem {
    /// The physical slot the image's slot `j` is read from.
    fn slot_source(&self, j: usize) -> usize {
        if self.rho_inv.is_empty() {
            j
        } else {
            self.rho_inv[j]
        }
    }
}

/// Computes the symmetry group and the class id of every process.
///
/// Under [`Symmetry::Wreath`] the group is the adversary's automorphism
/// group (computed by
/// [`amx_registers::automorphism::adversary_automorphisms`]) restricted
/// to class-compatible role maps, and a class is an orbit of processes
/// under the group's `π`-components — the granularity at which the
/// quotient's fairness pre-filter can distinguish processes.  With
/// [`Symmetry::Off`] every process is a singleton and the group is
/// trivial.  The identity is always element 0.
///
/// A group with more than `u16::MAX` elements is refused with
/// [`ConfigError::SymmetryGroupTooLarge`], counted
/// ([`amx_registers::adversary_automorphism_count`]) before anything is
/// enumerated.
fn build_group<A: Automaton>(
    automata: &[A],
    mem0: &SimMemory,
    symmetry: Symmetry,
) -> Result<(Vec<SymElem>, Vec<usize>), ConfigError> {
    let n = automata.len();
    if symmetry == Symmetry::Off {
        let identity = SymElem {
            pi: (0..n).collect(),
            pi_inv: (0..n).collect(),
            map: PidMap::identity(),
            rho_inv: Vec::new(),
            regs: RegMap::identity(),
        };
        return Ok((vec![identity], (0..n).collect()));
    }
    let keys: Vec<Option<u64>> = automata.iter().map(Automaton::symmetry_class).collect();
    let perms: Vec<amx_registers::Permutation> =
        (0..n).map(|i| mem0.permutation(i).clone()).collect();
    let order = amx_registers::adversary_automorphism_count(&perms, &keys);
    if order > usize::from(u16::MAX) {
        return Err(ConfigError::SymmetryGroupTooLarge { order });
    }
    let autos = amx_registers::adversary_automorphisms(&perms, &keys);

    // Process classes: orbits under the π-components (the finest
    // partition the quotient can still tell apart).
    let mut root: Vec<usize> = (0..n).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for a in &autos {
            for i in 0..n {
                let (ri, rj) = (root[i], root[a.pi[i]]);
                if ri != rj {
                    let mn = ri.min(rj);
                    root[i] = mn;
                    root[a.pi[i]] = mn;
                    changed = true;
                }
            }
        }
    }
    let mut class_of = vec![usize::MAX; n];
    let mut next_class = 0usize;
    for i in 0..n {
        // Path-compress through the min-root relation, then number the
        // classes in first-appearance order.
        let r = root[i];
        if class_of[r] == usize::MAX {
            class_of[r] = next_class;
            next_class += 1;
        }
        class_of[i] = class_of[r];
    }

    let elems = autos
        .into_iter()
        .map(|a| {
            let mut pi_inv = vec![0usize; n];
            for (i, &j) in a.pi.iter().enumerate() {
                pi_inv[j] = i;
            }
            let pairs: Vec<_> = (0..n)
                .filter(|&i| a.pi[i] != i)
                .filter_map(|i| Some((automata[i].pid()?, automata[a.pi[i]].pid()?)))
                .collect();
            let (rho_inv, regs) = if a.rho.is_identity() {
                (Vec::new(), RegMap::identity())
            } else {
                (
                    a.rho.inverse().as_slice().to_vec(),
                    RegMap::from_forward(a.rho.as_slice().to_vec()),
                )
            };
            SymElem {
                pi: a.pi,
                pi_inv,
                map: PidMap::from_pairs(pairs),
                rho_inv,
                regs,
            }
        })
        .collect();
    Ok((elems, class_of))
}

/// BFS-tree metadata of one stored state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeMeta {
    /// Id of the BFS-tree parent (`u32::MAX` for the root).
    pub(crate) parent: u32,
    /// Actor of the tree edge (a *quotient* process index).
    pub(crate) actor: u8,
    /// Group element that canonicalized the concrete successor.
    pub(crate) sigma: u16,
}

/// The seen set: an interned-state arena plus the parallel BFS-tree
/// metadata table.  A state's id is its index in both.  The exploration
/// loop owns it: expand workers share it read-only, and the drain
/// interns into it on the calling thread — never locked.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) arena: StateArena,
    pub(crate) meta: Vec<NodeMeta>,
}

/// Everything the BFS workers share read-only, plus the global
/// counters.  The seen set deliberately lives *outside* this struct
/// (on the exploration loop's stack) so ownership — not a lock —
/// arbitrates every intern.
struct EngineShared<'a, A: Automaton> {
    automata: &'a [A],
    mem0: &'a SimMemory,
    group: &'a [SymElem],
    monitors: &'a [Monitor<A::State>],
    max_states: usize,
    orbit_sum: AtomicUsize,
    overflow: AtomicBool,
    steals: AtomicUsize,
    /// Crash–recovery configuration, when enabled.
    crashes: Option<(CrashBudget, CrashMode)>,
    /// First spill *read* failure any worker hit: interned state became
    /// unreadable, so the run aborts with [`McError::Spill`] at the
    /// next level boundary (workers treat the failed state as seen and
    /// keep draining — the error wins regardless).
    spill_error: Mutex<Option<SpillError>>,
}

impl<A: Automaton> EngineShared<'_, A> {
    /// Records the first spill failure; later ones are dropped (the
    /// run is already doomed to abort with the first).
    fn record_spill_error(&self, e: SpillError) {
        self.spill_error.lock().get_or_insert(e);
    }
}

/// Largest [`ModelChecker::max_states`]: ids are `u32`, the insert that
/// overflows the bound still takes id `max_states`, and `u32::MAX`
/// marks the root's missing parent and an absent edge ([`scc::NO_EDGE`]).
const MAX_STATES_LIMIT: usize = u32::MAX as usize - 1;

/// Interns canonical bytes into the seen set, returning the state's id
/// and whether it is new.  On a fresh insert the parent metadata is
/// recorded and the global state/orbit counters advance.
fn intern_into<A: Automaton>(
    shared: &EngineShared<'_, A>,
    shard: &mut Shard,
    hash: u64,
    bytes: &[u8],
    meta: NodeMeta,
    orbit: u32,
) -> (u32, bool) {
    let (id, fresh) = match shard.arena.intern_hashed(hash, bytes) {
        Ok(x) => x,
        Err(e) => {
            // Spilled state unreadable: record and report "not fresh" —
            // the exploration loop aborts at the level boundary.
            shared.record_spill_error(e);
            return (u32::MAX, false);
        }
    };
    if fresh {
        shard.meta.push(meta);
        debug_assert_eq!(
            shard.arena.len(),
            shard.meta.len(),
            "arena and meta table out of sync"
        );
        shared
            .orbit_sum
            .fetch_add(orbit as usize, Ordering::Relaxed);
        if shard.arena.len() > shared.max_states {
            shared.overflow.store(true, Ordering::Relaxed);
        }
    }
    (id, fresh)
}

/// Worker-local reusable buffers: one memory clone, decoded node
/// scratch, encoding buffers and a spilled-page read cache — nothing is
/// allocated per step.
struct Scratch<S> {
    mem: SimMemory,
    slots: Vec<Slot>,
    procs: Vec<(Phase, S)>,
    /// Per-process crash counts of the decoded node (empty unless the
    /// run enables crashes — the encoding is unchanged without them).
    crashes: Vec<u8>,
    /// Slot buffer for building a crash successor's memory image.
    crash_slots: Vec<Slot>,
    canon: Canon,
    node: Vec<u8>,
    cache: PageCache,
}

impl<S> Scratch<S> {
    fn new(mem: SimMemory) -> Self {
        Scratch {
            mem,
            slots: Vec::new(),
            procs: Vec::new(),
            crashes: Vec::new(),
            crash_slots: Vec::new(),
            canon: Canon::default(),
            node: Vec::new(),
            cache: PageCache::new(),
        }
    }
}

/// What one breadth-first level found, for [`ModelChecker::run`].
struct LevelOut {
    acquisitions: usize,
    transitions: usize,
    violation: Option<Violation>,
    /// First fatal-monitor hit, by `(order, monitor index)`.
    prop_violation: Option<PropViolation>,
    /// Per non-fatal monitor (registration order): hit accounting.
    monitor_hits: Vec<MonitorHit>,
    /// Per canonical position: the largest pending depth of a state the
    /// level stored.
    depth_maxima: Vec<u16>,
}

impl LevelOut {
    fn new(n_monitors: usize, n: usize) -> Self {
        LevelOut {
            acquisitions: 0,
            transitions: 0,
            violation: None,
            prop_violation: None,
            monitor_hits: vec![MonitorHit::default(); n_monitors],
            depth_maxima: vec![0; n],
        }
    }

    /// A reason to stop expanding further nodes was found.
    fn found_stop(&self) -> bool {
        self.violation.is_some() || self.prop_violation.is_some()
    }
}

/// A fatal [`Monitor`] hit during exploration.
#[derive(Debug, Clone, Copy)]
struct PropViolation {
    /// `(frontier position, actor)` tiebreak, like [`Violation::order`].
    order: (usize, usize),
    /// Id of the hit (stored) state.
    node: u32,
    /// Index into the checker's monitor list.
    monitor: u32,
}

/// Accumulator for one non-fatal [`Monitor`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MonitorHit {
    /// Stored states on which the predicate held.
    pub(crate) count: usize,
    /// Least `(order, node)` hit — the shortest-witness candidate.
    pub(crate) best: Option<((usize, usize), u32)>,
}

impl MonitorHit {
    fn record(&mut self, order: (usize, usize), node: u32) {
        self.count += 1;
        if self.best.is_none_or(|(b, _)| order < b) {
            self.best = Some((order, node));
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Violation {
    /// `(frontier position, actor)` — the per-level tiebreak.  The
    /// frontier order is the same at every worker count, so the reported
    /// violation is deterministic.
    order: (usize, usize),
    from: u32,
    actor: usize,
    other: usize,
}

/// Applies one scheduled step of process `i`, driving the phase machine
/// exactly as the closed-loop workload prescribes.
fn advance_in_place<A: Automaton>(
    aut: &A,
    i: usize,
    mem: &mut SimMemory,
    proc_entry: &mut (Phase, A::State),
) -> Outcome {
    let (phase, state) = proc_entry;
    crate::automaton::closed_loop_step(aut, phase, state, &mut mem.view(i))
}

/// Decodes a node's bytes into the slots/procs/crashes scratch
/// buffers.  Crash-count bytes trail the process components and only
/// exist when the run enables crashes: whatever is left after `n`
/// process entries lands in `crashes` (empty on crash-free encodings,
/// so those stay byte-identical to previous releases).
fn decode_node<S: EncodeState>(
    mut bytes: &[u8],
    m: usize,
    n: usize,
    slots: &mut Vec<Slot>,
    procs: &mut Vec<(Phase, S)>,
    crashes: &mut Vec<u8>,
) {
    slots.clear();
    procs.clear();
    crashes.clear();
    for _ in 0..m {
        slots.push(encode::take_slot(&mut bytes).expect("truncated node: slots"));
    }
    for _ in 0..n {
        let tag = encode::take_u8(&mut bytes).expect("truncated node: phase");
        let phase = phase_from_u8(tag).expect("invalid phase tag");
        let state = S::decode(&mut bytes).expect("truncated node: state");
        procs.push((phase, state));
    }
    debug_assert!(
        bytes.is_empty() || bytes.len() == n,
        "trailing bytes after node decode are crash counts (0 or n of them)"
    );
    crashes.extend_from_slice(bytes);
}

/// Encodes the node image under one group element into `out`: physical
/// slots are permuted by `ρ` (slot `j` of the image is slot
/// `ρ⁻¹(j)` of the node) and identity-relabeled; process components —
/// and the trailing crash counts, when present — are permuted by `π`.
fn encode_node_with<S: EncodeState>(
    elem: &SymElem,
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    for j in 0..slots.len() {
        encode::put_slot(slots[elem.slot_source(j)], &elem.map, out);
    }
    encode_node_pruned(elem, procs, crashes, None, out);
}

/// Settles the component just written at `out[from..]` against `best`
/// at the same offsets while the image is still `tied` (every earlier
/// byte equal).  Returns `true` when the image compares greater — the
/// caller abandons it — and clears `tied` once it compares smaller, so
/// the rest of the image is written without comparing.
fn above_best(tied: &mut bool, out: &[u8], from: usize, best: &[u8]) -> bool {
    if *tied {
        // A tie so far means `best` reaches at least to `from`; where it
        // ends inside this component, a prefix of it is the smaller.
        let end = out.len().min(best.len());
        match out[from..].cmp(&best[from..end]) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => *tied = false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// Appends the process components of the node image under `elem` —
/// each process, then the crash counts — to `out`, which holds the
/// image's slot section, equal to `best`'s when there is a `best`.
/// Against `best`, the least image found so far, the image is pruned:
/// abandoned (returning [`Greater`](std::cmp::Ordering::Greater), `out`
/// left partial) at the first component that makes it compare greater,
/// and once it compares smaller, the remainder is written without
/// comparing.  `Less` and `Equal` leave the full image in `out`; with no
/// `best` the image is written in full and the result is `Less`.
fn encode_node_pruned<S: EncodeState>(
    elem: &SymElem,
    procs: &[(Phase, S)],
    crashes: &[u8],
    best: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> std::cmp::Ordering {
    let mut tied = best.is_some();
    let best = best.unwrap_or_default();
    for j in 0..procs.len() {
        let (phase, state) = &procs[elem.pi_inv[j]];
        let from = out.len();
        encode::put_u8(phase_to_u8(*phase), out);
        state.encode_with(&elem.map, &elem.regs, out);
        if above_best(&mut tied, out, from, best) {
            return std::cmp::Ordering::Greater;
        }
    }
    let from = out.len();
    for j in 0..crashes.len() {
        encode::put_u8(crashes[elem.pi_inv[j]], out);
    }
    if above_best(&mut tied, out, from, best) {
        return std::cmp::Ordering::Greater;
    }
    if tied {
        // Equal throughout `out`: a proper prefix of `best` is smaller.
        out.len().cmp(&best.len())
    } else {
        std::cmp::Ordering::Less
    }
}

/// Reusable buffers of [`canonicalize`], one set per worker.
#[derive(Debug, Default)]
struct Canon {
    /// The least image (the canonical encoding) after a call.
    best: Vec<u8>,
    /// The image being built.
    enc: Vec<u8>,
    /// Slot keys of the least slot section.
    keys: Vec<u32>,
    /// Indices of the group elements whose slot section is the least.
    ties: Vec<u16>,
}

/// Canonicalizes a node under the group: `canon.best` receives the
/// lexicographically least image; returns the index of the group
/// element achieving it (the first such index) plus the exact orbit
/// size.
///
/// An image starts with its slot section, `m` slots of four bytes each,
/// so images are ordered first by their slot sections.  Stage 1 ranks
/// the elements on those alone, as `m` integer keys per element
/// ([`encode::slot_key`]) compared with the running minimum and
/// abandoned at the first greater slot; it writes no bytes and leaves in
/// `canon.ties` the elements whose slot section is the least, in index
/// order.  Stage 2 encodes the first of them in full and compares every
/// other one from its first process component on
/// ([`encode_node_pruned`]), its slot section being known equal.  When
/// one element holds the least slot section, as it does for most nodes,
/// stage 2 is one encoding.
///
/// The orbit size comes from the orbit–stabilizer theorem.  The group
/// elements whose image equals the least image form one coset
/// `g·Stab(s)` of the node's stabilizer, so counting them — restarting
/// at 1 on every new minimum — counts `|Stab(s)|` exactly (encodings
/// are injective per configuration), and the orbit size is
/// `|G| / |Stab(s)|` — byte-exact, no hashing.
fn canonicalize<S: EncodeState>(
    group: &[SymElem],
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
    canon: &mut Canon,
) -> (u16, u32) {
    let Canon {
        best,
        enc,
        keys,
        ties,
    } = canon;
    ties.clear();
    ties.push(0);
    if group.len() > 1 {
        let identity = &group[0];
        keys.clear();
        keys.extend(slots.iter().map(|&s| encode::slot_key(s, &identity.map)));
        for (gi, elem) in group.iter().enumerate().skip(1) {
            let mut order = std::cmp::Ordering::Equal;
            for (j, least) in keys.iter_mut().enumerate() {
                let key = encode::slot_key(slots[elem.slot_source(j)], &elem.map);
                if order.is_eq() {
                    order = key.cmp(least);
                    if order.is_gt() {
                        break;
                    }
                }
                // Past the first smaller slot, the rest of this element's
                // keys replace the minimum's.
                *least = key;
            }
            match order {
                std::cmp::Ordering::Greater => {}
                std::cmp::Ordering::Equal => ties.push(gi as u16),
                std::cmp::Ordering::Less => {
                    ties.clear();
                    ties.push(gi as u16);
                }
            }
        }
    }
    let mut sigma = ties[0];
    encode_node_with(&group[usize::from(sigma)], slots, procs, crashes, best);
    let mut coset = 1u32;
    let slot_bytes = encode::SLOT_BYTES * slots.len();
    for &gi in &ties[1..] {
        enc.clear();
        enc.extend_from_slice(&best[..slot_bytes]);
        match encode_node_pruned(&group[usize::from(gi)], procs, crashes, Some(best), enc) {
            std::cmp::Ordering::Greater => {}
            std::cmp::Ordering::Equal => coset += 1,
            std::cmp::Ordering::Less => {
                std::mem::swap(enc, best);
                sigma = gi;
                coset = 1;
            }
        }
    }
    debug_assert_eq!(
        group.len() % coset as usize,
        0,
        "Lagrange: the stabilizer order must divide the group order"
    );
    (sigma, group.len() as u32 / coset)
}

/// Composition and inverse tables of the symmetry group, used by the
/// orbit confirmation to walk concrete orbit states as `(canonical
/// member, group element)` pairs without re-stepping any automaton.
struct GroupTables {
    /// `inv[g]` = index of g⁻¹.
    inv: Vec<u16>,
    /// `compose[g * |G| + h]` = index of g∘h (`(g∘h)(i) = g(h(i))`).
    compose: Vec<u16>,
}

fn group_tables(group: &[SymElem]) -> GroupTables {
    let gl = group.len();
    let n = group[0].pi.len();
    let index: std::collections::HashMap<&[usize], u16> = group
        .iter()
        .enumerate()
        .map(|(i, e)| (e.pi.as_slice(), i as u16))
        .collect();
    let inv = group
        .iter()
        .map(|e| {
            *index
                .get(e.pi_inv.as_slice())
                .expect("group closed under inverse")
        })
        .collect();
    let mut compose = Vec::with_capacity(gl * gl);
    let mut buf = vec![0usize; n];
    for g in group {
        for h in group {
            for (b, &hp) in buf.iter_mut().zip(&h.pi) {
                *b = g.pi[hp];
            }
            compose.push(
                *index
                    .get(buf.as_slice())
                    .expect("group closed under composition"),
            );
        }
    }
    GroupTables { inv, compose }
}

/// One breadth-first level: node ids in `(parent position, actor)`
/// order, with their canonical encodings packed end to end in one
/// buffer (no allocation per node), and each node's pending depths.
///
/// A node's pending depth at canonical position `j` is the number of
/// steps that position has taken inside its current `lock()` invocation
/// (its `Trying` phase) along the node's breadth-first tree path.  The
/// drain computes a fresh state's depths from its parent's
/// ([`child_depths`]), so the depths of every stored state pass through
/// a frontier exactly once.
#[derive(Debug)]
struct Frontier {
    /// Pending depths per node (the process count).
    n: usize,
    ids: Vec<u32>,
    /// `ends[i]` is the end offset of node `i`'s bytes in `bytes`.
    ends: Vec<usize>,
    bytes: Vec<u8>,
    /// Node `i`'s pending depths are `depths[i * n..(i + 1) * n]`.
    depths: Vec<u16>,
}

impl Frontier {
    fn new(n: usize) -> Self {
        Frontier {
            n,
            ids: Vec::new(),
            ends: Vec::new(),
            bytes: Vec::new(),
            depths: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Id and encoding of node `i`.
    fn node(&self, i: usize) -> (u32, &[u8]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.ids[i], &self.bytes[start..self.ends[i]])
    }

    /// Pending depths of node `i`, one per canonical position.
    fn depths(&self, i: usize) -> &[u16] {
        &self.depths[i * self.n..(i + 1) * self.n]
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.ends.clear();
        self.bytes.clear();
        self.depths.clear();
    }

    fn push(&mut self, id: u32, bytes: &[u8], depths: impl IntoIterator<Item = u16>) {
        self.ids.push(id);
        self.bytes.extend_from_slice(bytes);
        self.ends.push(self.bytes.len());
        self.depths.extend(depths);
        debug_assert_eq!(self.depths.len(), self.ids.len() * self.n);
    }
}

/// Pending depths of a state discovered by stepping `actor` from a node
/// with depths `parent` and canonicalized by `elem`; bit `i` of `trying`
/// tells whether concrete process `i` of the successor is `Trying`.
/// Canonical position `j` continues the parent's position
/// `pj = elem.pi_inv[j]`: one step deeper when `pj` is the actor, as
/// deep otherwise, and zero once `pj` is not `Trying` (saturating at
/// `u16::MAX`).  A crash's actor has its high bit set and is no
/// position, so a crash extends no depth.
fn child_depths<'a>(
    parent: &'a [u16],
    elem: &'a SymElem,
    trying: u64,
    actor: u8,
) -> impl Iterator<Item = u16> + 'a {
    elem.pi_inv.iter().map(move |&pj| {
        if trying >> pj & 1 == 0 {
            0
        } else {
            parent[pj].saturating_add(u16::from(pj == usize::from(actor)))
        }
    })
}

/// The fair-livelock pass's graph, recorded while BFS runs: one row of
/// `n` slots per expanded state, rows in breadth-first discovery order
/// (each level appends its frontier's rows, in frontier order — the
/// order [`Store`] numbers states in).  Slot `v * n + k` holds the
/// target of quotient actor `k`'s `Progress` step from state `v`, or
/// [`scc::NO_EDGE`]: completions and violating steps are left out, and
/// so are crash edges — each strictly increases a crash count, so no
/// cycle (hence no livelock) contains one, and fairness never obliges
/// the adversary to crash anyone.
#[derive(Debug)]
struct EdgeTable {
    /// Slots per row (the process count).
    n: usize,
    targets: Vec<u32>,
    /// Under symmetry, the group element that canonicalized each slot's
    /// target (parallel to `targets`); empty otherwise.  The orbit
    /// confirmation walks concrete orbit states with it.
    sigmas: Vec<u16>,
    track_sigma: bool,
}

impl EdgeTable {
    fn new(n: usize, track_sigma: bool) -> Self {
        EdgeTable {
            n,
            targets: Vec::new(),
            sigmas: Vec::new(),
            track_sigma,
        }
    }

    /// Rows held: the states expanded so far.
    fn rows(&self) -> usize {
        self.targets.len() / self.n
    }

    /// Appends `count` rows without edges.
    fn add_rows(&mut self, count: usize) {
        let len = self.targets.len() + count * self.n;
        self.targets.resize(len, scc::NO_EDGE);
        if self.track_sigma {
            self.sigmas.resize(len, 0);
        }
    }

    /// Writes `edge` into row `row`.
    fn set(&mut self, row: usize, edge: &Edge) {
        let at = row * self.n + usize::from(edge.actor);
        self.targets[at] = edge.target;
        if let Some(sigma) = self.sigmas.get_mut(at) {
            *sigma = edge.sigma;
        }
    }
}

/// A completion-free edge met during a round, on its way into the
/// [`EdgeTable`]: the source's frontier position, the target's id, the
/// canonicalizing group element and the quotient actor.
#[derive(Debug, Clone, Copy)]
struct Edge {
    pos: u32,
    target: u32,
    sigma: u16,
    actor: u8,
}

/// One frontier node in a stealable expansion queue; `pos` is its
/// global index in the level (the violation tiebreak).  The bytes
/// borrow the frontier — expansion never consumes the level.
struct LevelItem<'f> {
    pos: u32,
    id: u32,
    bytes: &'f [u8],
}

/// Items an owner claims from its own deque per lock acquisition.
/// Batching keeps lock traffic negligible; the batch is small enough
/// that a straggler's leftover work stays stealable.
const STEAL_BATCH: usize = 32;

/// Frontier slice expanded per two-phase round of a level: bounds the
/// buffered pending-insert memory to `O(LEVEL_CHUNK · n)` regardless of
/// level width, and bounds how much work can run after a violation is
/// found (later rounds have strictly larger positions, so they can
/// never improve the witness order).
const LEVEL_CHUNK: usize = 16 * 1024;

/// A canonical successor waiting for the drain phase: everything the
/// insert needs, in 40 bytes.  The encoding lives in the byte buffer of
/// the expand worker that generated it.
#[derive(Debug, Clone, Copy)]
struct PendingInsert {
    hash: u64,
    /// Bit `i` set: concrete process `i` of the successor is `Trying`
    /// (the input of [`child_depths`]).
    trying: u64,
    pos: u32,
    parent: u32,
    orbit: u32,
    /// Byte range of the encoding in the worker's buffer.
    start: u32,
    /// At most 64 KiB, the most [`StateArena::intern`] stores.
    len: u16,
    /// Index of the generating worker's [`Outbox`] byte buffer (below
    /// [`MAX_WORKERS`]).
    worker: u16,
    sigma: u16,
    actor: u8,
    /// Whether the step is an edge of the [`EdgeTable`] (a `Progress`
    /// step, not a completion or crash).
    edge: bool,
}

const _: () = assert!(std::mem::size_of::<PendingInsert>() == 40);

impl PendingInsert {
    fn bytes<'b>(&self, outboxes: &'b [Outbox]) -> &'b [u8] {
        let start = self.start as usize;
        &outboxes[usize::from(self.worker)].bytes[start..start + usize::from(self.len)]
    }
}

/// One expand worker's output for a round: pending inserts, their
/// encodings packed in one buffer, the edges whose targets the seen-set
/// probe already resolved, and the steps, acquisitions and least
/// violation met.
#[derive(Default)]
struct Outbox {
    pending: Vec<PendingInsert>,
    bytes: Vec<u8>,
    edges: Vec<Edge>,
    acquisitions: usize,
    transitions: usize,
    violation: Option<Violation>,
}

impl Outbox {
    /// Empties the outbox for the next round, keeping its capacity.
    fn clear(&mut self) {
        self.pending.clear();
        self.bytes.clear();
        self.edges.clear();
        self.acquisitions = 0;
        self.transitions = 0;
        self.violation = None;
    }
}

/// The buffers of [`run_level`]'s rounds, owned by the level loop and
/// cleared each round, so a check allocates them once it has seen its
/// widest round: one [`Outbox`] per worker and their merged pending
/// inserts.
struct RoundBufs {
    outboxes: Vec<Outbox>,
    pending: Vec<PendingInsert>,
}

impl RoundBufs {
    fn new(workers: usize) -> Self {
        RoundBufs {
            outboxes: (0..workers).map(|_| Outbox::default()).collect(),
            pending: Vec::new(),
        }
    }
}

/// Expands one breadth-first level.
///
/// The level runs in bounded rounds of [`LEVEL_CHUNK`] nodes, each
/// round two phases:
///
/// 1. **Expand** (no state is interned): each node is decoded, stepped
///    and its successors canonicalized; successors already interned by
///    a previous round or level are dropped by a probe of the seen set,
///    and the survivors are queued as [`PendingInsert`]s in the
///    worker's outbox.  With one worker the round runs in frontier
///    order on the calling thread, with the run's `scratch`, and the
///    probe faults spilled pages back into the arena's resident set as
///    an insert would.  With more, the seen set is shared read-only
///    (probes read spilled pages through per-worker caches) and the
///    round's nodes are block-partitioned over per-worker deques with
///    back-half stealing (uneven orbit-canonicalization costs get
///    rebalanced).
/// 2. **Drain** (on the calling thread): the merged outboxes are
///    interned sorted by `(pos, actor)` — so the first generator of
///    every state becomes its breadth-first parent, and fresh states
///    join `next` (cleared first; rounds cover increasing positions) in
///    id order, which is discovery order at every worker count.
///    Monitors run once per fresh state, on its decoded canonical
///    representative — monitor predicates are orbit-invariant by
///    contract, so any image of the state is as good as another, and
///    duplicates never pay for an evaluation.  Each fresh state's
///    pending depths follow from its parent's ([`child_depths`]) and
///    join `next` with it.
///
/// The level appends one [`EdgeTable`] row per frontier node and fills
/// it from both phases: targets the expand probe found, and targets the
/// drain interned (fresh or not).  The worker count is the number of
/// outboxes in `bufs`.
fn run_level<A: Automaton + Sync>(
    shared: &EngineShared<'_, A>,
    shard: &mut Shard,
    frontier: &Frontier,
    next: &mut Frontier,
    edges: &mut EdgeTable,
    scratch: &mut Scratch<A::State>,
    bufs: &mut RoundBufs,
) -> LevelOut
where
    A::State: EncodeState + Send,
{
    let (n, m) = (shared.automata.len(), shared.mem0.m());
    let mut out = LevelOut::new(shared.monitors.len(), n);
    next.clear();
    let row_base = edges.rows();
    edges.add_rows(frontier.len());
    let mut base = 0;
    while base < frontier.len() {
        if shared.overflow.load(Ordering::Relaxed) || out.found_stop() {
            break;
        }
        let round = base..frontier.len().min(base + LEVEL_CHUNK);
        base = round.end;
        // Phase 1: expand the round.
        for outbox in &mut bufs.outboxes {
            outbox.clear();
        }
        if let [outbox] = bufs.outboxes.as_mut_slice() {
            let mut seen = |hash: u64, bytes: &[u8], _: &mut PageCache| {
                shard.arena.lookup_hashed_mut(hash, bytes)
            };
            for pos in round {
                let (id, bytes) = frontier.node(pos);
                let item = LevelItem {
                    pos: pos as u32,
                    id,
                    bytes,
                };
                expand_item(shared, &item, 0, scratch, outbox, &mut seen);
            }
        } else {
            expand_round_stealing(shared, &*shard, frontier, round, &mut bufs.outboxes);
        }
        bufs.pending.clear();
        for outbox in &bufs.outboxes {
            out.acquisitions += outbox.acquisitions;
            out.transitions += outbox.transitions;
            if let Some(v) = outbox.violation {
                if out.violation.is_none_or(|best| v.order < best.order) {
                    out.violation = Some(v);
                }
            }
            bufs.pending.extend_from_slice(&outbox.pending);
            for e in &outbox.edges {
                edges.set(row_base + e.pos as usize, e);
            }
        }
        // Phase 2: drain the round into the seen set.
        bufs.pending.sort_unstable_by_key(|p| (p.pos, p.actor));
        for p in &bufs.pending {
            if shared.overflow.load(Ordering::Relaxed) {
                break;
            }
            let bytes = p.bytes(&bufs.outboxes);
            let meta = NodeMeta {
                parent: p.parent,
                actor: p.actor,
                sigma: p.sigma,
            };
            let (id, fresh) = intern_into(shared, shard, p.hash, bytes, meta, p.orbit);
            if p.edge {
                let edge = Edge {
                    pos: p.pos,
                    target: id,
                    sigma: p.sigma,
                    actor: p.actor,
                };
                edges.set(row_base + p.pos as usize, &edge);
            }
            if !fresh {
                // An intra-round duplicate that lost the sorted
                // `(pos, actor)` race: its first generator is the
                // breadth-first parent.
                continue;
            }
            let elem = &shared.group[usize::from(p.sigma)];
            let parent = frontier.depths(p.pos as usize);
            next.push(id, bytes, child_depths(parent, elem, p.trying, p.actor));
            for (max, &d) in out.depth_maxima.iter_mut().zip(next.depths(next.len() - 1)) {
                *max = (*max).max(d);
            }
            let order = (p.pos as usize, p.actor as usize);
            if !shared.monitors.is_empty() {
                decode_node(
                    bytes,
                    m,
                    n,
                    &mut scratch.slots,
                    &mut scratch.procs,
                    &mut scratch.crashes,
                );
            }
            for (mi, mon) in shared.monitors.iter().enumerate() {
                if !(mon.eval)(&scratch.slots, &scratch.procs) {
                    continue;
                }
                out.monitor_hits[mi].record(order, id);
                if mon.fatal {
                    let cand = PropViolation {
                        order,
                        node: id,
                        monitor: mi as u32,
                    };
                    if out
                        .prop_violation
                        .is_none_or(|best| (cand.order, cand.monitor) < (best.order, best.monitor))
                    {
                        out.prop_violation = Some(cand);
                    }
                }
            }
        }
    }
    out
}

/// Phase-1 worker pool of [`run_level`] with several workers, one per
/// outbox: the round's nodes go into per-worker deques (block
/// partition, back-half stealing); every worker fills its own
/// [`Outbox`] — nothing is interned here.
fn expand_round_stealing<A: Automaton + Sync>(
    shared: &EngineShared<'_, A>,
    shard: &Shard,
    frontier: &Frontier,
    round: std::ops::Range<usize>,
    outboxes: &mut [Outbox],
) where
    A::State: EncodeState + Send,
{
    let workers = outboxes.len();
    let (base, round_len) = (round.start, round.len());
    let mut qs: Vec<VecDeque<LevelItem<'_>>> = (0..workers).map(|_| VecDeque::new()).collect();
    for pos in round {
        let (id, bytes) = frontier.node(pos);
        qs[(pos - base) * workers / round_len].push_back(LevelItem {
            pos: pos as u32,
            id,
            bytes,
        });
    }
    let queues: Vec<Mutex<VecDeque<LevelItem<'_>>>> = qs.into_iter().map(Mutex::new).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = outboxes
            .iter_mut()
            .enumerate()
            .map(|(w, outbox)| {
                let queues = &queues;
                s.spawn(move || expand_worker(shared, shard, queues, w, outbox))
            })
            .collect();
        for h in handles {
            h.join().expect("model-checker expand worker panicked");
        }
    });
}

/// One phase-1 stealing worker: drain the own deque front in batches;
/// when dry, steal the back half of the first non-empty victim deque.
fn expand_worker<'f, A: Automaton + Sync>(
    shared: &EngineShared<'_, A>,
    shard: &Shard,
    queues: &[Mutex<VecDeque<LevelItem<'f>>>],
    w: usize,
    outbox: &mut Outbox,
) where
    A::State: EncodeState + Send,
{
    let workers = queues.len();
    let mut sc: Scratch<A::State> = Scratch::new(shared.mem0.clone());
    let mut seen = |hash: u64, bytes: &[u8], cache: &mut PageCache| {
        shard.arena.lookup_hashed_cached(hash, bytes, cache)
    };
    let mut batch: Vec<LevelItem<'f>> = Vec::with_capacity(STEAL_BATCH);
    'round: loop {
        batch.clear();
        {
            let mut q = queues[w].lock();
            while batch.len() < STEAL_BATCH {
                match q.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
        }
        if batch.is_empty() {
            let mut stolen = false;
            for off in 1..workers {
                let victim = (w + off) % workers;
                let mut q = queues[victim].lock();
                let take = q.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                let split_at = q.len() - take;
                let tail = q.split_off(split_at);
                drop(q);
                // Deposit the loot into the own deque (never holding
                // two locks) and claim it batch-wise from there, so a
                // large steal stays stealable by other idle workers
                // instead of becoming this worker's private straggler
                // block.
                queues[w].lock().extend(tail);
                shared.steals.fetch_add(1, Ordering::Relaxed);
                stolen = true;
                break;
            }
            if !stolen {
                // Every deque is dry: round items never respawn (fresh
                // children go to the next level), so the round is done.
                break 'round;
            }
            continue 'round;
        }
        for item in &batch {
            expand_item(shared, item, w, &mut sc, outbox, &mut seen);
        }
    }
}

/// Phase 1 for one frontier node: expands it and queues every successor
/// that `seen(hash, bytes, cache)` does not find as a pending insert in
/// `outbox`; edges to successors it finds go straight to the outbox's
/// edge list.
fn expand_item<A: Automaton>(
    shared: &EngineShared<'_, A>,
    item: &LevelItem<'_>,
    worker: usize,
    sc: &mut Scratch<A::State>,
    outbox: &mut Outbox,
    seen: &mut impl FnMut(u64, &[u8], &mut PageCache) -> Result<Option<u32>, SpillError>,
) where
    A::State: EncodeState,
{
    expand_node(
        shared,
        item.pos,
        item.id,
        item.bytes,
        sc,
        outbox,
        |sc, outbox, actor, sigma, orbit, edge| {
            let best = &sc.canon.best;
            let hash = hash_bytes(best);
            match seen(hash, best, &mut sc.cache) {
                // Interned by a previous round or level: the probe is exact
                // for those, so nothing to buffer but the edge.
                // Intra-round duplicates fall through and lose in the
                // drain phase.
                Ok(Some(id)) => {
                    if edge {
                        outbox.edges.push(Edge {
                            pos: item.pos,
                            target: id,
                            sigma,
                            actor: actor as u8,
                        });
                    }
                    return;
                }
                Ok(None) => {}
                Err(e) => {
                    // A spilled page is unreadable: the level boundary
                    // turns this into McError::Spill; meanwhile treat the
                    // child as seen so the round drains without further
                    // probes.
                    shared.record_spill_error(e);
                    return;
                }
            }
            let trying = sc
                .procs
                .iter()
                .enumerate()
                .filter(|(_, (phase, _))| *phase == Phase::Trying)
                .fold(0u64, |mask, (i, _)| mask | 1 << i);
            let start = outbox.bytes.len();
            outbox.bytes.extend_from_slice(best);
            outbox.pending.push(PendingInsert {
                hash,
                trying,
                pos: item.pos,
                parent: item.id,
                orbit,
                start: start as u32,
                len: u16::try_from(best.len())
                    .expect("encoded states must fit the page-base directory (≤ 64 KiB)"),
                worker: worker as u16,
                sigma,
                actor: actor as u8,
                edge,
            });
        },
    );
}

/// Expands one frontier node — the successor-generation skeleton.  For
/// every step that is not a violation (and every admissible crash) the
/// successor is canonicalized into `scratch.canon.best` (concrete frame
/// left in `scratch.mem`/`scratch.procs`) and handed to `sink` as
/// `(scratch, out, actor, sigma, orbit, edge)`, `edge` telling whether
/// the step belongs to the completion-free graph (a `Progress` step).
/// Steps and acquisitions are counted into `out`.  A found violation
/// never aborts mid-node: the candidate is merged by minimum
/// `(pos, actor)` into `out` and the node's remaining actors still run
/// (stolen items arrive out of position order, and the round finishes
/// regardless).
fn expand_node<A: Automaton>(
    shared: &EngineShared<'_, A>,
    pos: u32,
    id: u32,
    bytes: &[u8],
    scratch: &mut Scratch<A::State>,
    out: &mut Outbox,
    mut sink: impl FnMut(&mut Scratch<A::State>, &mut Outbox, usize, u16, u32, bool),
) where
    A::State: EncodeState,
{
    let n = shared.automata.len();
    let m = shared.mem0.m();
    decode_node(
        bytes,
        m,
        n,
        &mut scratch.slots,
        &mut scratch.procs,
        &mut scratch.crashes,
    );
    for i in 0..n {
        out.transitions += 1;
        scratch.mem.restore(&scratch.slots);
        let saved = scratch.procs[i].clone();
        let outcome = advance_in_place(
            &shared.automata[i],
            i,
            &mut scratch.mem,
            &mut scratch.procs[i],
        );
        if outcome == Outcome::Acquired {
            out.acquisitions += 1;
            if let Some(j) = (0..n).find(|&j| j != i && scratch.procs[j].0 == Phase::Cs) {
                let cand = Violation {
                    order: (pos as usize, i),
                    from: id,
                    actor: i,
                    other: j,
                };
                if out.violation.is_none_or(|best| cand.order < best.order) {
                    out.violation = Some(cand);
                }
                // The violating successor is not interned (it is the
                // witness endpoint, not a node to expand further).
                scratch.procs[i] = saved;
                continue;
            }
        }
        let (sigma, orbit) = canonicalize(
            shared.group,
            scratch.mem.slots(),
            &scratch.procs,
            &scratch.crashes,
            &mut scratch.canon,
        );
        sink(scratch, out, i, sigma, orbit, outcome == Outcome::Progress);
        scratch.procs[i] = saved;
    }
    // Crash edges: the adversary may crash any process that is mid-
    // invocation (Trying/Cs/Exiting — a process in its remainder has
    // nothing to lose), within budget.  A crash resets the process to
    // its remainder section with `crash_state()` local memory; under
    // `WipeRegisters` its shared-register claims evaporate too, under
    // `StaleClaims` they linger.  Crash counts strictly increase along
    // these edges, so no cycle contains one — which is why the fair-
    // livelock edge table soundly omits them (fairness never obliges the
    // adversary to crash anyone).
    if let Some((budget, mode)) = shared.crashes {
        let total: u32 = scratch.crashes.iter().map(|&c| u32::from(c)).sum();
        for i in 0..n {
            if !matches!(
                scratch.procs[i].0,
                Phase::Trying | Phase::Cs | Phase::Exiting
            ) {
                continue;
            }
            if scratch.crashes[i] >= budget.per_process || total >= u32::from(budget.total) {
                continue;
            }
            out.transitions += 1;
            let saved = std::mem::replace(
                &mut scratch.procs[i],
                (Phase::Remainder, shared.automata[i].crash_state()),
            );
            scratch.crash_slots.clear();
            scratch.crash_slots.extend_from_slice(&scratch.slots);
            if mode == CrashMode::WipeRegisters {
                if let Some(pid) = shared.automata[i].pid() {
                    for s in &mut scratch.crash_slots {
                        if s.is_owned_by(pid) {
                            *s = Slot::BOTTOM;
                        }
                    }
                }
            }
            scratch.mem.restore(&scratch.crash_slots);
            scratch.crashes[i] += 1;
            let (sigma, orbit) = canonicalize(
                shared.group,
                scratch.mem.slots(),
                &scratch.procs,
                &scratch.crashes,
                &mut scratch.canon,
            );
            sink(
                scratch,
                out,
                usize::from(CRASH_ACTOR) | i,
                sigma,
                orbit,
                false,
            );
            scratch.crashes[i] -= 1;
            scratch.procs[i] = saved;
        }
    }
}

/// Read-only view of the seen set after exploration.  A state's id is
/// its breadth-first discovery order: level by level, each level sorted
/// by `(parent position, actor)`.
struct Store {
    shard: Shard,
}

impl Store {
    /// Seals the seen set for read-mostly use: growth slack is dropped,
    /// so `arena_bytes` reports resident bytes, not capacity.
    fn new(mut shard: Shard) -> Self {
        shard.arena.shrink_to_fit();
        shard.meta.shrink_to_fit();
        Store { shard }
    }

    fn node_count(&self) -> usize {
        self.shard.arena.len()
    }

    /// Materializes the encoded bytes of `id` into `out`, faulting the
    /// page in from spill through the caller's cache if evicted.
    fn bytes_into(
        &self,
        id: u32,
        cache: &mut PageCache,
        out: &mut Vec<u8>,
    ) -> Result<(), SpillError> {
        self.shard.arena.get_into_cached(id, cache, out)
    }

    fn meta(&self, id: u32) -> NodeMeta {
        self.shard.meta[id as usize]
    }
}

/// Renders a decoded node for humans: physical slot owners (raw
/// identity tokens, `⊥` for free) plus each process's phase and state.
fn render_state<S: std::fmt::Debug>(slots: &[Slot], procs: &[(Phase, S)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("slots[");
    for (i, s) in slots.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match s.pid() {
            None => out.push('⊥'),
            Some(p) => {
                let _ = write!(out, "{}", p.to_raw());
            }
        }
    }
    out.push_str("] procs[");
    for (i, (phase, st)) in procs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "p{i}:{phase:?}:{st:?}");
    }
    out.push(']');
    out
}

/// The BFS-tree edges from the root to `target`, in root-first order.
fn chain_from_root(store: &Store, mut cur: u32) -> Vec<(usize, u16)> {
    let mut rev = Vec::new();
    loop {
        let meta = store.meta(cur);
        if meta.parent == u32::MAX {
            break;
        }
        rev.push((meta.actor as usize, meta.sigma));
        cur = meta.parent;
    }
    rev.reverse();
    rev
}

/// Maps a quotient tree path to a concrete schedule.
///
/// Walking the quotient, each tree edge `(i_k, σ_k)` means "step
/// quotient actor `i_k`, then canonicalize by `σ_k`".  Maintaining the
/// accumulated permutation `τ_k = σ_k ∘ τ_{k-1}` (with `τ` mapping the
/// concrete replay state onto the canonical representative), the
/// concrete actor to schedule is `τ_{k-1}⁻¹(i_k)`.  Returns the
/// concrete schedule plus the final `τ` and `τ⁻¹` (to map process
/// indices between the canonical target and the concrete replay).
fn concretize(group: &[SymElem], chain: &[(usize, u16)]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = group[0].pi.len();
    let mut tau: Vec<usize> = (0..n).collect();
    let mut tau_inv: Vec<usize> = (0..n).collect();
    let mut schedule = Vec::with_capacity(chain.len());
    for &(actor, sigma) in chain {
        if actor >= usize::from(CRASH_ACTOR) {
            // A crash edge: schedule entry `n + i` = "process i
            // crashes" (see the Verdict docs).
            schedule.push(n + tau_inv[actor & !usize::from(CRASH_ACTOR)]);
        } else {
            schedule.push(tau_inv[actor]);
        }
        let pi = &group[sigma as usize].pi;
        for t in &mut tau {
            *t = pi[*t];
        }
        for (j, &t) in tau.iter().enumerate() {
            tau_inv[t] = j;
        }
    }
    (schedule, tau, tau_inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemoryModel;
    use crate::toys::{CasLock, NaiveFlagLock, SpinForever};
    use amx_ids::PidPool;
    use amx_registers::Adversary;

    /// Candidate components the fair-livelock pass met on this test
    /// thread, by how it decided them under symmetry.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct LivelockBranches {
        /// Rejected on the quotient: some pending position never steps.
        rejected: usize,
        /// Passed on the quotient, on to the orbit confirmation.
        passed: usize,
        /// An internal edge relabels: the class-level fallback.
        relabeling: usize,
    }

    thread_local! {
        static LIVELOCK_BRANCHES: std::cell::Cell<LivelockBranches> =
            std::cell::Cell::new(LivelockBranches::default());
    }

    /// Records one candidate's branch, asserting that a decision taken
    /// on the quotient is what the orbit confirmation finds.
    pub(super) fn audit_livelock_decision(
        relabels: bool,
        passes: bool,
        confirmed: Option<(Verdict, Vec<SccQueryResult>)>,
    ) {
        LIVELOCK_BRANCHES.with(|b| {
            let mut counts = b.get();
            if relabels {
                counts.relabeling += 1;
            } else {
                assert_eq!(
                    passes,
                    confirmed.is_some(),
                    "the quotient decision disagrees with the orbit confirmation"
                );
                if passes {
                    counts.passed += 1;
                } else {
                    counts.rejected += 1;
                }
            }
            b.set(counts);
        });
    }

    /// The branches the fair-livelock pass of one run takes.
    fn livelock_branches(run: impl FnOnce() -> McReport) -> (McReport, LivelockBranches) {
        LIVELOCK_BRANCHES.with(|b| b.set(LivelockBranches::default()));
        let report = run();
        (report, LIVELOCK_BRANCHES.with(std::cell::Cell::get))
    }

    /// The pass [`Frontier`]'s pending depths replace: after
    /// exploration, one decode per stored state in id (discovery)
    /// order — a parent is numbered before its children — applying the
    /// tree edge's recurrence to the decoded canonical state's phases,
    /// with O(states · n) memory.
    fn max_pending_depth_full_pass<S: EncodeState>(
        store: &Store,
        group: &[SymElem],
        m: usize,
        n: usize,
    ) -> Result<Vec<usize>, SpillError> {
        let n_states = store.node_count();
        let mut depth = vec![0u16; n_states * n];
        let mut maxima = vec![0u16; n];
        let mut slots: Vec<Slot> = Vec::new();
        let mut procs: Vec<(Phase, S)> = Vec::new();
        let mut crashes: Vec<u8> = Vec::new();
        let mut node: Vec<u8> = Vec::new();
        let mut cache = PageCache::new();
        // Id 0 is the root, whose depths are all zero.
        for c in 1..n_states {
            let meta = store.meta(c as u32);
            let v = meta.parent as usize;
            assert!(v < c, "discovery order numbers parents first");
            store.bytes_into(c as u32, &mut cache, &mut node)?;
            decode_node::<S>(&node, m, n, &mut slots, &mut procs, &mut crashes);
            let pi_inv = &group[meta.sigma as usize].pi_inv;
            for j in 0..n {
                let pj = pi_inv[j];
                depth[c * n + j] = if procs[j].0 == Phase::Trying {
                    let d = depth[v * n + pj].saturating_add(u16::from(pj == meta.actor as usize));
                    maxima[j] = maxima[j].max(d);
                    d
                } else {
                    0
                };
            }
        }
        Ok(maxima.into_iter().map(usize::from).collect())
    }

    thread_local! {
        /// Completed runs on this test thread whose pending depths
        /// [`audit_pending_depths`] checked.
        static DEPTH_AUDITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Asserts that a completed run's pending-depth maxima, computed
    /// during BFS, equal the full pass's over its stored states.
    pub(super) fn audit_pending_depths<S: EncodeState>(
        store: &Store,
        group: &[SymElem],
        m: usize,
        maxima: &[usize],
    ) {
        let reference = max_pending_depth_full_pass::<S>(store, group, m, maxima.len())
            .expect("the full pass reads every stored state");
        assert_eq!(
            maxima, reference,
            "pending depths disagree with the full pass"
        );
        DEPTH_AUDITS.with(|a| a.set(a.get() + 1));
    }

    /// Runs `run` and returns its report with the number of completed
    /// runs whose pending depths it audited.
    fn depth_audits<T>(run: impl FnOnce() -> T) -> (T, usize) {
        let before = DEPTH_AUDITS.with(std::cell::Cell::get);
        let out = run();
        (out, DEPTH_AUDITS.with(std::cell::Cell::get) - before)
    }

    fn check<A: Automaton + Sync>(automata: Vec<A>, model: MemoryModel, m: usize) -> McReport
    where
        A::State: EncodeState + Send,
    {
        ModelChecker::with_automata(automata, model, m, &Adversary::Identity)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn cas_lock_is_correct_for_two_processes() {
        let ids = PidPool::sequential().mint_many(2);
        let report = check(
            ids.into_iter().map(CasLock::new).collect(),
            MemoryModel::Rmw,
            1,
        );
        assert_eq!(report.verdict, Verdict::Ok);
        assert!(report.canonical_states > 1);
        assert!(report.acquisitions > 0);
        assert_eq!(report.canonical_states, report.full_states_estimate);
        assert!(report.peak_frontier >= 1);
        assert!(report.arena_bytes > 0);
        assert_eq!(report.threads, 1);
        assert_eq!(report.symmetry, Symmetry::Off);
    }

    #[test]
    fn cas_lock_is_correct_for_three_processes() {
        let ids = PidPool::sequential().mint_many(3);
        let report = check(
            ids.into_iter().map(CasLock::new).collect(),
            MemoryModel::Rmw,
            1,
        );
        assert_eq!(report.verdict, Verdict::Ok);
    }

    #[test]
    fn naive_flag_lock_violates_mutual_exclusion() {
        let ids = PidPool::sequential().mint_many(2);
        let report = check(
            ids.into_iter().map(NaiveFlagLock::new).collect(),
            MemoryModel::Rw,
            1,
        );
        match report.verdict {
            Verdict::MutualExclusionViolation { schedule, procs } => {
                assert!(!schedule.is_empty());
                assert_ne!(procs.0, procs.1);
                // Shortest counterexample: both check, then both claim.
                assert!(schedule.len() <= 6, "schedule {schedule:?} not minimal-ish");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn violation_schedule_replays_to_a_violation() {
        use crate::runner::{Runner, Stop, Workload};
        use crate::schedule::Scheduler;
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
        let report = check(automata.clone(), MemoryModel::Rw, 1);
        let Verdict::MutualExclusionViolation { schedule, .. } = report.verdict else {
            panic!("expected violation");
        };
        let runner = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .workload(Workload::unbounded())
            .scheduler(Scheduler::script(schedule))
            .max_steps(100);
        let rr = runner.run();
        assert!(matches!(rr.stop, Stop::MutualExclusionViolation { .. }));
    }

    #[test]
    fn reduced_violation_schedule_also_replays() {
        use crate::runner::{Runner, Stop, Workload};
        use crate::schedule::Scheduler;
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
        let report =
            ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
                .unwrap()
                .symmetry(Symmetry::Wreath)
                .run()
                .unwrap();
        let Verdict::MutualExclusionViolation { schedule, .. } = report.verdict else {
            panic!("expected violation");
        };
        let runner = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .workload(Workload::unbounded())
            .scheduler(Scheduler::script(schedule))
            .max_steps(100);
        let rr = runner.run();
        assert!(
            matches!(rr.stop, Stop::MutualExclusionViolation { .. }),
            "reduced-engine schedule must replay concretely, got {:?}",
            rr.stop
        );
    }

    #[test]
    fn spin_forever_is_a_fair_livelock() {
        let report = check(vec![SpinForever, SpinForever], MemoryModel::Rw, 1);
        match report.verdict {
            Verdict::FairLivelock {
                pending,
                scc_states,
                witness_schedule: _,
            } => {
                assert_eq!(pending, vec![0, 1]);
                assert!(scc_states >= 1);
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn single_spinner_is_still_a_livelock() {
        // Even one process spinning forever violates deadlock-freedom.
        let report = check(vec![SpinForever], MemoryModel::Rw, 1);
        assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
    }

    #[test]
    fn state_space_bound_is_enforced() {
        let ids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let err = ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
            .unwrap()
            .max_states(2)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            McError::StateSpaceExceeded(StateSpaceExceeded { limit: 2 })
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn symmetry_reduction_shrinks_cas_lock_space_and_agrees() {
        let make = || {
            let ids = PidPool::sequential().mint_many(3);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
        };
        let full = make().run().unwrap();
        let reduced = make().symmetry(Symmetry::Wreath).run().unwrap();
        assert_eq!(reduced.verdict, Verdict::Ok);
        assert_eq!(full.verdict, Verdict::Ok);
        assert!(
            reduced.canonical_states < full.canonical_states,
            "3 interchangeable processes must collapse orbits: {} vs {}",
            reduced.canonical_states,
            full.canonical_states
        );
        assert_eq!(
            reduced.full_states_estimate, full.canonical_states,
            "orbit accounting must reproduce the concrete count"
        );
    }

    #[test]
    fn parallel_run_matches_sequential_verdict_and_counts() {
        let make = || {
            let ids = PidPool::sequential().mint_many(3);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
        };
        let seq = make().threads(1).run().unwrap();
        let par = make().threads(4).oversubscribe(true).run().unwrap();
        assert_eq!(seq.verdict, par.verdict);
        assert_eq!(seq.canonical_states, par.canonical_states);
        assert_eq!(seq.transitions, par.transitions);
        assert_eq!(seq.acquisitions, par.acquisitions);
        assert_eq!(seq.max_pending_depth, par.max_pending_depth);
        assert_eq!(par.threads, 4);
    }

    #[test]
    fn parallel_violation_is_shortest_and_replays() {
        use crate::runner::{Runner, Stop, Workload};
        use crate::schedule::Scheduler;
        // The reported schedule is the same at every worker count, and
        // it must replay to a real violation.
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
        let seq =
            ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
                .unwrap()
                .run()
                .unwrap();
        let par =
            ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
                .unwrap()
                .threads(3)
                .oversubscribe(true)
                .run()
                .unwrap();
        let Verdict::MutualExclusionViolation {
            schedule: s_seq, ..
        } = seq.verdict
        else {
            panic!("expected violation, got {:?}", seq.verdict);
        };
        let Verdict::MutualExclusionViolation {
            schedule: s_par, ..
        } = par.verdict
        else {
            panic!("expected violation, got {:?}", par.verdict);
        };
        assert_eq!(
            s_seq, s_par,
            "the witness must not depend on the worker count"
        );
        let rr = Runner::with_adversary(automata, MemoryModel::Rw, 1, &Adversary::Identity)
            .unwrap()
            .workload(Workload::unbounded())
            .scheduler(Scheduler::script(s_par))
            .max_steps(100)
            .run();
        assert!(matches!(rr.stop, Stop::MutualExclusionViolation { .. }));
    }

    #[test]
    fn reduced_livelock_witness_replays_to_the_pending_state() {
        // The quotient witness is mapped back through the accumulated
        // canonicalization permutation (and, for the orbit-expansion
        // confirmation, through h = g ∘ τ); replaying it concretely must
        // land in a state whose pending set matches the report exactly.
        let automata = vec![SpinForever, SpinForever, SpinForever];
        let report =
            ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
                .unwrap()
                .symmetry(Symmetry::Wreath)
                .run()
                .unwrap();
        let Verdict::FairLivelock {
            pending,
            witness_schedule,
            ..
        } = report.verdict
        else {
            panic!("expected livelock, got {:?}", report.verdict);
        };
        let mut mem = SimMemory::new(MemoryModel::Rw, 1, &Adversary::Identity, 3).unwrap();
        let mut procs: Vec<(Phase, crate::toys::SpinState)> = automata
            .iter()
            .map(|a| (Phase::Remainder, a.init_state()))
            .collect();
        for &a in &witness_schedule {
            let _ = advance_in_place(&automata[a], a, &mut mem, &mut procs[a]);
        }
        let reached: Vec<usize> = (0..3)
            .filter(|&i| matches!(procs[i].0, Phase::Trying | Phase::Exiting))
            .collect();
        assert_eq!(
            reached, pending,
            "witness must reach a state with the reported pending set"
        );
    }

    #[test]
    fn spinners_livelock_under_symmetry_too() {
        let run = |symmetry: Symmetry| {
            ModelChecker::with_automata(
                vec![SpinForever, SpinForever],
                MemoryModel::Rw,
                1,
                &Adversary::Identity,
            )
            .unwrap()
            .symmetry(symmetry)
            .run()
            .unwrap()
        };
        let (full, reduced) = (run(Symmetry::Off), run(Symmetry::Wreath));
        match reduced.verdict {
            Verdict::FairLivelock { pending, .. } => assert_eq!(pending, vec![0, 1]),
            other => panic!("expected livelock, got {other:?}"),
        }
        assert!(matches!(full.verdict, Verdict::FairLivelock { .. }));
        assert_eq!(reduced.full_states_estimate, full.canonical_states);
    }

    #[test]
    fn group_is_trivial_for_asymmetric_adversaries() {
        // Permutations (id, 3-cycle) on three registers: no register
        // relabeling ρ maps one onto the other and back, so nothing is
        // interchangeable and the reduction must degrade to the exact
        // exploration.
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let adv = Adversary::explicit(vec![
            amx_registers::Permutation::identity(3),
            amx_registers::Permutation::rotation(3, 1),
        ]);
        let mem = SimMemory::new(MemoryModel::Rmw, 3, &adv, 2).unwrap();
        let (group, class_of) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        assert_eq!(group.len(), 1);
        assert_eq!(class_of, vec![0, 1]);
    }

    #[test]
    fn group_covers_the_symmetric_case() {
        let ids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, 3).unwrap();
        let (group, class_of) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        assert_eq!(group.len(), 6, "S_3 on three interchangeable processes");
        assert_eq!(class_of, vec![0, 0, 0]);
        // Element 0 is the identity.
        assert!(group[0].pi.iter().enumerate().all(|(i, &v)| i == v));
        assert!(group[0].map.is_identity());
    }

    #[test]
    fn wreath_group_equals_process_group_on_shared_permutations() {
        // Identity adversary: every ρ is forced to id, so the wreath
        // group degenerates to exactly the process-symmetry group — every
        // permutation of the three interchangeable processes, once.
        let ids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let mem = SimMemory::new(MemoryModel::Rmw, 2, &Adversary::Identity, 3).unwrap();
        let (wreath, class_w) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        assert_eq!(class_w, vec![0, 0, 0]);
        assert!(wreath.iter().all(|e| e.rho_inv.is_empty()));
        let pis: std::collections::HashSet<Vec<usize>> =
            wreath.iter().map(|e| e.pi.clone()).collect();
        let s3: std::collections::HashSet<Vec<usize>> = amx_registers::all_permutations(3)
            .iter()
            .map(|p| p.as_slice().to_vec())
            .collect();
        assert_eq!(wreath.len(), 6);
        assert_eq!(pis, s3);
    }

    #[test]
    fn wreath_group_bites_on_rotation_adversaries() {
        // Rotations with distinct permutations: process-only reduction
        // sees nothing to permute, the joint group is the cyclic Z_3
        // "shift processes ∘ rotate registers".
        let automata = vec![SpinForever, SpinForever, SpinForever];
        let mem =
            SimMemory::new(MemoryModel::Rw, 3, &Adversary::Rotations { stride: 1 }, 3).unwrap();
        let (wreath, class_of) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        assert_eq!(wreath.len(), 3, "Z_3");
        assert_eq!(class_of, vec![0, 0, 0], "one π-orbit");
        assert!(wreath[0].pi.iter().enumerate().all(|(i, &v)| i == v));
        assert!(wreath[0].rho_inv.is_empty());
        assert!(wreath[1..].iter().all(|e| !e.rho_inv.is_empty()));
    }

    #[test]
    fn wreath_reduction_on_rotations_agrees_with_full_and_shrinks() {
        // The smallest genuinely wreath-only configuration: spinners on
        // a rotated memory.  The exact exploration must agree on the
        // verdict and on the orbit accounting.
        let run = |symmetry: Symmetry| {
            ModelChecker::with_automata(
                vec![SpinForever, SpinForever, SpinForever],
                MemoryModel::Rw,
                3,
                &Adversary::Rotations { stride: 1 },
            )
            .unwrap()
            .symmetry(symmetry)
            .run()
            .unwrap()
        };
        let (full, report) = (run(Symmetry::Off), run(Symmetry::Wreath));
        assert!(matches!(full.verdict, Verdict::FairLivelock { .. }));
        assert_eq!(report.full_states_estimate, full.canonical_states);
        match report.verdict {
            Verdict::FairLivelock { ref pending, .. } => assert_eq!(pending, &vec![0, 1, 2]),
            ref other => panic!("expected livelock, got {other:?}"),
        }
        assert!(
            report.canonical_states < report.full_states_estimate,
            "the joint group must collapse rotation orbits: {} vs {}",
            report.canonical_states,
            report.full_states_estimate
        );
    }

    #[test]
    fn wreath_livelock_witness_replays_to_the_pending_state() {
        let automata = vec![SpinForever, SpinForever, SpinForever];
        let adv = Adversary::Rotations { stride: 1 };
        let report = ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 3, &adv)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .run()
            .unwrap();
        let Verdict::FairLivelock {
            pending,
            witness_schedule,
            ..
        } = report.verdict
        else {
            panic!("expected livelock, got {:?}", report.verdict);
        };
        let mut mem = SimMemory::new(MemoryModel::Rw, 3, &adv, 3).unwrap();
        let mut procs: Vec<(Phase, crate::toys::SpinState)> = automata
            .iter()
            .map(|a| (Phase::Remainder, a.init_state()))
            .collect();
        for &a in &witness_schedule {
            let _ = advance_in_place(&automata[a], a, &mut mem, &mut procs[a]);
        }
        let reached: Vec<usize> = (0..3)
            .filter(|&i| matches!(procs[i].0, Phase::Trying | Phase::Exiting))
            .collect();
        assert_eq!(reached, pending);
    }

    /// A [`CasLock`] whose `unlock()` takes two steps, a read and then the
    /// clearing write.  Between them the holder is pending and the others
    /// spin in place, so the fair-livelock pass meets components that a
    /// pending process can only leave: candidates that are no livelock.
    #[derive(Debug, Clone)]
    struct TwoStepUnlock(amx_ids::Pid);

    /// [`TwoStepUnlock`]'s program counter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum TwoStep {
        Idle,
        TryCas,
        Read,
        Clear,
    }

    impl Automaton for TwoStepUnlock {
        type State = TwoStep;

        fn init_state(&self) -> TwoStep {
            TwoStep::Idle
        }

        fn start_lock(&self, state: &mut TwoStep) {
            *state = TwoStep::TryCas;
        }

        fn start_unlock(&self, state: &mut TwoStep) {
            *state = TwoStep::Read;
        }

        fn step<M: crate::mem::MemoryOps + ?Sized>(
            &self,
            state: &mut TwoStep,
            mem: &mut M,
        ) -> Outcome {
            match *state {
                TwoStep::TryCas => {
                    if !mem.compare_and_swap(0, Slot::BOTTOM, Slot::from(self.0)) {
                        return Outcome::Progress;
                    }
                    *state = TwoStep::Idle;
                    Outcome::Acquired
                }
                TwoStep::Read => {
                    let _ = mem.read(0);
                    *state = TwoStep::Clear;
                    Outcome::Progress
                }
                TwoStep::Clear => {
                    mem.write(0, Slot::BOTTOM);
                    *state = TwoStep::Idle;
                    Outcome::Released
                }
                TwoStep::Idle => panic!("step without pending invocation"),
            }
        }

        fn pid(&self) -> Option<amx_ids::Pid> {
            Some(self.0)
        }

        fn symmetry_class(&self) -> Option<u64> {
            Some(0)
        }
    }

    impl EncodeState for TwoStep {
        fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
            out.push(*self as u8);
        }

        fn decode(bytes: &mut &[u8]) -> Option<Self> {
            let states = [
                TwoStep::Idle,
                TwoStep::TryCas,
                TwoStep::Read,
                TwoStep::Clear,
            ];
            states.get(usize::from(encode::take_u8(bytes)?)).copied()
        }
    }

    /// A lock that never acquires: `lock()` writes the caller's identity
    /// into its local registers 0 and 1 in turn, forever.  Overwriting
    /// another process's identity moves a state to another member of its
    /// orbit, so quotient edges relabel positions.
    #[derive(Debug, Clone)]
    struct Scribbler(amx_ids::Pid);

    /// [`Scribbler`]'s state: `None` idle, else the next local register.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Cursor(Option<u8>);

    impl Automaton for Scribbler {
        type State = Cursor;

        fn init_state(&self) -> Cursor {
            Cursor(None)
        }

        fn start_lock(&self, state: &mut Cursor) {
            *state = Cursor(Some(0));
        }

        fn start_unlock(&self, _state: &mut Cursor) {
            unreachable!("Scribbler never acquires")
        }

        fn step<M: crate::mem::MemoryOps + ?Sized>(
            &self,
            state: &mut Cursor,
            mem: &mut M,
        ) -> Outcome {
            let at = state.0.expect("step without pending invocation");
            mem.write(usize::from(at), Slot::from(self.0));
            *state = Cursor(Some(1 - at));
            Outcome::Progress
        }

        fn pid(&self) -> Option<amx_ids::Pid> {
            Some(self.0)
        }

        fn symmetry_class(&self) -> Option<u64> {
            Some(0)
        }
    }

    impl EncodeState for Cursor {
        fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
            out.push(self.0.map_or(0, |at| at + 1));
        }

        fn decode(bytes: &mut &[u8]) -> Option<Self> {
            match encode::take_u8(bytes)? {
                0 => Some(Cursor(None)),
                b @ 1..=2 => Some(Cursor(Some(b - 1))),
                _ => None,
            }
        }
    }

    #[test]
    fn quotient_livelock_decisions_agree_with_the_orbit_confirmation() {
        // Test builds audit every candidate component against
        // `confirm_livelock_on_orbit` (see `audit_livelock_decision`);
        // these three configurations take each branch.
        fn run<A: Automaton + Sync>(
            automata: Vec<A>,
            model: MemoryModel,
            m: usize,
            adv: &Adversary,
            symmetry: Symmetry,
        ) -> McReport
        where
            A::State: EncodeState + Send,
        {
            ModelChecker::with_automata(automata, model, m, adv)
                .unwrap()
                .symmetry(symmetry)
                .run()
                .unwrap()
        }
        let pending = |report: &McReport| match &report.verdict {
            Verdict::FairLivelock { pending, .. } => Some(pending.clone()),
            _ => None,
        };
        for n in 2..=4 {
            let pids = PidPool::sequential().mint_many(n);
            let id = &Adversary::Identity;
            // Ok, with spin-while-exiting candidates: rejected on the
            // quotient, one per number of spinners.
            let two_step: Vec<TwoStepUnlock> = pids.iter().copied().map(TwoStepUnlock).collect();
            let (report, branches) = livelock_branches(|| {
                run(two_step.clone(), MemoryModel::Rmw, 1, id, Symmetry::Wreath)
            });
            assert_eq!(report.verdict, Verdict::Ok);
            let expected = LivelockBranches {
                rejected: n - 1,
                ..LivelockBranches::default()
            };
            assert_eq!(branches, expected, "n = {n}");
            assert_eq!(
                run(two_step, MemoryModel::Rmw, 1, id, Symmetry::Off).verdict,
                Verdict::Ok
            );

            // A livelock whose edges keep every position: passed on.
            let (report, branches) = livelock_branches(|| {
                run(
                    vec![SpinForever; n],
                    MemoryModel::Rw,
                    1,
                    id,
                    Symmetry::Wreath,
                )
            });
            assert_eq!(pending(&report), Some((0..n).collect()));
            let expected = LivelockBranches {
                passed: 1,
                ..LivelockBranches::default()
            };
            assert_eq!(branches, expected, "n = {n}");

            // Rotations, overwritten identities: edges relabel, so the
            // class-level check and the confirmation decide.
            let rot = &Adversary::Rotations { stride: 1 };
            let scribblers: Vec<Scribbler> = pids.iter().copied().map(Scribbler).collect();
            let (report, branches) = livelock_branches(|| {
                run(
                    scribblers.clone(),
                    MemoryModel::Rw,
                    n,
                    rot,
                    Symmetry::Wreath,
                )
            });
            assert_eq!(pending(&report), Some((0..n).collect()));
            assert_eq!(
                pending(&run(scribblers, MemoryModel::Rw, n, rot, Symmetry::Off)),
                pending(&report)
            );
            let expected = LivelockBranches {
                relabeling: 1,
                ..LivelockBranches::default()
            };
            assert_eq!(branches, expected, "n = {n}");
        }
    }

    /// Both processes of a [`NaiveFlagLock`] pair sit in the post-check
    /// `Claim` state — the check-then-act hazard window, reached two
    /// levels before the mutual-exclusion violation itself.
    fn both_past_check(_slots: &[Slot], procs: &[(Phase, crate::toys::NaiveFlagState)]) -> bool {
        procs
            .iter()
            .filter(|(_, s)| *s == crate::toys::NaiveFlagState::Claim)
            .count()
            >= 2
    }

    #[test]
    fn fatal_monitor_aborts_with_a_replayable_schedule() {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
        let report =
            ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 1, &Adversary::Identity)
                .unwrap()
                .monitor(Monitor::fatal("both-past-check", both_past_check))
                .run()
                .unwrap();
        let Verdict::PropertyViolation { property, schedule } = report.verdict else {
            panic!("expected property violation, got {:?}", report.verdict);
        };
        assert_eq!(property, "both-past-check");
        // The hazard window opens two steps before the violation: the
        // monitor must fire at the shorter depth.
        assert_eq!(schedule.len(), 2);
        // The fatal monitor's own result row agrees with the verdict.
        assert!(report.monitors[0].hit_somewhere());
        assert_eq!(
            report.monitors[0].witness_schedule.as_deref(),
            Some(&schedule[..])
        );
        // Replay: the reached state must satisfy the watched predicate.
        let mut mem = SimMemory::new(MemoryModel::Rw, 1, &Adversary::Identity, 2).unwrap();
        let mut procs: Vec<(Phase, crate::toys::NaiveFlagState)> = automata
            .iter()
            .map(|a| (Phase::Remainder, a.init_state()))
            .collect();
        for &a in &schedule {
            let _ = advance_in_place(&automata[a], a, &mut mem, &mut procs[a]);
        }
        assert!(both_past_check(mem.slots(), &procs), "witness must replay");
    }

    #[test]
    fn watch_monitor_counts_hits_without_changing_the_verdict() {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<NaiveFlagLock> = ids.iter().copied().map(NaiveFlagLock::new).collect();
        let report =
            ModelChecker::with_automata(automata, MemoryModel::Rw, 1, &Adversary::Identity)
                .unwrap()
                .monitor(Monitor::watch("both-past-check", both_past_check))
                .run()
                .unwrap();
        assert!(
            matches!(report.verdict, Verdict::MutualExclusionViolation { .. }),
            "non-fatal monitors must not mask the violation, got {:?}",
            report.verdict
        );
        assert_eq!(report.monitors.len(), 1);
        assert!(report.monitors[0].hit_somewhere());
        assert_eq!(
            report.monitors[0].witness_schedule.as_ref().unwrap().len(),
            2
        );
    }

    #[test]
    fn watch_monitor_that_never_hits_reports_zero() {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let report =
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
                .monitor(Monitor::watch("two-in-cs", |_s, procs: &[(Phase, _)]| {
                    procs.iter().filter(|(p, _)| *p == Phase::Cs).count() >= 2
                }))
                .run()
                .unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
        assert_eq!(report.monitors[0].hit_states, 0);
        assert!(report.monitors[0].witness_schedule.is_none());
    }

    #[test]
    fn monitor_sees_the_initial_state() {
        let report = ModelChecker::with_automata(
            vec![SpinForever, SpinForever],
            MemoryModel::Rw,
            1,
            &Adversary::Identity,
        )
        .unwrap()
        .monitor(Monitor::fatal("memory-empty", |slots: &[Slot], _p| {
            slots.iter().all(|s| s.is_bottom())
        }))
        .run()
        .unwrap();
        let Verdict::PropertyViolation { schedule, .. } = report.verdict else {
            panic!("expected property violation, got {:?}", report.verdict);
        };
        assert!(schedule.is_empty(), "the initial state itself hits");
    }

    #[test]
    fn scc_queries_answer_over_the_livelock_component() {
        let report = ModelChecker::with_automata(
            vec![SpinForever, SpinForever],
            MemoryModel::Rw,
            1,
            &Adversary::Identity,
        )
        .unwrap()
        .scc_query(SccQuery::invariant(
            "all-pending",
            |_s, procs: &[(Phase, _)]| procs.iter().all(|(p, _)| *p == Phase::Trying),
        ))
        .scc_query(SccQuery::invariant(
            "someone-in-cs",
            |_s, procs: &[(Phase, _)]| procs.iter().any(|(p, _)| *p == Phase::Cs),
        ))
        .run()
        .unwrap();
        assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
        assert_eq!(report.scc_queries.len(), 2);
        let all_pending = &report.scc_queries[0];
        assert!(all_pending.holds_somewhere && all_pending.holds_everywhere);
        assert!(all_pending.witness_schedule.is_some());
        assert!(all_pending.witness_state.is_some());
        let in_cs = &report.scc_queries[1];
        assert!(!in_cs.holds_somewhere && !in_cs.holds_everywhere);
        assert!(in_cs.witness_schedule.is_none());
        assert_eq!(all_pending.states_examined, in_cs.states_examined);
        assert!(all_pending.states_examined >= 1);
    }

    #[test]
    fn scc_query_witness_replays_under_symmetry() {
        // Wreath-reduced rotation livelock: the query witness schedule
        // must reach a concrete state satisfying the (invariant)
        // predicate, exactly like the livelock witness itself.
        let automata = vec![SpinForever, SpinForever, SpinForever];
        let adv = Adversary::Rotations { stride: 1 };
        let report = ModelChecker::with_automata(automata.clone(), MemoryModel::Rw, 3, &adv)
            .unwrap()
            .symmetry(Symmetry::Wreath)
            .scc_query(SccQuery::invariant(
                "all-pending",
                |_s, procs: &[(Phase, _)]| procs.iter().all(|(p, _)| *p == Phase::Trying),
            ))
            .run()
            .unwrap();
        assert!(matches!(report.verdict, Verdict::FairLivelock { .. }));
        let q = &report.scc_queries[0];
        assert!(q.holds_somewhere && q.holds_everywhere);
        let schedule = q.witness_schedule.as_ref().unwrap();
        let mut mem = SimMemory::new(MemoryModel::Rw, 3, &adv, 3).unwrap();
        let mut procs: Vec<(Phase, crate::toys::SpinState)> = automata
            .iter()
            .map(|a| (Phase::Remainder, a.init_state()))
            .collect();
        for &a in schedule {
            let _ = advance_in_place(&automata[a], a, &mut mem, &mut procs[a]);
        }
        assert!(procs.iter().all(|(p, _)| *p == Phase::Trying));
    }

    #[test]
    fn max_pending_depth_is_reported_and_sane() {
        // CasLock n=2: a process can spin in Trying while the other
        // cycles through its CS, so some wait depth must be observed.
        let ids = PidPool::sequential().mint_many(2);
        let report = check(
            ids.into_iter().map(CasLock::new).collect(),
            MemoryModel::Rmw,
            1,
        );
        assert_eq!(report.max_pending_depth.len(), 2);
        assert!(report.max_pending_depth.iter().all(|&d| d >= 1));
        // Symmetric processes: the per-position maxima coincide.
        assert_eq!(report.max_pending_depth[0], report.max_pending_depth[1]);
    }

    /// The CAS toy lock of `n` processes over `m` registers.
    fn cas_locks(
        n: usize,
        m: usize,
        adversary: &Adversary,
        symmetry: Symmetry,
    ) -> ModelChecker<CasLock> {
        let ids = PidPool::sequential().mint_many(n);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, m, adversary)
            .unwrap()
            .symmetry(symmetry)
    }

    /// Runs `make`'s checker at one worker and at three and asserts that
    /// each run's pending depths were audited and agree, and that some
    /// process waits.
    fn assert_depths_audited<A: Automaton + Sync>(what: &str, make: impl Fn() -> ModelChecker<A>)
    where
        A::State: EncodeState + Send,
    {
        let (one, audits) = depth_audits(|| make().run().unwrap());
        assert_eq!(audits, 1, "{what}: one audited run");
        assert!(
            one.max_pending_depth.iter().any(|&d| d >= 1),
            "{what}: some process waits: {:?}",
            one.max_pending_depth
        );
        let (three, audits) = depth_audits(|| make().threads(3).oversubscribe(true).run().unwrap());
        assert_eq!(audits, 1, "{what}: one audited run at three workers");
        assert_eq!(
            one.max_pending_depth, three.max_pending_depth,
            "{what}: worker count"
        );
    }

    #[test]
    fn pending_depths_match_the_full_pass() {
        // Every completed run of a test build checks its BFS-computed
        // maxima against the full pass (`audit_pending_depths`).  These
        // configurations reach it through each kind of tree edge:
        // identity and relabeling canonicalizations (S_3 without ρ, Z_3
        // rotating the registers) and crash edges of both modes.
        assert_depths_audited("cas n=2 off", || {
            cas_locks(2, 1, &Adversary::Identity, Symmetry::Off)
        });
        assert_depths_audited("cas n=3 wreath", || {
            cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
        });
        for mode in [CrashMode::WipeRegisters, CrashMode::StaleClaims] {
            assert_depths_audited(&format!("cas n=3 wreath {mode:?}"), || {
                cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
                    .crashes(CrashBudget::total(1), mode)
            });
        }
        // Rotations: the CAS lock breaks mutual exclusion there (and a
        // violation reports no depths), so scribblers stand in.
        assert_depths_audited("scribblers n=3 m=3 rotations wreath", || {
            let pids = PidPool::sequential().mint_many(3);
            let scribblers: Vec<Scribbler> = pids.into_iter().map(Scribbler).collect();
            let rotations = Adversary::Rotations { stride: 1 };
            ModelChecker::with_automata(scribblers, MemoryModel::Rw, 3, &rotations)
                .unwrap()
                .symmetry(Symmetry::Wreath)
        });
    }

    /// A fresh, empty directory for one test's checkpoints.
    fn checkpoint_test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amx-mc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn resumed_run_continues_the_pending_depths() {
        let make = || {
            cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
                .crashes(CrashBudget::total(1), CrashMode::WipeRegisters)
        };
        let whole = make().run().unwrap();
        for (halt_threads, resume_threads) in [(1, 1), (1, 3), (3, 1)] {
            let dir = checkpoint_test_dir(&format!("depths-{halt_threads}-{resume_threads}"));
            let configure = |mc: ModelChecker<CasLock>, threads: usize| {
                mc.threads(threads)
                    .oversubscribe(true)
                    .resident_budget(0)
                    .checkpoint_dir(&dir)
                    .checkpoint_every(3)
            };
            let (halted, audits) = depth_audits(|| {
                configure(make(), halt_threads)
                    .halt_after_checkpoints(1)
                    .run()
                    .unwrap()
            });
            assert!(matches!(
                halted.verdict,
                Verdict::Interrupted { level: 3, .. }
            ));
            assert!(halted.max_pending_depth.is_empty());
            assert_eq!(audits, 0, "an interrupted run reports no depths");
            let (resumed, audits) = depth_audits(|| {
                configure(make(), resume_threads)
                    .resume(true)
                    .run()
                    .unwrap()
            });
            assert_eq!(resumed.resumed_from_level, Some(3));
            assert_eq!(audits, 1);
            assert_eq!(resumed.max_pending_depth, whole.max_pending_depth);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_depths_that_do_not_match_the_frontier_are_refused() {
        let make = || {
            cas_locks(3, 1, &Adversary::Identity, Symmetry::Wreath)
                .checkpoint_every(2)
                .halt_after_checkpoints(1)
        };
        let n = 3;
        // Each checkpoint is rewritten with the checksum it then needs,
        // so only the checker's length checks can refuse it.
        for what in [
            "one depth short",
            "one depth extra",
            "no depths",
            "one maximum short",
        ] {
            let dir = checkpoint_test_dir(&format!("bad-depths-{}", what.replace(' ', "-")));
            let mc = make().checkpoint_dir(&dir);
            let halted = mc.run().unwrap();
            assert!(matches!(halted.verdict, Verdict::Interrupted { .. }));
            let fingerprint = mc.fingerprint();
            let (restored, _) = checkpoint::load_latest(&dir, fingerprint).unwrap();
            let mut ck = restored.expect("the halted run's checkpoint");
            assert_eq!(ck.frontier_depths.len(), ck.frontier.len() * n);
            match what {
                "one depth short" => {
                    ck.frontier_depths.pop();
                }
                "one depth extra" => ck.frontier_depths.push(0),
                "no depths" => ck.frontier_depths.clear(),
                _ => {
                    ck.depth_maxima.pop();
                }
            }
            let snap = checkpoint::Snapshot {
                fingerprint,
                level: ck.level,
                transitions: ck.transitions,
                acquisitions: ck.acquisitions,
                peak_frontier: ck.peak_frontier,
                orbit_sum: ck.orbit_sum,
                monitor_hits: &ck.monitor_hits,
                frontier: &ck.frontier,
                shard: &ck.shard,
                edge_targets: &ck.edge_targets,
                edge_sigmas: &ck.edge_sigmas,
                depth_maxima: &ck.depth_maxima,
                frontier_depths: &ck.frontier_depths,
            };
            checkpoint::write(&dir, &snap, None).unwrap();
            let err = make().checkpoint_dir(&dir).resume(true).run().unwrap_err();
            let McError::Checkpoint(e) = err else {
                panic!("{what}: expected a checkpoint error, got {err:?}");
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The crash-mode differential on the CAS toy lock: a process that
    /// crashes inside its critical section leaves the register claimed
    /// forever under [`CrashMode::StaleClaims`] (nobody — itself
    /// included, it rebooted with no memory of the claim — can ever
    /// CAS it back), a fair livelock; under
    /// [`CrashMode::WipeRegisters`] the claim evaporates with the
    /// process and the lock stays deadlock-free.
    #[test]
    fn crash_mode_differential_on_cas_lock() {
        let run = |mode: CrashMode| {
            let ids = PidPool::sequential().mint_many(2);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
                .crashes(CrashBudget::total(1), mode)
                .run()
                .unwrap()
        };
        let wiped = run(CrashMode::WipeRegisters);
        assert_eq!(wiped.verdict, Verdict::Ok, "wiped crash must recover");
        let stale = run(CrashMode::StaleClaims);
        let Verdict::FairLivelock {
            ref witness_schedule,
            ..
        } = stale.verdict
        else {
            panic!("stale crash must livelock CasLock, got {:?}", stale.verdict);
        };
        // The witness must actually schedule a crash (entry n + i) —
        // the crash-free model of this lock verifies Ok.
        let n = 2;
        assert!(
            witness_schedule.iter().any(|&a| a >= n),
            "livelock stem must contain a crash entry: {witness_schedule:?}"
        );
    }

    /// Replays the stale-claims livelock witness concretely: applying
    /// the schedule (normal steps via `closed_loop_step`, entries
    /// `n + i` as crashes) must land in a state where the register is
    /// claimed while nobody is in — or can ever again reach — the
    /// critical section.
    #[test]
    fn crash_witness_replays_concretely() {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        let report = ModelChecker::with_automata(
            automata.clone(),
            MemoryModel::Rmw,
            1,
            &Adversary::Identity,
        )
        .unwrap()
        .crashes(CrashBudget::total(1), CrashMode::StaleClaims)
        .run()
        .unwrap();
        let Verdict::FairLivelock {
            witness_schedule, ..
        } = report.verdict
        else {
            panic!("expected a livelock");
        };
        let n = 2;
        let mut mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, n).unwrap();
        let mut phases = vec![Phase::Remainder; n];
        let mut states: Vec<_> = automata.iter().map(Automaton::init_state).collect();
        for a in witness_schedule {
            if a >= n {
                // StaleClaims: the memory is untouched, the process
                // reboots with no local memory.
                phases[a - n] = Phase::Remainder;
                states[a - n] = automata[a - n].crash_state();
            } else {
                crate::automaton::closed_loop_step(
                    &automata[a],
                    &mut phases[a],
                    &mut states[a],
                    &mut mem.view(a),
                );
            }
        }
        assert!(
            !mem.slots()[0].is_bottom(),
            "the livelock state must carry the stale claim"
        );
        assert!(
            phases.iter().all(|&p| p != Phase::Cs),
            "nobody is in the critical section — the claim is dead"
        );
    }

    /// A zero crash budget explores exactly the crash-free state space:
    /// the crash axis changes the node encoding (trailing crash
    /// counts), but with no crash edge admissible every count and the
    /// verdict are identical to a run without the axis.
    #[test]
    fn zero_crash_budget_matches_crash_free_run() {
        let make = || {
            let ids = PidPool::sequential().mint_many(2);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
        };
        let plain = make().run().unwrap();
        let zero = make()
            .crashes(CrashBudget::total(0), CrashMode::StaleClaims)
            .run()
            .unwrap();
        assert_eq!(plain.verdict, zero.verdict);
        assert_eq!(plain.canonical_states, zero.canonical_states);
        assert_eq!(plain.transitions, zero.transitions);
        assert_eq!(plain.acquisitions, zero.acquisitions);
    }

    /// Crash counts permute with the processes: symmetry-reduced crash
    /// exploration agrees with the unreduced one on the verdict and on
    /// the exact concrete state count (orbit accounting).
    #[test]
    fn crash_exploration_is_symmetry_invariant() {
        let run = |symmetry: Symmetry| {
            let ids = PidPool::sequential().mint_many(3);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
                .symmetry(symmetry)
                .crashes(CrashBudget::total(2), CrashMode::WipeRegisters)
                .run()
                .unwrap()
        };
        let off = run(Symmetry::Off);
        let sym = run(Symmetry::Wreath);
        assert_eq!(
            std::mem::discriminant(&off.verdict),
            std::mem::discriminant(&sym.verdict),
            "{:?} vs {:?}",
            off.verdict,
            sym.verdict
        );
        assert_eq!(
            off.canonical_states, sym.full_states_estimate,
            "orbit accounting must reproduce the concrete crash state count"
        );
        assert!(
            sym.canonical_states < off.canonical_states,
            "the reduction must actually bite on crash states"
        );
    }

    /// Per-process crash budgets bind independently of the total: with
    /// `per_process = 1, total = 2` both processes can crash once, but
    /// no process twice — strictly fewer states than `total(2)`.
    #[test]
    fn per_process_crash_budget_binds() {
        let run = |budget: CrashBudget| {
            let ids = PidPool::sequential().mint_many(2);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
                .crashes(budget, CrashMode::StaleClaims)
                .run()
                .unwrap()
        };
        let total2 = run(CrashBudget::total(2));
        let capped = run(CrashBudget {
            total: 2,
            per_process: 1,
        });
        assert!(
            capped.canonical_states < total2.canonical_states,
            "capping per-process crashes must prune double-crash states \
             ({} vs {})",
            capped.canonical_states,
            total2.canonical_states
        );
    }

    fn cas_pair() -> ModelChecker<CasLock> {
        let ids = PidPool::sequential().mint_many(2);
        let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
        ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity).unwrap()
    }

    #[test]
    fn resume_without_checkpoint_dir_is_a_config_error() {
        let err = cas_pair().resume(true).run().unwrap_err();
        assert_eq!(err.config(), Some(&ConfigError::ResumeWithoutCheckpointDir));
        assert!(err.to_string().starts_with("invalid configuration"));
    }

    #[test]
    fn more_than_64_monitors_run() {
        let mut mc = cas_pair();
        for i in 0..65 {
            mc = mc.monitor(Monitor::watch(format!("m{i}"), move |_s, _p| i == 64));
        }
        let report = mc.run().unwrap();
        assert_eq!(report.monitors.len(), 65);
        assert_eq!(report.monitors[64].hit_states, report.canonical_states);
        assert!(report.monitors[..64].iter().all(|m| m.hit_states == 0));
    }

    #[test]
    fn max_states_beyond_the_id_encoding_is_a_config_error() {
        let err = cas_pair().max_states(usize::MAX).run().unwrap_err();
        assert!(matches!(
            err.config(),
            Some(ConfigError::MaxStatesTooLarge {
                max_states: usize::MAX,
                ..
            })
        ));
        // The largest admissible bound still runs.
        let ConfigError::MaxStatesTooLarge { limit, .. } = err.config().unwrap().clone() else {
            unreachable!()
        };
        assert_eq!(
            cas_pair().max_states(limit).run().unwrap().verdict,
            Verdict::Ok
        );
        // One seen set at every worker count: the limit does not move.
        let par = cas_pair()
            .threads(3)
            .oversubscribe(true)
            .max_states(usize::MAX)
            .run()
            .unwrap_err();
        assert_eq!(
            par.config(),
            Some(&ConfigError::MaxStatesTooLarge {
                max_states: usize::MAX,
                limit,
            })
        );
    }

    #[test]
    fn concretize_maps_actors_through_the_permutation() {
        // Group: identity and the swap of two processes.
        let group = vec![
            SymElem {
                pi: vec![0, 1],
                pi_inv: vec![0, 1],
                map: PidMap::identity(),
                rho_inv: Vec::new(),
                regs: RegMap::identity(),
            },
            SymElem {
                pi: vec![1, 0],
                pi_inv: vec![1, 0],
                map: PidMap::identity(),
                rho_inv: Vec::new(),
                regs: RegMap::identity(),
            },
        ];
        // Step quotient actor 0 canonicalized by the swap, then actor 0
        // again: the second concrete actor must be process 1.
        let chain = vec![(0usize, 1u16), (0usize, 0u16)];
        let (schedule, tau, tau_inv) = concretize(&group, &chain);
        assert_eq!(schedule, vec![0, 1]);
        assert_eq!(tau, vec![1, 0]);
        assert_eq!(tau_inv, vec![1, 0]);
    }

    #[test]
    fn oversized_symmetry_group_is_a_config_error() {
        // Nine and ten interchangeable processes: S_9 and S_10 have more
        // elements than a 16-bit group-element index can name.  The order
        // is counted, not enumerated (enumerating S_10 took 626 MB).
        for (n, order) in [(9, 362_880), (10, 3_628_800)] {
            let ids = PidPool::sequential().mint_many(n);
            let automata: Vec<CasLock> = ids.into_iter().map(CasLock::new).collect();
            let err =
                ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                    .unwrap()
                    .symmetry(Symmetry::Wreath)
                    .run()
                    .unwrap_err();
            assert_eq!(
                err.config(),
                Some(&ConfigError::SymmetryGroupTooLarge { order })
            );
            assert!(err.to_string().starts_with("invalid configuration"));
        }
    }

    /// The full scan [`canonicalize`] prunes: every image encoded in
    /// full, the stabilizer counted against the identity image.
    fn canonicalize_full_scan<S: EncodeState>(
        group: &[SymElem],
        slots: &[Slot],
        procs: &[(Phase, S)],
        crashes: &[u8],
    ) -> (Vec<u8>, u16, u32) {
        let (mut enc, mut best) = (Vec::new(), Vec::new());
        encode_node_with(&group[0], slots, procs, crashes, &mut best);
        let first = best.clone();
        let mut sigma = 0u16;
        let mut stabilizer = 1u32;
        for (gi, elem) in group.iter().enumerate().skip(1) {
            encode_node_with(elem, slots, procs, crashes, &mut enc);
            if enc == first {
                stabilizer += 1;
            }
            if enc < best {
                std::mem::swap(&mut enc, &mut best);
                sigma = gi as u16;
            }
        }
        (best, sigma, group.len() as u32 / stabilizer)
    }

    /// Asserts that [`canonicalize`] returns the full scan's `(best, σ,
    /// orbit)` on one node, from scratch buffers holding stale bytes, and
    /// that its stage 1 ties exactly the elements whose image has the
    /// least slot section; returns the orbit size and that tie count.
    fn assert_pruned_matches_full<S: EncodeState>(
        group: &[SymElem],
        slots: &[Slot],
        procs: &[(Phase, S)],
        crashes: &[u8],
    ) -> (u32, usize) {
        let mut canon = Canon {
            best: vec![0x00; 3],
            enc: vec![0xFF; 9],
            keys: vec![7; 2],
            ties: vec![5],
        };
        let (sigma, orbit) = canonicalize(group, slots, procs, crashes, &mut canon);
        let (best, full_sigma, full_orbit) = canonicalize_full_scan(group, slots, procs, crashes);
        assert_eq!(
            (&canon.best, sigma, orbit),
            (&best, full_sigma, full_orbit),
            "slots {slots:?}, procs {procs:?}, crashes {crashes:?}"
        );
        let slot_bytes = encode::SLOT_BYTES * slots.len();
        let mut image = Vec::new();
        let ties: Vec<u16> = (0..group.len() as u16)
            .filter(|&gi| {
                encode_node_with(&group[gi as usize], slots, procs, crashes, &mut image);
                image[..slot_bytes] == best[..slot_bytes]
            })
            .collect();
        assert_eq!(canon.ties, ties, "slots {slots:?}");
        (orbit, ties.len())
    }

    /// A node's slots, processes and crash counts.
    type Node<S> = (Vec<Slot>, Vec<(Phase, S)>, Vec<u8>);

    /// Every state a symmetry-off check of `automata` stores (watch
    /// monitors see each one), without crash counts.
    fn reachable_states<A: Automaton + Sync>(
        automata: Vec<A>,
        model: MemoryModel,
        m: usize,
        adv: &Adversary,
    ) -> Vec<Node<A::State>>
    where
        A::State: EncodeState + Send + Sync + 'static,
    {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let report = ModelChecker::with_automata(automata, model, m, adv)
            .unwrap()
            .monitor(Monitor::watch("collect", move |slots, procs| {
                sink.lock()
                    .push((slots.to_vec(), procs.to_vec(), Vec::new()));
                false
            }))
            .run()
            .unwrap();
        let states = std::mem::take(&mut *seen.lock());
        assert!(states.len() >= report.canonical_states);
        states
    }

    const PHASES: [Phase; 4] = [Phase::Remainder, Phase::Trying, Phase::Cs, Phase::Exiting];

    const CAS_STATES: [crate::toys::CasLockState; 3] = [
        crate::toys::CasLockState::Idle,
        crate::toys::CasLockState::TryCas,
        crate::toys::CasLockState::Unlock,
    ];

    /// Random nodes over `m` slots (⊥ or one of `pids`) and `n`
    /// processes (phases and states drawn from `states`), with trailing
    /// crash counts on every other node.  Small alphabets make ties and
    /// nontrivial stabilizers common.
    fn random_nodes<S: Clone>(
        seed: u64,
        count: usize,
        m: usize,
        n: usize,
        pids: &[amx_ids::Pid],
        states: &[S],
    ) -> Vec<Node<S>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..count)
            .map(|k| {
                let slots = (0..m)
                    .map(|_| match rng.gen_range(0..=pids.len()) {
                        0 => Slot::BOTTOM,
                        p => Slot::from(pids[p - 1]),
                    })
                    .collect();
                let procs = (0..n)
                    .map(|_| {
                        let phase = PHASES[rng.gen_range(0..PHASES.len())];
                        (phase, states[rng.gen_range(0..states.len())].clone())
                    })
                    .collect();
                let crashes = if k % 2 == 0 {
                    Vec::new()
                } else {
                    (0..n).map(|_| rng.gen_range(0..3u8)).collect()
                };
                (slots, procs, crashes)
            })
            .collect()
    }

    /// Stage 1 ties one coset of the least slot section's stabilizer.
    /// Under `S_n` acting on slots that name `d` distinct identities that
    /// is `(n − d)!` elements, so these are the tie counts `0 ≤ d ≤
    /// min(n, m)` allow: the whole group at `d = 0` (every slot ⊥), down
    /// to one element once `d ≥ n − 1`.
    fn symmetric_tie_counts(n: usize, m: usize) -> std::collections::BTreeSet<usize> {
        (0..=n.min(m))
            .map(|d| (1..=n - d).product::<usize>())
            .collect()
    }

    #[test]
    fn pruned_canonicalization_matches_full_scan_under_full_symmetric_groups() {
        // S_3 and S_4 with ρ = id: n interchangeable CasLocks on the
        // identity adversary.
        for (n, order) in [(3usize, 6usize), (4, 24)] {
            let pids = PidPool::sequential().mint_many(n);
            let automata: Vec<CasLock> = pids.iter().copied().map(CasLock::new).collect();
            let mem = SimMemory::new(MemoryModel::Rmw, 1, &Adversary::Identity, n).unwrap();
            let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
            assert_eq!(group.len(), order);
            assert!(group.iter().all(|e| e.rho_inv.is_empty()));

            let states = reachable_states(automata, MemoryModel::Rmw, 1, &Adversary::Identity);
            let (orbits, ties): (Vec<u32>, std::collections::BTreeSet<usize>) = states
                .iter()
                .map(|(slots, procs, crashes)| {
                    assert_pruned_matches_full(&group, slots, procs, crashes)
                })
                .unzip();
            // The all-⊥ start is fixed by the whole group; states with
            // some processes alike have stabilizers strictly between.
            assert_eq!(orbits[0], 1, "the initial state's orbit");
            assert!(orbits.iter().any(|&o| o > 1 && (o as usize) < order));
            assert_eq!(ties, symmetric_tie_counts(n, 1));

            let (orbits, ties): (Vec<u32>, std::collections::BTreeSet<usize>) =
                random_nodes(n as u64, 2_000, 3, n, &pids, &CAS_STATES)
                    .iter()
                    .map(|(slots, procs, crashes)| {
                        assert_pruned_matches_full(&group, slots, procs, crashes)
                    })
                    .unzip();
            assert!(orbits.contains(&(order as u32)), "some random node is free");
            assert_eq!(ties, symmetric_tie_counts(n, 3));
            assert_eq!(ties.first(), Some(&1));
            assert_eq!(ties.last(), Some(&order));
        }
    }

    #[test]
    fn pruned_canonicalization_matches_full_scan_under_rotations() {
        // Z_3 with ρ ≠ id: CasLocks on a rotated memory, so images
        // permute the physical slots and relabel the identities in them.
        let pids = PidPool::sequential().mint_many(3);
        let automata: Vec<CasLock> = pids.iter().copied().map(CasLock::new).collect();
        let adv = Adversary::Rotations { stride: 1 };
        let mem = SimMemory::new(MemoryModel::Rmw, 3, &adv, 3).unwrap();
        let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
        assert_eq!(group.len(), 3, "Z_3");
        assert!(group[1..].iter().all(|e| !e.rho_inv.is_empty()));

        let states = reachable_states(automata, MemoryModel::Rmw, 3, &adv);
        let (orbits, mut ties): (Vec<u32>, std::collections::BTreeSet<usize>) = states
            .iter()
            .map(|(slots, procs, crashes)| {
                assert_pruned_matches_full(&group, slots, procs, crashes)
            })
            .unzip();
        assert_eq!(orbits[0], 1, "the initial state's orbit");
        let (orbits, random_ties): (Vec<u32>, std::collections::BTreeSet<usize>) =
            random_nodes(7, 2_000, 3, 3, &pids, &CAS_STATES)
                .iter()
                .map(|(slots, procs, crashes)| {
                    assert_pruned_matches_full(&group, slots, procs, crashes)
                })
                .unzip();
        assert!(orbits.contains(&3), "some random node is free");
        // Z_3 has no subgroup between: one element or all three tie.
        ties.extend(random_ties);
        assert_eq!(ties, [1, 3].into());
    }

    /// Test-only process state whose encodings differ in length: 7-bit
    /// digits, the high bit set on every byte but the last.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Ragged(Vec<u8>);

    impl EncodeState for Ragged {
        fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
            let (last, init) = self.0.split_last().expect("at least one digit");
            out.extend(init.iter().map(|d| d | 0x80));
            out.push(*last);
        }

        fn decode(bytes: &mut &[u8]) -> Option<Self> {
            let end = bytes.iter().position(|b| b & 0x80 == 0)?;
            let (head, rest) = bytes.split_at(end + 1);
            *bytes = rest;
            Some(Ragged(head.iter().map(|b| b & 0x7F).collect()))
        }
    }

    #[test]
    fn pruned_canonicalization_matches_full_scan_on_ragged_encodings() {
        // Processes of one, two and three bytes: images compare
        // components of different lengths at the same offset, and a
        // component can end inside the running minimum's longer one.
        let ragged = [
            Ragged(vec![0]),
            Ragged(vec![1]),
            Ragged(vec![1, 0]),
            Ragged(vec![1, 1]),
            Ragged(vec![1, 0, 0]),
            Ragged(vec![0, 0, 5]),
        ];
        let mut bytes = Vec::new();
        for r in &ragged {
            r.encode(&mut bytes);
        }
        let mut cur = bytes.as_slice();
        for r in &ragged {
            assert_eq!(Ragged::decode(&mut cur).as_ref(), Some(r));
        }
        let pids = PidPool::sequential().mint_many(4);
        for n in [3usize, 4] {
            let automata: Vec<CasLock> = pids[..n].iter().copied().map(CasLock::new).collect();
            let mem = SimMemory::new(MemoryModel::Rmw, 2, &Adversary::Identity, n).unwrap();
            let (group, _) = build_group(&automata, &mem, Symmetry::Wreath).unwrap();
            let ties: std::collections::BTreeSet<usize> =
                random_nodes(11 + n as u64, 3_000, 2, n, &pids, &ragged)
                    .iter()
                    .map(|(slots, procs, crashes)| {
                        assert_pruned_matches_full(&group, slots, procs, crashes).1
                    })
                    .collect();
            assert_eq!(ties, symmetric_tie_counts(n, 2));
        }
    }
}
