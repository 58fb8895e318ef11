//! The public result and error types of a model-checking run.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amx_ids::Slot;

use crate::automaton::Phase;
use crate::intern::SpillError;

use super::level::Shard;

/// Final verdict of a model-checking run.
///
/// **Witness schedules under crash–recovery:** when the run enabled
/// [`ModelChecker::crashes`](super::ModelChecker::crashes), schedule entries `< n` (the process
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
        /// Number of distinct concrete states in the livelock component,
        /// under every symmetry mode.
        scc_states: usize,
        /// A shortest schedule (sequence of process indices) from the
        /// initial state into the livelock component.  It ends at the
        /// component's member with the least state id (breadth-first
        /// discovery order) and, under symmetry, the least group element
        /// mapping that stored state into the component.
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
    /// [`ModelChecker::halt_after_checkpoints`](super::ModelChecker::halt_after_checkpoints).  Not a property
    /// verdict: re-run with [`ModelChecker::resume`](super::ModelChecker::resume) against the same
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
    /// the predicate, when one exists.  Members are examined in the
    /// order of the livelock witness, least state id first and then
    /// least group element, and the witness is the first hit: for an
    /// orbit-invariant query, the first hit stored state itself (its
    /// canonical frame); otherwise the first hit concrete image.
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
    /// honouring the [`Automaton::symmetry_class`](crate::Automaton::symmetry_class) contract (processes
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
    /// the resident figure; with a [`ModelChecker::resident_budget`](super::ModelChecker::resident_budget)
    /// the RAM split is [`McReport::arena_resident_bytes`] vs.
    /// [`McReport::arena_spilled_bytes`].  The seen-set hash table is
    /// reported separately in [`McReport::seen_table_bytes`].
    pub arena_bytes: usize,
    /// Bytes of arena payload resident in RAM at report time (hot
    /// pages plus the open page and the offset index).  Equals
    /// [`McReport::arena_bytes`] when nothing spilled.
    pub arena_resident_bytes: usize,
    /// Bytes of arena payload evicted to the spill file at report
    /// time (zero without a [`ModelChecker::resident_budget`](super::ModelChecker::resident_budget)).
    pub arena_spilled_bytes: usize,
    /// Page fault-ins served from the spill file across the whole run
    /// (exploration, checkpointing *and* the SCC/query passes).
    pub spill_faults: u64,
    /// Page evictions to the spill file across the whole run.
    pub spill_evictions: u64,
    /// Checkpoints written to [`ModelChecker::checkpoint_dir`](super::ModelChecker::checkpoint_dir) by this
    /// run (zero when checkpointing is off).
    pub checkpoints_written: u32,
    /// The completed-level count this run resumed from, when it was
    /// started via [`ModelChecker::resume`](super::ModelChecker::resume) and a checkpoint existed.
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

/// Live snapshot handed to a [`ModelChecker::progress`](super::ModelChecker::progress) callback while
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

/// Callback type for [`ModelChecker::progress`](super::ModelChecker::progress).
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
/// [`Automaton::crash_state`](crate::Automaton::crash_state); they differ only in what the *memory*
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

/// Error of a [`ModelChecker::run`](super::ModelChecker::run): either the state space outgrew
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
    /// More states are reachable than [`ModelChecker::max_states`](super::ModelChecker::max_states).
    StateSpaceExceeded(StateSpaceExceeded),
    /// A spilled arena page could not be read back — interned state
    /// was lost, so no sound verdict exists.
    Spill(SpillError),
    /// [`ModelChecker::resume`](super::ModelChecker::resume) could not restore any checkpoint (I/O
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

/// A [`ModelChecker`](super::ModelChecker) configuration that [`ModelChecker::run`](super::ModelChecker::run) refuses
/// before exploring (carried by [`McError::Checkpoint`]; see
/// [`McError::config`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// [`ModelChecker::resume`](super::ModelChecker::resume) was requested without a
    /// [`ModelChecker::checkpoint_dir`](super::ModelChecker::checkpoint_dir) to resume from.
    ResumeWithoutCheckpointDir,
    /// [`ModelChecker::max_states`](super::ModelChecker::max_states) exceeds what the 32-bit state ids
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

/// Stamps the final wall clock and the spill accounting — the
/// resident/spilled split and the fault/eviction totals, which keep
/// advancing through the SCC and query passes — onto a finished report.
pub(super) fn finish_report(mut report: McReport, shard: &Shard, start: Instant) -> McReport {
    let spill = shard.arena.spill_stats();
    report.arena_resident_bytes = shard.arena.resident_bytes();
    report.arena_spilled_bytes = spill.spilled_bytes;
    report.spill_faults = spill.faults;
    report.spill_evictions = spill.evictions;
    report.wall_time = start.elapsed();
    report
}
