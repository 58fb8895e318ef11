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
//! Every breadth-first level runs in rounds of at most 16K frontier
//! nodes.  Each node is decoded, stepped once per process (and per
//! admissible crash), and every successor canonicalized; each successor
//! is then *admitted*: interned into the seen set, and, when fresh,
//! given its metadata, its place in the next frontier and its monitor
//! evaluations.  Successors are admitted in `(frontier position,
//! actor)` order, so the first generator of a state becomes its
//! breadth-first parent and the next frontier keeps that order.
//!
//! With one worker the round runs on the calling thread, and each
//! successor is admitted where it is generated — expansion emits them
//! in that order — with one find-or-put probe of the seen set.  With
//! more ([`ModelChecker::threads`]), a round has two phases: the expand
//! phase runs on per-worker deques with back-half work stealing, each
//! worker probing the frozen seen set through its own page cache and
//! queueing the successors it does not find; then the calling thread
//! drains the queues in that order through the same admission.  Either
//! way there is one seen set, and a state's id is its index in it:
//! breadth-first discovery order, so verdicts, witness schedules,
//! counts and SCC-query answers are identical whatever the worker
//! count.
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
//! completion-free successor's id (from its admission, or from a
//! multi-worker round's seen-set probe) and canonicalizing group
//! element are written into the state's row of a dense `states × n`
//! table, rows in breadth-first discovery order.  After BFS, Tarjan's SCC
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
//! confirmed exactly on their concrete orbit expansion (under the
//! trivial group, the component itself), the only path that reports a
//! livelock in either mode.  A confirmed component is entered at its
//! member with the least state id, then the least group element; ids
//! are breadth-first discovery order, so the witness is a shortest
//! schedule into it.  The differential test suites
//! cross-validate the reduction against the full exploration on every
//! algorithm in this workspace; [`Symmetry::Off`] remains the default
//! and is exact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use amx_ids::Slot;

use crate::automaton::{Automaton, Phase};
use crate::checkpoint;
use crate::encode::EncodeState;
use crate::fault::FaultPlan;
use crate::intern::{anon_spill_file, hash_bytes};
use crate::mem::SimMemory;

mod group;
mod level;
mod livelock;
mod report;
#[cfg(test)]
mod tests;
mod witness;

pub use report::{
    ConfigError, CrashBudget, CrashMode, McError, McProgress, McReport, Monitor, MonitorResult,
    ProgressFn, SccQuery, SccQueryResult, StateEval, StateSpaceExceeded, Symmetry, Verdict,
};

pub(crate) use level::{MonitorHit, NodeMeta, Shard};

use group::{build_group, canonicalize};
use level::{
    intern_into, run_level, EdgeTable, EngineShared, Frontier, PropViolation, RoundBufs, Scratch,
    Violation,
};
use report::finish_report;
use witness::{chain_from_root, concretize};

/// Actor-byte flag marking a BFS-tree edge as a *crash* of process
/// `actor & !CRASH_ACTOR` (process indices are capped at 64, so the
/// high bit is free).  In reported witness schedules a crash of process
/// `i` appears as the entry `n + i` (`n` the process count) — see
/// [`Verdict`].
const CRASH_ACTOR: u8 = 0x80;

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

/// Most expand workers a run uses: a [`PendingInsert`](level::PendingInsert) names its
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
            ck.check(n, group.len(), edges.track_sigma)
                .map_err(McError::Checkpoint)?;
            shard = ck.shard;
            shared
                .orbit_sum
                .store(ck.orbit_sum as usize, Ordering::Relaxed);
            transitions = ck.transitions as usize;
            acquisitions = ck.acquisitions as usize;
            peak_frontier = ck.peak_frontier as usize;
            monitor_hits = ck.monitor_hits;
            completed_levels = ck.level;
            resumed_from_level = Some(ck.level);
            depth_maxima = ck.depth_maxima;
            // The checkpoint stores frontier *ids*; the bytes come back
            // out of the restored arena.
            let mut bytes = Vec::new();
            for (&id, depths) in ck.frontier.iter().zip(ck.frontier_depths.chunks_exact(n)) {
                shard
                    .arena
                    .get_into(id, &mut bytes)
                    .map_err(McError::Spill)?;
                frontier.push(id, &bytes, depths.iter().copied());
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
        // Growth slack is dropped, so `arena_bytes` reports resident
        // bytes, not capacity.
        shard.arena.shrink_to_fit();
        shard.meta.shrink_to_fit();
        degraded.extend(shard.arena.degraded().map(str::to_string));
        let mut report = McReport {
            verdict: Verdict::Ok,
            transitions,
            acquisitions,
            canonical_states: states,
            full_states_estimate,
            peak_frontier,
            wall_time: start.elapsed(),
            scc_wall_time: Duration::ZERO,
            arena_bytes: shard.arena.arena_bytes(),
            arena_resident_bytes: 0,
            arena_spilled_bytes: 0,
            spill_faults: 0,
            spill_evictions: 0,
            checkpoints_written,
            resumed_from_level,
            seen_table_bytes: shard.arena.table_bytes(),
            steal_count,
            threads: self.threads,
            symmetry,
            monitors: Vec::new(),
            scc_queries: Vec::new(),
            max_pending_depth: Vec::new(),
            degraded,
        };
        report.monitors = self.monitor_results(&shard, &group, &monitor_hits);

        if let Some(v) = violation {
            let chain = chain_from_root(&shard, v.from);
            let (mut schedule, _, tau_inv) = concretize(&group, &chain);
            schedule.push(tau_inv[v.actor]);
            report.verdict = Verdict::MutualExclusionViolation {
                schedule,
                procs: (tau_inv[v.other], tau_inv[v.actor]),
            };
            return Ok(finish_report(report, &shard, start));
        }
        if let Some(p) = prop_violation {
            let chain = chain_from_root(&shard, p.node);
            let (schedule, _, _) = concretize(&group, &chain);
            report.verdict = Verdict::PropertyViolation {
                property: self.monitors[p.monitor as usize].name.clone(),
                schedule,
            };
            return Ok(finish_report(report, &shard, start));
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
            return Ok(finish_report(report, &shard, start));
        }

        report.max_pending_depth = depth_maxima.iter().map(|&d| usize::from(d)).collect();
        #[cfg(test)]
        tests::audit_pending_depths::<A::State>(&shard, &group, m, &report.max_pending_depth);

        let scc_start = Instant::now();
        if let Some((verdict, queries)) =
            self.find_fair_livelock(&shard, &group, &class_of, &edges, &mut scratch)?
        {
            report.verdict = verdict;
            report.scc_queries = queries;
        }
        report.scc_wall_time = scc_start.elapsed();
        Ok(finish_report(report, &shard, start))
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
}

/// Largest [`ModelChecker::max_states`]: ids are `u32`, the insert that
/// overflows the bound still takes id `max_states`, and `u32::MAX`
/// marks the root's missing parent and an absent edge ([`scc::NO_EDGE`](crate::scc::NO_EDGE)).
const MAX_STATES_LIMIT: usize = u32::MAX as usize - 1;
