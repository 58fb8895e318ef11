//! One breadth-first level: the frontier, the edge table the
//! fair-livelock pass reads, expansion (on the calling thread or on
//! work-stealing workers) and the admission of successors into the seen
//! set.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use amx_ids::Slot;

use crate::automaton::{closed_loop_step, Automaton, Outcome, Phase};
use crate::encode::EncodeState;
use crate::intern::{hash_bytes, PageCache, SpillError, StateArena};
use crate::mem::SimMemory;
use crate::scc;

use super::group::{canonicalize, decode_node, Canon, SymElem};
use super::{CrashBudget, CrashMode, Monitor, CRASH_ACTOR};

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
/// metadata table.  A state's id is its index in both, and its
/// breadth-first discovery order: level by level, each level sorted by
/// `(parent position, actor)`.  The exploration loop owns it: one
/// worker interns into it as it expands, several workers share it
/// read-only and the drain interns into it on the calling thread —
/// never locked.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) arena: StateArena,
    pub(crate) meta: Vec<NodeMeta>,
}

/// Everything the BFS workers share read-only, plus the global
/// counters.  The seen set deliberately lives *outside* this struct
/// (on the exploration loop's stack) so ownership — not a lock —
/// arbitrates every intern.
pub(super) struct EngineShared<'a, A: Automaton> {
    pub(super) automata: &'a [A],
    pub(super) mem0: &'a SimMemory,
    pub(super) group: &'a [SymElem],
    pub(super) monitors: &'a [Monitor<A::State>],
    pub(super) max_states: usize,
    pub(super) orbit_sum: AtomicUsize,
    pub(super) overflow: AtomicBool,
    pub(super) steals: AtomicUsize,
    /// Crash–recovery configuration, when enabled.
    pub(super) crashes: Option<(CrashBudget, CrashMode)>,
    /// First spill *read* failure any worker hit: interned state became
    /// unreadable, so the run aborts with [`McError::Spill`](super::McError::Spill) at the
    /// next level boundary (workers treat the failed state as seen and
    /// keep draining — the error wins regardless).
    pub(super) spill_error: Mutex<Option<SpillError>>,
}

impl<A: Automaton> EngineShared<'_, A> {
    /// Records the first spill failure; later ones are dropped (the
    /// run is already doomed to abort with the first).
    fn record_spill_error(&self, e: SpillError) {
        self.spill_error.lock().get_or_insert(e);
    }
}

/// Interns canonical bytes into the seen set, returning the state's id
/// and whether it is new.  On a fresh insert the parent metadata is
/// recorded and the global state/orbit counters advance.
pub(super) fn intern_into<A: Automaton>(
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
pub(super) struct Scratch<S> {
    mem: SimMemory,
    pub(super) slots: Vec<Slot>,
    pub(super) procs: Vec<(Phase, S)>,
    /// Per-process crash counts of the decoded node (empty unless the
    /// run enables crashes — the encoding is unchanged without them).
    pub(super) crashes: Vec<u8>,
    /// Slot buffer for building a crash successor's memory image.
    crash_slots: Vec<Slot>,
    pub(super) canon: Canon,
    pub(super) node: Vec<u8>,
    pub(super) cache: PageCache,
}

impl<S> Scratch<S> {
    pub(super) fn new(mem: SimMemory) -> Self {
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

impl<S: EncodeState> Scratch<S> {
    /// Decodes stored state `id` into `slots`, `procs` and `crashes`,
    /// reading its bytes into `node` (a spilled page is faulted in
    /// through `cache`).
    pub(super) fn load(&mut self, shard: &Shard, id: u32) -> Result<(), SpillError> {
        shard
            .arena
            .get_into_cached(id, &mut self.cache, &mut self.node)?;
        decode_node(
            &self.node,
            self.mem.m(),
            self.mem.n(),
            &mut self.slots,
            &mut self.procs,
            &mut self.crashes,
        );
        Ok(())
    }
}

/// What one breadth-first level found, for [`ModelChecker::run`](super::ModelChecker::run).
pub(super) struct LevelOut {
    pub(super) acquisitions: usize,
    pub(super) transitions: usize,
    pub(super) violation: Option<Violation>,
    /// First fatal-monitor hit, by `(order, monitor index)`.
    pub(super) prop_violation: Option<PropViolation>,
    /// Per non-fatal monitor (registration order): hit accounting.
    pub(super) monitor_hits: Vec<MonitorHit>,
    /// Per canonical position: the largest pending depth of a state the
    /// level stored.
    pub(super) depth_maxima: Vec<u16>,
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

    /// Adds an expansion's steps and acquisitions, and keeps the least
    /// violation.
    fn add(&mut self, tally: &Tally) {
        self.acquisitions += tally.acquisitions;
        self.transitions += tally.transitions;
        if let Some(v) = tally.violation {
            if self.violation.is_none_or(|best| v.order < best.order) {
                self.violation = Some(v);
            }
        }
    }
}

/// A fatal [`Monitor`] hit during exploration.
#[derive(Debug, Clone, Copy)]
pub(super) struct PropViolation {
    /// `(frontier position, actor)` tiebreak, like [`Violation::order`].
    pub(super) order: (usize, usize),
    /// Id of the hit (stored) state.
    pub(super) node: u32,
    /// Index into the checker's monitor list.
    pub(super) monitor: u32,
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
    pub(super) fn record(&mut self, order: (usize, usize), node: u32) {
        self.count += 1;
        if self.best.is_none_or(|(b, _)| order < b) {
            self.best = Some((order, node));
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Violation {
    /// `(frontier position, actor)` — the per-level tiebreak.  The
    /// frontier order is the same at every worker count, so the reported
    /// violation is deterministic.
    pub(super) order: (usize, usize),
    pub(super) from: u32,
    pub(super) actor: usize,
    pub(super) other: usize,
}

/// One breadth-first level: node ids in `(parent position, actor)`
/// order, with their canonical encodings packed end to end in one
/// buffer (no allocation per node), and each node's pending depths.
///
/// A node's pending depth at canonical position `j` is the number of
/// steps that position has taken inside its current `lock()` invocation
/// (its `Trying` phase) along the node's breadth-first tree path.
/// Admission computes a fresh state's depths from its parent's
/// ([`child_depths`]), so the depths of every stored state pass through
/// a frontier exactly once.
#[derive(Debug)]
pub(super) struct Frontier {
    /// Pending depths per node (the process count).
    n: usize,
    pub(super) ids: Vec<u32>,
    /// `ends[i]` is the end offset of node `i`'s bytes in `bytes`.
    ends: Vec<usize>,
    bytes: Vec<u8>,
    /// Node `i`'s pending depths are `depths[i * n..(i + 1) * n]`.
    pub(super) depths: Vec<u16>,
}

impl Frontier {
    pub(super) fn new(n: usize) -> Self {
        Frontier {
            n,
            ids: Vec::new(),
            ends: Vec::new(),
            bytes: Vec::new(),
            depths: Vec::new(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(super) fn is_empty(&self) -> bool {
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

    pub(super) fn push(&mut self, id: u32, bytes: &[u8], depths: impl IntoIterator<Item = u16>) {
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
pub(super) fn child_depths<'a>(
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
/// order the seen set numbers states in).  Slot `v * n + k` holds the
/// target of quotient actor `k`'s `Progress` step from state `v`, or
/// [`scc::NO_EDGE`]: completions and violating steps are left out, and
/// so are crash edges — each strictly increases a crash count, so no
/// cycle (hence no livelock) contains one, and fairness never obliges
/// the adversary to crash anyone.
#[derive(Debug)]
pub(super) struct EdgeTable {
    /// Slots per row (the process count).
    pub(super) n: usize,
    pub(super) targets: Vec<u32>,
    /// Under symmetry, the group element that canonicalized each slot's
    /// target (parallel to `targets`); empty otherwise.  The orbit
    /// confirmation walks concrete orbit states with it.
    pub(super) sigmas: Vec<u16>,
    pub(super) track_sigma: bool,
}

impl EdgeTable {
    pub(super) fn new(n: usize, track_sigma: bool) -> Self {
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

/// A completion-free edge a multi-worker round's seen-set probe
/// resolved, on its way into the [`EdgeTable`]: the source's frontier
/// position, the target's id, the canonicalizing group element and the
/// quotient actor.
#[derive(Debug, Clone, Copy)]
pub(super) struct Edge {
    pos: u32,
    target: u32,
    sigma: u16,
    actor: u8,
}

/// One frontier node in a stealable expansion queue; `pos` is its
/// global index in the level (the violation tiebreak).  The bytes
/// borrow the frontier — expansion never consumes the level.
pub(super) struct LevelItem<'f> {
    pos: u32,
    id: u32,
    bytes: &'f [u8],
}

/// Items an owner claims from its own deque per lock acquisition.
/// Batching keeps lock traffic negligible; the batch is small enough
/// that a straggler's leftover work stays stealable.
pub(super) const STEAL_BATCH: usize = 32;

/// Frontier slice expanded per round of a level: bounds a multi-worker
/// round's buffered pending-insert memory to `O(LEVEL_CHUNK · n)`
/// regardless of level width, and bounds how much work can run after a
/// violation is found (later rounds have strictly larger positions, so
/// they can never improve the witness order).
pub(super) const LEVEL_CHUNK: usize = 16 * 1024;

/// A canonical successor as expansion hands it on: everything
/// [`Admission::admit`] needs besides its encoding, in 32 bytes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Successor {
    hash: u64,
    /// Bit `i` set: concrete process `i` of the successor is `Trying`
    /// (the input of [`child_depths`]).
    trying: u64,
    /// Frontier position of the expanded node.
    pos: u32,
    /// Id of the expanded node.
    parent: u32,
    orbit: u32,
    sigma: u16,
    actor: u8,
    /// Whether the step is an edge of the [`EdgeTable`] (a `Progress`
    /// step, not a completion or crash).
    edge: bool,
}

/// A successor a multi-worker round's seen-set probe did not find,
/// waiting for the drain, in 40 bytes.  The encoding lives in the byte
/// buffer of the expand worker that generated it.
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingInsert {
    succ: Successor,
    /// Byte range of the encoding in the worker's buffer.
    start: u32,
    /// At most 64 KiB, the most [`StateArena::intern`] stores.
    len: u16,
    /// Index of the generating worker's [`Outbox`] byte buffer (below
    /// [`MAX_WORKERS`](super::MAX_WORKERS)).
    worker: u16,
}

const _: () = assert!(std::mem::size_of::<PendingInsert>() == 40);

impl PendingInsert {
    fn bytes<'b>(&self, outboxes: &'b [Outbox]) -> &'b [u8] {
        let start = self.start as usize;
        &outboxes[usize::from(self.worker)].bytes[start..start + usize::from(self.len)]
    }
}

/// The steps, acquisitions and least violation an expansion met.
#[derive(Default)]
pub(super) struct Tally {
    acquisitions: usize,
    transitions: usize,
    violation: Option<Violation>,
}

/// One expand worker's output for a multi-worker round: pending
/// inserts, their encodings packed in one buffer, the edges whose
/// targets the seen-set probe already resolved, and its [`Tally`].
#[derive(Default)]
pub(super) struct Outbox {
    pending: Vec<PendingInsert>,
    bytes: Vec<u8>,
    edges: Vec<Edge>,
    tally: Tally,
}

impl Outbox {
    /// Empties the outbox for the next round, keeping its capacity.
    fn clear(&mut self) {
        self.pending.clear();
        self.bytes.clear();
        self.edges.clear();
        self.tally = Tally::default();
    }
}

/// The buffers of [`run_level`]'s multi-worker rounds, owned by the
/// level loop and cleared each round, so a check allocates them once it
/// has seen its widest round: one [`Outbox`] per worker and their
/// merged pending inserts.  With one worker they stay empty.
pub(super) struct RoundBufs {
    outboxes: Vec<Outbox>,
    pending: Vec<PendingInsert>,
}

impl RoundBufs {
    pub(super) fn new(workers: usize) -> Self {
        RoundBufs {
            outboxes: (0..workers).map(|_| Outbox::default()).collect(),
            pending: Vec::new(),
        }
    }
}

/// Admits one level's successors into the seen set, and does the work
/// each fresh state brings: its BFS-tree metadata, its place in the
/// next frontier with its pending depths, and the monitors.
struct Admission<'l, 'e, A: Automaton> {
    shared: &'l EngineShared<'e, A>,
    shard: &'l mut Shard,
    frontier: &'l Frontier,
    next: &'l mut Frontier,
    edges: &'l mut EdgeTable,
    /// Edge-table row of the level's first frontier node.
    row_base: usize,
    out: LevelOut,
    /// A fresh state decoded for the monitors: the expansion's
    /// [`Scratch`] holds the node being expanded.
    slots: Vec<Slot>,
    procs: Vec<(Phase, A::State)>,
    crashes: Vec<u8>,
}

impl<A: Automaton> Admission<'_, '_, A>
where
    A::State: EncodeState,
{
    /// Interns successor `s` with canonical encoding `bytes` (one
    /// find-or-put probe) and writes its edge; when the state is fresh,
    /// records its metadata, pushes it onto `next` with the pending
    /// depths that follow from its parent's ([`child_depths`]) and runs
    /// the monitors on it.  Monitors run once per fresh state, on its
    /// decoded canonical representative — monitor predicates are
    /// orbit-invariant by contract, so any image of the state is as good
    /// as another, and duplicates never pay for an evaluation.
    ///
    /// A level's successors arrive in `(pos, actor)` order, so the first
    /// generator of every state becomes its breadth-first parent.  Once
    /// the state bound has overflowed, nothing more is admitted.
    fn admit(&mut self, s: &Successor, bytes: &[u8]) {
        let shared = self.shared;
        if shared.overflow.load(Ordering::Relaxed) {
            return;
        }
        let meta = NodeMeta {
            parent: s.parent,
            actor: s.actor,
            sigma: s.sigma,
        };
        let (id, fresh) = intern_into(shared, self.shard, s.hash, bytes, meta, s.orbit);
        if s.edge {
            let edge = Edge {
                pos: s.pos,
                target: id,
                sigma: s.sigma,
                actor: s.actor,
            };
            self.edges.set(self.row_base + s.pos as usize, &edge);
        }
        if !fresh {
            return;
        }
        let elem = &shared.group[usize::from(s.sigma)];
        let parent = self.frontier.depths(s.pos as usize);
        self.next
            .push(id, bytes, child_depths(parent, elem, s.trying, s.actor));
        let depths = self.next.depths(self.next.len() - 1);
        for (max, &d) in self.out.depth_maxima.iter_mut().zip(depths) {
            *max = (*max).max(d);
        }
        if shared.monitors.is_empty() {
            return;
        }
        decode_node(
            bytes,
            shared.mem0.m(),
            shared.automata.len(),
            &mut self.slots,
            &mut self.procs,
            &mut self.crashes,
        );
        let order = (s.pos as usize, usize::from(s.actor));
        for (mi, mon) in shared.monitors.iter().enumerate() {
            if !(mon.eval)(&self.slots, &self.procs) {
                continue;
            }
            self.out.monitor_hits[mi].record(order, id);
            if mon.fatal {
                let cand = PropViolation {
                    order,
                    node: id,
                    monitor: mi as u32,
                };
                if self
                    .out
                    .prop_violation
                    .is_none_or(|best| (cand.order, cand.monitor) < (best.order, best.monitor))
                {
                    self.out.prop_violation = Some(cand);
                }
            }
        }
    }
}

/// Expands one breadth-first level, in rounds of at most
/// [`LEVEL_CHUNK`] frontier nodes.  Each node is decoded and stepped and
/// its successors canonicalized ([`expand_item`]); each successor is
/// then admitted ([`Admission::admit`]): interned and, when fresh,
/// pushed onto `next` (cleared first; rounds cover increasing
/// positions) with its pending depths and checked by the monitors.
///
/// * **One worker.** The round runs in frontier order on the calling
///   thread, with the run's `scratch`, and every successor is admitted
///   where it is generated.  Expansion emits a node's successors in
///   actor order — steps first, then crashes, whose actor has its high
///   bit set — so admission runs in `(pos, actor)` order.  A fresh state
///   costs one seen-set probe, and the round buffers nothing.
/// * **Several workers.** Two phases.  *Expand*: the round's nodes are
///   block-partitioned over per-worker deques with back-half stealing
///   (uneven orbit-canonicalization costs get rebalanced); each worker
///   probes the frozen seen set through its own page cache, a successor
///   interned by an earlier round or level contributes only its edge,
///   and the others are queued as [`PendingInsert`]s in the worker's
///   outbox.  *Drain*: on the calling thread, the merged outboxes are
///   admitted sorted by `(pos, actor)`.
///
/// Either way the first generator of every state becomes its
/// breadth-first parent, and fresh states are numbered, and join
/// `next`, in discovery order at every worker count.  The level appends
/// one [`EdgeTable`] row per frontier node and fills it as successors
/// are admitted (with several workers, also from the probes' hits).
/// The worker count is the number of outboxes in `bufs`.
pub(super) fn run_level<A: Automaton + Sync>(
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
    next.clear();
    let row_base = edges.rows();
    edges.add_rows(frontier.len());
    let mut admission = Admission {
        shared,
        shard,
        frontier,
        next,
        edges,
        row_base,
        out: LevelOut::new(shared.monitors.len(), shared.automata.len()),
        slots: Vec::new(),
        procs: Vec::new(),
        crashes: Vec::new(),
    };
    let mut base = 0;
    while base < frontier.len() {
        if shared.overflow.load(Ordering::Relaxed) || admission.out.found_stop() {
            break;
        }
        let round = base..frontier.len().min(base + LEVEL_CHUNK);
        base = round.end;
        if let [_] = bufs.outboxes.as_slice() {
            let mut tally = Tally::default();
            let mut admit =
                |s: &Successor, bytes: &[u8], _: &mut PageCache| admission.admit(s, bytes);
            for pos in round {
                let (id, bytes) = frontier.node(pos);
                let item = LevelItem {
                    pos: pos as u32,
                    id,
                    bytes,
                };
                expand_item(shared, &item, scratch, &mut tally, &mut admit);
            }
            admission.out.add(&tally);
            continue;
        }
        for outbox in &mut bufs.outboxes {
            outbox.clear();
        }
        expand_round_stealing(shared, admission.shard, frontier, round, &mut bufs.outboxes);
        bufs.pending.clear();
        for outbox in &bufs.outboxes {
            admission.out.add(&outbox.tally);
            bufs.pending.extend_from_slice(&outbox.pending);
            for e in &outbox.edges {
                admission.edges.set(row_base + e.pos as usize, e);
            }
        }
        bufs.pending
            .sort_unstable_by_key(|p| (p.succ.pos, p.succ.actor));
        for p in &bufs.pending {
            admission.admit(&p.succ, p.bytes(&bufs.outboxes));
        }
    }
    admission.out
}

/// Phase-1 worker pool of [`run_level`] with several workers, one per
/// outbox: the round's nodes go into per-worker deques (block
/// partition, back-half stealing); every worker fills its own
/// [`Outbox`] — nothing is interned here.
pub(super) fn expand_round_stealing<A: Automaton + Sync>(
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
/// Each successor is probed against the frozen seen set: one interned
/// by an earlier round or level contributes its edge to the outbox, the
/// others are queued as pending inserts.
pub(super) fn expand_worker<'f, A: Automaton + Sync>(
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
    let Outbox {
        pending,
        bytes,
        edges,
        tally,
    } = outbox;
    let mut probe = |s: &Successor, best: &[u8], cache: &mut PageCache| {
        match shard.arena.lookup_hashed_cached(s.hash, best, cache) {
            // Interned by a previous round or level: the probe is exact
            // for those, so nothing to buffer but the edge.  Intra-round
            // duplicates fall through; the drain finds them interned.
            Ok(Some(target)) => {
                if s.edge {
                    edges.push(Edge {
                        pos: s.pos,
                        target,
                        sigma: s.sigma,
                        actor: s.actor,
                    });
                }
            }
            Ok(None) => {
                pending.push(PendingInsert {
                    succ: *s,
                    start: bytes.len() as u32,
                    len: u16::try_from(best.len())
                        .expect("encoded states must fit the page-base directory (≤ 64 KiB)"),
                    worker: w as u16,
                });
                bytes.extend_from_slice(best);
            }
            // A spilled page is unreadable: the level boundary turns this
            // into McError::Spill; meanwhile treat the child as seen so
            // the round drains without further probes.
            Err(e) => shared.record_spill_error(e),
        }
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
            expand_item(shared, item, &mut sc, tally, &mut probe);
        }
    }
}

/// Expands one frontier node: decodes it, steps every process once
/// (and crashes every process the budget admits), canonicalizes each
/// successor that is not a violation and hands it to `sink` with its
/// canonical encoding and the worker's page cache, in actor order:
/// steps `0..n`, then crashes, whose actor has its high bit set.  Steps
/// and acquisitions are counted into `tally`.  A found violation never
/// aborts mid-node: the candidate is merged by minimum `(pos, actor)`
/// into `tally` and the node's remaining actors still run (stolen items
/// arrive out of position order, and the round finishes regardless).
///
/// Crash edges: the adversary may crash any process that is mid-
/// invocation (Trying/Cs/Exiting — a process in its remainder has
/// nothing to lose), within budget.  A crash resets the process to its
/// remainder section with `crash_state()` local memory; under
/// `WipeRegisters` its shared-register claims evaporate too, under
/// `StaleClaims` they linger.  Crash counts strictly increase along
/// these edges, so no cycle contains one — which is why the
/// fair-livelock edge table soundly omits them (fairness never obliges
/// the adversary to crash anyone).
pub(super) fn expand_item<A: Automaton>(
    shared: &EngineShared<'_, A>,
    item: &LevelItem<'_>,
    sc: &mut Scratch<A::State>,
    tally: &mut Tally,
    sink: &mut impl FnMut(&Successor, &[u8], &mut PageCache),
) where
    A::State: EncodeState,
{
    let n = shared.automata.len();
    let m = shared.mem0.m();
    decode_node(
        item.bytes,
        m,
        n,
        &mut sc.slots,
        &mut sc.procs,
        &mut sc.crashes,
    );
    let crashed: u32 = sc.crashes.iter().map(|&c| u32::from(c)).sum();
    // Bit `i`: process `i` of the node is `Trying`.  A successor differs
    // from the node in its actor's phase alone.
    let trying = sc
        .procs
        .iter()
        .enumerate()
        .filter(|(_, (phase, _))| *phase == Phase::Trying)
        .fold(0u64, |mask, (i, _)| mask | 1 << i);
    // Every process steps once; then, when crashes are enabled, every
    // process the budget admits crashes once.
    let steps = (0..n).map(|i| (i, None));
    let crashes = shared
        .crashes
        .into_iter()
        .flat_map(|c| (0..n).map(move |i| (i, Some(c))));
    for (i, crash) in steps.chain(crashes) {
        let (actor, edge, saved) = match crash {
            None => {
                tally.transitions += 1;
                sc.mem.restore(&sc.slots);
                let saved = sc.procs[i].clone();
                let (phase, state) = &mut sc.procs[i];
                let outcome =
                    closed_loop_step(&shared.automata[i], phase, state, &mut sc.mem.view(i));
                if outcome == Outcome::Acquired {
                    tally.acquisitions += 1;
                    if let Some(j) = (0..n).find(|&j| j != i && sc.procs[j].0 == Phase::Cs) {
                        let cand = Violation {
                            order: (item.pos as usize, i),
                            from: item.id,
                            actor: i,
                            other: j,
                        };
                        if tally.violation.is_none_or(|best| cand.order < best.order) {
                            tally.violation = Some(cand);
                        }
                        // The violating successor is not interned (it is
                        // the witness endpoint, not a node to expand
                        // further).
                        sc.procs[i] = saved;
                        continue;
                    }
                }
                (i as u8, outcome == Outcome::Progress, saved)
            }
            Some((budget, mode)) => {
                if !matches!(sc.procs[i].0, Phase::Trying | Phase::Cs | Phase::Exiting)
                    || sc.crashes[i] >= budget.per_process
                    || crashed >= u32::from(budget.total)
                {
                    continue;
                }
                tally.transitions += 1;
                let saved = std::mem::replace(
                    &mut sc.procs[i],
                    (Phase::Remainder, shared.automata[i].crash_state()),
                );
                sc.crash_slots.clear();
                sc.crash_slots.extend_from_slice(&sc.slots);
                if mode == CrashMode::WipeRegisters {
                    if let Some(pid) = shared.automata[i].pid() {
                        for s in &mut sc.crash_slots {
                            if s.is_owned_by(pid) {
                                *s = Slot::BOTTOM;
                            }
                        }
                    }
                }
                sc.mem.restore(&sc.crash_slots);
                sc.crashes[i] += 1;
                (CRASH_ACTOR | i as u8, false, saved)
            }
        };
        let (sigma, orbit) = canonicalize(
            shared.group,
            sc.mem.slots(),
            &sc.procs,
            &sc.crashes,
            &mut sc.canon,
        );
        let best = &sc.canon.best;
        let succ = Successor {
            hash: hash_bytes(best),
            trying: trying & !(1 << i) | u64::from(sc.procs[i].0 == Phase::Trying) << i,
            pos: item.pos,
            parent: item.id,
            orbit,
            sigma,
            actor,
            edge,
        };
        sink(&succ, best, &mut sc.cache);
        if crash.is_some() {
            sc.crashes[i] -= 1;
        }
        sc.procs[i] = saved;
    }
}
