//! The unified locking API every lock family in this workspace sits
//! behind.
//!
//! An [`AmxLock`] is a *shared lock object*: it owns the register array
//! (behind an `Arc`, so the object is cheaply clonable) and mints one
//! [`Participant`] per process.  Participants are `Send` handles — move
//! each into the thread that plays its process.  All acquisition styles
//! live on the handle and every one of them returns the same RAII
//! [`Guard`]:
//!
//! * [`Participant::lock`] — spin until acquired;
//! * [`Participant::try_lock`] — one bounded attempt, withdrawing
//!   cleanly on failure;
//! * [`Participant::try_lock_for`] — keep trying until a wall-clock
//!   deadline, withdrawing on timeout;
//! * [`Participant::try_lock_steps`] — the low-level bounded probe that
//!   leaves the competition *pending* on failure (resume with `lock`,
//!   leave with [`Participant::withdraw`]).
//!
//! Dropping the guard is the one and only unlock path; every unlock
//! protocol in the workspace is wait-free, so the destructor cannot
//! block indefinitely — which is also why it is safe to run during
//! unwinding.  If a guard is dropped *because its holder panicked*, the
//! lock is marked **poisoned**: the critical section may have been left
//! half-done.  Poisoning here is advisory (the next `lock()` still
//! succeeds — deadlock-freedom is the whole point of the paper) and is
//! observable through [`Guard::poisoned`], [`Participant::is_poisoned`]
//! and [`AmxLock::is_poisoned`]; clear it with [`AmxLock::clear_poison`].
//!
//! # Crash semantics
//!
//! A participant dropped **outside** its critical section — even
//! mid-doorway, with claims in shared memory — withdraws automatically:
//! `Drop` runs [`abandon`](RawEndpoint::abandon) on any pending
//! invocation, so the handle leaves memory clean and never poisons the
//! lock (poisoning means a *critical section* was interrupted; a doorway
//! has no application state to corrupt).  To simulate a real process
//! crash instead — stale claims left behind, exactly the model checker's
//! `CrashMode::StaleClaims` — call [`Participant::hard_crash`], which
//! skips the cleanup.  How waiters burn the time between protocol steps
//! is the pluggable [`Backoff`] ladder
//! ([`Participant::with_backoff`]).
//!
//! # Implementing a lock family
//!
//! A family implements [`BuildLock`]: its lock object holds a
//! [`LockCore`] (registers, spec, poison flag) and builds each process's
//! [`RawEndpoint`].  Every `BuildLock` is an [`AmxLock`] through one
//! blanket impl, which owns the minting loop and the poison flag, so
//! harnesses like the contention rig drive Algorithm 1, Algorithm 2,
//! TAS, Burns–Lynch and Peterson through one `Box<dyn AmxLock>` with
//! zero per-family code.  A family whose process runs one automaton
//! implements [`LockAutomaton`] for it and uses the generic [`Endpoint`],
//! which steps the automaton only through [`closed_loop_step`] — the
//! phase machine the model checker explores.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amx_ids::{Pid, PidPool};
use amx_registers::adversary::AdversaryError;
use amx_registers::{Adversary, OpCounters};
use amx_sim::automaton::{closed_loop_step, Automaton, Outcome, Phase};
use amx_sim::mem::MemoryOps;

use crate::adapter::Registers;
use crate::policy::{Backoff, FreeSlotPolicy};
use crate::spec::MutexSpec;

/// Steps granted to a single [`Participant::try_lock`] attempt — ample
/// for any *uncontended* acquisition in the workspace (the costliest,
/// Algorithm 1, needs `Θ(m²)` reads with `m ≤ 64`).
const TRY_LOCK_STEPS: u64 = 65_536;

/// Steps run between deadline checks in [`Participant::try_lock_for`].
const TRY_SLICE_STEPS: u64 = 128;

/// A shared lock object: the register array plus the recipe for minting
/// per-process [`Participant`] handles.
///
/// The trait is object safe — the contention rig holds a
/// `Box<dyn AmxLock>` per family and never branches on the family.
/// Every [`BuildLock`] implementor is an `AmxLock`.
pub trait AmxLock: Send + Sync + fmt::Debug {
    /// Short machine-readable family name (`"alg1"`, `"alg2"`, `"tas"`,
    /// `"burns-lynch"`, `"peterson"`), used as the key in bench reports.
    fn family(&self) -> &'static str;

    /// The validated `(n, m, model)` configuration of this lock.
    fn spec(&self) -> MutexSpec;

    /// Mints one `Send` [`Participant`] handle per process, with fresh
    /// identities and — for the anonymous families — register-name
    /// permutations drawn from `adversary`.  The non-anonymous baselines
    /// ignore the adversary: every process gets the identity naming.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization failures.
    fn participants(&self, adversary: &Adversary) -> Result<Vec<Participant>, AdversaryError>;

    /// Whether some holder panicked inside a critical section since the
    /// last [`clear_poison`](Self::clear_poison).
    fn is_poisoned(&self) -> bool;

    /// Clears the poison flag after the caller has repaired (or decided
    /// to ignore) whatever the panicking holder left behind.
    fn clear_poison(&self);
}

/// A lock family: how to build its lock object and each process's
/// driver.  The blanket [`AmxLock`] impl does the rest.
pub trait BuildLock: Sized + Send + Sync + fmt::Debug {
    /// The register array the participants share.
    type Registers: Registers;

    /// See [`AmxLock::family`].
    const FAMILY: &'static str;

    /// Whether the adversary names each process's registers.  The
    /// non-anonymous baselines hard-wire register roles, so every
    /// process gets the identity naming.
    const ANONYMOUS: bool;

    /// Builds the shared lock object for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not fit the family (wrong memory model or a
    /// register count the family cannot use).
    fn from_spec(spec: MutexSpec) -> Self;

    /// The registers, spec and poison flag the participants share.
    fn core(&self) -> &LockCore<Self::Registers>;

    /// The driver of process `index` (dense, `0..n`), which writes `pid`
    /// and reaches the registers through `mem`.
    fn endpoint(
        &self,
        index: usize,
        pid: Pid,
        mem: <Self::Registers as Registers>::Ops,
    ) -> Box<dyn RawEndpoint>;

    /// One-call setup: build the lock object for `spec` and mint one
    /// participant per process.  The lock object itself is dropped; the
    /// participants keep the shared registers alive through their `Arc`.
    ///
    /// # Errors
    ///
    /// Propagates adversary materialization failures.
    fn with_participants(
        spec: MutexSpec,
        adversary: &Adversary,
    ) -> Result<Vec<Participant>, AdversaryError> {
        Self::from_spec(spec).participants(adversary)
    }
}

/// What every lock object holds: the shared register array, the
/// validated spec and the poison flag all its participants share.
#[derive(Debug, Clone)]
pub struct LockCore<R> {
    mem: R,
    spec: MutexSpec,
    poison: Arc<AtomicBool>,
}

impl<R> LockCore<R> {
    /// An unpoisoned lock over `mem`, configured by `spec`.
    #[must_use]
    pub fn new(mem: R, spec: MutexSpec) -> Self {
        LockCore {
            mem,
            spec,
            poison: Arc::default(),
        }
    }

    /// The shared register array.
    #[must_use]
    pub fn memory(&self) -> &R {
        &self.mem
    }
}

impl<L: BuildLock> AmxLock for L {
    fn family(&self) -> &'static str {
        L::FAMILY
    }

    fn spec(&self) -> MutexSpec {
        self.core().spec
    }

    fn participants(&self, adversary: &Adversary) -> Result<Vec<Participant>, AdversaryError> {
        let LockCore { mem, spec, poison } = self.core();
        let naming = if L::ANONYMOUS {
            adversary
        } else {
            &Adversary::Identity
        };
        let mut pool = PidPool::sequential();
        Ok(naming
            .permutations(spec.n(), spec.m())?
            .into_iter()
            .enumerate()
            .map(|(index, perm)| {
                let pid = pool.mint();
                let counters = OpCounters::new();
                let raw = self.endpoint(index, pid, mem.ops(pid, perm, counters.clone()));
                Participant {
                    raw,
                    family: L::FAMILY,
                    spec: *spec,
                    pid,
                    counters,
                    poison: Arc::clone(poison),
                    entries: 0,
                    backoff: Backoff::default(),
                    pending: false,
                    crashed: false,
                }
            })
            .collect())
    }

    fn is_poisoned(&self) -> bool {
        self.core().poison.load(Ordering::Acquire)
    }

    fn clear_poison(&self) {
        self.core().poison.store(false, Ordering::Release);
    }
}

/// The per-process driver SPI behind [`Participant`].
///
/// Implementations drive a step machine (an [`Automaton`]) against real
/// atomic registers; `Participant` layers entry accounting, poisoning
/// and the RAII guard on top.  One step ≙ one shared-memory operation,
/// so the step bounds of `try_acquire` are operation bounds.
pub trait RawEndpoint: Send + fmt::Debug {
    /// Runs at most `max_steps` entry-protocol steps; returns whether
    /// the lock was acquired.  On `false` the process is **still
    /// competing** (it may own registers) — callers either resume with
    /// another `try_acquire` (which continues the same invocation) or
    /// leave with `abandon`.
    fn try_acquire(&mut self, max_steps: u64) -> bool;

    /// Runs the (wait-free) exit protocol to completion, without pauses:
    /// nothing in an unlock waits for another process.
    fn release(&mut self);

    /// Cleanly leaves a pending competition, erasing every claim this
    /// process still holds in shared memory.
    fn abandon(&mut self);

    /// Installs a free-register selection policy, where the family has
    /// one (Algorithm 1's line-6 choice).  Default: no-op.
    fn set_policy(&mut self, policy: FreeSlotPolicy) {
        let _ = policy;
    }
}

/// What the threaded [`Endpoint`] needs from an automaton beyond
/// [`Automaton`].  Each family implements it next to its automaton,
/// which knows which registers a pending attempt may have claimed.
pub trait LockAutomaton: Automaton<State: Send> + Send + fmt::Debug + 'static {
    /// Erases every claim a pending `lock()` attempt may hold in `mem`.
    /// The endpoint then returns the process to its remainder section.
    fn withdraw<M: MemoryOps + ?Sized>(&self, mem: &mut M);

    /// Installs a free-register selection policy, where the automaton
    /// has one (Algorithm 1's line-6 choice).  Default: no-op.
    fn set_policy(&mut self, policy: FreeSlotPolicy) {
        let _ = policy;
    }
}

/// The threaded driver of every family whose process runs one
/// automaton: it moves the process between remainder, trying, critical
/// section and exit only through [`closed_loop_step`], the phase machine
/// the model checker explores.
#[derive(Debug)]
pub struct Endpoint<A: LockAutomaton, M> {
    automaton: A,
    state: A::State,
    phase: Phase,
    mem: M,
}

impl<A: LockAutomaton, M: MemoryOps> Endpoint<A, M> {
    /// A process in its remainder section, running `automaton` over its
    /// register handle `mem`.
    #[must_use]
    pub fn new(automaton: A, mem: M) -> Self {
        Endpoint {
            state: automaton.init_state(),
            automaton,
            phase: Phase::Remainder,
            mem,
        }
    }

    fn step(&mut self) -> Outcome {
        closed_loop_step(
            &self.automaton,
            &mut self.phase,
            &mut self.state,
            &mut self.mem,
        )
    }
}

impl<A: LockAutomaton, M: MemoryOps + Send + fmt::Debug> RawEndpoint for Endpoint<A, M> {
    fn try_acquire(&mut self, max_steps: u64) -> bool {
        (0..max_steps).any(|_| self.step() == Outcome::Acquired)
    }

    fn release(&mut self) {
        while self.step() != Outcome::Released {}
    }

    fn abandon(&mut self) {
        self.automaton.withdraw(&mut self.mem);
        self.state = self.automaton.init_state();
        self.phase = Phase::Remainder;
    }

    fn set_policy(&mut self, policy: FreeSlotPolicy) {
        self.automaton.set_policy(policy);
    }
}

/// One process's `Send` endpoint of an [`AmxLock`].  Move it into the
/// thread that plays this process; every acquisition method returns the
/// RAII [`Guard`] whose drop is the single unlock path.
#[derive(Debug)]
pub struct Participant {
    raw: Box<dyn RawEndpoint>,
    family: &'static str,
    spec: MutexSpec,
    pid: Pid,
    counters: OpCounters,
    poison: Arc<AtomicBool>,
    entries: u64,
    backoff: Backoff,
    /// Whether an entry invocation is mid-doorway (this process may own
    /// registers but holds no guard).  Drives the `Drop` auto-withdraw.
    pending: bool,
    /// Set by [`hard_crash`](Participant::hard_crash): `Drop` must leave
    /// shared memory exactly as the crash found it.
    crashed: bool,
}

impl Participant {
    /// This participant's (symmetric) identity.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The family name of the minting lock (see [`AmxLock::family`]).
    #[must_use]
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// The configuration of the minting lock.
    #[must_use]
    pub fn spec(&self) -> MutexSpec {
        self.spec
    }

    /// Cumulative shared-memory operation counters for this participant.
    #[must_use]
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Critical sections entered so far.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Whether the shared lock is currently poisoned.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire)
    }

    /// Sets the free-register selection policy, where the family has one
    /// (Algorithm 1's line 6); a no-op for every other family.
    #[must_use]
    pub fn with_policy(mut self, policy: FreeSlotPolicy) -> Self {
        self.raw.set_policy(policy);
        self
    }

    /// Sets the contention [`Backoff`] ladder this handle climbs between
    /// bounded protocol slices (default: [`Backoff::SpinYield`]).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// The contention backoff policy in effect on this handle.
    #[must_use]
    pub fn backoff(&self) -> Backoff {
        self.backoff
    }

    /// Whether an entry invocation is pending: a bounded probe ran out of
    /// steps and this process is still competing (it may own registers).
    /// `Drop` withdraws a pending invocation automatically.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending
    }

    /// Acquires the lock, running the entry protocol in bounded slices
    /// and climbing the [`Backoff`] ladder between them until this
    /// process wins; returns the critical-section guard.
    ///
    /// Resumes a competition left pending by an exhausted
    /// [`try_lock_steps`](Self::try_lock_steps).
    pub fn lock(&mut self) -> Guard<'_> {
        let mut attempt = 0u32;
        while !self.raw.try_acquire(TRY_SLICE_STEPS) {
            self.pending = true;
            self.backoff.wait(attempt);
            attempt = attempt.saturating_add(1);
        }
        self.enter()
    }

    /// One bounded acquisition attempt.  On failure the process
    /// *withdraws* (erases its claims) before returning `None`, so the
    /// call leaves no trace in shared memory.
    pub fn try_lock(&mut self) -> Option<Guard<'_>> {
        if self.raw.try_acquire(TRY_LOCK_STEPS) {
            Some(self.enter())
        } else {
            self.raw.abandon();
            self.pending = false;
            None
        }
    }

    /// Keeps attempting until `timeout` has elapsed, then withdraws and
    /// returns `None`.  At least one bounded attempt is always made; the
    /// waits between slices follow this handle's [`Backoff`] policy.
    pub fn try_lock_for(&mut self, timeout: Duration) -> Option<Guard<'_>> {
        let deadline = Instant::now() + timeout;
        let mut attempt = 0u32;
        loop {
            if self.raw.try_acquire(TRY_SLICE_STEPS) {
                return Some(self.enter());
            }
            self.pending = true;
            if Instant::now() >= deadline {
                self.raw.abandon();
                self.pending = false;
                return None;
            }
            self.backoff.wait(attempt);
            attempt = attempt.saturating_add(1);
        }
    }

    /// Low-level bounded probe: runs at most `max_steps` protocol steps
    /// (≙ shared-memory operations).  On `None` the process is **still
    /// competing** — it may own registers; call [`lock`](Self::lock) to
    /// finish or [`withdraw`](Self::withdraw) to leave cleanly (dropping
    /// the handle withdraws too).
    pub fn try_lock_steps(&mut self, max_steps: u64) -> Option<Guard<'_>> {
        if self.raw.try_acquire(max_steps) {
            Some(self.enter())
        } else {
            self.pending = true;
            None
        }
    }

    /// Abandons a pending competition, erasing this process's claims
    /// from shared memory.
    pub fn withdraw(&mut self) {
        self.raw.abandon();
        self.pending = false;
    }

    /// Simulates a hard process crash: consumes the handle **without**
    /// withdrawing, leaving every claim this process held in shared
    /// memory exactly as the crash found it — the threaded twin of the
    /// model checker's `CrashMode::StaleClaims`.
    ///
    /// The lock is *not* poisoned (the crash happened outside any
    /// critical section — a guard borrows the handle, so one cannot
    /// exist here).  Whether survivors keep making progress past the
    /// stale claims is a property of the lock family; the chaos tests
    /// pin down which families do.
    pub fn hard_crash(mut self) {
        self.crashed = true;
    }

    fn enter(&mut self) -> Guard<'_> {
        self.pending = false;
        self.entries += 1;
        let poisoned = self.poison.load(Ordering::Acquire);
        Guard {
            participant: self,
            poisoned,
        }
    }
}

impl Drop for Participant {
    /// A handle dropped mid-doorway withdraws its pending invocation so
    /// shared memory ends clean — unless
    /// [`hard_crash`](Participant::hard_crash) asked for the claims to
    /// stay.  Never poisons: a doorway holds no application state.
    fn drop(&mut self) {
        if self.pending && !self.crashed {
            self.raw.abandon();
            self.pending = false;
        }
    }
}

/// RAII critical-section guard: dropping it runs the family's wait-free
/// unlock protocol.  This is the **only** unlock path.
///
/// If the drop happens during a panic unwind, the shared lock is marked
/// poisoned *before* the registers are released, so the next acquirer's
/// guard reports [`poisoned`](Guard::poisoned).
#[derive(Debug)]
pub struct Guard<'a> {
    participant: &'a mut Participant,
    poisoned: bool,
}

impl Guard<'_> {
    /// The identity holding the critical section.
    #[must_use]
    pub fn pid(&self) -> Pid {
        self.participant.pid()
    }

    /// The configuration of the lock being held.
    #[must_use]
    pub fn spec(&self) -> MutexSpec {
        self.participant.spec
    }

    /// Whether the lock was poisoned at the moment this guard acquired
    /// it (i.e. some earlier holder panicked mid-critical-section).
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.participant.poison.store(true, Ordering::Release);
        }
        self.participant.raw.release();
    }
}
