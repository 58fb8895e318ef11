//! Model-checkable step-machine renditions of the classic baselines.
//!
//! Each baseline is written once, against [`amx_sim::Automaton`] — one
//! shared-memory operation per step — so the exhaustive model checker
//! (and the `amx-props` property subsystem) certifies it with the same
//! machinery that certifies the paper's algorithms, and the
//! [`threaded`](crate::threaded) locks run the very same step machines
//! over real atomic registers:
//!
//! * [`TasAutomaton`] — the "simple" one-register test-and-set lock
//!   (RMW model).  Deadlock-free, not starvation-free.
//! * [`BurnsLynchAutomaton`] — Burns–Lynch one-bit mutual exclusion
//!   over `n` read/write flag registers (process `i` owns register
//!   `i`).  The `m ≥ n` lower-bound-matching RW lock the paper cites;
//!   deadlock-free, not starvation-free.
//! * [`PetersonTwoAutomaton`] — Peterson's 2-process lock over three
//!   RW registers (`flag[0]`, `flag[1]`, `victim`).  Starvation-free.
//!
//! All three are **non-anonymous**: a process knows its dense index and
//! reads specific registers, exactly the assumption anonymous
//! algorithms must do without.  They therefore expect the identity
//! adversary, and each process is its own symmetry class
//! ([`Automaton::symmetry_class`] returns a per-index token), so the
//! symmetry reduction safely degrades to the exact exploration.
//!
//! The flag registers encode booleans as slots: ⊥ = down/false, own
//! identity = up/true — equality-only, so the encodings stay compatible
//! with the anonymous-memory [`amx_ids::Slot`] plumbing.

use amx_core::lock::LockAutomaton;
use amx_ids::codec::{PidMap, RegMap};
use amx_ids::{Pid, Slot};
use amx_sim::automaton::{Automaton, Outcome};
use amx_sim::encode::{self, EncodeState};
use amx_sim::mem::MemoryOps;

/// Test-and-set lock as a step machine: spin on `cas(0, ⊥, id)`, clear
/// on unlock.  Requires the RMW model and exactly one register.
///
/// # Example
///
/// ```
/// use amx_baselines::automaton::TasAutomaton;
/// use amx_sim::mc::{ModelChecker, Verdict};
/// use amx_sim::MemoryModel;
///
/// let report = ModelChecker::from_factory(TasAutomaton::new, MemoryModel::Rmw, 2, 1)
///     .run()
///     .unwrap();
/// assert_eq!(report.verdict, Verdict::Ok);
/// ```
#[derive(Debug, Clone)]
pub struct TasAutomaton {
    id: Pid,
}

impl TasAutomaton {
    /// The automaton for process `id`.
    #[must_use]
    pub fn new(id: Pid) -> Self {
        TasAutomaton { id }
    }
}

/// Program counter for [`TasAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TasState {
    /// No pending invocation.
    Idle,
    /// Spinning on the test-and-set.
    TryTas,
    /// About to clear the register.
    Unlock,
}

impl Automaton for TasAutomaton {
    type State = TasState;

    fn init_state(&self) -> TasState {
        TasState::Idle
    }

    fn start_lock(&self, state: &mut TasState) {
        *state = TasState::TryTas;
    }

    fn start_unlock(&self, state: &mut TasState) {
        *state = TasState::Unlock;
    }

    fn step<M: MemoryOps + ?Sized>(&self, state: &mut TasState, mem: &mut M) -> Outcome {
        match *state {
            TasState::TryTas => {
                if mem.compare_and_swap(0, Slot::BOTTOM, Slot::from(self.id)) {
                    *state = TasState::Idle;
                    Outcome::Acquired
                } else {
                    Outcome::Progress
                }
            }
            TasState::Unlock => {
                mem.write(0, Slot::BOTTOM);
                *state = TasState::Idle;
                Outcome::Released
            }
            TasState::Idle => panic!("step without pending invocation"),
        }
    }

    fn pid(&self) -> Option<Pid> {
        Some(self.id)
    }

    fn symmetry_class(&self) -> Option<u64> {
        // TAS contenders are identical up to their identity.
        Some(0)
    }
}

impl LockAutomaton for TasAutomaton {
    /// A pending attempt owns nothing: its CAS never succeeded.
    fn withdraw<M: MemoryOps + ?Sized>(&self, _mem: &mut M) {}
}

impl EncodeState for TasState {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        encode::put_u8(
            match self {
                TasState::Idle => 0,
                TasState::TryTas => 1,
                TasState::Unlock => 2,
            },
            out,
        );
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(match encode::take_u8(bytes)? {
            0 => TasState::Idle,
            1 => TasState::TryTas,
            2 => TasState::Unlock,
            _ => return None,
        })
    }
}

/// Burns–Lynch one-bit mutual exclusion as a step machine.
///
/// Process `i` of `n` over `m = n` flag registers (register `j` is
/// process `j`'s flag; ⊥ = down, owner id = up):
///
/// ```text
/// lock(i):
///   repeat
///     flag[i] ← down                     — [`BurnsState::SetDown`]
///     while ∃ j < i: flag[j] up: rescan   — [`BurnsState::CheckLower`]
///     flag[i] ← up                       — [`BurnsState::SetUp`]
///   until ∀ j < i: flag[j] down          — [`BurnsState::RecheckLower`]
///   wait until ∀ j > i: flag[j] down     — [`BurnsState::WaitHigher`]
/// unlock(i):
///   flag[i] ← down                       — [`BurnsState::Unlock`]
/// ```
///
/// Every flag read is its own atomic step, so the model checker
/// explores all interleavings of the scan loops.
#[derive(Debug, Clone)]
pub struct BurnsLynchAutomaton {
    id: Pid,
    index: usize,
    n: usize,
}

impl BurnsLynchAutomaton {
    /// The automaton for process `id` holding dense index `index` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n` or `n == 0`.
    #[must_use]
    pub fn new(id: Pid, index: usize, n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(index < n, "index out of range");
        BurnsLynchAutomaton { id, index, n }
    }
}

/// Program counter for [`BurnsLynchAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurnsState {
    /// No pending invocation.
    Idle,
    /// About to lower the own flag (top of the entry loop).
    SetDown,
    /// First scan: about to read `flag[j]`; a raised lower flag restarts
    /// this scan (spin), a clean pass raises the own flag.
    CheckLower {
        /// Scan cursor `j < index`.
        j: usize,
    },
    /// About to raise the own flag.
    SetUp,
    /// Second scan: about to read `flag[j]`; a raised lower flag sends
    /// the process back to [`BurnsState::SetDown`], a clean pass
    /// proceeds to the higher-index wait.
    RecheckLower {
        /// Scan cursor `j < index`.
        j: usize,
    },
    /// About to read `flag[j]` of a higher-indexed process; waits until
    /// each in turn is down.
    WaitHigher {
        /// Scan cursor `index < j < n`.
        j: usize,
    },
    /// About to lower the own flag and leave.
    Unlock,
}

impl BurnsLynchAutomaton {
    /// Transition after the first scan (or the lowered flag) finds no
    /// lower announcer up to `index`: raise, or — for process 0, which
    /// has no lower processes — skip straight past both scans.
    fn after_clean_lower_scan(&self, state: &mut BurnsState) {
        *state = BurnsState::SetUp;
    }

    /// Entry into the higher-index wait (which process `n - 1` skips).
    fn enter_wait_higher(&self, state: &mut BurnsState) -> Outcome {
        if self.index + 1 < self.n {
            *state = BurnsState::WaitHigher { j: self.index + 1 };
            Outcome::Progress
        } else {
            *state = BurnsState::Idle;
            Outcome::Acquired
        }
    }
}

impl Automaton for BurnsLynchAutomaton {
    type State = BurnsState;

    fn init_state(&self) -> BurnsState {
        BurnsState::Idle
    }

    fn start_lock(&self, state: &mut BurnsState) {
        *state = BurnsState::SetDown;
    }

    fn start_unlock(&self, state: &mut BurnsState) {
        *state = BurnsState::Unlock;
    }

    fn step<M: MemoryOps + ?Sized>(&self, state: &mut BurnsState, mem: &mut M) -> Outcome {
        match *state {
            BurnsState::SetDown => {
                mem.write(self.index, Slot::BOTTOM);
                if self.index == 0 {
                    // No lower processes: both scans are vacuous.
                    self.after_clean_lower_scan(state);
                } else {
                    *state = BurnsState::CheckLower { j: 0 };
                }
                Outcome::Progress
            }
            BurnsState::CheckLower { j } => {
                if !mem.read(j).is_bottom() {
                    // A lower announcer: keep spinning on the first scan.
                    *state = BurnsState::CheckLower { j: 0 };
                } else if j + 1 < self.index {
                    *state = BurnsState::CheckLower { j: j + 1 };
                } else {
                    self.after_clean_lower_scan(state);
                }
                Outcome::Progress
            }
            BurnsState::SetUp => {
                mem.write(self.index, Slot::from(self.id));
                if self.index == 0 {
                    return self.enter_wait_higher(state);
                }
                *state = BurnsState::RecheckLower { j: 0 };
                Outcome::Progress
            }
            BurnsState::RecheckLower { j } => {
                if !mem.read(j).is_bottom() {
                    // Lost to a lower process: restart the entry loop.
                    *state = BurnsState::SetDown;
                    Outcome::Progress
                } else if j + 1 < self.index {
                    *state = BurnsState::RecheckLower { j: j + 1 };
                    Outcome::Progress
                } else {
                    self.enter_wait_higher(state)
                }
            }
            BurnsState::WaitHigher { j } => {
                if !mem.read(j).is_bottom() {
                    // Still announced: wait (re-read the same flag).
                    Outcome::Progress
                } else if j + 1 < self.n {
                    *state = BurnsState::WaitHigher { j: j + 1 };
                    Outcome::Progress
                } else {
                    *state = BurnsState::Idle;
                    Outcome::Acquired
                }
            }
            BurnsState::Unlock => {
                mem.write(self.index, Slot::BOTTOM);
                *state = BurnsState::Idle;
                Outcome::Released
            }
            BurnsState::Idle => panic!("step without pending invocation"),
        }
    }

    fn pid(&self) -> Option<Pid> {
        Some(self.id)
    }

    fn symmetry_class(&self) -> Option<u64> {
        // Hard-wired indices: no two processes are interchangeable.
        Some(self.index as u64)
    }
}

impl LockAutomaton for BurnsLynchAutomaton {
    /// The only trace a pending attempt can leave is its own raised
    /// flag; lowering it is idempotent.
    fn withdraw<M: MemoryOps + ?Sized>(&self, mem: &mut M) {
        mem.write(self.index, Slot::BOTTOM);
    }
}

impl EncodeState for BurnsState {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        let (tag, j) = match *self {
            BurnsState::Idle => (0, 0),
            BurnsState::SetDown => (1, 0),
            BurnsState::CheckLower { j } => (2, j),
            BurnsState::SetUp => (3, 0),
            BurnsState::RecheckLower { j } => (4, j),
            BurnsState::WaitHigher { j } => (5, j),
            BurnsState::Unlock => (6, 0),
        };
        encode::put_u8(tag, out);
        encode::put_u8(j as u8, out);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let tag = encode::take_u8(bytes)?;
        let j = encode::take_u8(bytes)? as usize;
        Some(match tag {
            0 => BurnsState::Idle,
            1 => BurnsState::SetDown,
            2 => BurnsState::CheckLower { j },
            3 => BurnsState::SetUp,
            4 => BurnsState::RecheckLower { j },
            5 => BurnsState::WaitHigher { j },
            6 => BurnsState::Unlock,
            _ => return None,
        })
    }
}

/// Peterson's 2-process lock as a step machine over three RW registers:
/// `0` = flag of side 0, `1` = flag of side 1, `2` = victim.
///
/// The baseline rendition of the starvation-free comparator: unlike the
/// anonymous algorithms, each side knows which flag is its own.
#[derive(Debug, Clone)]
pub struct PetersonTwoAutomaton {
    id: Pid,
    side: usize,
}

impl PetersonTwoAutomaton {
    /// The automaton for process `id` playing `side` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `side > 1`.
    #[must_use]
    pub fn new(id: Pid, side: usize) -> Self {
        assert!(side < 2, "Peterson has exactly two sides");
        PetersonTwoAutomaton { id, side }
    }
}

/// Program counter for [`PetersonTwoAutomaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PetersonTwoState {
    /// No pending invocation.
    Idle,
    /// About to raise the own flag.
    RaiseFlag,
    /// About to write the victim register.
    SetVictim,
    /// About to read the rival's flag.
    CheckFlag,
    /// Rival's flag was up; about to read the victim register.
    CheckVictim,
    /// About to lower the own flag.
    Unlock,
}

impl Automaton for PetersonTwoAutomaton {
    type State = PetersonTwoState;

    fn init_state(&self) -> PetersonTwoState {
        PetersonTwoState::Idle
    }

    fn start_lock(&self, state: &mut PetersonTwoState) {
        *state = PetersonTwoState::RaiseFlag;
    }

    fn start_unlock(&self, state: &mut PetersonTwoState) {
        *state = PetersonTwoState::Unlock;
    }

    fn step<M: MemoryOps + ?Sized>(&self, state: &mut PetersonTwoState, mem: &mut M) -> Outcome {
        match *state {
            PetersonTwoState::RaiseFlag => {
                mem.write(self.side, Slot::from(self.id));
                *state = PetersonTwoState::SetVictim;
                Outcome::Progress
            }
            PetersonTwoState::SetVictim => {
                mem.write(2, Slot::from(self.id));
                *state = PetersonTwoState::CheckFlag;
                Outcome::Progress
            }
            PetersonTwoState::CheckFlag => {
                if mem.read(1 - self.side).is_bottom() {
                    *state = PetersonTwoState::Idle;
                    Outcome::Acquired
                } else {
                    *state = PetersonTwoState::CheckVictim;
                    Outcome::Progress
                }
            }
            PetersonTwoState::CheckVictim => {
                if mem.read(2).is_owned_by(self.id) {
                    *state = PetersonTwoState::CheckFlag;
                    Outcome::Progress
                } else {
                    *state = PetersonTwoState::Idle;
                    Outcome::Acquired
                }
            }
            PetersonTwoState::Unlock => {
                mem.write(self.side, Slot::BOTTOM);
                *state = PetersonTwoState::Idle;
                Outcome::Released
            }
            PetersonTwoState::Idle => panic!("step without pending invocation"),
        }
    }

    fn pid(&self) -> Option<Pid> {
        Some(self.id)
    }

    fn symmetry_class(&self) -> Option<u64> {
        // Sides are hard-wired: never interchangeable.
        Some(self.side as u64)
    }
}

impl LockAutomaton for PetersonTwoAutomaton {
    /// Lowers the own flag (idempotent).  A stale victim entry is
    /// harmless: the rival only waits on its *own* identity there.
    fn withdraw<M: MemoryOps + ?Sized>(&self, mem: &mut M) {
        mem.write(self.side, Slot::BOTTOM);
    }
}

impl EncodeState for PetersonTwoState {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        encode::put_u8(
            match self {
                PetersonTwoState::Idle => 0,
                PetersonTwoState::RaiseFlag => 1,
                PetersonTwoState::SetVictim => 2,
                PetersonTwoState::CheckFlag => 3,
                PetersonTwoState::CheckVictim => 4,
                PetersonTwoState::Unlock => 5,
            },
            out,
        );
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(match encode::take_u8(bytes)? {
            0 => PetersonTwoState::Idle,
            1 => PetersonTwoState::RaiseFlag,
            2 => PetersonTwoState::SetVictim,
            3 => PetersonTwoState::CheckFlag,
            4 => PetersonTwoState::CheckVictim,
            5 => PetersonTwoState::Unlock,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_registers::Adversary;
    use amx_sim::mc::{ModelChecker, Verdict};
    use amx_sim::{MemoryModel, SimMemory};
    use amx_sim::{Phase, Runner, Scheduler, Stop, Workload};

    fn pids(k: usize) -> Vec<Pid> {
        amx_ids::PidPool::sequential().mint_many(k)
    }

    fn burns(n: usize) -> Vec<BurnsLynchAutomaton> {
        pids(n)
            .into_iter()
            .enumerate()
            .map(|(i, id)| BurnsLynchAutomaton::new(id, i, n))
            .collect()
    }

    #[test]
    fn tas_is_correct_for_three_processes() {
        let automata: Vec<TasAutomaton> = pids(3).into_iter().map(TasAutomaton::new).collect();
        let report =
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
                .run()
                .unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
        assert!(report.acquisitions > 0);
    }

    #[test]
    fn burns_lynch_is_correct_for_two_and_three_processes() {
        for n in [2usize, 3] {
            let report =
                ModelChecker::with_automata(burns(n), MemoryModel::Rw, n, &Adversary::Identity)
                    .unwrap()
                    .run()
                    .unwrap();
            assert_eq!(report.verdict, Verdict::Ok, "n = {n}");
            assert!(report.acquisitions > 0);
        }
    }

    #[test]
    fn burns_lynch_solo_acquires_and_releases() {
        let a = BurnsLynchAutomaton::new(pids(1)[0], 0, 1);
        let mut st = a.init_state();
        let mut mem = SimMemory::new(MemoryModel::Rw, 1, &Adversary::Identity, 1).unwrap();
        a.start_lock(&mut st);
        let mut acquired = false;
        for _ in 0..5 {
            if a.step(&mut st, &mut mem.view(0)) == Outcome::Acquired {
                acquired = true;
                break;
            }
        }
        assert!(acquired, "solo Burns–Lynch must enter quickly");
        assert!(mem.slots()[0].is_owned_by(a.id));
        a.start_unlock(&mut st);
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Released);
        assert!(mem.slots()[0].is_bottom());
    }

    #[test]
    fn burns_lynch_defers_to_lower_index() {
        // With process 0's flag up, process 1's first scan must spin.
        let automata = burns(2);
        let mut mem = SimMemory::new(MemoryModel::Rw, 2, &Adversary::Identity, 2).unwrap();
        mem.view(0).write(0, Slot::from(automata[0].id));
        let mut st = BurnsState::CheckLower { j: 0 };
        for _ in 0..5 {
            assert_eq!(
                automata[1].step(&mut st, &mut mem.view(1)),
                Outcome::Progress
            );
            assert_eq!(st, BurnsState::CheckLower { j: 0 }, "must keep rescanning");
        }
    }

    #[test]
    fn peterson_automaton_is_correct_exhaustively() {
        let ids = pids(2);
        let automata = vec![
            PetersonTwoAutomaton::new(ids[0], 0),
            PetersonTwoAutomaton::new(ids[1], 1),
        ];
        let report =
            ModelChecker::with_automata(automata, MemoryModel::Rw, 3, &Adversary::Identity)
                .unwrap()
                .run()
                .unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
        assert!(report.acquisitions > 0);
    }

    #[test]
    fn model_checker_witnesses_replay_through_the_runner() {
        // Round-trip sanity: a scripted run of the model-checked Burns
        // automaton completes cycles cleanly under round-robin.
        let report = Runner::with_adversary(burns(2), MemoryModel::Rw, 2, &Adversary::Identity)
            .unwrap()
            .scheduler(Scheduler::round_robin())
            .workload(Workload::cycles(2))
            .max_steps(10_000)
            .run();
        assert!(
            matches!(report.stop, Stop::Completed),
            "got {:?}",
            report.stop
        );
        assert_eq!(report.total_entries(), 4);
    }

    #[test]
    fn burns_lynch_wait_depth_is_quantified() {
        // The new per-process wait metric: in Burns–Lynch the
        // highest-indexed process defers to everyone, so its observed
        // wait must be at least as long as process 0's.
        let report =
            ModelChecker::with_automata(burns(3), MemoryModel::Rw, 3, &Adversary::Identity)
                .unwrap()
                .run()
                .unwrap();
        assert_eq!(report.max_pending_depth.len(), 3);
        assert!(report.max_pending_depth[2] >= report.max_pending_depth[0]);
        assert!(report.max_pending_depth.iter().all(|&d| d >= 1));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn burns_bad_index_panics() {
        let _ = BurnsLynchAutomaton::new(pids(1)[0], 2, 2);
    }

    #[test]
    fn phases_stay_consistent_during_mc() {
        // Phase plumbing smoke test: no process may ever be observed in
        // Cs while the register array says otherwise — checked with a
        // fatal monitor over the whole reachable space.
        use amx_sim::mc::Monitor;
        let automata: Vec<TasAutomaton> = pids(2).into_iter().map(TasAutomaton::new).collect();
        let report =
            ModelChecker::with_automata(automata, MemoryModel::Rmw, 1, &Adversary::Identity)
                .unwrap()
                .monitor(Monitor::fatal(
                    "cs-without-register",
                    |slots: &[Slot], procs: &[(Phase, TasState)]| {
                        procs.iter().any(|(p, _)| *p == Phase::Cs) && slots[0].is_bottom()
                    },
                ))
                .run()
                .unwrap();
        assert_eq!(report.verdict, Verdict::Ok);
    }
}
