//! Algorithm 2: symmetric deadlock-free mutex over anonymous RMW registers.
//!
//! Faithful step-machine rendering of Figure 2 of the paper.  Line map:
//!
//! ```text
//! lock():
//!   (1)  repeat
//!   (2)    for each x: R.compare&swap(x, ⊥, id)         — [`Alg2State::CasSweep`]
//!   (3)    for each x: view[x] ← R.read(x)              — [`Alg2State::ReadLoop`]
//!   (4)    most_present ← max multiplicity in view
//!   (5)    owned ← |{x : view[x] = id}|
//!   (6)    if owned < most_present then
//!   (7)      for each x with view[x] = id: R.write(x, ⊥) — [`Alg2State::Resign`]
//!   (8-10)   repeat read all until all ⊥                 — [`Alg2State::WaitEmpty`]
//!   (12) until owned > m/2                               — `Acquired` after the read loop
//!
//! unlock():
//!   (13) for each x: R.compare&swap(x, id, ⊥)            — [`Alg2State::UnlockSweep`]
//! ```
//!
//! The line-3 view is an **asynchronous collect** — each read is its own
//! atomic step — not a snapshot; Algorithm 2 never snapshots, which is
//! the complexity contrast the paper draws with Algorithm 1 (majority
//! ownership suffices instead of all-`m` ownership).

use std::cell::Cell;

use amx_ids::codec::{PidMap, RegMap};
use amx_ids::{view, Pid, Slot};
use amx_sim::automaton::{Automaton, Outcome};
use amx_sim::encode::{self, EncodeState};
use amx_sim::mem::MemoryOps;

use crate::bits::{next_index, owned_mask};
use crate::lock::LockAutomaton;
use crate::spec::{Model, MutexSpec};

thread_local! {
    /// A spare line-3 collect buffer: a `ReadLoop` takes it when it
    /// starts and gives it back after deciding, so the read loop
    /// allocates nothing once the thread has run one.  Thread-local
    /// (rather than per-automaton) so automata stay `Sync` for the
    /// parallel model-checker frontier.
    static SPARE_COLLECT: Cell<Vec<Slot>> = const { Cell::new(Vec::new()) };
}

/// Algorithm 2, instantiated for one process.
///
/// Implements [`Automaton`]; drive it with `amx-sim` or through the
/// threaded wrapper [`crate::threaded::RmwAnonLock`].
#[derive(Debug, Clone)]
pub struct Alg2Automaton {
    id: Pid,
    m: usize,
}

impl Alg2Automaton {
    /// Creates the automaton for process `id` under `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not an RMW-model spec.  (Invalid `(n, m)`
    /// pairs are deliberately allowed — see [`MutexSpec::rmw_unchecked`].)
    #[must_use]
    pub fn new(spec: MutexSpec, id: Pid) -> Self {
        assert_eq!(
            spec.model(),
            Model::Rmw,
            "Algorithm 2 runs on RMW registers"
        );
        Alg2Automaton { id, m: spec.m() }
    }

    /// The process identity this automaton competes as.
    #[must_use]
    pub fn id(&self) -> Pid {
        self.id
    }

    /// The memory size `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Decides after the line-3 collect completes: enter, resign, or retry.
    fn decide(&self, state: &mut Alg2State, collected: &[Slot]) -> Outcome {
        let owned = view::owned_count(collected, self.id);
        let most_present = view::most_present(collected);
        if owned < most_present {
            // Lines 6-7: resign.
            let targets = owned_mask(collected, self.id);
            match next_index(targets, 0) {
                Some(pos) => *state = Alg2State::Resign { targets, pos },
                // Nothing to erase (owned = 0): go straight to waiting.
                None => *state = Alg2State::WaitEmpty { x: 0, clean: true },
            }
            Outcome::Progress
        } else if 2 * owned > self.m {
            // Line 12: majority — enter the critical section.
            *state = Alg2State::Idle;
            Outcome::Acquired
        } else {
            // Keep competing: next iteration of the outer repeat loop.
            *state = Alg2State::CasSweep { x: 0 };
            Outcome::Progress
        }
    }
}

/// Execution state of [`Alg2Automaton`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Alg2State {
    /// No pending invocation (remainder or critical section).
    Idle,
    /// Line 2: about to `compare&swap(x, ⊥, id)`.
    CasSweep {
        /// Sweep cursor.
        x: usize,
    },
    /// Line 3: about to read local index `x`; earlier reads accumulated.
    ReadLoop {
        /// Read cursor.
        x: usize,
        /// Values read so far (`x` entries).
        collected: Vec<Slot>,
    },
    /// Line 7: erasing own entries.
    Resign {
        /// Bitmask of own indices from the line-3 view.
        targets: u64,
        /// Current cursor (a set bit of `targets`).
        pos: usize,
    },
    /// Lines 8-10: reading all registers, waiting for an all-⊥ pass.
    WaitEmpty {
        /// Read cursor.
        x: usize,
        /// Whether every register read so far in this pass was ⊥.
        clean: bool,
    },
    /// Line 13: about to `compare&swap(x, id, ⊥)`.
    UnlockSweep {
        /// Sweep cursor.
        x: usize,
    },
}

impl Automaton for Alg2Automaton {
    type State = Alg2State;

    fn init_state(&self) -> Alg2State {
        Alg2State::Idle
    }

    /// A crashed process reboots with no memory of its invocation — all
    /// of `Alg2State` (sweep cursors, ownership tallies) is private, so
    /// the reset is total.  Under `CrashMode::StaleClaims` the CAS
    /// claims it left behind stay claimed; whether survivors still
    /// assemble a majority depends on how much the ghost held, which is
    /// exactly what the `--crashes` sweep points measure.
    fn crash_state(&self) -> Alg2State {
        Alg2State::Idle
    }

    fn start_lock(&self, state: &mut Alg2State) {
        debug_assert_eq!(
            *state,
            Alg2State::Idle,
            "lock() while an invocation is pending"
        );
        *state = Alg2State::CasSweep { x: 0 };
    }

    fn start_unlock(&self, state: &mut Alg2State) {
        debug_assert_eq!(
            *state,
            Alg2State::Idle,
            "unlock() while an invocation is pending"
        );
        *state = Alg2State::UnlockSweep { x: 0 };
    }

    fn step<M: MemoryOps + ?Sized>(&self, state: &mut Alg2State, mem: &mut M) -> Outcome {
        match state {
            Alg2State::CasSweep { x } => {
                let x = *x;
                let _ = mem.compare_and_swap(x, Slot::BOTTOM, Slot::from(self.id)); // line 2
                if x + 1 < self.m {
                    *state = Alg2State::CasSweep { x: x + 1 };
                } else {
                    let mut collected = SPARE_COLLECT.take();
                    collected.reserve(self.m);
                    *state = Alg2State::ReadLoop { x: 0, collected };
                }
                Outcome::Progress
            }
            Alg2State::ReadLoop { x, collected } => {
                let v = mem.read(*x); // line 3
                collected.push(v);
                if *x + 1 < self.m {
                    *x += 1;
                    Outcome::Progress
                } else {
                    let mut view = std::mem::take(collected);
                    let outcome = self.decide(state, &view);
                    view.clear();
                    SPARE_COLLECT.set(view);
                    outcome
                }
            }
            Alg2State::Resign { targets, pos } => {
                let (targets, pos) = (*targets, *pos);
                mem.write(pos, Slot::BOTTOM); // line 7
                match next_index(targets, pos + 1) {
                    Some(next) => *state = Alg2State::Resign { targets, pos: next },
                    None => *state = Alg2State::WaitEmpty { x: 0, clean: true },
                }
                Outcome::Progress
            }
            Alg2State::WaitEmpty { x, clean } => {
                let (x, clean) = (*x, *clean);
                let pass_clean = clean && mem.read(x).is_bottom(); // line 9
                *state = if x + 1 < self.m {
                    Alg2State::WaitEmpty {
                        x: x + 1,
                        clean: pass_clean,
                    }
                } else if pass_clean {
                    // Line 10 satisfied: the outer loop resumes at line 2
                    // (owned < most_present ≤ m/2 forces another iteration).
                    Alg2State::CasSweep { x: 0 }
                } else {
                    Alg2State::WaitEmpty { x: 0, clean: true }
                };
                Outcome::Progress
            }
            Alg2State::UnlockSweep { x } => {
                let x = *x;
                let _ = mem.compare_and_swap(x, Slot::from(self.id), Slot::BOTTOM); // line 13
                if x + 1 < self.m {
                    *state = Alg2State::UnlockSweep { x: x + 1 };
                    Outcome::Progress
                } else {
                    *state = Alg2State::Idle;
                    Outcome::Released
                }
            }
            Alg2State::Idle => panic!("step without pending invocation"),
        }
    }

    fn pid(&self) -> Option<Pid> {
        Some(self.id)
    }

    fn symmetry_class(&self) -> Option<u64> {
        // Algorithm 2 has no policy knobs: any two processes over the
        // same memory size are identical up to their identity.
        Some(self.m as u64)
    }
}

impl LockAutomaton for Alg2Automaton {
    /// One releasing CAS per register: it erases exactly the registers
    /// this process still owns.
    fn withdraw<M: MemoryOps + ?Sized>(&self, mem: &mut M) {
        for x in 0..self.m {
            let _ = mem.compare_and_swap(x, Slot::from(self.id), Slot::BOTTOM);
        }
    }
}

impl EncodeState for Alg2State {
    fn encode_with(&self, pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        match self {
            Alg2State::Idle => encode::put_u8(0, out),
            Alg2State::CasSweep { x } => {
                encode::put_u8(1, out);
                encode::put_u8(*x as u8, out);
            }
            Alg2State::ReadLoop { x, collected } => {
                // The only alg state embedding identities: the partial
                // line-3 collect must be relabeled along with the
                // registers for symmetry reduction to stay consistent.
                encode::put_u8(2, out);
                encode::put_u8(*x as u8, out);
                encode::put_u8(collected.len() as u8, out);
                for &slot in collected {
                    encode::put_slot(slot, pids, out);
                }
            }
            Alg2State::Resign { targets, pos } => {
                encode::put_u8(3, out);
                encode::put_u64(*targets, out);
                encode::put_u8(*pos as u8, out);
            }
            Alg2State::WaitEmpty { x, clean } => {
                encode::put_u8(4, out);
                encode::put_u8(*x as u8, out);
                encode::put_u8(u8::from(*clean), out);
            }
            Alg2State::UnlockSweep { x } => {
                encode::put_u8(5, out);
                encode::put_u8(*x as u8, out);
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(match encode::take_u8(bytes)? {
            0 => Alg2State::Idle,
            1 => Alg2State::CasSweep {
                x: encode::take_u8(bytes)? as usize,
            },
            2 => {
                let x = encode::take_u8(bytes)? as usize;
                let len = encode::take_u8(bytes)? as usize;
                let mut collected = Vec::with_capacity(len);
                for _ in 0..len {
                    collected.push(encode::take_slot(bytes)?);
                }
                Alg2State::ReadLoop { x, collected }
            }
            3 => Alg2State::Resign {
                targets: encode::take_u64(bytes)?,
                pos: encode::take_u8(bytes)? as usize,
            },
            4 => Alg2State::WaitEmpty {
                x: encode::take_u8(bytes)? as usize,
                clean: match encode::take_u8(bytes)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            },
            5 => Alg2State::UnlockSweep {
                x: encode::take_u8(bytes)? as usize,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_ids::PidPool;
    use amx_registers::Adversary;
    use amx_sim::mem::{MemoryModel, SimMemory};

    fn setup(n: usize, m: usize) -> (Vec<Alg2Automaton>, Vec<Alg2State>, SimMemory) {
        let ids = PidPool::sequential().mint_many(n);
        let spec = MutexSpec::rmw_unchecked(n.max(1), m);
        let automata: Vec<Alg2Automaton> = ids
            .into_iter()
            .map(|id| Alg2Automaton::new(spec, id))
            .collect();
        let states = automata.iter().map(Automaton::init_state).collect();
        let mem = SimMemory::new(MemoryModel::Rmw, m, &Adversary::Identity, n).unwrap();
        (automata, states, mem)
    }

    fn drive_to_acquire(
        a: &Alg2Automaton,
        st: &mut Alg2State,
        mem: &mut SimMemory,
        i: usize,
        budget: usize,
    ) -> usize {
        for step in 1..=budget {
            if a.step(st, &mut mem.view(i)) == Outcome::Acquired {
                return step;
            }
        }
        panic!("did not acquire within {budget} steps");
    }

    #[test]
    fn solo_acquires_in_one_sweep_and_collect() {
        let (a, mut st, mut mem) = {
            let (mut a, mut s, m) = setup(1, 5);
            (a.remove(0), s.remove(0), m)
        };
        a.start_lock(&mut st);
        // m CAS steps + m read steps, acquiring on the last read.
        let steps = drive_to_acquire(&a, &mut st, &mut mem, 0, 20);
        assert_eq!(steps, 2 * 5);
        assert!(mem.slots().iter().all(|s| s.is_owned_by(a.id())));
    }

    #[test]
    fn solo_single_register_memory() {
        // The degenerate m = 1 configuration the RMW model permits.
        let (a, mut st, mut mem) = {
            let (mut a, mut s, m) = setup(1, 1);
            (a.remove(0), s.remove(0), m)
        };
        a.start_lock(&mut st);
        assert_eq!(drive_to_acquire(&a, &mut st, &mut mem, 0, 5), 2);
        a.start_unlock(&mut st);
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Released);
        assert!(mem.slots()[0].is_bottom());
    }

    #[test]
    fn unlock_erases_only_own_registers() {
        let (automata, mut states, mut mem) = setup(2, 3);
        let (a, b) = (&automata[0], &automata[1]);
        // a owns registers 0 and 1; b owns 2.
        mem.view(0).write(0, Slot::from(a.id()));
        mem.view(0).write(1, Slot::from(a.id()));
        mem.view(0).write(2, Slot::from(b.id()));
        states[0] = Alg2State::Idle;
        a.start_unlock(&mut states[0]);
        for _ in 0..3 {
            let _ = a.step(&mut states[0], &mut mem.view(0));
        }
        assert!(mem.slots()[0].is_bottom());
        assert!(mem.slots()[1].is_bottom());
        assert!(
            mem.slots()[2].is_owned_by(b.id()),
            "line 13 must not clobber others"
        );
    }

    #[test]
    fn minority_resigns_and_waits() {
        let (automata, mut states, mut mem) = setup(2, 5);
        let (a, b) = (&automata[0], &automata[1]);
        // Pre-claim: a on {0,1}, b on {2,3,4}; then let a run lock().
        for (x, id) in [
            (0, a.id()),
            (1, a.id()),
            (2, b.id()),
            (3, b.id()),
            (4, b.id()),
        ] {
            mem.view(0).write(x, Slot::from(id));
        }
        a.start_lock(&mut states[0]);
        // CAS sweep (all fail: nothing is ⊥) + read loop.
        for _ in 0..10 {
            assert_eq!(a.step(&mut states[0], &mut mem.view(0)), Outcome::Progress);
        }
        // owned(2) < most_present(3) → resign targets {0,1}.
        assert_eq!(
            states[0],
            Alg2State::Resign {
                targets: 0b00011,
                pos: 0
            }
        );
        // Two erase writes, then the wait loop.
        let _ = a.step(&mut states[0], &mut mem.view(0));
        let _ = a.step(&mut states[0], &mut mem.view(0));
        assert!(mem.slots()[0].is_bottom() && mem.slots()[1].is_bottom());
        assert_eq!(states[0], Alg2State::WaitEmpty { x: 0, clean: true });
        // b's registers are still claimed, so the wait pass is not clean
        // and a must keep waiting.
        for _ in 0..10 {
            let _ = a.step(&mut states[0], &mut mem.view(0));
        }
        assert!(matches!(states[0], Alg2State::WaitEmpty { .. }));
        // Release b's registers; the next full pass lets a re-enter the
        // competition.
        for x in 2..5 {
            mem.view(0).write(x, Slot::BOTTOM);
        }
        loop {
            let _ = a.step(&mut states[0], &mut mem.view(0));
            if states[0] == (Alg2State::CasSweep { x: 0 }) {
                break;
            }
            assert!(matches!(states[0], Alg2State::WaitEmpty { .. }));
        }
    }

    #[test]
    fn majority_enters_despite_minority_presence() {
        let (automata, mut states, mut mem) = setup(2, 5);
        let (a, b) = (&automata[0], &automata[1]);
        // a on {0,1,2} (majority), b on {3}.
        for (x, id) in [(0, a.id()), (1, a.id()), (2, a.id()), (3, b.id())] {
            mem.view(0).write(x, Slot::from(id));
        }
        a.start_lock(&mut states[0]);
        // CAS sweep claims 4 as well → a owns 4 of 5.
        let steps = drive_to_acquire(a, &mut states[0], &mut mem, 0, 20);
        assert_eq!(steps, 2 * 5);
        assert_eq!(
            mem.slots().iter().filter(|s| s.is_owned_by(a.id())).count(),
            4
        );
    }

    #[test]
    fn exact_majority_boundary() {
        // owned = ⌈m/2⌉ on even m would NOT be a majority… but valid specs
        // never have even m; test the arithmetic anyway via unchecked m=4:
        // owned=2 is not > 4/2, so the process must keep competing.
        let mut pool = PidPool::sequential();
        let (me, other) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rmw_unchecked(2, 4);
        let a = Alg2Automaton::new(spec, me);
        let collected = vec![
            Slot::from(me),
            Slot::from(me),
            Slot::from(other),
            Slot::from(other),
        ];
        let mut st = Alg2State::Idle;
        assert_eq!(a.decide(&mut st, &collected), Outcome::Progress);
        assert_eq!(
            st,
            Alg2State::CasSweep { x: 0 },
            "tie: retry, neither resign nor enter"
        );
    }

    #[test]
    fn resign_with_nothing_owned_skips_to_wait() {
        let mut pool = PidPool::sequential();
        let (me, other) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rmw_unchecked(2, 3);
        let a = Alg2Automaton::new(spec, me);
        let collected = vec![Slot::from(other), Slot::from(other), Slot::from(other)];
        let mut st = Alg2State::Idle;
        assert_eq!(a.decide(&mut st, &collected), Outcome::Progress);
        assert_eq!(st, Alg2State::WaitEmpty { x: 0, clean: true });
    }

    #[test]
    fn invalid_even_split_loops_without_resigning() {
        // m = 2, both own 1: owned = most_present, owned ≤ m/2 — the
        // decide step must neither resign nor enter, just retry.
        let mut pool = PidPool::sequential();
        let (p, q) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rmw_unchecked(2, 2);
        let a = Alg2Automaton::new(spec, p);
        let collected = vec![Slot::from(p), Slot::from(q)];
        let mut st = Alg2State::Idle;
        assert_eq!(a.decide(&mut st, &collected), Outcome::Progress);
        assert_eq!(st, Alg2State::CasSweep { x: 0 });
    }

    #[test]
    fn wait_empty_restarts_on_dirty_pass_and_exits_on_clean() {
        let (automata, _, mut mem) = setup(2, 3);
        let a = &automata[0];
        let b_id = automata[1].id();
        // One register still claimed by b: the pass ends dirty.
        mem.view(0).write(2, Slot::from(b_id));
        let mut st = Alg2State::WaitEmpty { x: 0, clean: true };
        for _ in 0..3 {
            let _ = a.step(&mut st, &mut mem.view(0));
        }
        assert_eq!(
            st,
            Alg2State::WaitEmpty { x: 0, clean: true },
            "dirty pass restarts"
        );
        // Clear it: the next full pass is clean and re-enters the sweep.
        mem.view(0).write(2, Slot::BOTTOM);
        for _ in 0..3 {
            let _ = a.step(&mut st, &mut mem.view(0));
        }
        assert_eq!(st, Alg2State::CasSweep { x: 0 });
    }

    #[test]
    fn wait_empty_is_not_fooled_by_late_bottoms() {
        // Register 0 is dirty at the start of the pass; even if it is
        // cleared before the pass ends, the pass already failed — line 10
        // requires one *consistent* all-⊥ scan... but a scan that read ⊥
        // everywhere IS clean even if values changed afterwards.  Check
        // the precise semantics: dirt seen at x = 0 poisons the pass.
        let (automata, _, mut mem) = setup(2, 3);
        let a = &automata[0];
        let b_id = automata[1].id();
        mem.view(0).write(0, Slot::from(b_id));
        let mut st = Alg2State::WaitEmpty { x: 0, clean: true };
        let _ = a.step(&mut st, &mut mem.view(0)); // reads dirty register 0
        mem.view(0).write(0, Slot::BOTTOM); // too late for this pass
        let _ = a.step(&mut st, &mut mem.view(0));
        let _ = a.step(&mut st, &mut mem.view(0));
        assert_eq!(
            st,
            Alg2State::WaitEmpty { x: 0, clean: true },
            "poisoned pass restarts"
        );
    }

    #[test]
    #[should_panic(expected = "RMW registers")]
    fn rw_spec_is_rejected() {
        let id = PidPool::sequential().mint();
        let _ = Alg2Automaton::new(MutexSpec::rw_unchecked(2, 3), id);
    }

    #[test]
    #[should_panic(expected = "step without pending invocation")]
    fn stepping_idle_panics() {
        let (mut automata, mut states, mut mem) = setup(1, 3);
        let a = automata.remove(0);
        let _ = a.step(&mut states[0], &mut mem.view(0));
    }
}
