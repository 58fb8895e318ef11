//! Algorithm 1: symmetric deadlock-free mutex over anonymous RW registers.
//!
//! Faithful step-machine rendering of Figure 1 of the paper.  Line map:
//!
//! ```text
//! lock():
//!   (3)  repeat
//!   (4)    repeat view ← R.snapshot()
//!          until owned() > 0 ∨ ∀x view[x] = ⊥          — [`Alg1State::Snap`]
//!   (5)    if ∃x view[x] = ⊥
//!   (6)      then R.write(x, id)                        — [`Alg1State::WriteFree`]
//!   (7,8)    else cnt ← |{view[1..m]}|
//!   (9)           if owned() < m/cnt then shrink()      — [`Alg1State::ShrinkRead`]/[`ShrinkWrite`]
//!   (11) until ∀x view[x] = id                          — `Acquired` at the snapshot
//!
//! unlock():
//!   (12) shrink()                                       — same shrink states, `unlocking = true`
//!
//! shrink():
//!   (2)  for each x with view[x] = id:
//!          if R.read(x) = id then R.write(x, ⊥)
//! ```
//!
//! The withdrawal test `owned() < m/cnt` is evaluated exactly (as the
//! rational comparison `owned · cnt < m`), because the entire tie-breaking
//! argument rests on `gcd(cnt, m) = 1`: on a full view the `cnt`
//! competitors' ownership counts sum to `m`, so they cannot all equal
//! `m/cnt` — someone is strictly below average and withdraws.
//!
//! One [`crate::FreeSlotPolicy`] decision is left open by the paper (which
//! free register to write); it is explicit configuration here.

use std::cell::RefCell;

use amx_ids::codec::{PidMap, RegMap};
use amx_ids::{view, Pid, Slot};
use amx_sim::automaton::{Automaton, Outcome};
use amx_sim::encode::{self, EncodeState};
use amx_sim::mem::MemoryOps;

use crate::bits::{next_index, owned_mask};
use crate::lock::LockAutomaton;
use crate::policy::FreeSlotPolicy;
use crate::spec::{Model, MutexSpec};

thread_local! {
    /// Reusable snapshot buffer for the line-4 hot loop (one snapshot per
    /// `Snap` step) and the threaded withdraw: zero allocations after
    /// warm-up.  Thread-local (rather than per-automaton) so automata
    /// stay `Sync` for the parallel model-checker frontier.
    static SNAP_SCRATCH: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

/// Algorithm 1, instantiated for one process.
///
/// Implements [`Automaton`]; drive it with `amx-sim` or through the
/// threaded wrapper [`crate::threaded::RwAnonLock`].
#[derive(Debug, Clone)]
pub struct Alg1Automaton {
    id: Pid,
    m: usize,
    policy: FreeSlotPolicy,
}

impl Alg1Automaton {
    /// Creates the automaton for process `id` under `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not an RW-model spec.  (Invalid `(n, m)` pairs
    /// are deliberately allowed — see [`MutexSpec::rw_unchecked`] — so the
    /// lower-bound experiments can run the algorithm outside its
    /// correctness envelope.)
    #[must_use]
    pub fn new(spec: MutexSpec, id: Pid) -> Self {
        assert_eq!(spec.model(), Model::Rw, "Algorithm 1 runs on RW registers");
        Alg1Automaton {
            id,
            m: spec.m(),
            policy: FreeSlotPolicy::FirstFree,
        }
    }

    /// Sets the free-register choice policy (default first-free).
    #[must_use]
    pub fn with_policy(mut self, policy: FreeSlotPolicy) -> Self {
        self.policy = policy;
        self
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

    /// Handles a completed shrink during `lock()` (return to the outer
    /// loop) or `unlock()` (the operation is finished).
    fn shrink_done(&self, state: &mut Alg1State, unlocking: bool) -> Outcome {
        if unlocking {
            *state = Alg1State::Idle;
            Outcome::Released
        } else {
            *state = Alg1State::Snap;
            Outcome::Progress
        }
    }

    /// Advances the shrink cursor past `pos`; either moves to the read of
    /// the next target or finishes the shrink.
    fn shrink_advance(
        &self,
        state: &mut Alg1State,
        targets: u64,
        pos: usize,
        unlocking: bool,
    ) -> Outcome {
        match next_index(targets, pos + 1) {
            Some(next) => {
                *state = Alg1State::ShrinkRead {
                    targets,
                    pos: next,
                    unlocking,
                };
                Outcome::Progress
            }
            None => self.shrink_done(state, unlocking),
        }
    }
}

/// Execution state of [`Alg1Automaton`] — the program counter plus the
/// bounded data the next step needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alg1State {
    /// No pending invocation (remainder or critical section).
    Idle,
    /// About to take the line-4 snapshot.
    Snap,
    /// About to execute line 6: write own id into free local index `x`.
    WriteFree {
        /// The free index chosen by the policy from the latest view.
        x: usize,
    },
    /// Inside `shrink()`: about to read local index `pos`.
    ShrinkRead {
        /// Bitmask of local indices owned in the view that started the shrink.
        targets: u64,
        /// Current cursor (a set bit of `targets`).
        pos: usize,
        /// `true` when this shrink is the body of `unlock()`.
        unlocking: bool,
    },
    /// Inside `shrink()`: the read at `pos` returned own id; about to
    /// overwrite it with ⊥.
    ShrinkWrite {
        /// Bitmask of local indices owned in the view that started the shrink.
        targets: u64,
        /// Current cursor (a set bit of `targets`).
        pos: usize,
        /// `true` when this shrink is the body of `unlock()`.
        unlocking: bool,
    },
}

impl Automaton for Alg1Automaton {
    type State = Alg1State;

    fn init_state(&self) -> Alg1State {
        Alg1State::Idle
    }

    /// A crashed process reboots with no memory of its invocation: all
    /// of `Alg1State` (snapshot view, write cursor, shrink position) is
    /// private, so the reset is total.  Note the asymmetry the model
    /// checker finds: under `CrashMode::StaleClaims` the registers this
    /// process claimed stay claimed forever, and Algorithm 1's averaging
    /// argument counts the ghost as a competitor that never withdraws —
    /// deadlock-freedom does *not* survive stale crashes here.
    fn crash_state(&self) -> Alg1State {
        Alg1State::Idle
    }

    fn start_lock(&self, state: &mut Alg1State) {
        debug_assert_eq!(
            *state,
            Alg1State::Idle,
            "lock() while an invocation is pending"
        );
        *state = Alg1State::Snap;
    }

    fn start_unlock(&self, state: &mut Alg1State) {
        debug_assert_eq!(
            *state,
            Alg1State::Idle,
            "unlock() while an invocation is pending"
        );
        // unlock() = shrink() over the view that admitted us to the CS,
        // which was all-own: every local index is a target.
        let full = if self.m == 64 {
            u64::MAX
        } else {
            (1u64 << self.m) - 1
        };
        *state = Alg1State::ShrinkRead {
            targets: full,
            pos: 0,
            unlocking: true,
        };
    }

    fn step<M: MemoryOps + ?Sized>(&self, state: &mut Alg1State, mem: &mut M) -> Outcome {
        match *state {
            Alg1State::Snap => SNAP_SCRATCH.with(|buf| {
                let mut snap = buf.borrow_mut();
                mem.snapshot_into(&mut snap); // line 4
                let owned = view::owned_count(&snap, self.id);
                if owned == self.m {
                    // Until-condition of line 11 — the CS is entered at the
                    // linearization point of this snapshot.
                    *state = Alg1State::Idle;
                    return Outcome::Acquired;
                }
                if owned == 0 && !view::is_empty(&snap) {
                    // Inner loop (line 4) keeps spinning.
                    return Outcome::Progress;
                }
                if let Some(x) = self.policy.choose(&snap) {
                    // Line 5 true: compete for a free register.
                    *state = Alg1State::WriteFree { x };
                } else {
                    // Full view: withdrawal test of lines 8-9, evaluated as
                    // the exact rational comparison owned < m/cnt.
                    let cnt = view::distinct_competitors(&snap);
                    if owned * cnt < self.m {
                        let targets = owned_mask(&snap, self.id);
                        debug_assert!(targets != 0, "full view with owned ≥ 1");
                        let pos = next_index(targets, 0).expect("nonempty targets");
                        *state = Alg1State::ShrinkRead {
                            targets,
                            pos,
                            unlocking: false,
                        };
                    }
                    // Otherwise stay on Snap: re-enter the outer loop.
                }
                Outcome::Progress
            }),
            Alg1State::WriteFree { x } => {
                mem.write(x, Slot::from(self.id)); // line 6
                *state = Alg1State::Snap;
                Outcome::Progress
            }
            Alg1State::ShrinkRead {
                targets,
                pos,
                unlocking,
            } => {
                if mem.read(pos).is_owned_by(self.id) {
                    // line 2: still ours — erase it next step.
                    *state = Alg1State::ShrinkWrite {
                        targets,
                        pos,
                        unlocking,
                    };
                    Outcome::Progress
                } else {
                    self.shrink_advance(state, targets, pos, unlocking)
                }
            }
            Alg1State::ShrinkWrite {
                targets,
                pos,
                unlocking,
            } => {
                mem.write(pos, Slot::BOTTOM);
                self.shrink_advance(state, targets, pos, unlocking)
            }
            Alg1State::Idle => panic!("step without pending invocation"),
        }
    }

    fn pid(&self) -> Option<Pid> {
        Some(self.id)
    }

    fn symmetry_class(&self) -> Option<u64> {
        // Interchangeable iff the configuration (m, policy) matches — the
        // identity itself is erased, which is the whole point.
        let policy_token = match self.policy {
            FreeSlotPolicy::FirstFree => 0u64,
            FreeSlotPolicy::LastFree => 1,
            FreeSlotPolicy::RotatingFrom(k) => 2 + k as u64,
        };
        Some((self.m as u64) << 32 | policy_token)
    }
}

impl LockAutomaton for Alg1Automaton {
    /// Snapshots (into the line-4 buffer), then erases, as `shrink()`
    /// does, each register the snapshot shows this process owning once a
    /// read confirms it is still its own.  One pass suffices: no other
    /// process ever writes this identity, so an owned register stays
    /// owned until this process clears it.
    fn withdraw<M: MemoryOps + ?Sized>(&self, mem: &mut M) {
        let owned = SNAP_SCRATCH.with(|buf| {
            let mut snap = buf.borrow_mut();
            mem.snapshot_into(&mut snap);
            owned_mask(&snap, self.id)
        });
        let mut next = next_index(owned, 0);
        while let Some(x) = next {
            if mem.read(x).is_owned_by(self.id) {
                mem.write(x, Slot::BOTTOM);
            }
            next = next_index(owned, x + 1);
        }
    }

    fn set_policy(&mut self, policy: FreeSlotPolicy) {
        self.policy = policy;
    }
}

impl EncodeState for Alg1State {
    fn encode_with(&self, _pids: &PidMap, _regs: &RegMap, out: &mut Vec<u8>) {
        // No identities are embedded (ownership lives in the registers),
        // and the cursor/bitmask fields are *local* register names —
        // invariant under the wreath action, which relabels only the
        // physical array — so both relabeling hooks are no-ops.
        match *self {
            Alg1State::Idle => encode::put_u8(0, out),
            Alg1State::Snap => encode::put_u8(1, out),
            Alg1State::WriteFree { x } => {
                encode::put_u8(2, out);
                encode::put_u8(x as u8, out);
            }
            Alg1State::ShrinkRead {
                targets,
                pos,
                unlocking,
            } => {
                encode::put_u8(3, out);
                encode::put_u64(targets, out);
                encode::put_u8(pos as u8, out);
                encode::put_u8(u8::from(unlocking), out);
            }
            Alg1State::ShrinkWrite {
                targets,
                pos,
                unlocking,
            } => {
                encode::put_u8(4, out);
                encode::put_u64(targets, out);
                encode::put_u8(pos as u8, out);
                encode::put_u8(u8::from(unlocking), out);
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(match encode::take_u8(bytes)? {
            0 => Alg1State::Idle,
            1 => Alg1State::Snap,
            2 => Alg1State::WriteFree {
                x: encode::take_u8(bytes)? as usize,
            },
            tag @ (3 | 4) => {
                let targets = encode::take_u64(bytes)?;
                let pos = encode::take_u8(bytes)? as usize;
                let unlocking = match encode::take_u8(bytes)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                if tag == 3 {
                    Alg1State::ShrinkRead {
                        targets,
                        pos,
                        unlocking,
                    }
                } else {
                    Alg1State::ShrinkWrite {
                        targets,
                        pos,
                        unlocking,
                    }
                }
            }
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

    fn solo_setup(m: usize) -> (Alg1Automaton, Alg1State, SimMemory) {
        let id = PidPool::sequential().mint();
        let spec = MutexSpec::rw_unchecked(1, m);
        let a = Alg1Automaton::new(spec, id);
        let st = a.init_state();
        let mem = SimMemory::new(MemoryModel::Rw, m, &Adversary::Identity, 1).unwrap();
        (a, st, mem)
    }

    /// Drives a solo automaton until it acquires; returns steps taken.
    fn drive_to_acquire(
        a: &Alg1Automaton,
        st: &mut Alg1State,
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
    fn solo_process_acquires_after_filling_memory() {
        let (a, mut st, mut mem) = solo_setup(3);
        a.start_lock(&mut st);
        // Pattern: snap, write, snap, write, snap, write, snap(acquire) = 7.
        let steps = drive_to_acquire(&a, &mut st, &mut mem, 0, 20);
        assert_eq!(steps, 2 * 3 + 1);
        assert!(mem.slots().iter().all(|s| s.is_owned_by(a.id())));
    }

    #[test]
    fn solo_unlock_erases_everything() {
        let (a, mut st, mut mem) = solo_setup(3);
        a.start_lock(&mut st);
        drive_to_acquire(&a, &mut st, &mut mem, 0, 20);
        a.start_unlock(&mut st);
        let mut released = false;
        for _ in 0..10 {
            if a.step(&mut st, &mut mem.view(0)) == Outcome::Released {
                released = true;
                break;
            }
        }
        assert!(released, "unlock is wait-free and must finish");
        assert!(mem.slots().iter().all(|s| s.is_bottom()));
        assert_eq!(st, Alg1State::Idle);
    }

    #[test]
    fn unlock_takes_exactly_read_write_per_register() {
        // Claim 2: shrink terminates in ≤ m (read + write) steps.
        let (a, mut st, mut mem) = solo_setup(5);
        a.start_lock(&mut st);
        drive_to_acquire(&a, &mut st, &mut mem, 0, 30);
        a.start_unlock(&mut st);
        let mut steps = 0;
        loop {
            steps += 1;
            if a.step(&mut st, &mut mem.view(0)) == Outcome::Released {
                break;
            }
        }
        assert_eq!(steps, 2 * 5, "read+write per owned register");
    }

    #[test]
    fn waiting_process_spins_without_writing() {
        // A process that owns nothing and sees a non-empty view must keep
        // snapshotting (line 4 inner loop) without writing.
        let mut pool = PidPool::sequential();
        let (winner, waiter) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rw_unchecked(2, 3);
        let wa = Alg1Automaton::new(spec, winner);
        let wb = Alg1Automaton::new(spec, waiter);
        let mut sa = wa.init_state();
        let mut sb = wb.init_state();
        let mut mem = SimMemory::new(MemoryModel::Rw, 3, &Adversary::Identity, 2).unwrap();
        wa.start_lock(&mut sa);
        drive_to_acquire(&wa, &mut sa, &mut mem, 0, 20);
        wb.start_lock(&mut sb);
        let before = mem.slots().to_vec();
        for _ in 0..10 {
            assert_eq!(wb.step(&mut sb, &mut mem.view(1)), Outcome::Progress);
            assert_eq!(sb, Alg1State::Snap, "waiter must stay in the inner loop");
        }
        assert_eq!(mem.slots(), &before[..], "waiter must not write");
    }

    #[test]
    fn shrink_skips_registers_lost_to_overwrites() {
        // If a register the process owned in its view has since been
        // overwritten, shrink must read it, see a foreign value, and NOT
        // write ⊥ (that would erase someone else's claim).
        let mut pool = PidPool::sequential();
        let (me, other) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rw_unchecked(2, 3);
        let a = Alg1Automaton::new(spec, me);
        let mut st = Alg1State::ShrinkRead {
            targets: 0b011,
            pos: 0,
            unlocking: false,
        };
        let mut mem = SimMemory::new(MemoryModel::Rw, 3, &Adversary::Identity, 2).unwrap();
        mem.view(0).write(0, Slot::from(other)); // lost to `other`
        mem.view(0).write(1, Slot::from(me)); // still ours
                                              // Read index 0: foreign → advance without writing.
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Progress);
        assert_eq!(
            st,
            Alg1State::ShrinkRead {
                targets: 0b011,
                pos: 1,
                unlocking: false
            }
        );
        assert!(mem.slots()[0].is_owned_by(other), "foreign claim untouched");
        // Read index 1: ours → write ⊥, then shrink completes.
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Progress);
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Progress);
        assert!(mem.slots()[1].is_bottom());
        assert_eq!(st, Alg1State::Snap);
    }

    #[test]
    fn withdrawal_test_is_exact_rational_comparison() {
        // m = 5, cnt = 2: average is 2.5, so owning 2 withdraws and owning
        // 3 does not.  Integer division (2 < 5/2 == 2 → false) would get
        // the first case wrong.
        let mut pool = PidPool::sequential();
        let (me, other) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rw_unchecked(2, 5);
        let a = Alg1Automaton::new(spec, me);
        let mut mem = SimMemory::new(MemoryModel::Rw, 5, &Adversary::Identity, 2).unwrap();
        // Full view: me on {0,1}, other on {2,3,4}.
        for (x, owner) in [(0, me), (1, me), (2, other), (3, other), (4, other)] {
            mem.view(0).write(x, Slot::from(owner));
        }
        let mut st = Alg1State::Snap;
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Progress);
        assert!(
            matches!(
                st,
                Alg1State::ShrinkRead {
                    targets: 0b00011,
                    unlocking: false,
                    ..
                }
            ),
            "owning 2 < 5/2 must trigger shrink, got {st:?}"
        );
        // Majority owner stays in the competition.
        let b = Alg1Automaton::new(spec, other);
        let mut st = Alg1State::Snap;
        assert_eq!(b.step(&mut st, &mut mem.view(1)), Outcome::Progress);
        assert_eq!(st, Alg1State::Snap, "owning 3 ≥ 5/2 keeps competing");
    }

    #[test]
    fn policy_controls_write_target() {
        let id = PidPool::sequential().mint();
        let spec = MutexSpec::rw_unchecked(1, 4);
        for (policy, expect) in [
            (FreeSlotPolicy::FirstFree, 0usize),
            (FreeSlotPolicy::LastFree, 3),
            (FreeSlotPolicy::RotatingFrom(2), 2),
        ] {
            let a = Alg1Automaton::new(spec, id).with_policy(policy);
            let mut st = a.init_state();
            let mut mem = SimMemory::new(MemoryModel::Rw, 4, &Adversary::Identity, 1).unwrap();
            a.start_lock(&mut st);
            let _ = a.step(&mut st, &mut mem.view(0)); // snapshot
            assert_eq!(st, Alg1State::WriteFree { x: expect }, "policy {policy:?}");
        }
    }

    #[test]
    fn acquired_exactly_at_all_own_snapshot() {
        let (a, mut st, mut mem) = solo_setup(3);
        // Pre-fill the memory as if the process had won everything.
        for x in 0..3 {
            mem.view(0).write(x, Slot::from(a.id()));
        }
        a.start_lock(&mut st);
        assert_eq!(a.step(&mut st, &mut mem.view(0)), Outcome::Acquired);
        assert_eq!(st, Alg1State::Idle);
    }

    #[test]
    fn invalid_even_split_nobody_withdraws() {
        // The tie the coprimality condition exists to forbid: m = 2,
        // cnt = 2, both own exactly the average — neither may shrink,
        // so both stay on Snap forever (the livelock Theorem 5 predicts).
        let mut pool = PidPool::sequential();
        let (p, q) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rw_unchecked(2, 2);
        let (a, b) = (Alg1Automaton::new(spec, p), Alg1Automaton::new(spec, q));
        let mut mem = SimMemory::new(MemoryModel::Rw, 2, &Adversary::Identity, 2).unwrap();
        mem.view(0).write(0, Slot::from(p));
        mem.view(0).write(1, Slot::from(q));
        let (mut sa, mut sb) = (Alg1State::Snap, Alg1State::Snap);
        for _ in 0..5 {
            assert_eq!(a.step(&mut sa, &mut mem.view(0)), Outcome::Progress);
            assert_eq!(b.step(&mut sb, &mut mem.view(1)), Outcome::Progress);
            assert_eq!(sa, Alg1State::Snap);
            assert_eq!(sb, Alg1State::Snap);
        }
        assert!(mem.slots()[0].is_owned_by(p), "split is frozen");
        assert!(mem.slots()[1].is_owned_by(q));
    }

    #[test]
    fn unlock_shrink_skips_registers_overwritten_during_cs() {
        // While the holder sits in its CS another process may overwrite
        // one of its registers from a stale view; the unlock shrink must
        // read-check and leave the foreign claim alone.
        let mut pool = PidPool::sequential();
        let (holder, intruder) = (pool.mint(), pool.mint());
        let spec = MutexSpec::rw_unchecked(2, 3);
        let a = Alg1Automaton::new(spec, holder);
        let mut mem = SimMemory::new(MemoryModel::Rw, 3, &Adversary::Identity, 2).unwrap();
        for x in 0..3 {
            mem.view(0).write(x, Slot::from(holder));
        }
        // Intruder overwrites register 1 (stale free-slot write).
        mem.view(1).write(1, Slot::from(intruder));
        let mut st = Alg1State::Idle;
        a.start_unlock(&mut st);
        let mut released = false;
        for _ in 0..10 {
            if a.step(&mut st, &mut mem.view(0)) == Outcome::Released {
                released = true;
                break;
            }
        }
        assert!(released);
        assert!(mem.slots()[0].is_bottom());
        assert!(
            mem.slots()[1].is_owned_by(intruder),
            "foreign claim preserved"
        );
        assert!(mem.slots()[2].is_bottom());
    }

    #[test]
    #[should_panic(expected = "step without pending invocation")]
    fn stepping_idle_panics() {
        let (a, mut st, mut mem) = solo_setup(3);
        let _ = a.step(&mut st, &mut mem.view(0));
    }

    #[test]
    #[should_panic(expected = "RW registers")]
    fn rmw_spec_is_rejected() {
        let id = PidPool::sequential().mint();
        let _ = Alg1Automaton::new(MutexSpec::rmw_unchecked(2, 3), id);
    }
}
