//! Runtime policies: Algorithm 1's free-register choice and the threaded
//! runtime's contention backoff.
//!
//! Line 6 of Algorithm 1 writes the process identity into *some* register
//! whose entry was ⊥ in the latest snapshot — the paper leaves the choice
//! free, so correctness must not depend on it.  Making the policy explicit
//! lets tests and the model checker explore adversarial choices, and it
//! keeps automaton state deterministic (a requirement for state hashing).
//!
//! [`Backoff`] is the analogous knob for the threaded lock runtime: none
//! of the paper's progress arguments depend on *how* a competing process
//! waits between protocol steps, so the spin/yield/park ladder is a
//! pluggable policy on [`Participant`](crate::lock::Participant) rather
//! than a hard-coded loop.

use std::time::Duration;

use amx_ids::Slot;

/// Deterministic rule choosing a ⊥ entry from a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FreeSlotPolicy {
    /// Lowest free local index (the natural loop order).
    #[default]
    FirstFree,
    /// Highest free local index.
    LastFree,
    /// First free local index at or after `start` (cyclically) — lets
    /// experiments spread processes across the array or align them
    /// adversarially.
    RotatingFrom(
        /// Scan start offset.
        usize,
    ),
}

impl FreeSlotPolicy {
    /// Picks a free index from `view`, or `None` when the view is full.
    ///
    /// # Example
    ///
    /// ```
    /// use amx_core::policy::FreeSlotPolicy;
    /// use amx_ids::{PidPool, Slot};
    ///
    /// let id = PidPool::sequential().mint();
    /// let view = [Slot::from(id), Slot::BOTTOM, Slot::BOTTOM];
    /// assert_eq!(FreeSlotPolicy::FirstFree.choose(&view), Some(1));
    /// assert_eq!(FreeSlotPolicy::LastFree.choose(&view), Some(2));
    /// assert_eq!(FreeSlotPolicy::RotatingFrom(2).choose(&view), Some(2));
    /// ```
    #[must_use]
    pub fn choose(&self, view: &[Slot]) -> Option<usize> {
        let m = view.len();
        match *self {
            FreeSlotPolicy::FirstFree => view.iter().position(|s| s.is_bottom()),
            FreeSlotPolicy::LastFree => view.iter().rposition(|s| s.is_bottom()),
            FreeSlotPolicy::RotatingFrom(start) => (0..m)
                .map(|k| (start + k) % m)
                .find(|&x| view[x].is_bottom()),
        }
    }
}

/// Contention backoff ladder for the threaded lock runtime.
///
/// Every acquisition loop in [`Participant`](crate::lock::Participant)
/// calls [`wait`](Backoff::wait) with a monotonically increasing attempt
/// counter between bounded protocol slices; the policy decides how far up
/// the spin → yield → park ladder that attempt climbs.  The choice is
/// pure waiting strategy — it cannot affect safety or deadlock-freedom,
/// only latency and CPU burn under contention, which is exactly why it is
/// a pluggable policy and a `lock_bench` axis rather than a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backoff {
    /// Pure busy-wait with the CPU relax hint: lowest handoff latency,
    /// burns a hardware thread per waiter.
    Spin,
    /// Spin briefly, then donate the scheduler slice.  The default — it
    /// matches the pre-policy runtime's behaviour under oversubscription
    /// without giving up the fast uncontended path.
    #[default]
    SpinYield,
    /// Spin, then yield, then park the thread for exponentially growing
    /// slices (capped at [`Backoff::PARK_CAP`]).  The kindest policy when
    /// waiters outnumber cores; parking is bounded, so a missed wakeup
    /// costs at most one cap interval — no unlock-side notification is
    /// needed, which matters because anonymous registers give the
    /// releasing process nobody to address.
    SpinYieldPark,
}

impl Backoff {
    /// Attempts served by a bare spin hint before the ladder escalates.
    const SPIN_ATTEMPTS: u32 = 8;

    /// Attempts (beyond the spin band) served by `yield_now` before
    /// [`Backoff::SpinYieldPark`] starts parking.
    const YIELD_ATTEMPTS: u32 = 24;

    /// Upper bound on a single park interval.
    pub const PARK_CAP: Duration = Duration::from_millis(1);

    /// Waits according to this policy for the given 0-based `attempt`.
    ///
    /// [`Participant::lock`](crate::lock::Participant::lock) and
    /// [`try_lock_for`](crate::lock::Participant::try_lock_for) count
    /// `attempt` from 0 per call, one per failed protocol slice, and
    /// never reset it within the call: the ladder is monotone in
    /// `attempt`, so a long wait climbs it and the next acquisition
    /// starts again in the low-latency bands.
    pub fn wait(self, attempt: u32) {
        match self {
            Backoff::Spin => std::hint::spin_loop(),
            Backoff::SpinYield => {
                if attempt < Self::SPIN_ATTEMPTS {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            Backoff::SpinYieldPark => {
                if attempt < Self::SPIN_ATTEMPTS {
                    std::hint::spin_loop();
                } else if attempt < Self::SPIN_ATTEMPTS + Self::YIELD_ATTEMPTS {
                    std::thread::yield_now();
                } else {
                    let exp = (attempt - Self::SPIN_ATTEMPTS - Self::YIELD_ATTEMPTS).min(10);
                    let slice = Duration::from_micros(1u64 << exp).min(Self::PARK_CAP);
                    std::thread::park_timeout(slice);
                }
            }
        }
    }

    /// Short machine-readable name, used as the bench-report key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backoff::Spin => "spin",
            Backoff::SpinYield => "spin-yield",
            Backoff::SpinYieldPark => "spin-yield-park",
        }
    }

    /// Every policy, in escalation order — the `lock_bench` axis.
    #[must_use]
    pub fn all() -> [Backoff; 3] {
        [Backoff::Spin, Backoff::SpinYield, Backoff::SpinYieldPark]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_ids::PidPool;

    #[test]
    fn full_view_yields_none() {
        let id = PidPool::sequential().mint();
        let view = [Slot::from(id); 4];
        for p in [
            FreeSlotPolicy::FirstFree,
            FreeSlotPolicy::LastFree,
            FreeSlotPolicy::RotatingFrom(3),
        ] {
            assert_eq!(p.choose(&view), None);
        }
    }

    #[test]
    fn empty_view_respects_policy() {
        let view = [Slot::BOTTOM; 5];
        assert_eq!(FreeSlotPolicy::FirstFree.choose(&view), Some(0));
        assert_eq!(FreeSlotPolicy::LastFree.choose(&view), Some(4));
        assert_eq!(FreeSlotPolicy::RotatingFrom(3).choose(&view), Some(3));
        assert_eq!(FreeSlotPolicy::RotatingFrom(7).choose(&view), Some(2)); // 7 mod 5
    }

    #[test]
    fn rotating_wraps_past_owned_entries() {
        let id = PidPool::sequential().mint();
        let view = [Slot::BOTTOM, Slot::from(id), Slot::from(id), Slot::from(id)];
        assert_eq!(FreeSlotPolicy::RotatingFrom(1).choose(&view), Some(0));
    }

    #[test]
    fn all_policies_return_a_bottom_index() {
        let id = PidPool::sequential().mint();
        let view = [
            Slot::from(id),
            Slot::BOTTOM,
            Slot::from(id),
            Slot::BOTTOM,
            Slot::from(id),
        ];
        for p in [
            FreeSlotPolicy::FirstFree,
            FreeSlotPolicy::LastFree,
            FreeSlotPolicy::RotatingFrom(0),
            FreeSlotPolicy::RotatingFrom(2),
            FreeSlotPolicy::RotatingFrom(4),
        ] {
            let x = p.choose(&view).unwrap();
            assert!(view[x].is_bottom(), "{p:?} chose occupied slot {x}");
        }
    }

    #[test]
    fn default_is_first_free() {
        assert_eq!(FreeSlotPolicy::default(), FreeSlotPolicy::FirstFree);
    }

    #[test]
    fn backoff_names_are_distinct_and_default_is_spin_yield() {
        let names: Vec<_> = Backoff::all().iter().map(|b| b.name()).collect();
        assert_eq!(names, ["spin", "spin-yield", "spin-yield-park"]);
        assert_eq!(Backoff::default(), Backoff::SpinYield);
    }

    #[test]
    fn backoff_park_interval_is_capped() {
        // Deep into the park band the wait must stay bounded by the cap
        // (plus scheduler noise) — an unbounded doze would turn a missed
        // wakeup into a stall.
        let start = std::time::Instant::now();
        Backoff::SpinYieldPark.wait(u32::MAX);
        assert!(
            start.elapsed() < Backoff::PARK_CAP + Duration::from_millis(400),
            "park interval must be capped"
        );
    }

    #[test]
    fn every_backoff_policy_returns_promptly_in_the_spin_band() {
        for b in Backoff::all() {
            for attempt in 0..4 {
                b.wait(attempt); // must not block
            }
        }
    }
}
