//! Deterministic fault injection for the out-of-core engine.
//!
//! A [`FaultPlan`] arms a small set of *fault points* — the N-th spill
//! write, the N-th spill read, the N-th checkpoint write, a torn
//! checkpoint rename — with deterministic one-shot counters.  The plan
//! is shared (via [`Arc`]) between the seen-set arena and the checkpoint
//! writer of one [`ModelChecker`](crate::mc::ModelChecker) run, so "the
//! third spill write fails with `ENOSPC`" means the same operation on
//! every rerun of the same single-threaded configuration.
//!
//! Injection sits exactly where a real kernel would fail: the spill
//! points surface as the `io::Error` of the underlying `pread`/`pwrite`
//! (wrapped into [`SpillError`](crate::intern::SpillError)), the
//! checkpoint-write point as the error of the payload write, and the
//! torn-rename point truncates the finished temporary file *before*
//! renaming it into place and then reports success — the on-disk
//! outcome of a power cut between `rename` and the data reaching the
//! platter.
//!
//! The engine's contract under injection, tested by the
//! `fault_injection` suite: every armed fault ends in either an
//! identical verdict with a degradation note in
//! [`McReport::degraded`](crate::mc::McReport::degraded), or a clean
//! typed error ([`McError`](crate::mc::McError)) — never a panic.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One armed fault: fire on the `nth` occurrence (1-based) of an
/// operation, exactly once.  `nth == 0` means "never".
#[derive(Debug, Default)]
struct FaultPoint {
    nth: u64,
    kind: Option<io::ErrorKind>,
    seen: AtomicU64,
}

impl FaultPoint {
    fn armed(nth: u64, kind: io::ErrorKind) -> Self {
        FaultPoint {
            nth,
            kind: Some(kind),
            seen: AtomicU64::new(0),
        }
    }

    /// Counts one occurrence; returns the injected error iff this is
    /// exactly the armed occurrence.
    fn fire(&self, what: &str) -> Option<io::Error> {
        if self.nth == 0 {
            return None;
        }
        let seen = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        (seen == self.nth).then(|| {
            io::Error::new(
                self.kind.unwrap_or(io::ErrorKind::Other),
                format!("injected fault: {what} #{seen}"),
            )
        })
    }

    fn hits(&self) -> bool {
        self.nth != 0 && self.seen.load(Ordering::Relaxed) >= self.nth
    }
}

/// A deterministic injection schedule for spill and checkpoint I/O.
///
/// Build one with the `fail_*`/`tear_*` methods, wrap it in an [`Arc`],
/// and hand it to
/// [`ModelChecker::fault_plan`](crate::mc::ModelChecker::fault_plan)
/// (or directly to
/// [`StateArena::set_fault_plan`](crate::intern::StateArena::set_fault_plan)
/// for arena-level tests).
///
/// ```
/// use amx_sim::fault::FaultPlan;
/// let plan = std::sync::Arc::new(
///     FaultPlan::new()
///         .fail_spill_write(1, std::io::ErrorKind::StorageFull)
///         .tear_checkpoint(2),
/// );
/// assert!(!plan.spill_write_hit());
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    spill_write: FaultPoint,
    spill_read: FaultPoint,
    checkpoint_write: FaultPoint,
    checkpoint_tear: FaultPoint,
}

impl FaultPlan {
    /// A plan with nothing armed (every operation succeeds).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arm the `nth` (1-based) spill-page *write* to fail with `kind`
    /// (use [`io::ErrorKind::StorageFull`] for an `ENOSPC` device).
    #[must_use]
    pub fn fail_spill_write(mut self, nth: u64, kind: io::ErrorKind) -> Self {
        self.spill_write = FaultPoint::armed(nth, kind);
        self
    }

    /// Arm the `nth` (1-based) spill-page *read* to fail with `kind`.
    #[must_use]
    pub fn fail_spill_read(mut self, nth: u64, kind: io::ErrorKind) -> Self {
        self.spill_read = FaultPoint::armed(nth, kind);
        self
    }

    /// Arm the `nth` (1-based) checkpoint write to fail with `kind`
    /// before any byte reaches the temporary file.
    #[must_use]
    pub fn fail_checkpoint_write(mut self, nth: u64, kind: io::ErrorKind) -> Self {
        self.checkpoint_write = FaultPoint::armed(nth, kind);
        self
    }

    /// Arm the `nth` (1-based) checkpoint write to *tear*: the
    /// temporary file is truncated to half its length, renamed into
    /// place anyway, and the write reports success — the observable
    /// result of a crash after the rename but before the data is
    /// durable.
    #[must_use]
    pub fn tear_checkpoint(mut self, nth: u64) -> Self {
        self.checkpoint_tear = FaultPoint::armed(nth, io::ErrorKind::Other);
        self
    }

    /// Engine hook: counts one spill write, returning the injected
    /// error when armed for this occurrence.
    pub fn on_spill_write(&self) -> Option<io::Error> {
        self.spill_write.fire("spill write")
    }

    /// Engine hook: counts one spill read.
    pub fn on_spill_read(&self) -> Option<io::Error> {
        self.spill_read.fire("spill read")
    }

    /// Engine hook: counts one checkpoint write.
    pub fn on_checkpoint_write(&self) -> Option<io::Error> {
        self.checkpoint_write.fire("checkpoint write")
    }

    /// Engine hook: counts one checkpoint rename; `Some(())` means
    /// "tear this one".
    pub fn on_checkpoint_rename(&self) -> Option<()> {
        self.checkpoint_tear.fire("checkpoint tear").map(|_| ())
    }

    /// Whether the armed spill-write fault has fired.
    #[must_use]
    pub fn spill_write_hit(&self) -> bool {
        self.spill_write.hits()
    }

    /// Whether the armed spill-read fault has fired.
    #[must_use]
    pub fn spill_read_hit(&self) -> bool {
        self.spill_read.hits()
    }

    /// Whether the armed checkpoint-write fault has fired.
    #[must_use]
    pub fn checkpoint_write_hit(&self) -> bool {
        self.checkpoint_write.hits()
    }

    /// Whether the armed torn-rename fault has fired.
    #[must_use]
    pub fn checkpoint_tear_hit(&self) -> bool {
        self.checkpoint_tear.hits()
    }
}

/// Shared handle type used throughout the engine.
pub type FaultPlanRef = Arc<FaultPlan>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_never_fires() {
        let plan = FaultPlan::new();
        for _ in 0..100 {
            assert!(plan.on_spill_write().is_none());
            assert!(plan.on_spill_read().is_none());
            assert!(plan.on_checkpoint_write().is_none());
            assert!(plan.on_checkpoint_rename().is_none());
        }
        assert!(!plan.spill_write_hit());
    }

    #[test]
    fn nth_occurrence_fires_exactly_once() {
        let plan = FaultPlan::new().fail_spill_write(3, io::ErrorKind::StorageFull);
        assert!(plan.on_spill_write().is_none());
        assert!(plan.on_spill_write().is_none());
        let err = plan.on_spill_write().expect("third write must fail");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(plan.on_spill_write().is_none(), "one-shot");
        assert!(plan.spill_write_hit());
    }

    #[test]
    fn points_count_independently() {
        let plan = FaultPlan::new()
            .fail_spill_read(1, io::ErrorKind::UnexpectedEof)
            .tear_checkpoint(2);
        assert!(plan.on_spill_write().is_none());
        assert!(plan.on_spill_read().is_some());
        assert!(plan.on_checkpoint_rename().is_none());
        assert!(plan.on_checkpoint_rename().is_some());
        assert!(plan.checkpoint_tear_hit());
        assert!(!plan.checkpoint_write_hit());
    }
}
