//! Per-entry cost summaries for the complexity experiments.
//!
//! The paper's conclusion contrasts the two algorithms by "the number of
//! registers which must contain the identity of a process to allow it to
//! enter the critical section" — all `m` for Algorithm 1 versus a
//! majority for Algorithm 2.  [`EntryCosts`] turns raw operation counters
//! into per-critical-section-entry averages so experiment C1 can report
//! the measured difference.

use std::fmt;

use amx_registers::OpCounters;

/// Average shared-memory work per critical-section entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryCosts {
    /// Critical-section entries the averages are over.
    pub entries: u64,
    /// Atomic register reads per entry (includes reads inside snapshots).
    pub reads_per_entry: f64,
    /// Atomic register writes per entry.
    pub writes_per_entry: f64,
    /// `compare&swap` invocations per entry.
    pub cas_per_entry: f64,
    /// Completed snapshot operations per entry.
    pub snapshots_per_entry: f64,
    /// Collect rounds per snapshot (double-collect retries; 2.0 is the
    /// contention-free minimum).
    pub collect_rounds_per_snapshot: f64,
}

impl EntryCosts {
    /// Summarizes `counters` over `entries` critical-section entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    #[must_use]
    pub fn summarize(counters: &OpCounters, entries: u64) -> Self {
        assert!(entries > 0, "cannot average over zero entries");
        let e = entries as f64;
        let snaps = counters.snapshots();
        EntryCosts {
            entries,
            reads_per_entry: counters.reads() as f64 / e,
            writes_per_entry: counters.writes() as f64 / e,
            cas_per_entry: counters.cas_ops() as f64 / e,
            snapshots_per_entry: snaps as f64 / e,
            collect_rounds_per_snapshot: if snaps == 0 {
                0.0
            } else {
                counters.collect_rounds() as f64 / snaps as f64
            },
        }
    }

    /// Total primitive operations (reads + writes + CAS) per entry.
    #[must_use]
    pub fn primitive_ops_per_entry(&self) -> f64 {
        self.reads_per_entry + self.writes_per_entry + self.cas_per_entry
    }
}

impl fmt::Display for EntryCosts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries: {:.1} reads, {:.1} writes, {:.1} cas, {:.2} snapshots per entry \
             ({:.2} collect rounds/snapshot)",
            self.entries,
            self.reads_per_entry,
            self.writes_per_entry,
            self.cas_per_entry,
            self.snapshots_per_entry,
            self.collect_rounds_per_snapshot,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_registers::OpSnapshot;

    fn counters(counts: OpSnapshot) -> OpCounters {
        let c = OpCounters::new();
        c.add(&counts);
        c
    }

    #[test]
    fn summarize_divides_by_entries() {
        // 4 snapshots of 10 collect rounds over m = 3: 30 reads.
        let c = counters(OpSnapshot {
            reads: 30,
            writes: 10,
            cas_ops: 5,
            snapshots: 4,
            collect_rounds: 10,
        });
        let s = EntryCosts::summarize(&c, 10);
        assert_eq!(s.reads_per_entry, 3.0);
        assert_eq!(s.writes_per_entry, 1.0);
        assert_eq!(s.cas_per_entry, 0.5);
        assert_eq!(s.snapshots_per_entry, 0.4);
        assert_eq!(s.collect_rounds_per_snapshot, 2.5);
        assert_eq!(s.primitive_ops_per_entry(), 4.5);
    }

    #[test]
    fn zero_snapshots_reports_zero_rounds() {
        let c = counters(OpSnapshot {
            cas_ops: 1,
            ..OpSnapshot::default()
        });
        let s = EntryCosts::summarize(&c, 1);
        assert_eq!(s.collect_rounds_per_snapshot, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let c = counters(OpSnapshot {
            reads: 1,
            ..OpSnapshot::default()
        });
        let text = EntryCosts::summarize(&c, 1).to_string();
        assert!(text.contains("entries"));
        assert!(text.contains("reads"));
    }

    #[test]
    #[should_panic(expected = "zero entries")]
    fn zero_entries_panics() {
        let _ = EntryCosts::summarize(&OpCounters::new(), 0);
    }
}
