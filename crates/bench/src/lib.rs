//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a regenerating entry point:
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table I (anonymous memory example) | `cargo run -p amx-bench --bin table1` |
//! | Figure 1 / Algorithm 1 behaviour | `cargo run -p amx-bench --bin figure1_check` |
//! | Figure 2 / Algorithm 2 behaviour | `cargo run -p amx-bench --bin figure2_check` |
//! | Table II (tight characterization) | `cargo run -p amx-bench --bin table2` |
//! | Theorem 5 construction | `cargo run -p amx-bench --bin theorem5` |
//! | §I-C / §VII complexity contrast | `cargo run -p amx-bench --bin complexity` |
//! | All-adversary orbit sweep (symmetry-reduced model checker) | `cargo run -p amx-bench --bin mc_sweep` |
//! | Multicore lock contention rig (all 5 families, one `AmxLock` path) | `cargo run -p amx-bench --bin lock_bench` |
//!
//! `mc_sweep` and `lock_bench` share the code below for reading their
//! command lines and for gating a run against a recorded report
//! (`--baseline`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use amx_core::lock::{BuildLock, Participant};
use amx_core::{MutexSpec, RmwAnonLock, RwAnonLock};
use amx_registers::Adversary;

/// Outcome of a threaded stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressOutcome {
    /// Total critical-section entries across all threads.
    pub total_entries: u64,
    /// Overlap violations detected (must be 0).
    pub violations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl StressOutcome {
    /// Entries per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.total_entries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs `iters` lock/unlock cycles per thread on Algorithm 1 (threaded)
/// and verifies mutual exclusion with an overlap detector.
///
/// # Panics
///
/// Panics on adversary materialization failure.
#[must_use]
pub fn stress_rw(spec: MutexSpec, adversary: &Adversary, iters: u64) -> StressOutcome {
    let participants = RwAnonLock::with_participants(spec, adversary).expect("valid adversary");
    run_participants(participants, iters)
}

/// Runs `iters` lock/unlock cycles per thread on Algorithm 2 (threaded).
///
/// # Panics
///
/// Panics on adversary materialization failure.
#[must_use]
pub fn stress_rmw(spec: MutexSpec, adversary: &Adversary, iters: u64) -> StressOutcome {
    let participants = RmwAnonLock::with_participants(spec, adversary).expect("valid adversary");
    run_participants(participants, iters)
}

/// Runs caller-supplied participants of *any* lock family — one thread
/// each, `iters` lock/unlock cycles per thread — so the caller keeps
/// their operation counters.  Mutual exclusion is watched by an in-CS
/// overlap detector.
#[must_use]
pub fn run_participants(participants: Vec<Participant>, iters: u64) -> StressOutcome {
    let in_cs = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let entries = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for mut p in participants {
            let (in_cs, violations, entries) = (&in_cs, &violations, &entries);
            s.spawn(move || {
                for _ in 0..iters {
                    let _g = p.lock();
                    if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    entries.fetch_add(1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
    });
    StressOutcome {
        total_entries: entries.load(Ordering::Relaxed),
        violations: violations.load(Ordering::SeqCst),
        elapsed: start.elapsed(),
    }
}

/// Formats a boolean cell as the table-friendly `yes`/`no`.
#[must_use]
pub fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no "
    }
}

/// Parses the value that follows `flag` on a command line.
///
/// # Errors
///
/// When the value is missing or is not a `T`; the message names the
/// flag, and the binaries print it and exit with code 2.
pub fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T::Err: Display,
{
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
}

/// A byte count: bare bytes, or a number with a binary `k`/`m`/`g`
/// suffix (`64m` is 64 MiB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl FromStr for ByteCount {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim().to_ascii_lowercase();
        let (digits, shift) = match s.chars().last() {
            Some('k') => (&s[..s.len() - 1], 10),
            Some('m') => (&s[..s.len() - 1], 20),
            Some('g') => (&s[..s.len() - 1], 30),
            _ => (s.as_str(), 0),
        };
        let n: usize = digits
            .parse()
            .map_err(|_| "not a byte count (want e.g. 64m, 512k, 1g, or bytes)".to_string())?;
        n.checked_mul(1 << shift)
            .map(ByteCount)
            .ok_or_else(|| "byte count overflows usize".to_string())
    }
}

/// Reads `"key": <number>` out of a report written by one of the
/// binaries: out of one point line, or out of the whole report for a
/// header or totals field (the first occurrence counts).  The writers
/// are hand-rolled, as the workspace takes no serde dependency, and so
/// are the readers.
#[must_use]
pub fn json_number<T: FromStr>(text: &str, key: &str) -> Option<T> {
    let rest = after(text, &format!("\"{key}\": "))?;
    let end = rest
        .find(|c: char| c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads `"key": "<string>"` out of a report, like [`json_number`].
#[must_use]
pub fn json_string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = after(text, &format!("\"{key}\": \""))?;
    Some(&rest[..rest.find('"')?])
}

fn after<'a>(text: &'a str, pattern: &str) -> Option<&'a str> {
    text.find(pattern).map(|at| &text[at + pattern.len()..])
}

/// A report read back as the regression baseline of a run
/// (`--baseline PATH`).  It is read before the run starts, because the
/// run may overwrite the very file.
#[derive(Debug)]
pub struct Baseline {
    /// Where the report was read from.
    pub path: String,
    /// The report itself.
    pub text: String,
}

impl Baseline {
    /// Reads the report at `path`.
    ///
    /// # Errors
    ///
    /// When the file cannot be read; the message names the flag.
    pub fn read(path: String) -> Result<Self, String> {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("--baseline {path}: {e}"))?;
        Ok(Baseline { path, text })
    }

    /// Compares the grid flags in the report's header (`"smoke"`, and
    /// `"deep"` for the sweep) with this run's `(name, value)` pairs.
    /// Returns `None` when the report records the same grid, else what
    /// differs.  Gates that depend on which points the grid holds
    /// apply only to the same grid.
    #[must_use]
    pub fn grid_differs(&self, flags: &[(&str, bool)]) -> Option<String> {
        let differ: Vec<String> = flags
            .iter()
            .filter_map(|&(name, here)| {
                let recorded = self.text.contains(&format!("\"{name}\": true"));
                (recorded != here).then(|| format!("{name} {recorded} vs this run's {here}"))
            })
            .collect();
        (!differ.is_empty()).then(|| {
            format!(
                "baseline {} records a different grid ({})",
                self.path,
                differ.join(", ")
            )
        })
    }

    /// The wall-time gate: a run of the same grid may take at most three
    /// times the report's `total_wall_ms`.  The slack absorbs the speed
    /// differences of CI runners; a real engine regression blows well
    /// past it.  Returns the line to print.
    ///
    /// # Errors
    ///
    /// When `actual_ms` exceeds the budget, or the report records no
    /// `total_wall_ms`.
    pub fn wall_budget(&self, actual_ms: f64) -> Result<String, String> {
        let recorded: f64 = json_number(&self.text, "total_wall_ms")
            .ok_or_else(|| format!("baseline {} records no total_wall_ms", self.path))?;
        let budget_ms = 3.0 * recorded;
        if actual_ms > budget_ms {
            Err(format!(
                "PERF REGRESSION: {actual_ms:.0} ms > budget {budget_ms:.0} ms (3× baseline {})",
                self.path
            ))
        } else {
            Ok(format!(
                "within perf budget: {actual_ms:.0} ms ≤ {budget_ms:.0} ms (3× baseline)"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counts_parse_suffixes_and_reject_junk_and_overflow() {
        let parse = |s: &str| s.parse::<ByteCount>().map(|b| b.0);
        assert_eq!(parse("4096"), Ok(4096));
        assert_eq!(parse("0"), Ok(0));
        assert_eq!(parse("512k"), Ok(512 << 10));
        assert_eq!(parse("64m"), Ok(64 << 20));
        assert_eq!(parse(" 1G "), Ok(1 << 30));
        for junk in ["", "k", "12q", "-1", "1.5m", "m64", "64 m"] {
            assert!(
                parse(junk).unwrap_err().contains("not a byte count"),
                "{junk:?}"
            );
        }
        // 16 EiB: the multiplication overflows instead of wrapping to 0.
        assert!(parse("17179869184g").unwrap_err().contains("overflows"));
        assert!(parse("18446744073709551616").is_err());
    }

    #[test]
    fn flag_values_name_the_flag_on_error() {
        let v = |s: &str| Some(s.to_string());
        assert_eq!(flag_value::<usize>("--threads", v("2")), Ok(2));
        assert_eq!(
            flag_value::<ByteCount>("--resident-budget", v("1m")),
            Ok(ByteCount(1 << 20))
        );
        assert!(flag_value::<usize>("--threads", v("x"))
            .unwrap_err()
            .starts_with("--threads \"x\": "));
        assert!(flag_value::<u8>("--crashes", v("300"))
            .unwrap_err()
            .starts_with("--crashes \"300\": "));
        assert_eq!(
            flag_value::<String>("--out", None),
            Err("--out needs a value".to_string())
        );
    }

    #[test]
    fn report_readers_and_gates() {
        let line = r#"{"alg": "1", "n": 2, "m": 13, "wall_ms": 0.5, "verdict": "ok"}"#;
        assert_eq!(json_string(line, "alg"), Some("1"));
        assert_eq!(json_number::<usize>(line, "m"), Some(13));
        assert_eq!(json_number::<f64>(line, "wall_ms"), Some(0.5));
        assert_eq!(json_number::<usize>(line, "orbit"), None);
        let base = Baseline {
            path: "b.json".to_string(),
            text: "{\n  \"smoke\": true,\n  \"deep\": false,\n  \"total_wall_ms\": 100.0\n}"
                .to_string(),
        };
        assert_eq!(base.grid_differs(&[("smoke", true), ("deep", false)]), None);
        let differs = base.grid_differs(&[("smoke", true), ("deep", true)]);
        assert!(differs.unwrap().contains("deep false vs this run's true"));
        assert!(base.wall_budget(300.0).is_ok());
        assert!(base
            .wall_budget(300.5)
            .unwrap_err()
            .starts_with("PERF REGRESSION"));
    }

    #[test]
    fn stress_rw_runs_clean() {
        let out = stress_rw(MutexSpec::rw(2, 3).unwrap(), &Adversary::Random(5), 50);
        assert_eq!(out.total_entries, 100);
        assert_eq!(out.violations, 0);
        assert!(out.throughput() > 0.0);
    }

    #[test]
    fn stress_rmw_runs_clean() {
        let out = stress_rmw(MutexSpec::rmw(3, 5).unwrap(), &Adversary::Random(5), 50);
        assert_eq!(out.total_entries, 150);
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn yn_formats() {
        assert_eq!(yn(true), "yes");
        assert_eq!(yn(false).trim(), "no");
    }
}
