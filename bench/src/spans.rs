//! Spans recorded around the benchmark's calls into each layer.
//!
//! Only the traced run records (an untraced run keeps the recorder
//! disabled, so its end-to-end numbers carry no tracing cost).  Spans
//! stay in memory and are written as JSON lines when the run ends; self
//! time is a span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::{num, str_lit};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, run_id: String) -> Self {
        Spans {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Self time in seconds per span name, summed over all spans of
    /// that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines: name, start and end (ns since the run
    /// began), parent span index, and the run id every span shares.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"run\": {}, \"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}}}",
                str_lit(&self.run_id),
                str_lit(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out
    }

    /// Human-readable self-time table.
    pub fn self_time_table(&self) -> String {
        let mut out = String::from("self time by span (s):\n");
        for (name, secs) in self.self_times() {
            let _ = writeln!(out, "  {name:<28} {}", num((secs * 1e6).round() / 1e6));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true, "t".into());
        s.enter("root");
        s.time("child", |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.exit();
        let t = s.self_times();
        assert!(t["child"] >= 0.020);
        assert!(t["root"] >= 0.005);
        let lines = s.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, "t".into());
        s.time("x", |_| ());
        assert!(s.self_times().is_empty());
    }
}
