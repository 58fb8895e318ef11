//! Multicore lock contention rig: every lock family of the workspace —
//! Algorithm 1, Algorithm 2, TAS, Burns–Lynch, Peterson — hammered by
//! 2–64 threads through the *same* `Box<dyn AmxLock>` code path.
//!
//! For each `(family, threads)` grid point the rig mints one participant
//! per thread, runs a fixed number of lock/unlock cycles per thread, and
//! records into `BENCH_lock.json`:
//!
//! * **throughput** — critical-section entries per second;
//! * **acquire latency** — a log₂-bucketed nanosecond histogram plus
//!   p50 / p99 / max;
//! * **fairness** — per-thread `max_pending_depth`: the most
//!   acquisitions by *others* any single acquire of this thread had to
//!   watch go by while waiting (the live analogue of the model
//!   checker's per-process pending-depth metric);
//! * **op counters** — reads / writes / CAS / snapshots aggregated over
//!   all participants;
//! * an in-CS overlap detector (any violation fails the run).
//!
//! Usage: `cargo run --release -p amx-bench --bin lock_bench -- [flags]`
//!
//! Flags:
//!   --smoke          CI grid: 2 and 4 threads per family
//!   --ops N          lock/unlock cycles per thread (default 150 smoke,
//!                    200 full)
//!   --out PATH       where to write the JSON report (default
//!                    BENCH_lock.json)
//!   --backoff NAME   contention backoff policy every participant uses:
//!                    spin | spin-yield | spin-yield-park (default
//!                    spin-yield, the runtime default)
//!   --baseline PATH  regression gates against a report of the same
//!                    grid (`smoke` flag): fail if a point PATH measured
//!                    is missing here, or if this run's wall time exceeds
//!                    3× PATH's `total_wall_ms` (the budget rule
//!                    `mc_sweep --baseline` shares)
//!
//! An unknown flag, or a missing or malformed value, exits with code 2.
//!
//! Families cap out where their register budget does: the anonymous
//! algorithms need a valid `m ∈ M(n)` within the 64-register cap
//! (n ≤ ~60), Burns–Lynch one flag per process (n ≤ 64), the Peterson
//! tournament three registers per internal node (n ≤ 16).  Skipped
//! points are listed in the report — never silently dropped.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use amx_baselines::{BurnsStepLock, PetersonTreeLock, TasStepLock};
use amx_bench::{flag_value, json_number, json_string, Baseline};
use amx_core::lock::AmxLock;
use amx_core::spec::Model;
use amx_core::{Backoff, MutexSpec, RmwAnonLock, RwAnonLock};
use amx_registers::{Adversary, OpCounters, OpSnapshot};

/// Latency histogram: bucket `i` counts acquires in `[2^(i-1), 2^i)` ns
/// (bucket 0: zero-latency reads of the clock).
const HIST_BUCKETS: usize = 65;

const FAMILIES: [&str; 5] = ["alg1", "alg2", "tas", "burns-lynch", "peterson"];
const SMOKE_THREADS: [usize; 2] = [2, 4];
const FULL_THREADS: [usize; 6] = [2, 4, 8, 16, 32, 64];

#[derive(Debug)]
struct Options {
    smoke: bool,
    ops: u64,
    out: String,
    baseline: Option<Baseline>,
    backoff: Backoff,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut smoke = false;
    let mut ops = None;
    let mut out = "BENCH_lock.json".to_string();
    let mut baseline = None;
    let mut backoff = Backoff::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--ops" => ops = Some(flag_value(&arg, args.next())?),
            "--out" => out = flag_value(&arg, args.next())?,
            "--baseline" => baseline = Some(Baseline::read(flag_value(&arg, args.next())?)?),
            "--backoff" => {
                let name: String = flag_value(&arg, args.next())?;
                backoff = Backoff::all()
                    .into_iter()
                    .find(|b| b.name() == name)
                    .ok_or_else(|| {
                        format!(
                            "unknown backoff policy: {name} (spin | spin-yield | spin-yield-park)"
                        )
                    })?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Options {
        smoke,
        ops: ops.unwrap_or(if smoke { 150 } else { 200 }),
        out,
        baseline,
        backoff,
    })
}

/// Builds the lock object for `family` at `threads` processes, or
/// explains why the point is out of the family's register budget.
fn make_lock(family: &str, threads: usize) -> Result<Box<dyn AmxLock>, String> {
    match family {
        "alg1" => MutexSpec::smallest_rw(threads)
            .map(|spec| Box::new(RwAnonLock::new(spec)) as Box<dyn AmxLock>)
            .map_err(|e| format!("no valid RW spec within the register cap: {e}")),
        "alg2" => MutexSpec::smallest_rmw(threads)
            .map(|spec| Box::new(RmwAnonLock::new(spec)) as Box<dyn AmxLock>)
            .map_err(|e| format!("no valid RMW spec within the register cap: {e}")),
        "tas" => Ok(Box::new(TasStepLock::new(threads))),
        "burns-lynch" => {
            if threads <= 64 {
                Ok(Box::new(BurnsStepLock::new(threads)))
            } else {
                Err(format!(
                    "register cap: needs one flag per process ({threads} > 64)"
                ))
            }
        }
        "peterson" => {
            let m = PetersonTreeLock::registers_for(threads);
            if m <= 64 {
                Ok(Box::new(PetersonTreeLock::new(threads)))
            } else {
                Err(format!("register cap: tournament needs {m} > 64 registers"))
            }
        }
        other => Err(format!("unknown family {other}")),
    }
}

/// One measured grid point.
#[derive(Debug)]
struct Point {
    family: &'static str,
    model: Model,
    threads: usize,
    n: usize,
    m: usize,
    total_entries: u64,
    violations: u64,
    wall_secs: f64,
    hist: [u64; HIST_BUCKETS],
    lat_max_ns: u64,
    max_pending_depth: Vec<u64>,
    ops_counts: OpSnapshot,
    poisoned: bool,
}

fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

fn bucket_upper_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Histogram quantile, reported as the upper bound of the bucket the
/// `q`-th acquire falls in (`max` is tracked exactly, separately).
fn quantile_ns(hist: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= target {
            return bucket_upper_ns(i);
        }
    }
    bucket_upper_ns(HIST_BUCKETS - 1)
}

/// Runs one grid point: every participant on its own thread, `ops`
/// lock/unlock cycles each, all through the `dyn AmxLock` object.
fn run_point(family: &'static str, lock: &dyn AmxLock, ops: u64, backoff: Backoff) -> Point {
    let spec = lock.spec();
    let threads = spec.n();
    // Seed differs per (family, threads) so the anonymous families see
    // fresh permutations at every point.
    let seed = 0xA11C_E5ED ^ ((threads as u64) << 8) ^ family.len() as u64;
    let participants: Vec<_> = lock
        .participants(&Adversary::Random(seed))
        .expect("adversary materialization")
        .into_iter()
        .map(|p| p.with_backoff(backoff))
        .collect();
    let aggregate = OpCounters::new();
    for p in &participants {
        aggregate.merge(p.counters()); // all zero; registers the clones' shape
    }
    let counters: Vec<OpCounters> = participants.iter().map(|p| p.counters().clone()).collect();

    let in_cs = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let acquired_epoch = AtomicU64::new(0);
    let start = Instant::now();
    let per_thread: Vec<([u64; HIST_BUCKETS], u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = participants
            .into_iter()
            .map(|mut p| {
                let (in_cs, violations, acquired_epoch) = (&in_cs, &violations, &acquired_epoch);
                s.spawn(move || {
                    let mut hist = [0u64; HIST_BUCKETS];
                    let mut lat_max = 0u64;
                    let mut max_pending = 0u64;
                    let mut entries = 0u64;
                    for _ in 0..ops {
                        let epoch_before = acquired_epoch.load(Ordering::SeqCst);
                        let t0 = Instant::now();
                        let guard = p.lock();
                        let lat_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        let epoch_now = acquired_epoch.fetch_add(1, Ordering::SeqCst);
                        // Acquisitions by others that went by while this
                        // one waited: the live pending-depth analogue.
                        max_pending = max_pending.max(epoch_now - epoch_before);
                        hist[bucket_of(lat_ns)] += 1;
                        lat_max = lat_max.max(lat_ns);
                        if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        entries += 1;
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        drop(guard);
                    }
                    (hist, lat_max, max_pending, entries)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread panicked"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let mut hist = [0u64; HIST_BUCKETS];
    let mut lat_max_ns = 0u64;
    let mut max_pending_depth = Vec::with_capacity(threads);
    let mut total_entries = 0u64;
    for (h, lmax, pend, entries) in &per_thread {
        for (acc, add) in hist.iter_mut().zip(h.iter()) {
            *acc += add;
        }
        lat_max_ns = lat_max_ns.max(*lmax);
        max_pending_depth.push(*pend);
        total_entries += entries;
    }
    for c in &counters {
        aggregate.merge(c);
    }
    Point {
        family,
        model: spec.model(),
        threads,
        n: spec.n(),
        m: spec.m(),
        total_entries,
        violations: violations.load(Ordering::SeqCst),
        wall_secs,
        hist,
        lat_max_ns,
        max_pending_depth,
        ops_counts: aggregate.snapshot_counts(),
        poisoned: lock.is_poisoned(),
    }
}

fn model_tag(model: Model) -> &'static str {
    match model {
        Model::Rw => "rw",
        Model::Rmw => "rmw",
    }
}

fn render_json(points: &[Point], skipped: &[(String, usize, String)], opts: &Options) -> String {
    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let throughput = p.total_entries as f64 / p.wall_secs.max(1e-9);
        let _ = write!(
            body,
            "\n    {{\"family\": \"{}\", \"model\": \"{}\", \"threads\": {}, \"n\": {}, \
             \"m\": {}, \"total_entries\": {}, \"wall_ms\": {:.3}, \
             \"throughput_per_sec\": {:.1}, \"lat_p50_ns\": {}, \"lat_p99_ns\": {}, \
             \"lat_max_ns\": {}",
            p.family,
            model_tag(p.model),
            p.threads,
            p.n,
            p.m,
            p.total_entries,
            p.wall_secs * 1e3,
            throughput,
            quantile_ns(&p.hist, 0.50),
            quantile_ns(&p.hist, 0.99),
            p.lat_max_ns,
        );
        // The histogram itself: non-empty buckets as [upper_ns, count].
        let buckets: Vec<String> = p
            .hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("[{}, {}]", bucket_upper_ns(i), c))
            .collect();
        let _ = write!(body, ", \"lat_hist_ns\": [{}]", buckets.join(", "));
        let depths: Vec<String> = p
            .max_pending_depth
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = write!(body, ", \"max_pending_depth\": [{}]", depths.join(", "));
        let _ = write!(
            body,
            ", \"reads\": {}, \"writes\": {}, \"cas\": {}, \"snapshots\": {}, \
             \"collect_rounds\": {}, \"violations\": {}, \"poisoned\": {}}}",
            p.ops_counts.reads,
            p.ops_counts.writes,
            p.ops_counts.cas_ops,
            p.ops_counts.snapshots,
            p.ops_counts.collect_rounds,
            p.violations,
            p.poisoned,
        );
    }
    let mut skips = String::new();
    for (i, (family, threads, reason)) in skipped.iter().enumerate() {
        if i > 0 {
            skips.push(',');
        }
        let _ = write!(
            skips,
            "\n    {{\"family\": \"{family}\", \"threads\": {threads}, \"reason\": \"{reason}\"}}"
        );
    }
    let total_entries: u64 = points.iter().map(|p| p.total_entries).sum();
    let total_wall_ms: f64 = points.iter().map(|p| p.wall_secs * 1e3).sum();
    format!(
        "{{\n  \"bench\": \"lock_bench\",\n  \"smoke\": {},\n  \"backoff\": \"{}\",\n  \
         \"available_parallelism\": {},\n  \
         \"ops_per_thread\": {},\n  \"points\": [{}\n  ],\n  \"skipped\": [{}\n  ],\n  \
         \"totals\": {{\n    \"points\": {},\n    \"total_entries\": {},\n    \
         \"total_wall_ms\": {:.3}\n  }}\n}}\n",
        opts.smoke,
        opts.backoff.name(),
        // Disambiguates serialized-by-the-container from a real fairness
        // or throughput regression when CI reads the report.
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        opts.ops,
        body,
        skips,
        points.len(),
        total_entries,
        total_wall_ms,
    )
}

/// The `(family, threads)` identity of every measured point of a
/// previously written report (the `skipped` entries carry no `model`).
fn extract_point_keys(json: &str) -> Vec<(String, usize)> {
    json.lines()
        .filter(|line| json_string(line, "model").is_some())
        .filter_map(|line| {
            let family = json_string(line, "family")?.to_string();
            Some((family, json_number(line, "threads")?))
        })
        .collect()
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let thread_counts: &[usize] = if opts.smoke {
        &SMOKE_THREADS
    } else {
        &FULL_THREADS
    };
    println!(
        "lock contention rig — {} families × {:?} threads, {} ops/thread, {} backoff ({})",
        FAMILIES.len(),
        thread_counts,
        opts.ops,
        opts.backoff.name(),
        if opts.smoke { "smoke" } else { "full" },
    );

    let mut points = Vec::new();
    let mut skipped = Vec::new();
    for family in FAMILIES {
        for &threads in thread_counts {
            match make_lock(family, threads) {
                Ok(lock) => {
                    let p = run_point(family, lock.as_ref(), opts.ops, opts.backoff);
                    println!(
                        "  {family:<12} t={threads:<3} n={} m={:<3} {:>9.0} entries/s  \
                         p50 {:>8} ns  p99 {:>9} ns  max pending {}",
                        p.n,
                        p.m,
                        p.total_entries as f64 / p.wall_secs.max(1e-9),
                        quantile_ns(&p.hist, 0.50),
                        quantile_ns(&p.hist, 0.99),
                        p.max_pending_depth.iter().max().copied().unwrap_or(0),
                    );
                    assert_eq!(
                        p.total_entries,
                        threads as u64 * opts.ops,
                        "every thread must complete its cycles"
                    );
                    if p.violations > 0 {
                        eprintln!(
                            "MUTUAL EXCLUSION VIOLATED: {family} at {threads} threads \
                             ({} overlaps)",
                            p.violations
                        );
                        std::process::exit(1);
                    }
                    if p.poisoned {
                        eprintln!("unexpected poisoning: {family} at {threads} threads");
                        std::process::exit(1);
                    }
                    points.push(p);
                }
                Err(reason) => {
                    println!("  {family:<12} t={threads:<3} skipped: {reason}");
                    skipped.push((family.to_string(), threads, reason));
                }
            }
        }
    }

    let json = render_json(&points, &skipped, &opts);
    std::fs::write(&opts.out, &json).expect("write BENCH_lock.json");
    println!(
        "\nwrote {} ({} points, {} skipped)",
        opts.out,
        points.len(),
        skipped.len()
    );

    // Coverage and wall-time gates against a recorded report of the
    // same grid.
    if let Some(base) = &opts.baseline {
        if let Some(why) = base.grid_differs(&[("smoke", opts.smoke)]) {
            println!("skipping coverage and perf gates: {why}");
            return;
        }
        let mut failed = false;
        for (family, threads) in extract_point_keys(&base.text) {
            let here = points
                .iter()
                .any(|p| p.family == family && p.threads == threads);
            if !here {
                eprintln!(
                    "coverage regression: baseline {} measured {family} at {threads} \
                     threads, this run skipped it",
                    base.path
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        let actual_ms: f64 = points.iter().map(|p| p.wall_secs * 1e3).sum();
        match base.wall_budget(actual_ms) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_keys_are_the_measured_points_only() {
        let keys = extract_point_keys(include_str!("../../../../BENCH_lock.json"));
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], ("alg1".to_string(), 2));
        let skipped = r#"    {"family": "peterson", "threads": 32, "reason": "register cap"}"#;
        assert!(extract_point_keys(skipped).is_empty());
    }
}
