//! One workload run: set up, measure for the requested seconds, check
//! every output, and report the end-to-end metrics (untraced) or the
//! per-layer metrics (traced).
//!
//! Every workload names both a model-checking configuration and a lock
//! family, so the traced run can probe every layer on each workload:
//! the `mc-*` workloads measure the checker end to end and probe the
//! lock runtime of their algorithm; the `lock-*` workloads measure the
//! lock end to end and probe the checker on their own (2, 3)
//! configuration.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use amx_core::lock::AmxLock;
use amx_core::Participant;
use amx_registers::orbit::adversary_orbits;
use amx_sim::mc::{McError, McReport};

use crate::json::{self, Value};
use crate::lock;
use crate::mc::{self, Job, Point, Probe, Sampler, Settings, CAPTURE_MONITOR};
use crate::spans::Spans;
use crate::stats::{median, sample_quantile};

/// The workloads, in the order `run` cycles through them.
pub const WORKLOADS: [&str; 5] = ["mc-deep", "mc-deep-spill", "mc-grid", "lock-rw", "lock-rmw"];

/// Set-up rounds timed per run.
const SETUP_ROUNDS: usize = 9;

/// A set-up round is `SETUP_BATCHES` timed batches, each repeating the
/// set-up until it has taken at least `SETUP_BATCH_MIN`, so
/// sub-microsecond set-ups are not timed at clock resolution.
const SETUP_BATCHES: usize = 50;
const SETUP_BATCH_MIN: Duration = Duration::from_micros(40);

/// States the traced pass keeps per workload for the probes (spread
/// evenly over its points).
const SAMPLE_CAP: u64 = 200_000;

/// Pinned outputs: verdicts, counts and monitor hits of every checked
/// point (see `expected.json`).
const EXPECTED: &str = include_str!("../expected.json");

/// The benchmark's own directory; outputs go to `out/` under it.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::str_lit(m.name),
                    json::num(m.value),
                    json::str_lit(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What a workload checks with the model checker and which lock family
/// it drives.
struct Spec {
    points: fn(u64) -> Vec<Point>,
    budget: Option<usize>,
    lock: &'static str,
    /// `true` for the `lock-*` workloads: the lock loop is measured end
    /// to end and the checker is only probed.
    lock_measured: bool,
}

fn spec(workload: &str) -> Result<Spec, String> {
    let deep = |_| vec![mc::deep_point()];
    let (points, budget, lock, lock_measured): (fn(u64) -> Vec<Point>, _, _, _) = match workload {
        "mc-deep" => (deep, None, "alg1", false),
        "mc-deep-spill" => (deep, Some(256 << 10), "alg1", false),
        "mc-grid" => (|_| mc::grid_points(), None, "alg1", false),
        "lock-rw" => (|seed| vec![mc::lock_point("1", seed)], None, "alg1", true),
        "lock-rmw" => (|seed| vec![mc::lock_point("2", seed)], None, "alg2", true),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    Ok(Spec {
        points,
        budget,
        lock,
        lock_measured,
    })
}

fn build_jobs(spec: &Spec, seed: u64, settings: &Settings) -> Result<Vec<Box<dyn Job>>, String> {
    (spec.points)(seed)
        .iter()
        .map(|p| mc::build_job(p, settings))
        .collect()
}

/// Times a workload's set-up in rounds spread over the run.  A round's
/// figure is its fastest batch's time per set-up, and `setup_s` is the
/// median round: on a shared virtual machine other tenants slow the
/// work for milliseconds to seconds at a time, and both the batches
/// and the spreading keep such stretches from setting the figure.
struct SetupClock<F> {
    build: F,
    reps: usize,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> SetupClock<F> {
    /// Builds once — the set-up the run uses — and sizes the rounds.
    fn start(mut build: F) -> Result<(Self, T), String> {
        let built = build()?;
        // Sized on a second, warm build: the first pays one-off costs.
        let t = Instant::now();
        black_box(build()?);
        let once = t.elapsed().as_secs_f64().max(1e-9);
        let reps = ((SETUP_BATCH_MIN.as_secs_f64() / once).ceil() as usize).clamp(1, 100_000);
        let clock = SetupClock {
            build,
            reps,
            times: Vec::with_capacity(SETUP_ROUNDS),
        };
        Ok((clock, built))
    }

    /// One more timed round, until `SETUP_ROUNDS` are done.
    fn round(&mut self) -> Result<(), String> {
        if self.times.len() < SETUP_ROUNDS {
            let mut fastest = f64::INFINITY;
            for _ in 0..SETUP_BATCHES {
                let t = Instant::now();
                for _ in 0..self.reps {
                    black_box((self.build)()?);
                }
                fastest = fastest.min(t.elapsed().as_secs_f64());
            }
            self.times.push(fastest / self.reps as f64);
        }
        Ok(())
    }

    fn finish(mut self) -> Result<f64, String> {
        while self.times.len() < SETUP_ROUNDS {
            self.round()?;
        }
        Ok(median(&self.times))
    }
}

/// Runs one workload and reports its metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(&args.workload)?;
    let spill_dir = out_dir().join("spill");
    std::fs::create_dir_all(&spill_dir)
        .map_err(|e| format!("create {}: {e}", spill_dir.display()))?;
    let settings = Settings {
        budget: spec.budget,
        spill_dir,
    };
    let run_id = format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let mut spans = Spans::new(args.trace, run_id);
    spans.enter(&args.workload);
    let window = Duration::from_secs(args.seconds);
    let build_mc = || build_jobs(&spec, args.seed, &settings);
    let build_lock = || lock::set_up(spec.lock, args.seed);

    let outcome = match (spec.lock_measured, args.trace) {
        (false, false) => {
            let (clock, jobs) = SetupClock::start(build_mc)?;
            measure_mc(&jobs, window, clock)?
        }
        (true, false) => {
            let (clock, (lock, participants)) = SetupClock::start(build_lock)?;
            measure_lock(lock.as_ref(), participants, window, args.seed, clock)?
        }
        (false, true) => {
            let jobs = spans.time("setup", |_| build_mc())?;
            trace_mc(&spec, &jobs, args.seed, &mut spans)?
        }
        (true, true) => {
            let ((lock, participants), jobs) =
                spans.time("setup", |_| Ok::<_, String>((build_lock()?, build_mc()?)))?;
            trace_lock(&spec, lock.as_ref(), participants, &jobs, args, &mut spans)?
        }
    };
    spans.exit();
    if args.trace {
        let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
        std::fs::write(&path, spans.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprint!("{}", spans.self_time_table());
        eprintln!("spans written to {}", path.display());
    }
    Ok(outcome)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The pinned values of the point with key `key`, if it has any.
fn pinned(key: &str) -> Option<&'static Value> {
    static POINTS: OnceLock<Value> = OnceLock::new();
    POINTS
        .get_or_init(|| json::parse(EXPECTED).expect("expected.json is valid JSON"))
        .get("points")?
        .as_arr()
        .iter()
        .find(|p| p.get("key").and_then(Value::as_str) == Some(key))
}

/// Compares one point's report with its pinned values; returns a
/// description of every difference.  Points without pinned values (the
/// lock workloads' seeded configurations) must verify `ok`.  SCC-query
/// answers are printed when they differ but never fail a point (see
/// README, "open engine defect").
fn check_point(point: &Point, report: &Result<McReport, McError>) -> Vec<String> {
    let key = point.key();
    let verdict = mc::verdict_tag(report);
    let Some(pinned) = pinned(&key) else {
        return if verdict == "ok" {
            Vec::new()
        } else {
            vec![format!("{key}: verdict {verdict}, expected ok")]
        };
    };
    let want = |field: &str| pinned.get(field);
    let mut diffs = Vec::new();
    if want("verdict").and_then(Value::as_str) != Some(verdict) {
        diffs.push(format!(
            "{key}: verdict {verdict}, pinned {:?}",
            want("verdict")
        ));
    }
    let Ok(rep) = report else {
        return diffs;
    };
    for (field, got) in [
        ("canonical_states", rep.canonical_states),
        ("full_states", rep.full_states_estimate),
        ("transitions", rep.transitions),
    ] {
        if want(field).and_then(Value::as_u64) != Some(got as u64) {
            diffs.push(format!("{key}: {field} {got}, pinned {:?}", want(field)));
        }
    }
    for mon in rep.monitors.iter().filter(|m| m.name != CAPTURE_MONITOR) {
        if want(&mon.name).and_then(Value::as_u64) != Some(mon.hit_states as u64) {
            diffs.push(format!(
                "{key}: monitor {} hit {} states, pinned {:?}",
                mon.name,
                mon.hit_states,
                want(&mon.name)
            ));
        }
    }
    for q in &rep.scc_queries {
        let answer = mc::query_answer(q.holds_everywhere, q.holds_somewhere);
        let pinned = want(&q.name);
        if pinned.and_then(Value::as_str) != Some(answer) {
            eprintln!(
                "note: {key}: scc-query {} answered {answer}, pinned {pinned:?} \
                 (recorded, not gated)",
                q.name
            );
        }
    }
    diffs
}

/// One pass over every job: summed `run()` wall time, canonical states,
/// failed points, and the reports.
#[derive(Debug)]
struct Pass {
    /// `run()` wall time per job.
    walls: Vec<f64>,
    /// Canonical states per job (0 for a job that failed to complete).
    states: Vec<u64>,
    failed: u64,
    reports: Vec<McReport>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }
}

fn check_pass(
    jobs: &[Box<dyn Job>],
    mut run: impl FnMut(&dyn Job) -> Result<McReport, McError>,
) -> Pass {
    let mut pass = Pass {
        walls: Vec::with_capacity(jobs.len()),
        states: Vec::with_capacity(jobs.len()),
        failed: 0,
        reports: Vec::with_capacity(jobs.len()),
    };
    for job in jobs {
        let t = Instant::now();
        let report = run(job.as_ref());
        pass.walls.push(t.elapsed().as_secs_f64());
        let diffs = check_point(job.point(), &report);
        for d in &diffs {
            eprintln!("MISMATCH {d}");
        }
        pass.failed += u64::from(!diffs.is_empty());
        pass.states
            .push(report.as_ref().map_or(0, |r| r.canonical_states as u64));
        if let Ok(rep) = report {
            pass.reports.push(rep);
        }
    }
    pass
}

/// Untraced model-checking workload: whole passes over the points until
/// the next pass would end past the window (at least two passes), with
/// the set-up rounds spread between them.
///
/// On a shared 2-vCPU virtual machine, other tenants slowed a check by
/// up to half for seconds at a time, so each point's latency is its
/// fastest pass in the run; the percentiles are taken over the
/// workload's points.
fn measure_mc<F>(
    jobs: &[Box<dyn Job>],
    window: Duration,
    mut clock: SetupClock<F>,
) -> Result<Outcome, String>
where
    F: FnMut() -> Result<Vec<Box<dyn Job>>, String>,
{
    let began = Instant::now();
    let mut best = vec![f64::INFINITY; jobs.len()];
    let mut states = vec![0u64; jobs.len()];
    let (mut passes, mut failed, mut round_every) = (0usize, 0u64, 1usize);
    loop {
        if passes % round_every == 0 {
            clock.round()?;
        }
        let pass = check_pass(jobs, |j| j.run());
        for (b, w) in best.iter_mut().zip(&pass.walls) {
            *b = b.min(*w);
        }
        let pass_s = pass.wall_s();
        states = pass.states;
        failed += pass.failed;
        passes += 1;
        if passes == 1 {
            // Spread the set-up rounds over the passes the window holds.
            let expected = (window.as_secs_f64() / pass_s.max(1e-9)) as usize;
            round_every = (expected / SETUP_ROUNDS).max(1);
        }
        if passes >= 2 && began.elapsed().as_secs_f64() + pass_s > window.as_secs_f64() {
            break;
        }
    }
    let setup_s = clock.finish()?;
    let total: f64 = best.iter().sum();
    eprintln!(
        "{passes} passes over {} point(s); fastest pass per point sums to {total:.4} s",
        jobs.len()
    );
    Ok(Outcome {
        attempted: (passes * jobs.len()) as u64,
        failed,
        metrics: end_to_end(
            setup_s,
            sample_quantile(&best, 0.5) * 1e6,
            states.iter().sum::<u64>() as f64 / total.max(1e-9),
        )?,
    })
}

/// Untraced lock workload, in one-second chunks: the first half with
/// one thread (the other participant idle), the rest with both threads
/// contending; set-up rounds run between chunks.
///
/// Latency comes from the uncontended chunks.  With both threads
/// running, every acquisition moves the registers' cache lines between
/// the two vCPUs, and what that costs depends on where the hypervisor
/// placed them: contended latency moved by up to 2× between runs on the
/// same seed, so it is reported per layer, not gated.  Throughput comes from
/// the contended chunks, and every chunk checks mutual exclusion.  As
/// for the checker, each figure is taken from its best chunk.
fn measure_lock<F>(
    lock: &dyn AmxLock,
    mut participants: Vec<Participant>,
    window: Duration,
    seed: u64,
    mut clock: SetupClock<F>,
) -> Result<Outcome, String>
where
    F: FnMut() -> Result<(Box<dyn AmxLock>, Vec<Participant>), String>,
{
    let chunks = window.as_secs().max(3);
    let solo_chunks = chunks / 2;
    let (mut p50, mut per_s) = (f64::INFINITY, 0f64);
    let (mut entries, mut failed) = (0u64, 0u64);
    for c in 0..chunks {
        let mut shape = lock::contended(Duration::from_secs(1), seed ^ (c << 32), false);
        if c < solo_chunks {
            shape.active = 1;
        }
        let phase = lock::run_phase(lock, &mut participants, shape);
        if c < solo_chunks {
            p50 = p50.min(phase.acquire.quantile(0.50));
        } else {
            per_s = per_s.max(phase.entries_per_s());
        }
        entries += phase.entries();
        failed += phase.failures();
        clock.round()?;
    }
    eprintln!("{entries} acquisitions in {chunks} one-second chunks ({solo_chunks} uncontended)");
    Ok(Outcome {
        attempted: entries,
        failed,
        metrics: end_to_end(clock.finish()?, p50 / 1e3, per_s)?,
    })
}

fn end_to_end(setup_s: f64, p50_us: f64, per_s: f64) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_us", p50_us, "us"),
        metric("throughput_per_s", per_s, "1/s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// The checker-side layers of a traced run: a capturing pass, the
/// probes replayed on its captures, and the orbit and automorphism
/// enumerations of the workload's configurations.
struct Checker {
    traced: Pass,
    probe: Probe,
    orbits_s: f64,
    automorphisms_s: f64,
    group_order_mean: f64,
}

fn trace_checker(jobs: &[Box<dyn Job>], seed: u64, spans: &mut Spans) -> Result<Checker, String> {
    let per_point_cap = SAMPLE_CAP / jobs.len() as u64;
    let mut captures = Vec::with_capacity(jobs.len());
    let traced = spans.time("pass.traced", |spans| {
        check_pass(jobs, |job| {
            let pinned_states = pinned(&job.point().key())
                .and_then(|p| p.get("canonical_states").and_then(Value::as_u64))
                .unwrap_or(0);
            let sampler = Sampler {
                stride: pinned_states.div_ceil(per_point_cap).max(1),
                mix: seed,
            };
            let (report, captured) = spans.time("mc.run", |_| job.run_captured(sampler));
            captures.push(captured);
            report
        })
    });
    let mut probe = Probe::default();
    spans.enter("probe");
    for (job, captured) in jobs.iter().zip(&captures) {
        probe.add(&job.probe(captured, seed, spans)?);
    }
    spans.exit();
    let sizes: BTreeSet<(usize, usize)> = jobs.iter().map(|j| (j.point().n, j.point().m)).collect();
    let t = Instant::now();
    spans.time("registers.orbits", |_| {
        for (n, m) in sizes {
            black_box(adversary_orbits(n, m));
        }
    });
    let orbits_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let orders: Vec<usize> = spans.time("registers.automorphisms", |_| {
        jobs.iter().map(|j| j.automorphism_group_order()).collect()
    });
    let automorphisms_s = t.elapsed().as_secs_f64();
    Ok(Checker {
        traced,
        probe,
        orbits_s,
        automorphisms_s,
        group_order_mean: orders.iter().sum::<usize>() as f64 / orders.len() as f64,
    })
}

/// Traced model-checking workload: a warm-up and an untraced pass, then
/// the traced checker layers, then a short probe of the algorithm's
/// lock runtime.
fn trace_mc(
    spec: &Spec,
    jobs: &[Box<dyn Job>],
    seed: u64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    // The first pass of a process runs cold; compare warm passes only.
    let warmup = spans.time("pass.warmup", |_| check_pass(jobs, |j| j.run()));
    let untraced = spans.time("pass.untraced", |_| check_pass(jobs, |j| j.run()));
    let checker = trace_checker(jobs, seed, spans)?;
    let lock = spans.time("lock.probe", |spans| {
        lock::probe(
            spec.lock,
            seed,
            [
                Duration::from_millis(500),
                Duration::from_secs(1),
                Duration::from_millis(500),
            ],
            spans,
        )
    })?;
    let overhead = checker.traced.wall_s() / untraced.wall_s().max(1e-9);
    Ok(Outcome {
        attempted: 3 * jobs.len() as u64 + lock.entries(),
        failed: warmup.failed + untraced.failed + checker.traced.failed + lock.failed(),
        metrics: layer_metrics(&checker, &lock, overhead),
    })
}

/// Traced lock workload: an untraced contended loop, then the traced
/// lock probe, then the checker layers on the lock's configuration.
fn trace_lock(
    spec: &Spec,
    lock: &dyn AmxLock,
    mut participants: Vec<Participant>,
    jobs: &[Box<dyn Job>],
    args: &Args,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let window = Duration::from_secs(args.seconds);
    let untraced = spans.time("lock.untraced", |_| {
        let shape = lock::contended(window / 2, args.seed, false);
        lock::run_phase(lock, &mut participants, shape)
    });
    let probe = spans.time("lock.probe", |spans| {
        lock::probe(
            spec.lock,
            args.seed,
            [window / 4, window / 2, Duration::from_secs(1)],
            spans,
        )
    })?;
    let checker = trace_checker(jobs, args.seed, spans)?;
    // Fixed-length loops: the traced wall time per entry over the
    // untraced one.
    let overhead = untraced.entries_per_s() / probe.contended.entries_per_s().max(1e-9);
    Ok(Outcome {
        attempted: untraced.entries() + probe.entries() + jobs.len() as u64,
        failed: untraced.failures() + probe.failed() + checker.traced.failed,
        metrics: layer_metrics(&checker, &probe, overhead),
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
fn layer_metrics(c: &Checker, l: &lock::Probe, overhead: f64) -> Vec<Metric> {
    let reps = &c.traced.reports;
    let sum = |f: fn(&McReport) -> f64| reps.iter().map(f).sum::<f64>();
    let max = |f: fn(&McReport) -> f64| reps.iter().map(f).fold(0.0, f64::max);
    let wall = sum(|r| r.wall_time.as_secs_f64());
    let scc = sum(|r| r.scc_wall_time.as_secs_f64());
    let canonical = sum(|r| r.canonical_states as f64);
    let full = sum(|r| r.full_states_estimate as f64);
    let faults = sum(|r| r.spill_faults as f64);
    let p = &c.probe;
    let (u, k) = (&l.uncontended, &l.contended);
    let (u_entries, k_entries) = (u.entries() as f64, k.entries() as f64);
    let fairness = ratio(
        k.entries_per_thread.iter().copied().min().unwrap_or(0) as f64,
        k.entries_per_thread.iter().copied().max().unwrap_or(0) as f64,
    );
    vec![
        metric("mc.explore_s", wall - scc, "s"),
        metric("mc.livelock_s", scc, "s"),
        metric("mc.livelock_share", ratio(scc, wall), "ratio"),
        metric("mc.canonical_states", canonical, "count"),
        metric("mc.full_states", full, "count"),
        metric("mc.transitions", sum(|r| r.transitions as f64), "count"),
        metric("mc.peak_frontier", max(|r| r.peak_frontier as f64), "count"),
        metric("mc.reduction_ratio", ratio(full, canonical), "ratio"),
        metric("mc.points", reps.len() as f64, "count"),
        metric(
            "mc.max_point_wall_s",
            max(|r| r.wall_time.as_secs_f64()),
            "s",
        ),
        metric(
            "intern.arena_bytes_per_state",
            ratio(sum(|r| r.arena_bytes as f64), canonical),
            "B",
        ),
        metric(
            "intern.seen_table_mb",
            max(|r| r.seen_table_bytes as f64) / 1e6,
            "MB",
        ),
        metric(
            "intern.resident_mb",
            max(|r| r.arena_resident_bytes as f64) / 1e6,
            "MB",
        ),
        metric(
            "intern.spilled_mb",
            max(|r| r.arena_spilled_bytes as f64) / 1e6,
            "MB",
        ),
        metric("intern.spill_faults", faults, "count"),
        metric(
            "intern.spill_evictions",
            sum(|r| r.spill_evictions as f64),
            "count",
        ),
        metric("intern.faults_per_state", ratio(faults, canonical), "ratio"),
        metric(
            "intern.insert_ns",
            ratio(p.insert_ns, p.inserts as f64),
            "ns",
        ),
        metric(
            "intern.lookup_hit_ns",
            ratio(p.lookup_ns, p.lookups as f64),
            "ns",
        ),
        metric(
            "intern.get_resident_ns",
            ratio(p.get_resident_ns, p.gets_resident as f64),
            "ns",
        ),
        metric(
            "intern.get_spilled_ns",
            ratio(p.get_spilled_ns, p.gets_spilled as f64),
            "ns",
        ),
        metric(
            "intern.probe_faults_per_get",
            ratio(p.spill_faults as f64, p.gets_spilled as f64),
            "ratio",
        ),
        metric(
            "encode.state_ns",
            ratio(p.encode_ns, p.encodes as f64),
            "ns",
        ),
        metric(
            "encode.bytes_per_state",
            ratio(p.encoded_bytes as f64, p.encodes as f64),
            "B",
        ),
        metric("automaton.step_ns", ratio(p.step_ns, p.steps as f64), "ns"),
        metric(
            "automaton.completion_share",
            ratio(p.completions as f64, p.steps as f64),
            "ratio",
        ),
        metric("registers.orbits_s", c.orbits_s, "s"),
        metric("registers.automorphisms_s", c.automorphisms_s, "s"),
        metric("registers.group_order_mean", c.group_order_mean, "count"),
        metric(
            "props.monitor_eval_ns",
            ratio(p.monitor_ns, p.monitor_evals as f64),
            "ns",
        ),
        metric("props.monitor_hits", p.monitor_hits as f64, "count"),
        metric("lock.acquire_mean_ns", k.acquire.mean(), "ns"),
        metric("lock.acquire_p50_ns", k.acquire.quantile(0.50), "ns"),
        metric("lock.acquire_p99_ns", k.acquire.quantile(0.99), "ns"),
        metric("lock.release_ns", ratio(k.release_ns, k_entries), "ns"),
        metric("lock.uncontended_acquire_ns", u.acquire.mean(), "ns"),
        metric(
            "lock.uncontended_release_ns",
            ratio(u.release_ns, u_entries),
            "ns",
        ),
        metric(
            "lock.uncontended_cycle_ns",
            u.acquire.mean() + ratio(u.release_ns, u_entries),
            "ns",
        ),
        metric("lock.entries_fairness", fairness, "ratio"),
        metric(
            "lock.saturated_entries_per_s",
            l.saturated.entries_per_s(),
            "1/s",
        ),
        metric(
            "registers.reads_per_entry",
            ratio(k.ops.reads as f64, k_entries),
            "count",
        ),
        metric(
            "registers.writes_per_entry",
            ratio(k.ops.writes as f64, k_entries),
            "count",
        ),
        metric(
            "registers.cas_per_entry",
            ratio(k.ops.cas_ops as f64, k_entries),
            "count",
        ),
        metric(
            "registers.snapshots_per_entry",
            ratio(k.ops.snapshots as f64, k_entries),
            "count",
        ),
        metric(
            "registers.collect_rounds_per_snapshot",
            ratio(k.ops.collect_rounds as f64, k.ops.snapshots as f64),
            "ratio",
        ),
        metric(
            "registers.ops_contended_over_uncontended",
            ratio(
                ratio(k.ops.total_primitive_ops() as f64, k_entries),
                ratio(u.ops.total_primitive_ops() as f64, u_entries),
            ),
            "ratio",
        ),
        metric("trace.overhead_share", overhead, "ratio"),
    ]
}

/// One deep-record point: a single check on one worker, checked
/// against its pinned values.
pub fn record_point(name: &str) -> Result<Outcome, String> {
    let (point, budget) = mc::record_point(name).ok_or_else(|| {
        format!("unknown record point {name:?}; one of alg1-4-5, alg2-3-5, alg2-5-1")
    })?;
    let spill_dir = out_dir().join("spill");
    std::fs::create_dir_all(&spill_dir)
        .map_err(|e| format!("create {}: {e}", spill_dir.display()))?;
    let settings = Settings { budget, spill_dir };
    let job = mc::build_job(&point, &settings)?;
    let pass = check_pass(std::slice::from_ref(&job), |j| j.run());
    let rep = pass
        .reports
        .first()
        .ok_or("the record point did not complete")?;
    let wall = rep.wall_time.as_secs_f64();
    let scc = rep.scc_wall_time.as_secs_f64();
    let mut metrics = vec![
        metric("wall_s", pass.wall_s(), "s"),
        metric("livelock_s", scc, "s"),
        metric("livelock_share", ratio(scc, wall), "ratio"),
        metric("canonical_states", rep.canonical_states as f64, "count"),
        metric("full_states", rep.full_states_estimate as f64, "count"),
        metric("transitions", rep.transitions as f64, "count"),
        metric(
            "states_per_s",
            ratio(rep.canonical_states as f64, wall),
            "1/s",
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("resident_mb", rep.arena_resident_bytes as f64 / 1e6, "MB"),
        metric("spilled_mb", rep.arena_spilled_bytes as f64 / 1e6, "MB"),
        metric("seen_table_mb", rep.seen_table_bytes as f64 / 1e6, "MB"),
        metric("spill_faults", rep.spill_faults as f64, "count"),
        metric("spill_evictions", rep.spill_evictions as f64, "count"),
        metric(
            "arena_bytes_per_state",
            ratio(rep.arena_bytes as f64, rep.canonical_states as f64),
            "B",
        ),
    ];
    for m in &rep.monitors {
        if m.name == "writer-collision" {
            metrics.push(metric(
                "writer_collision_hits",
                m.hit_states as f64,
                "count",
            ));
        }
    }
    for q in &rep.scc_queries {
        eprintln!(
            "scc-query {}: {}",
            q.name,
            mc::query_answer(q.holds_everywhere, q.holds_somewhere)
        );
    }
    Ok(Outcome {
        attempted: 1,
        failed: pass.failed,
        metrics,
    })
}
