//! Adversary-orbit model-checking sweep over Algorithms 1 and 2.
//!
//! For each grid point `(algorithm, n, m)` with `m` drawn from the
//! paper's valid set `M(n)` (plus invalid control points), this driver
//! model-checks the algorithm under **one adversary per orbit** — the
//! `amx_registers::orbit` enumeration proves that covers *every*
//! permutation assignment up to state-graph isomorphism — with the
//! engine's wreath (register-aware) symmetry reduction on.  The wreath
//! group is the adversary's full automorphism group (process
//! permutation ∘ physical register relabeling), so the reduction bites
//! on every orbit with automorphisms — including the rotation/ring
//! orbits where no two processes share a permutation and the older
//! process-only reduction stored every concrete state.  Because the
//! reduction stores one canonical state per orbit, the sweep reaches
//! configurations the pre-symmetry engine (hard-capped at
//! cloned-`HashMap` scale) could not touch: the `--deep` point explores
//! a state space whose concrete size exceeds the old default
//! 2,000,000-state bound.
//!
//! Run: `cargo run --release -p amx-bench --bin mc_sweep -- [options]`
//!
//! Options:
//!   --smoke          small CI grid
//!   --deep           add the deep + n = 4 frontier points to a smoke run
//!   --threads N      worker-thread cap (default 1; the engine clamps
//!                    to available cores)
//!   --crashes K      add the crash-survival points: each algorithm's
//!                    (3, m) configuration re-checked with a total
//!                    crash budget of K under both crash modes
//!                    (wipe-registers and stale-claims; the full and
//!                    deep grids add the alg1 (4, 5) frontier under
//!                    wipe-registers).  The verdicts land in the JSON
//!                    and are gated exactly by --baseline
//!   --out PATH       where to write the JSON report (default BENCH_mc.json)
//!   --no-progress    disable the throttled live-progress lines on stderr
//!   --property NAME  (repeatable) attach the named `amx-props` built-in
//!                    predicate as an on-the-fly reachability monitor to
//!                    every grid point; hit counts land in the JSON
//!                    (e.g. writer-collision, full-view — see
//!                    `amx_props::predicate::by_name`)
//!   --scc-query NAME (repeatable) attach the named predicate as an
//!                    SCC-interior query: on every fair-livelock point,
//!                    report whether it holds somewhere/everywhere
//!                    inside the livelock component (with a concrete
//!                    witness schedule when somewhere)
//!   --baseline PATH  gate this sweep against the report at PATH (see
//!                    "Gates" below)
//!
//! Out-of-core / resumability options (see the `amx-sim` crate docs):
//!   --resident-budget BYTES  cap the resident arena bytes per point;
//!                    cold compressed pages spill to disk and fault
//!                    back in transparently (suffixes k/m/g, e.g. 64m)
//!   --spill-dir DIR  where spill files live (default: the system temp
//!                    dir; they are unlinked on creation either way)
//!   --checkpoint-dir DIR     checkpoint completed BFS levels; each
//!                    grid point writes to its own subdirectory
//!   --checkpoint-every N     checkpoint every N levels (default 1)
//!   --resume         continue each point from its checkpoint if one
//!                    exists (configuration-fingerprint-checked)
//!   --halt-after-checkpoints K  stop each point after writing K
//!                    checkpoints (verdict `interrupted`); the sweep
//!                    then exits with code 86 so CI can rerun it with
//!                    `--resume` and assert bit-identical counts
//!
//! An unknown option, or a missing or malformed value, exits with code 2
//! and a message naming the option.
//!
//! **The grid** is one table, [`GRID`], in report order.  A row names
//! the grids that carry it (both, the full grid only, or the full grid
//! plus `--smoke --deep`), its report section, the algorithm, `n` and
//! `m`, its adversaries (every orbit or the first k, identity,
//! rotations, the 3-cycle ring, or a crash mode) and the lowest
//! canonical-state bound it needs.  A point's bound is the higher of
//! that and the grid's: 500,000 on the smoke grid, 4,000,000 on the full
//! grid.  One loop runs, records and prints every point.
//!
//! **Gates** (`--baseline PATH`), exact with no slack, on every point
//! both this sweep and PATH hold: the verdict, `canonical_states`,
//! `full_states`, `transitions` and `max_pending_depth`; the arena's
//! exact work — `peak_frontier`, `arena_bytes` and `seen_table_bytes`,
//! which pin the stored record format; the witness — a livelock's
//! `pending`, `scc_states` and `witness_schedule`, or a violation's
//! schedule; and each property hit count and SCC-query answer, with its
//! witness schedule, recorded in both reports.  All of them are
//! deterministic at every worker count, with or without a resident
//! budget and across a resume, so any change is a regression (a weaker
//! symmetry group, a wrong orbit count, a lost edge, a crash-survival
//! flip, a witness moved by a changed group element or confirmation, a
//! changed arena record).  Two gates depend on which points
//! the grid holds, so they run only when PATH records the same grid
//! (its `smoke` and `deep` flags): coverage — every point of PATH must
//! be in this sweep, crash points only when it passes `--crashes` —
//! and the wall budget — the summed wall time may be at most 3× PATH's
//! `total_wall_ms`.  A failed gate names the point and the field and
//! exits with code 1.
//!
//! The JSON report (`BENCH_mc.json`) carries the perf trajectory the CI
//! bench-smoke job tracks: aggregate states/second, the
//! canonical-vs-full compression ratio, compressed-arena and seen-table
//! bytes, fair-livelock SCC wall time, frontier steal counts — and,
//! since the property subsystem landed, per-point mutual-exclusion
//! verification, per-process `max_pending_depth` (longest observed
//! wait), property-monitor hit counts and SCC-query answers.  The
//! committed `BENCH_baseline.json` is the recorded smoke baseline the
//! CI gates compare against.
//!
//! Grid notes: both grids carry the n = 4 point alg2 (4, 1); the full
//! grid adds alg2 (5, 1) — the first n = 5 datapoint — and the alg1
//! (4, 5) frontier point (5.2M canonical / 122M concrete states),
//! whose fair-livelock verdict is a tracked known
//! deviation (see ROADMAP) — `--scc-query full-view` on that point
//! answers the ROADMAP's withdrawal-rule question over the whole
//! 64,504-state livelock component.  Smoke additionally runs the alg1
//! (3, 5) budget-anchor point so the perf gate measures above noise,
//! and the model-checked **non-anonymous baselines** (TAS, Burns–Lynch,
//! 2-process Peterson from `amx_baselines::automaton`), which must all
//! verify `Ok`.

use std::fmt::Write as _;
use std::time::Instant;

use amx_baselines::automaton::{BurnsLynchAutomaton, PetersonTwoAutomaton, TasAutomaton};
use amx_bench::{flag_value, json_number, json_string, Baseline, ByteCount};
use amx_core::{Alg1Automaton, Alg2Automaton, MutexSpec};
use amx_ids::PidPool;
use amx_numth::is_valid_m;
use amx_props::obs::Observe;
use amx_props::predicate::{by_name, StatePredicate};
use amx_props::property::{monitor_for, scc_query_for};
use amx_registers::orbit::adversary_orbits;
use amx_registers::{Adversary, Permutation};
use amx_sim::mc::{
    CrashBudget, CrashMode, McError, McProgress, McReport, ModelChecker, Symmetry, Verdict,
};
use amx_sim::EncodeState;
use amx_sim::MemoryModel::{self, Rmw, Rw};

/// Which grids carry a table row.
#[derive(Debug, Clone, Copy)]
enum Grids {
    /// The smoke grid and the full grid.
    Both,
    /// The full grid only.
    Full,
    /// The full grid, and the smoke grid with `--deep`.
    Deep,
}

/// The adversaries a table row runs under.
#[derive(Debug, Clone, Copy)]
enum Adv {
    /// One representative per adversary orbit.
    AllOrbits,
    /// The first k orbit representatives.
    FirstOrbits(usize),
    Identity,
    /// `Adversary::Rotations { stride: 1 }`.
    Rotations,
    /// The 3-cycle ring (id, c, c²), c = (0 1 2), embedded in `m`
    /// registers.
    Ring3,
    /// The identity adversary with `--crashes K` crashes of this mode;
    /// the row runs only with `--crashes`.
    Crash(CrashMode),
}

impl Adv {
    /// The adversary family tag of the report and the point keys.
    fn tag(self) -> &'static str {
        match self {
            Adv::AllOrbits | Adv::FirstOrbits(_) => "orbit",
            Adv::Identity => "identity",
            Adv::Rotations | Adv::Ring3 => "ring",
            Adv::Crash(CrashMode::WipeRegisters) => "crash-wipe",
            Adv::Crash(CrashMode::StaleClaims) => "crash-stale",
        }
    }
}

/// One row of [`GRID`].
#[derive(Debug)]
struct Row {
    grids: Grids,
    /// The report section: its header prints when the section changes
    /// (an empty one prints nothing).  `{k}` stands for the crash budget.
    section: &'static str,
    /// Algorithm tag: `"1"`, `"2"`, or a model-checked baseline
    /// (`"tas"`, `"burns"`, `"peterson"`).
    alg: &'static str,
    n: usize,
    m: usize,
    adv: Adv,
    /// The lowest canonical-state bound the row needs.
    bound: usize,
}

impl Row {
    /// Whether `m ∈ M(n)`.  The baselines are not anonymous, so their
    /// register count is always valid.
    fn valid_m(&self) -> bool {
        !matches!(self.alg, "1" | "2") || is_valid_m(self.m as u64, self.n as u64)
    }
}

const fn row(
    grids: Grids,
    section: &'static str,
    alg: &'static str,
    n: usize,
    m: usize,
    adv: Adv,
    bound: usize,
) -> Row {
    Row {
        grids,
        section,
        alg,
        n,
        m,
        adv,
        bound,
    }
}

const CONTROL: &str = "  (invalid-m control: first 3 of 17 orbits at alg1 n=2 m=4)";
const BASELINES: &str = "\nnon-anonymous baselines (model-checked):";
const RINGS: &str = "\nrotation/ring orbits (wreath-reduction showcases):";
const CRASHES: &str = "\ncrash-survival points (total crash budget {k}):";
const FRONTIER: &str = "\nn = 4 frontier point (122M concrete states):";
const DEEP: &str = "\nDeep point (concrete space beyond the old 2M default bound):";

use Adv::{AllOrbits, Crash, FirstOrbits, Identity, Ring3, Rotations};
use CrashMode::{StaleClaims, WipeRegisters};
use Grids::{Both, Deep, Full};

/// The sweep grid, in report order.  Columns: grids, section,
/// algorithm, n, m, adversaries, lowest state bound.
const GRID: &[Row] = &[
    // Algorithm 1 (RW): its smallest valid configurations, across every
    // adversary orbit.
    row(Both, "", "1", 2, 3, AllOrbits, 0),
    row(Full, "", "1", 2, 5, AllOrbits, 0),
    // Invalid control: gcd(2, 4) = 2, so every orbit must livelock.  It
    // is a control point, not the sweep target, so 3 of its 17 orbits
    // run.
    row(Both, CONTROL, "1", 2, 4, FirstOrbits(3), 0),
    // Algorithm 2 (RMW) across orbits: the degenerate m = 1, the
    // smallest nontrivial valid m (3), an invalid control (2), and more
    // processes on one register.  (4, 1) is small enough for the smoke
    // grid; (5, 1) is the first n = 5 datapoint.
    row(Both, "", "2", 2, 1, AllOrbits, 0),
    row(Both, "", "2", 2, 3, AllOrbits, 0),
    row(Both, "", "2", 2, 2, AllOrbits, 0),
    row(Full, "", "2", 2, 5, AllOrbits, 0),
    row(Full, "", "2", 3, 1, AllOrbits, 0),
    row(Both, "", "2", 4, 1, AllOrbits, 0),
    row(Full, "", "2", 5, 1, AllOrbits, 0),
    // The non-anonymous comparators, all expected Ok: TAS, Burns–Lynch
    // (the m ≥ n lower-bound-matching RW lock) and 2-process Peterson.
    // They finish in milliseconds, so both grids machine-check mutual
    // exclusion for every comparator the bench tables quote.
    row(Both, BASELINES, "tas", 2, 1, Identity, 0),
    row(Both, BASELINES, "tas", 3, 1, Identity, 0),
    row(Both, BASELINES, "burns", 2, 2, Identity, 0),
    row(Both, BASELINES, "burns", 3, 3, Identity, 0),
    row(Both, BASELINES, "peterson", 2, 3, Identity, 0),
    // Orbits whose permutations are pairwise distinct, so a process-only
    // reduction stores every concrete state while the wreath group is
    // the cyclic Z_3 "shift processes ∘ rotate registers".  (3, 3) is
    // outside M(3) (expected livelock) for both algorithms; 5 ∈ M(3).
    row(Both, RINGS, "1", 3, 3, Rotations, 0),
    row(Both, RINGS, "2", 3, 3, Rotations, 0),
    row(Both, RINGS, "1", 3, 5, Ring3, 2_000_000),
    // Budget anchor: a mid-six-figure canonical space that takes long
    // enough (~1 s) for the 3× wall budget to measure engine
    // regressions above scheduler noise; the rest of the smoke grid
    // finishes in milliseconds.
    row(Both, RINGS, "1", 3, 5, Identity, 2_000_000),
    // Crash-survival points: does deadlock-freedom survive an adversary
    // that may crash up to K mid-invocation processes?  A crashed
    // process reboots with no local memory; under WipeRegisters its
    // claims evaporate with it, under StaleClaims they linger — the
    // paper-relevant question for anonymous memory, where a rebooted
    // process cannot remember which registers it owned.  The verdicts
    // are the measurement, gated exactly against the baseline.
    row(Both, CRASHES, "1", 3, 5, Crash(WipeRegisters), 2_000_000),
    row(Both, CRASHES, "2", 3, 1, Crash(WipeRegisters), 2_000_000),
    row(Both, CRASHES, "1", 3, 5, Crash(StaleClaims), 2_000_000),
    row(Both, CRASHES, "2", 3, 1, Crash(StaleClaims), 2_000_000),
    // The crash-free (4, 5) point is already 5.2M canonical states and
    // crash counts multiply that; a bound overflow here is reported,
    // not fatal.
    row(Deep, CRASHES, "1", 4, 5, Crash(WipeRegisters), 32_000_000),
    // Algorithm 1 at its smallest valid 4-process RW configuration:
    // 5.2M canonical / 122M concrete states, minutes rather than
    // seconds.
    row(Deep, FRONTIER, "1", 4, 5, Identity, 8_000_000),
    // The smallest valid 3-process RMW configuration: ~18.2M concrete
    // states, 9× past the old engine's default 2,000,000-state bound
    // (the seed test suite gave up on it); the reduction stores ~3.0M.
    row(Deep, DEEP, "2", 3, 5, Identity, 8_000_000),
];

/// The command line (see the module docs).
#[derive(Debug)]
struct Cli {
    smoke: bool,
    deep: bool,
    threads: usize,
    progress: bool,
    /// `--crashes K`: adds the crash-survival rows with a total crash
    /// budget of K.
    crashes: Option<u8>,
    /// `--property`: reachability monitors on every point.
    monitors: Vec<StatePredicate>,
    /// `--scc-query`: queries over every livelock component.
    queries: Vec<StatePredicate>,
    resident_budget: Option<usize>,
    spill_dir: Option<String>,
    checkpoint_dir: Option<String>,
    checkpoint_every: u32,
    resume: bool,
    halt_after_checkpoints: Option<u32>,
    out: String,
    baseline: Option<Baseline>,
}

impl Cli {
    /// The canonical-state bound of a point whose row needs no more.
    fn max_states(&self) -> usize {
        if self.smoke {
            500_000
        } else {
            4_000_000
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        smoke: false,
        deep: false,
        threads: 1,
        progress: true,
        crashes: None,
        monitors: Vec::new(),
        queries: Vec::new(),
        resident_budget: None,
        spill_dir: None,
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
        halt_after_checkpoints: None,
        out: "BENCH_mc.json".to_string(),
        baseline: None,
    };
    let predicate = |flag: &str, value: Option<String>| {
        let name: String = flag_value(flag, value)?;
        by_name(&name)
            .ok_or_else(|| format!("unknown predicate {name}; see amx_props::predicate::by_name"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--deep" => cli.deep = true,
            "--no-progress" => cli.progress = false,
            "--threads" => cli.threads = flag_value(&arg, args.next())?,
            "--crashes" => cli.crashes = Some(flag_value(&arg, args.next())?),
            "--property" => cli.monitors.push(predicate(&arg, args.next())?),
            "--scc-query" => cli.queries.push(predicate(&arg, args.next())?),
            "--out" => cli.out = flag_value(&arg, args.next())?,
            "--baseline" => cli.baseline = Some(Baseline::read(flag_value(&arg, args.next())?)?),
            "--resident-budget" => {
                cli.resident_budget = Some(flag_value::<ByteCount>(&arg, args.next())?.0);
            }
            "--spill-dir" => cli.spill_dir = Some(flag_value(&arg, args.next())?),
            "--checkpoint-dir" => cli.checkpoint_dir = Some(flag_value(&arg, args.next())?),
            "--checkpoint-every" => cli.checkpoint_every = flag_value(&arg, args.next())?,
            "--resume" => cli.resume = true,
            "--halt-after-checkpoints" => {
                cli.halt_after_checkpoints = Some(flag_value(&arg, args.next())?);
            }
            other => return Err(format!("unknown option {other}; see the crate docs")),
        }
    }
    Ok(cli)
}

/// The points `cli` selects, in report order: every carried row at each
/// of its adversaries, numbered from 0 (the orbit index).
fn grid(cli: &Cli) -> Vec<(&'static Row, usize, Adversary)> {
    let mut points = Vec::new();
    for row in GRID {
        let carried = match row.grids {
            Both => true,
            Full => !cli.smoke,
            Deep => !cli.smoke || cli.deep,
        };
        if !carried || (matches!(row.adv, Crash(_)) && cli.crashes.is_none()) {
            continue;
        }
        let adversaries = match row.adv {
            AllOrbits => adversary_orbits(row.n, row.m),
            FirstOrbits(k) => adversary_orbits(row.n, row.m).into_iter().take(k).collect(),
            Identity | Crash(_) => vec![Adversary::Identity],
            Rotations => vec![Adversary::Rotations { stride: 1 }],
            Ring3 => {
                let forward = (0..row.m).map(|i| if i < 3 { (i + 1) % 3 } else { i });
                let c = Permutation::from_forward(forward.collect()).expect("a 3-cycle");
                let ring = vec![Permutation::identity(row.m), c.clone(), c.compose(&c)];
                vec![Adversary::Explicit(ring)]
            }
        };
        for (orbit, adversary) in adversaries.into_iter().enumerate() {
            points.push((row, orbit, adversary));
        }
    }
    points
}

/// Runs one grid point: builds the row's automata and checks them.
fn run(row: &Row, orbit: usize, adversary: &Adversary, cli: &Cli) -> Result<McReport, McError> {
    let (n, m) = (row.n, row.m);
    let dir = point_dir_tag(row.alg, n, m, orbit, row.adv.tag());
    let mut pool = PidPool::sequential();
    match row.alg {
        "1" => {
            let spec = MutexSpec::rw_unchecked(n, m);
            let automata = (0..n).map(|_| Alg1Automaton::new(spec, pool.mint()));
            check(automata.collect(), Rw, row, adversary, &dir, cli)
        }
        "2" => {
            let spec = MutexSpec::rmw_unchecked(n, m);
            let automata = (0..n).map(|_| Alg2Automaton::new(spec, pool.mint()));
            check(automata.collect(), Rmw, row, adversary, &dir, cli)
        }
        "tas" => {
            let automata = (0..n).map(|_| TasAutomaton::new(pool.mint()));
            check(automata.collect(), Rmw, row, adversary, &dir, cli)
        }
        "burns" => {
            let automata = (0..n).map(|i| BurnsLynchAutomaton::new(pool.mint(), i, n));
            check(automata.collect(), Rw, row, adversary, &dir, cli)
        }
        "peterson" => {
            let automata = (0..n).map(|i| PetersonTwoAutomaton::new(pool.mint(), i));
            check(automata.collect(), Rw, row, adversary, &dir, cli)
        }
        other => unreachable!("no algorithm {other}"),
    }
}

/// Configures one checker over `automata` and runs it: wreath symmetry,
/// the row's state bound, then the command line's workers, progress,
/// monitors and queries, crash budget, spill and checkpoints.  Each
/// point checkpoints into its own subdirectory `dir` of
/// `--checkpoint-dir`, so a killed sweep resumes every point from its
/// own level boundary.
fn check<A>(
    automata: Vec<A>,
    model: MemoryModel,
    row: &Row,
    adversary: &Adversary,
    dir: &str,
    cli: &Cli,
) -> Result<McReport, McError>
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send,
{
    let mut mc = ModelChecker::with_automata(automata.clone(), model, row.m, adversary)
        .expect("grid adversaries are valid")
        .symmetry(Symmetry::Wreath)
        .max_states(cli.max_states().max(row.bound))
        .threads(cli.threads);
    if cli.progress {
        // Live progress on stderr, throttled to one line every 2 s: the
        // orbit accounting gives an exact concrete-state figure cheaply,
        // so big points show canonical throughput AND what fraction of
        // the concrete space the stored representatives stand for.
        let last = std::sync::Mutex::new(Instant::now());
        mc = mc.progress(move |p: &McProgress| {
            let mut last = last
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if last.elapsed() < std::time::Duration::from_secs(2) {
                return;
            }
            *last = Instant::now();
            eprintln!(
                "    … {:>9} canon = {:>4.1}% of {:>9} concrete (exact)  {:>8.0} st/s",
                p.states,
                100.0 * p.states as f64 / p.full_states_estimate.max(1) as f64,
                p.full_states_estimate,
                p.states as f64 / p.elapsed.as_secs_f64().max(1e-9),
            );
        });
    }
    if !cli.monitors.is_empty() || !cli.queries.is_empty() {
        let perms = adversary
            .permutations(automata.len(), row.m)
            .expect("grid adversaries are valid");
        for p in &cli.monitors {
            mc = mc.monitor(monitor_for(p, &automata, &perms, false));
        }
        for q in &cli.queries {
            mc = mc.scc_query(scc_query_for(q, &automata, &perms));
        }
    }
    if let (Crash(mode), Some(k)) = (row.adv, cli.crashes) {
        mc = mc.crashes(CrashBudget::total(k), mode);
    }
    if let Some(bytes) = cli.resident_budget {
        mc = mc.resident_budget(bytes);
    }
    if let Some(spill_dir) = &cli.spill_dir {
        mc = mc.spill_dir(spill_dir);
    }
    if let Some(root) = &cli.checkpoint_dir {
        mc = mc
            .checkpoint_dir(std::path::Path::new(root).join(dir))
            .checkpoint_every(cli.checkpoint_every)
            .resume(cli.resume);
        if let Some(k) = cli.halt_after_checkpoints {
            mc = mc.halt_after_checkpoints(k);
        }
    }
    mc.run()
}

/// One grid point and its outcome.
#[derive(Debug)]
struct Point {
    row: &'static Row,
    orbit: usize,
    /// Total crash budget of this point (0 = the crash-free model).
    crashes: u8,
    report: Result<McReport, McError>,
}

/// Stable identity of a grid point across sweeps, for baseline matching.
fn point_key(alg: &str, n: usize, m: usize, orbit: usize, adv: &str) -> String {
    format!("alg{alg} n={n} m={m} orbit={orbit} adv={adv}")
}

/// Filesystem-safe per-point checkpoint subdirectory name; unique
/// across the grid for the same reason [`point_key`] is.
fn point_dir_tag(alg: &str, n: usize, m: usize, orbit: usize, adv: &str) -> String {
    format!("alg{alg}-n{n}-m{m}-o{orbit}-{adv}")
}

fn verdict_tag(r: &Result<McReport, McError>) -> &'static str {
    match r {
        Ok(rep) => match rep.verdict {
            Verdict::Ok => "ok",
            Verdict::MutualExclusionViolation { .. } => "mutex-violation",
            Verdict::FairLivelock { .. } => "fair-livelock",
            Verdict::PropertyViolation { .. } => "property-violation",
            Verdict::Interrupted { .. } => "interrupted",
        },
        Err(McError::StateSpaceExceeded(_)) => "state-bound-exceeded",
        Err(McError::Spill(_)) => "spill-error",
        Err(McError::Checkpoint(_)) => "checkpoint-error",
    }
}

fn print_point(p: &Point) {
    let head = format!(
        "  {:<11} n={} m={} ({})  orbit {:>3} {:<8}",
        format!("alg{}", p.row.alg),
        p.row.n,
        p.row.m,
        if p.row.valid_m() {
            "valid  "
        } else {
            "invalid"
        },
        p.orbit,
        p.row.adv.tag(),
    );
    match &p.report {
        Ok(rep) => {
            let ratio = rep.canonical_states as f64 / rep.full_states_estimate.max(1) as f64;
            println!(
                "{head}  {:<14}  canon {:>9}  full {:>9}  ({:>5.1}% stored)  {:>8.0} st/s  \
                 {:>5.1} B/st  scc {:>6.2}s",
                verdict_tag(&p.report),
                rep.canonical_states,
                rep.full_states_estimate,
                100.0 * ratio,
                rep.canonical_states as f64 / rep.wall_time.as_secs_f64().max(1e-9),
                rep.arena_bytes as f64 / rep.canonical_states.max(1) as f64,
                rep.scc_wall_time.as_secs_f64(),
            );
            if rep.arena_spilled_bytes > 0 || rep.spill_faults > 0 {
                println!(
                    "        spill: {:.1} MB on disk / {:.1} MB resident, {} evictions, {} faults",
                    rep.arena_spilled_bytes as f64 / 1e6,
                    rep.arena_resident_bytes as f64 / 1e6,
                    rep.spill_evictions,
                    rep.spill_faults,
                );
            }
            if let Some(lvl) = rep.resumed_from_level {
                println!("        resumed from checkpoint at level {lvl}");
            }
            for note in &rep.degraded {
                println!("        degraded: {note}");
            }
            for mon in &rep.monitors {
                println!(
                    "        property {:<32} {}",
                    mon.name,
                    if mon.hit_somewhere() {
                        format!("hit on {} states", mon.hit_states)
                    } else {
                        "never hit".to_string()
                    }
                );
            }
            for q in &rep.scc_queries {
                println!(
                    "        scc-query {:<31} {} ({}/{} states{})",
                    q.name,
                    if q.holds_everywhere {
                        "EVERYWHERE"
                    } else if q.holds_somewhere {
                        "somewhere"
                    } else {
                        "ABSENT"
                    },
                    q.hit_states,
                    q.states_examined,
                    q.witness_schedule
                        .as_ref()
                        .map(|s| format!(", witness {s:?}"))
                        .unwrap_or_default(),
                );
            }
        }
        Err(e) => println!("{head}  {e}"),
    }
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let started = Instant::now();
    println!(
        "mc_sweep — exhaustive adversary-orbit verification (symmetry: Wreath, {})\n",
        if cli.smoke { "smoke grid" } else { "full grid" }
    );
    println!("Each orbit representative stands for a whole class of permutation");
    println!("assignments (global relabeling × process reordering) — covering the");
    println!("class-count formula, every adversary is verified exactly once.\n");

    let mut points: Vec<Point> = Vec::new();
    let mut section = "";
    for (row, orbit, adversary) in grid(&cli) {
        if row.section != section {
            section = row.section;
            if !section.is_empty() {
                let k = cli.crashes.unwrap_or(0).to_string();
                println!("{}", section.replace("{k}", &k));
            }
        }
        let report = run(row, orbit, &adversary, &cli);
        let crashes = match row.adv {
            Crash(_) => cli.crashes.unwrap_or(0),
            _ => 0,
        };
        points.push(Point {
            row,
            orbit,
            crashes,
            report,
        });
        print_point(points.last().expect("just pushed"));
    }

    // Verify the sweep-wide invariants before reporting.  Every grid
    // point is sized to complete: a bound overflow is itself a severe
    // engine regression (and would otherwise silently shrink the
    // wall-time sum the perf budget below gates on), so Err is fatal.
    for p in &points {
        let (alg, n, m) = (p.row.alg, p.row.n, p.row.m);
        if p.crashes > 0 {
            // Crash-survival verdicts are the *measurement*, not an
            // invariant: whether deadlock-freedom survives crashes is
            // exactly what the sweep records (and the baseline gate
            // then pins).  A bound overflow on the exploratory crash
            // frontier is reported in the JSON rather than fatal.
            if let Err(e) = &p.report {
                println!(
                    "  note: crash point alg{alg} n={n} m={m} ({}) incomplete: {e}",
                    p.row.adv.tag()
                );
            }
            continue;
        }
        let rep = match &p.report {
            Ok(rep) => rep,
            Err(e) => panic!(
                "alg{alg} n={n} m={m} orbit {} failed to complete: {e}",
                p.orbit
            ),
        };
        // A point halted by --halt-after-checkpoints has no verdict to
        // check yet; the --resume rerun finishes it.
        if matches!(rep.verdict, Verdict::Interrupted { .. }) {
            continue;
        }
        let expected_livelock = !p.row.valid_m() || (alg == "1" && m < n);
        // Known deviation, under investigation (see ROADMAP): Algorithm
        // 1's deterministic free-slot refinement admits a fair livelock
        // at (n = 4, m = 5) even though 5 ∈ M(4) — found by this
        // engine's first n = 4 sweep and confirmed by an independent
        // earlier engine (identical canonical and concrete state
        // counts, same verdict).
        let known_deviation = alg == "1" && n == 4 && m == 5;
        match (&rep.verdict, expected_livelock) {
            (Verdict::Ok, false) | (Verdict::FairLivelock { .. }, true) => {}
            (Verdict::FairLivelock { .. }, false) if known_deviation => {
                println!(
                    "  note: alg1 n=4 m=5 fair livelock is the tracked known \
                     deviation (ROADMAP: Alg 1 n = 4 livelock)"
                );
            }
            (v, _) => panic!(
                "alg{alg} n={n} m={m} orbit {}: unexpected verdict {v:?}",
                p.orbit
            ),
        }
        if p.row.section == DEEP {
            assert!(
                rep.full_states_estimate > 2_000_000,
                "deep point no longer exceeds the old engine's default bound \
                 (full space {}); pick a bigger configuration",
                rep.full_states_estimate
            );
        }
    }

    let json = render_json(&points, &cli);
    std::fs::write(&cli.out, &json).expect("write the --out report");
    println!(
        "\n{} grid points in {:.2?}; wrote {}",
        points.len(),
        started.elapsed(),
        cli.out
    );

    // A sweep stopped by --halt-after-checkpoints is incomplete by
    // design: skip the regression gates (they would compare partial
    // counts) and exit with the dedicated code the CI resume job keys
    // on.
    let interrupted = points.iter().any(
        |p| matches!(&p.report, Ok(rep) if matches!(rep.verdict, Verdict::Interrupted { .. })),
    );
    if interrupted {
        println!("sweep interrupted at a checkpoint; rerun with --resume to continue");
        std::process::exit(86);
    }

    if let Some(base) = &cli.baseline {
        let other_grid = base.grid_differs(&[("smoke", cli.smoke), ("deep", cli.deep)]);
        let (failures, matched, compared) = gate(
            &recorded_points(&json),
            &recorded_points(&base.text),
            other_grid.is_none(),
            cli.crashes.is_some(),
        );
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("{failure}");
            }
            eprintln!(
                "{} gate failure(s) against baseline {}",
                failures.len(),
                base.path
            );
            std::process::exit(1);
        }
        println!(
            "exact gates: {compared} recorded verdicts, counts, witnesses, property hits and \
             SCC-query answers unchanged on {matched} grid-matched points"
        );
        if let Some(why) = other_grid {
            println!("skipping coverage and perf gates: {why}");
            return;
        }
        println!("coverage gate: every baseline point ran (crash points only with --crashes)");
        let actual_ms: f64 = points
            .iter()
            .filter_map(|p| p.report.as_ref().ok())
            .map(|r| r.wall_time.as_secs_f64() * 1e3)
            .sum();
        match base.wall_budget(actual_ms) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}

/// A point as the gates compare it: its key and its gated fields, each
/// as its report text.
#[derive(Debug, PartialEq)]
struct Recorded {
    key: String,
    /// `verdict`; `canonical_states`, `full_states`, `transitions`,
    /// `peak_frontier`, `arena_bytes`, `seen_table_bytes` and
    /// `max_pending_depth` (absent on a point that ended in an error);
    /// a livelock's `pending`, `scc_states` and `witness_schedule`, or a
    /// violation's `witness_schedule`; `property NAME` hit counts and
    /// `property-witness NAME` schedules; `scc-query NAME` answers and
    /// `scc-query-witness NAME` schedules.
    fields: Vec<(String, String)>,
}

/// Reads the points of a report back (one point per line), for the
/// gates: the baseline's, and this sweep's own as written.
fn recorded_points(json: &str) -> Vec<Recorded> {
    let mut out = Vec::new();
    for line in json.lines() {
        if !line.trim_start().starts_with("{\"alg\":") {
            continue;
        }
        let (Some(alg), Some(n), Some(m), Some(orbit)) = (
            json_string(line, "alg"),
            json_number(line, "n"),
            json_number(line, "m"),
            json_number(line, "orbit"),
        ) else {
            continue;
        };
        let adv = json_string(line, "adv").unwrap_or("orbit");
        let mut fields = Vec::new();
        if let Some(verdict) = json_string(line, "verdict") {
            fields.push(("verdict".to_string(), verdict.to_string()));
        }
        for count in [
            "canonical_states",
            "full_states",
            "transitions",
            "peak_frontier",
            "arena_bytes",
            "seen_table_bytes",
        ] {
            if let Some(v) = json_number::<u64>(line, count) {
                fields.push((count.to_string(), v.to_string()));
            }
        }
        for list in ["max_pending_depth", "pending"] {
            if let Some(items) = json_list(line, list) {
                fields.push((list.to_string(), items.to_string()));
            }
        }
        if let Some(size) = json_number::<u64>(line, "scc_states") {
            fields.push(("scc_states".to_string(), size.to_string()));
        }
        if let Some(schedule) = json_list(line, "witness_schedule") {
            fields.push(("witness_schedule".to_string(), schedule.to_string()));
        }
        for (object, kind) in [
            ("properties", "property"),
            ("property_witnesses", "property-witness"),
            ("scc_queries", "scc-query"),
            ("scc_query_witnesses", "scc-query-witness"),
        ] {
            for (name, value) in json_object(line, object) {
                fields.push((format!("{kind} {name}"), value));
            }
        }
        out.push(Recorded {
            key: point_key(alg, n, m, orbit, adv),
            fields,
        });
    }
    out
}

/// The exact gates.  On every point in both `now` and `base`, each field
/// recorded in both must be equal; fields in one report only (a
/// `--property` flag added or dropped, the counts of a point that
/// ended in an error) are not compared.  With `coverage`, every point
/// of `base` must be in `now` too, crash points only when `crashes`.
/// Returns the failures, the number of matched points and the number of
/// compared fields.
fn gate(
    now: &[Recorded],
    base: &[Recorded],
    coverage: bool,
    crashes: bool,
) -> (Vec<String>, usize, usize) {
    let mut failures = Vec::new();
    let (mut matched, mut compared) = (0, 0);
    for b in base {
        let Some(p) = now.iter().find(|p| p.key == b.key) else {
            if coverage && (crashes || !b.key.contains(" adv=crash-")) {
                failures.push(format!(
                    "COVERAGE REGRESSION: {} is in the baseline but did not run",
                    b.key
                ));
            }
            continue;
        };
        matched += 1;
        for (field, recorded) in &b.fields {
            let Some((_, value)) = p.fields.iter().find(|(f, _)| f == field) else {
                continue;
            };
            compared += 1;
            if value != recorded {
                let class = match field.split(' ').next() {
                    Some("verdict") => "VERDICT",
                    Some("property" | "scc-query") => "PROPERTY",
                    Some(
                        "pending" | "scc_states" | "witness_schedule" | "property-witness"
                        | "scc-query-witness",
                    ) => "WITNESS",
                    _ => "COUNT",
                };
                failures.push(format!(
                    "{class} REGRESSION: {} {field} is {value}, baseline recorded {recorded}",
                    b.key
                ));
            }
        }
    }
    (failures, matched, compared)
}

/// The text between the brackets of `"key": [...]` on one line.
fn json_list<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let k = format!("\"{key}\": [");
    let rest = &line[line.find(&k)? + k.len()..];
    Some(&rest[..rest.find(']')?])
}

/// The flat entries of a `"key": { ... }` object on one line.
fn json_object(line: &str, key: &str) -> Vec<(String, String)> {
    let k = format!("\"{key}\": {{");
    let Some(at) = line.find(&k) else {
        return Vec::new();
    };
    let rest = &line[at + k.len()..];
    let Some(end) = rest.find('}') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|entry| {
            let (k, v) = entry.split_once(':')?;
            Some((
                k.trim().trim_matches('"').to_string(),
                v.trim().trim_matches('"').to_string(),
            ))
        })
        .collect()
}

/// `items` joined by `sep`.
fn join(items: &[usize], sep: &str) -> String {
    let items: Vec<String> = items.iter().map(ToString::to_string).collect();
    items.join(sep)
}

/// Writes `, "key": {"NAME": "a b c", ...}`, one witness schedule per
/// name (`null` for none); nothing when there are no names.
fn write_witnesses<'a>(
    body: &mut String,
    key: &str,
    witnesses: impl Iterator<Item = (&'a String, &'a Option<Vec<usize>>)>,
) {
    let entries: Vec<String> = witnesses
        .map(|(name, schedule)| match schedule {
            Some(s) => format!("\"{name}\": \"{}\"", join(s, " ")),
            None => format!("\"{name}\": null"),
        })
        .collect();
    if !entries.is_empty() {
        let _ = write!(body, ", \"{key}\": {{{}}}", entries.join(", "));
    }
}

/// Renders the sweep report as JSON (hand-rolled: the workspace has no
/// serde and takes no new dependencies).
fn render_json(points: &[Point], cli: &Cli) -> String {
    let mut total_canon = 0usize;
    let mut total_full = 0usize;
    let mut total_secs = 0f64;
    let mut peak_arena = 0usize;
    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\n    {{\"alg\": \"{}\", \"n\": {}, \"m\": {}, \"orbit\": {}, \"adv\": \"{}\", \
             \"valid_m\": {}, \"verdict\": \"{}\"",
            p.row.alg,
            p.row.n,
            p.row.m,
            p.orbit,
            p.row.adv.tag(),
            p.row.valid_m(),
            verdict_tag(&p.report)
        );
        if let Ok(rep) = &p.report {
            total_canon += rep.canonical_states;
            total_full += rep.full_states_estimate;
            total_secs += rep.wall_time.as_secs_f64();
            peak_arena = peak_arena.max(rep.arena_bytes);
            let _ = write!(
                body,
                ", \"canonical_states\": {}, \"full_states\": {}, \"transitions\": {}, \
                 \"peak_frontier\": {}, \"arena_bytes\": {}, \"arena_bytes_per_state\": {:.2}, \
                 \"seen_table_bytes\": {}, \"wall_ms\": {:.3}, \"scc_wall_ms\": {:.3}, \
                 \"steal_count\": {}, \"states_per_sec\": {:.0}, \"mutual_exclusion\": {}",
                rep.canonical_states,
                rep.full_states_estimate,
                rep.transitions,
                rep.peak_frontier,
                rep.arena_bytes,
                rep.arena_bytes as f64 / rep.canonical_states.max(1) as f64,
                rep.seen_table_bytes,
                rep.wall_time.as_secs_f64() * 1e3,
                rep.scc_wall_time.as_secs_f64() * 1e3,
                rep.steal_count,
                rep.canonical_states as f64 / rep.wall_time.as_secs_f64().max(1e-9),
                !matches!(rep.verdict, Verdict::MutualExclusionViolation { .. }),
            );
            // Out-of-core accounting: resident vs. spilled arena bytes
            // are reported separately (their sum is the logical
            // arena_bytes above), plus the spill traffic and
            // checkpoint counters.
            let _ = write!(
                body,
                ", \"arena_resident_bytes\": {}, \"arena_spilled_bytes\": {}, \
                 \"spill_faults\": {}, \"spill_evictions\": {}, \"checkpoints_written\": {}",
                rep.arena_resident_bytes,
                rep.arena_spilled_bytes,
                rep.spill_faults,
                rep.spill_evictions,
                rep.checkpoints_written,
            );
            if let Some(lvl) = rep.resumed_from_level {
                let _ = write!(body, ", \"resumed_from_level\": {lvl}");
            }
            if p.crashes > 0 {
                let _ = write!(body, ", \"crashes\": {}", p.crashes);
            }
            if !rep.degraded.is_empty() {
                let _ = write!(body, ", \"degraded\": {}", rep.degraded.len());
            }
            // Per-process longest observed wait (quantitative
            // starvation data; canonical positions under reduction).
            let _ = write!(
                body,
                ", \"max_pending_depth\": [{}]",
                join(&rep.max_pending_depth, ", ")
            );
            // Property-monitor hit counts (deterministic: canonical
            // states are) — the object the --baseline property gate
            // compares exactly.
            if !rep.monitors.is_empty() {
                let entries: Vec<String> = rep
                    .monitors
                    .iter()
                    .map(|m| format!("\"{}\": {}", m.name, m.hit_states))
                    .collect();
                let _ = write!(body, ", \"properties\": {{{}}}", entries.join(", "));
            }
            // SCC-query verdicts over the livelock component.
            if !rep.scc_queries.is_empty() {
                let entries: Vec<String> = rep
                    .scc_queries
                    .iter()
                    .map(|q| {
                        format!(
                            "\"{}\": \"{}\"",
                            q.name,
                            if q.holds_everywhere {
                                "everywhere"
                            } else if q.holds_somewhere {
                                "somewhere"
                            } else {
                                "absent"
                            }
                        )
                    })
                    .collect();
                let _ = write!(body, ", \"scc_queries\": {{{}}}", entries.join(", "));
            }
            // Witnesses, gated as exactly as the counts: the livelock's
            // pending set, component size and schedule, or the
            // violation's schedule; then each property's and each SCC
            // query's witness schedule (space-separated, null for none).
            match &rep.verdict {
                Verdict::FairLivelock {
                    pending,
                    scc_states,
                    witness_schedule,
                } => {
                    let _ = write!(
                        body,
                        ", \"pending\": [{}], \"scc_states\": {scc_states}, \
                         \"witness_schedule\": [{}]",
                        join(pending, ", "),
                        join(witness_schedule, ", ")
                    );
                }
                Verdict::MutualExclusionViolation { schedule, .. }
                | Verdict::PropertyViolation { schedule, .. } => {
                    let _ = write!(body, ", \"witness_schedule\": [{}]", join(schedule, ", "));
                }
                Verdict::Ok | Verdict::Interrupted { .. } => {}
            }
            let monitors = rep.monitors.iter().map(|m| (&m.name, &m.witness_schedule));
            write_witnesses(&mut body, "property_witnesses", monitors);
            let queries = rep
                .scc_queries
                .iter()
                .map(|q| (&q.name, &q.witness_schedule));
            write_witnesses(&mut body, "scc_query_witnesses", queries);
        }
        body.push('}');
    }
    format!(
        "{{\n  \"bench\": \"mc_sweep\",\n  \"smoke\": {},\n  \"deep\": {},\n  \"threads\": {},\n  \
         \"available_parallelism\": {},\n  \
         \"max_states\": {},\n  \"points\": [{}\n  ],\n  \"totals\": {{\n    \
         \"canonical_states\": {},\n    \"full_states\": {},\n    \
         \"canonical_vs_full\": {:.4},\n    \"states_per_sec\": {:.0},\n    \
         \"total_wall_ms\": {:.3},\n    \"total_scc_wall_ms\": {:.3},\n    \
         \"total_steals\": {},\n    \"peak_arena_bytes\": {}\n  }}\n}}\n",
        cli.smoke,
        cli.deep,
        cli.threads,
        // Disambiguates "steal_count: 0 because 1-core container" from
        // "steal_count: 0 because the work-stealing frontier regressed".
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        cli.max_states(),
        body,
        total_canon,
        total_full,
        total_canon as f64 / total_full.max(1) as f64,
        total_canon as f64 / total_secs.max(1e-9),
        total_secs * 1e3,
        points
            .iter()
            .filter_map(|p| p.report.as_ref().ok())
            .map(|r| r.scc_wall_time.as_secs_f64() * 1e3)
            .sum::<f64>(),
        points
            .iter()
            .filter_map(|p| p.report.as_ref().ok())
            .map(|r| r.steal_count)
            .sum::<usize>(),
        peak_arena,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn smoke_crash_grid_is_the_committed_baseline_in_order() {
        let baseline = include_str!("../../../../BENCH_baseline.json");
        let keys: Vec<String> = recorded_points(baseline)
            .into_iter()
            .map(|r| r.key)
            .collect();
        let grid: Vec<String> = grid(&cli(&["--smoke", "--crashes", "1"]).unwrap())
            .into_iter()
            .map(|(row, orbit, _)| point_key(row.alg, row.n, row.m, orbit, row.adv.tag()))
            .collect();
        assert_eq!(keys.len(), 30);
        assert_eq!(grid, keys);
    }

    #[test]
    fn bad_values_are_errors_that_name_the_flag() {
        for (args, names) in [
            (&["--threads", "x"][..], "--threads"),
            (&["--crashes", "256"], "--crashes"),
            (&["--checkpoint-every"], "--checkpoint-every"),
            (&["--resident-budget", "12q"], "--resident-budget"),
            (&["--resident-budget", "17179869184g"], "--resident-budget"),
            (&["--property", "no-such-predicate"], "no-such-predicate"),
            (&["--max-states", "5"], "--max-states"),
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains(names), "{args:?}: {err}");
        }
        assert_eq!(
            cli(&["--resident-budget", "64m"]).unwrap().resident_budget,
            Some(64 << 20)
        );
    }

    /// Runs the smoke grid's two-process points and the baselines'
    /// with a monitor and an SCC query.
    fn small_points() -> (Vec<Point>, Cli) {
        let cli = cli(&[
            "--smoke",
            "--no-progress",
            "--property",
            "writer-collision",
            "--scc-query",
            "full-view",
        ])
        .unwrap();
        let points = grid(&cli)
            .into_iter()
            .filter(|(row, _, _)| row.n == 2)
            .map(|(row, orbit, adversary)| Point {
                row,
                orbit,
                crashes: 0,
                report: run(row, orbit, &adversary, &cli),
            })
            .collect();
        (points, cli)
    }

    #[test]
    fn the_gates_read_every_gated_field_back_and_name_each_change() {
        let (points, cli) = small_points();
        let json = render_json(&points, &cli);
        let recorded = recorded_points(&json);
        assert_eq!(recorded.len(), points.len());
        for (p, r) in points.iter().zip(&recorded) {
            let rep = p.report.as_ref().unwrap();
            let depths: Vec<String> = rep.max_pending_depth.iter().map(usize::to_string).collect();
            let mut fields = vec![
                ("verdict".to_string(), verdict_tag(&p.report).to_string()),
                (
                    "canonical_states".to_string(),
                    rep.canonical_states.to_string(),
                ),
                (
                    "full_states".to_string(),
                    rep.full_states_estimate.to_string(),
                ),
                ("transitions".to_string(), rep.transitions.to_string()),
                ("peak_frontier".to_string(), rep.peak_frontier.to_string()),
                ("arena_bytes".to_string(), rep.arena_bytes.to_string()),
                (
                    "seen_table_bytes".to_string(),
                    rep.seen_table_bytes.to_string(),
                ),
                ("max_pending_depth".to_string(), depths.join(", ")),
            ];
            match &rep.verdict {
                Verdict::FairLivelock {
                    pending,
                    scc_states,
                    witness_schedule,
                } => {
                    fields.push(("pending".to_string(), join(pending, ", ")));
                    fields.push(("scc_states".to_string(), scc_states.to_string()));
                    let schedule = join(witness_schedule, ", ");
                    fields.push(("witness_schedule".to_string(), schedule));
                }
                Verdict::Ok => {}
                other => panic!("no small point should end in {other:?}"),
            }
            let witness =
                |s: &Option<Vec<usize>>| s.as_ref().map_or("null".into(), |s| join(s, " "));
            for mon in &rep.monitors {
                fields.push((format!("property {}", mon.name), mon.hit_states.to_string()));
            }
            for mon in &rep.monitors {
                let schedule = witness(&mon.witness_schedule);
                fields.push((format!("property-witness {}", mon.name), schedule));
            }
            for q in &rep.scc_queries {
                let answer = match (q.holds_everywhere, q.holds_somewhere) {
                    (true, _) => "everywhere",
                    (false, true) => "somewhere",
                    (false, false) => "absent",
                };
                fields.push((format!("scc-query {}", q.name), answer.to_string()));
            }
            for q in &rep.scc_queries {
                let schedule = witness(&q.witness_schedule);
                fields.push((format!("scc-query-witness {}", q.name), schedule));
            }
            let key = point_key(p.row.alg, p.row.n, p.row.m, p.orbit, p.row.adv.tag());
            assert_eq!(r, &Recorded { key, fields });
        }
        let (failures, matched, _) = gate(&recorded, &recorded, true, false);
        assert_eq!((failures, matched), (vec![], points.len()));

        // The first invalid-m control point livelocks, so it carries
        // every gated field: the livelock witness, and a witness for its
        // property and its SCC query.
        let at = points.iter().position(|p| p.row.m == 4).unwrap();
        let r = &recorded[at];
        assert_eq!(r.key, "alg1 n=2 m=4 orbit=0 adv=orbit");
        let value = |field: &str| &r.fields.iter().find(|(f, _)| f == field).unwrap().1;
        let line = json
            .lines()
            .find(|l| l.contains("\"m\": 4, \"orbit\": 0"))
            .unwrap();
        for (field, from, to) in [
            (
                "verdict",
                "\"verdict\": \"fair-livelock\"",
                "\"verdict\": \"ok\"".to_string(),
            ),
            (
                "canonical_states",
                &*format!("\"canonical_states\": {}", value("canonical_states")),
                format!("\"canonical_states\": {}1", value("canonical_states")),
            ),
            (
                "peak_frontier",
                &*format!("\"peak_frontier\": {}", value("peak_frontier")),
                format!("\"peak_frontier\": {}1", value("peak_frontier")),
            ),
            (
                "arena_bytes",
                &*format!("\"arena_bytes\": {}", value("arena_bytes")),
                format!("\"arena_bytes\": {}1", value("arena_bytes")),
            ),
            (
                "seen_table_bytes",
                &*format!("\"seen_table_bytes\": {}", value("seen_table_bytes")),
                format!("\"seen_table_bytes\": {}1", value("seen_table_bytes")),
            ),
            (
                "max_pending_depth",
                &*format!("\"max_pending_depth\": [{}", value("max_pending_depth")),
                format!("\"max_pending_depth\": [0, {}", value("max_pending_depth")),
            ),
            (
                "property writer-collision",
                &*format!(
                    "\"writer-collision\": {}",
                    value("property writer-collision")
                ),
                format!(
                    "\"writer-collision\": {}1",
                    value("property writer-collision")
                ),
            ),
            (
                "scc-query full-view",
                "\"full-view\": \"everywhere\"",
                "\"full-view\": \"absent\"".to_string(),
            ),
            ("pending", "\"pending\": [", "\"pending\": [9, ".to_string()),
            (
                "scc_states",
                &*format!("\"scc_states\": {}", value("scc_states")),
                format!("\"scc_states\": {}1", value("scc_states")),
            ),
            (
                "witness_schedule",
                "\"witness_schedule\": [",
                "\"witness_schedule\": [9, ".to_string(),
            ),
            (
                "property-witness writer-collision",
                "\"property_witnesses\": {\"writer-collision\": \"",
                "\"property_witnesses\": {\"writer-collision\": \"9 ".to_string(),
            ),
            (
                "scc-query-witness full-view",
                "\"scc_query_witnesses\": {\"full-view\": \"",
                "\"scc_query_witnesses\": {\"full-view\": \"9 ".to_string(),
            ),
        ] {
            assert!(line.contains(from), "{from}");
            let changed = json.replacen(line, &line.replacen(from, &to, 1), 1);
            let (failures, _, _) = gate(&recorded, &recorded_points(&changed), true, false);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(
                failures[0].contains(&format!("{} {field} is ", r.key)),
                "{failures:?}"
            );
        }
    }

    #[test]
    fn a_baseline_point_that_did_not_run_fails_the_coverage_gate() {
        let (points, cli) = small_points();
        let json = render_json(&points, &cli);
        let line = json
            .lines()
            .find(|l| l.contains("\"m\": 4, \"orbit\": 0"))
            .unwrap();
        let now = recorded_points(&json.replacen(&format!("{line}\n"), "", 1));
        let mut base = recorded_points(&json);
        assert_eq!(now.len() + 1, base.len());
        let (failures, _, _) = gate(&now, &base, true, false);
        assert_eq!(
            failures,
            [
                "COVERAGE REGRESSION: alg1 n=2 m=4 orbit=0 adv=orbit is in the baseline but did \
              not run"
            ]
        );
        // A different grid shape skips coverage; so does a crash point
        // when this run has no --crashes.
        assert!(gate(&now, &base, false, false).0.is_empty());
        base.retain(|b| now.contains(b));
        base.push(Recorded {
            key: point_key("1", 3, 5, 0, "crash-stale"),
            fields: Vec::new(),
        });
        assert!(gate(&now, &base, true, false).0.is_empty());
        assert_eq!(gate(&now, &base, true, true).0.len(), 1);
    }
}
