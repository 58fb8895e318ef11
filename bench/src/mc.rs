//! The model-checker side of the benchmark: grid points, the checkers
//! built for them, and the traced-run probes that replay single layers
//! (encode, automaton step, monitor evaluation, intern) on the states a
//! check stored.
//!
//! Everything goes through the public API: `ModelChecker::run` and its
//! `McReport`, `Monitor::watch`, `EncodeState`, `closed_loop_step`,
//! `StateArena`, and the `amx-registers` orbit and automorphism
//! enumerations.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use amx_baselines::automaton::{BurnsLynchAutomaton, PetersonTwoAutomaton, TasAutomaton};
use amx_core::{Alg1Automaton, Alg2Automaton, MutexSpec};
use amx_ids::codec::PidMap;
use amx_ids::{PidPool, Slot};
use amx_props::obs::Observe;
use amx_props::predicate::{full_view, writer_collision};
use amx_props::property::{monitor_for, scc_query_for};
use amx_registers::automorphism::adversary_automorphisms;
use amx_registers::orbit::adversary_orbits;
use amx_registers::{Adversary, Permutation};
use amx_sim::encode::{put_slot, put_u8, take_slot, take_u8};
use amx_sim::intern::{anon_spill_file, hash_bytes, StateArena};
use amx_sim::mc::{CrashBudget, CrashMode, McError, McReport, Monitor, Symmetry, Verdict};
use amx_sim::{
    closed_loop_step, EncodeState, MemoryModel, ModelChecker, Outcome, Phase, SimMemory,
};

use crate::rng::SplitMix;
use crate::spans::Spans;

/// Canonical-state bound per point: far above every point this
/// benchmark checks (the largest stores about 3.0M), so a bound
/// overflow always means an engine regression.
const MAX_STATES: usize = 8_000_000;

/// Name of the capture monitor the traced pass attaches; it never hits.
pub const CAPTURE_MONITOR: &str = "bench-capture";

/// Operations each probe times per point (small captures are replayed
/// in rounds until they reach it).
const PROBE_OPS: usize = 50_000;

/// The intern probes run on at least this many records (16 pages of
/// the arena), so the spill probe always has pages to evict.
const PROBE_MIN_RECORDS: usize = 4_096;

/// One model-checked configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// `"1"`, `"2"` (the paper's algorithms) or a model-checked
    /// baseline: `"tas"`, `"burns"`, `"peterson"`.
    pub alg: &'static str,
    pub n: usize,
    pub m: usize,
    pub orbit: usize,
    /// `orbit`, `identity`, `ring`, `crash-wipe`, `crash-stale` or
    /// `random` (the lock workloads' seeded adversary).
    pub adv: &'static str,
    pub adversary: Adversary,
    pub crash: Option<CrashMode>,
    /// Attach the `writer-collision` monitor and the `full-view` SCC
    /// query, as the smoke grid does.
    pub props: bool,
}

impl Point {
    /// The point's identity, in the form `mc_sweep` keys its baseline
    /// points by.
    pub fn key(&self) -> String {
        format!(
            "alg{} n={} m={} orbit={} adv={}",
            self.alg, self.n, self.m, self.orbit, self.adv
        )
    }

    fn new(alg: &'static str, n: usize, m: usize, adv: &'static str, adversary: Adversary) -> Self {
        let crash = match adv {
            "crash-wipe" => Some(CrashMode::WipeRegisters),
            "crash-stale" => Some(CrashMode::StaleClaims),
            _ => None,
        };
        Point {
            alg,
            n,
            m,
            orbit: 0,
            adv,
            adversary,
            crash,
            props: true,
        }
    }
}

/// The points of `mc_sweep --smoke --crashes 1`, in its order, without
/// its four alg1 (3, 5) points, which take 99% of the smoke grid's time
/// (one of them is [`deep_point`]): 26 small checks.  Enumerating the
/// orbit points is part of the caller's set-up.
pub fn grid_points() -> Vec<Point> {
    let mut points = Vec::new();
    let orbits = |points: &mut Vec<Point>, alg, n, m, take: usize| {
        for (orbit, adversary) in adversary_orbits(n, m).into_iter().enumerate().take(take) {
            points.push(Point {
                orbit,
                ..Point::new(alg, n, m, "orbit", adversary)
            });
        }
    };
    orbits(&mut points, "1", 2, 3, usize::MAX);
    orbits(&mut points, "1", 2, 4, 3);
    for (n, m) in [(2, 1), (2, 3), (2, 2), (4, 1)] {
        orbits(&mut points, "2", n, m, usize::MAX);
    }
    for n in [2, 3] {
        points.push(Point::new("tas", n, 1, "identity", Adversary::Identity));
    }
    for n in [2, 3] {
        points.push(Point::new("burns", n, n, "identity", Adversary::Identity));
    }
    points.push(Point::new(
        "peterson",
        2,
        3,
        "identity",
        Adversary::Identity,
    ));
    let rot = Adversary::Rotations { stride: 1 };
    points.push(Point::new("1", 3, 3, "ring", rot.clone()));
    points.push(Point::new("2", 3, 3, "ring", rot));
    for adv in ["crash-wipe", "crash-stale"] {
        points.push(Point::new("2", 3, 1, adv, Adversary::Identity));
    }
    points
}

/// The deep point: Algorithm 1 at (n = 3, m = 5) under the identity
/// adversary — the smoke grid's budget anchor (124,573 canonical /
/// 743,229 concrete states, verdict ok), without the grid's monitors.
pub fn deep_point() -> Point {
    Point {
        props: false,
        ..Point::new("1", 3, 5, "identity", Adversary::Identity)
    }
}

/// A lock workload's own configuration as a model-checking point: the
/// algorithm at (2, 3) under the lock's seeded adversary.
pub fn lock_point(alg: &'static str, seed: u64) -> Point {
    Point::new(alg, 2, 3, "random", Adversary::Random(seed))
}

/// Engine settings shared by a workload's points.
#[derive(Debug, Clone)]
pub struct Settings {
    pub budget: Option<usize>,
    pub spill_dir: PathBuf,
}

/// Which stored states the capture monitor keeps: those whose encoding
/// hashes (mixed with the seed) to 0 modulo `stride`.  Hashing the
/// state, not counting calls, keeps the sample the same at any worker
/// count for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    pub stride: u64,
    pub mix: u64,
}

impl Sampler {
    fn keep(self, bytes: &[u8]) -> bool {
        self.stride <= 1 || SplitMix::mix(hash_bytes(bytes) ^ self.mix).is_multiple_of(self.stride)
    }
}

/// Encoded states captured during a traced pass, back to back.
#[derive(Debug, Default)]
pub struct Captured {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Captured {
    fn push(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn records(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.bytes[s..e])
    }
}

/// Per-layer sums one probe pass measured; `add` merges points.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub encode_ns: f64,
    pub encodes: u64,
    pub encoded_bytes: u64,
    pub step_ns: f64,
    pub steps: u64,
    pub completions: u64,
    pub monitor_ns: f64,
    pub monitor_evals: u64,
    pub monitor_hits: u64,
    pub insert_ns: f64,
    pub inserts: u64,
    pub lookup_ns: f64,
    pub lookups: u64,
    pub get_resident_ns: f64,
    pub gets_resident: u64,
    pub get_spilled_ns: f64,
    pub gets_spilled: u64,
    pub spill_faults: u64,
}

impl Probe {
    pub fn add(&mut self, o: &Probe) {
        self.encode_ns += o.encode_ns;
        self.encodes += o.encodes;
        self.encoded_bytes += o.encoded_bytes;
        self.step_ns += o.step_ns;
        self.steps += o.steps;
        self.completions += o.completions;
        self.monitor_ns += o.monitor_ns;
        self.monitor_evals += o.monitor_evals;
        self.monitor_hits += o.monitor_hits;
        self.insert_ns += o.insert_ns;
        self.inserts += o.inserts;
        self.lookup_ns += o.lookup_ns;
        self.lookups += o.lookups;
        self.get_resident_ns += o.get_resident_ns;
        self.gets_resident += o.gets_resident;
        self.get_spilled_ns += o.get_spilled_ns;
        self.gets_spilled += o.gets_spilled;
        self.spill_faults += o.spill_faults;
    }
}

/// A point with its checker built: the unit a workload runs.
pub trait Job: Send {
    fn point(&self) -> &Point;
    /// One untraced check.
    fn run(&self) -> Result<McReport, McError>;
    /// One check with the capture monitor attached.
    fn run_captured(&self, sampler: Sampler) -> (Result<McReport, McError>, Captured);
    /// Replays the single-layer probes on captured states.
    fn probe(&self, captured: &Captured, seed: u64, spans: &mut Spans) -> Result<Probe, String>;
    /// Enumerates the adversary's automorphism group (as the engine
    /// does at the start of a wreath-reduced run); returns its order.
    fn automorphism_group_order(&self) -> usize;
}

/// Builds the job for `point`: automata, adversary permutations,
/// compiled monitors and the configured checker.
pub fn build_job(point: &Point, settings: &Settings) -> Result<Box<dyn Job>, String> {
    let (n, m) = (point.n, point.m);
    let mut pool = PidPool::sequential();
    Ok(match point.alg {
        "1" => {
            let spec = MutexSpec::rw_unchecked(n, m);
            let automata = (0..n)
                .map(|_| Alg1Automaton::new(spec, pool.mint()))
                .collect();
            Box::new(McJob::new(point, automata, MemoryModel::Rw, settings)?)
        }
        "2" => {
            let spec = MutexSpec::rmw_unchecked(n, m);
            let automata = (0..n)
                .map(|_| Alg2Automaton::new(spec, pool.mint()))
                .collect();
            Box::new(McJob::new(point, automata, MemoryModel::Rmw, settings)?)
        }
        "tas" => {
            let automata = (0..n).map(|_| TasAutomaton::new(pool.mint())).collect();
            Box::new(McJob::new(point, automata, MemoryModel::Rmw, settings)?)
        }
        "burns" => {
            let automata = (0..n)
                .map(|i| BurnsLynchAutomaton::new(pool.mint(), i, n))
                .collect();
            Box::new(McJob::new(point, automata, MemoryModel::Rw, settings)?)
        }
        "peterson" => {
            let automata = (0..n)
                .map(|side| PetersonTwoAutomaton::new(pool.mint(), side))
                .collect();
            Box::new(McJob::new(point, automata, MemoryModel::Rw, settings)?)
        }
        other => return Err(format!("unknown algorithm tag {other}")),
    })
}

struct McJob<A: Observe> {
    point: Point,
    automata: Vec<A>,
    perms: Vec<Permutation>,
    model: MemoryModel,
    settings: Settings,
    checker: ModelChecker<A>,
}

impl<A> McJob<A>
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send + Sync,
{
    fn new(
        point: &Point,
        automata: Vec<A>,
        model: MemoryModel,
        settings: &Settings,
    ) -> Result<Self, String> {
        let perms = point
            .adversary
            .permutations(point.n, point.m)
            .map_err(|e| format!("{}: {e}", point.key()))?;
        let checker = build_checker(point, &automata, &perms, model, settings, None)?;
        Ok(McJob {
            point: point.clone(),
            automata,
            perms,
            model,
            settings: settings.clone(),
            checker,
        })
    }
}

fn build_checker<A>(
    point: &Point,
    automata: &[A],
    perms: &[Permutation],
    model: MemoryModel,
    settings: &Settings,
    capture: Option<Monitor<A::State>>,
) -> Result<ModelChecker<A>, String>
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send,
{
    let mut mc = ModelChecker::with_automata(automata.to_vec(), model, point.m, &point.adversary)
        .map_err(|e| format!("{}: {e}", point.key()))?
        .symmetry(Symmetry::Wreath)
        .max_states(MAX_STATES)
        // One worker, set explicitly so AMX_MC_THREADS cannot change it:
        // with two, small checks spend their time in level barriers
        // between the vCPUs, whose cost varied by 2× on a shared 2-vCPU
        // virtual machine.
        .threads(1);
    if let Some(bytes) = settings.budget {
        mc = mc.resident_budget(bytes).spill_dir(&settings.spill_dir);
    }
    if let Some(mode) = point.crash {
        mc = mc.crashes(CrashBudget::total(1), mode);
    }
    if point.props {
        mc = mc
            .monitor(monitor_for(&writer_collision(), automata, perms, false))
            .scc_query(scc_query_for(&full_view(), automata, perms));
    }
    if let Some(monitor) = capture {
        mc = mc.monitor(monitor);
    }
    Ok(mc)
}

thread_local! {
    static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn phase_tag(p: Phase) -> u8 {
    match p {
        Phase::Remainder => 0,
        Phase::Trying => 1,
        Phase::Cs => 2,
        Phase::Exiting => 3,
    }
}

fn phase_of(tag: u8) -> Option<Phase> {
    Some(match tag {
        0 => Phase::Remainder,
        1 => Phase::Trying,
        2 => Phase::Cs,
        3 => Phase::Exiting,
        _ => return None,
    })
}

/// A node's bytes as the engine lays them out before canonicalization:
/// physical slots, then each process's phase and state.
fn encode_node<S: EncodeState>(slots: &[Slot], procs: &[(Phase, S)], out: &mut Vec<u8>) {
    let ids = PidMap::identity();
    for &slot in slots {
        put_slot(slot, &ids, out);
    }
    for (phase, state) in procs {
        put_u8(phase_tag(*phase), out);
        state.encode(out);
    }
}

type Node<S> = (Vec<Slot>, Vec<(Phase, S)>);

fn decode_node<S: EncodeState>(mut bytes: &[u8], m: usize, n: usize) -> Option<Node<S>> {
    let slots = (0..m)
        .map(|_| take_slot(&mut bytes))
        .collect::<Option<Vec<_>>>()?;
    let procs = (0..n)
        .map(|_| Some((phase_of(take_u8(&mut bytes)?)?, S::decode(&mut bytes)?)))
        .collect::<Option<Vec<_>>>()?;
    bytes.is_empty().then_some((slots, procs))
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

impl<A> Job for McJob<A>
where
    A: Observe + Clone + Send + Sync + 'static,
    A::State: EncodeState + Send + Sync,
{
    fn point(&self) -> &Point {
        &self.point
    }

    fn run(&self) -> Result<McReport, McError> {
        self.checker.run()
    }

    fn run_captured(&self, sampler: Sampler) -> (Result<McReport, McError>, Captured) {
        let sink = Arc::new(Mutex::new(Captured::default()));
        let writer = Arc::clone(&sink);
        let capture = Monitor::watch(
            CAPTURE_MONITOR,
            move |slots: &[Slot], procs: &[(Phase, A::State)]| {
                ENCODE_BUF.with(|buf| {
                    let mut buf = buf.borrow_mut();
                    buf.clear();
                    encode_node(slots, procs, &mut buf);
                    if sampler.keep(&buf) {
                        writer.lock().expect("capture sink poisoned").push(&buf);
                    }
                });
                false
            },
        );
        let report = build_checker(
            &self.point,
            &self.automata,
            &self.perms,
            self.model,
            &self.settings,
            Some(capture),
        )
        .expect("the same configuration built once already")
        .run();
        let captured = std::mem::take(&mut *sink.lock().expect("capture sink poisoned"));
        (report, captured)
    }

    fn probe(&self, captured: &Captured, seed: u64, spans: &mut Spans) -> Result<Probe, String> {
        let (n, m) = (self.point.n, self.point.m);
        let key = self.point.key();
        let nodes: Vec<Node<A::State>> = captured
            .records()
            .map(|r| decode_node(r, m, n).ok_or_else(|| format!("{key}: undecodable capture")))
            .collect::<Result<_, _>>()?;
        if nodes.is_empty() {
            return Err(format!("{key}: the capture monitor saw no state"));
        }
        let rounds = PROBE_OPS.div_ceil(nodes.len());
        let mut p = Probe::default();

        let mut buf = Vec::with_capacity(128);
        spans.enter("encode");
        let t = Instant::now();
        for _ in 0..rounds {
            for (slots, procs) in &nodes {
                buf.clear();
                encode_node(slots, procs, &mut buf);
                p.encoded_bytes += buf.len() as u64;
                black_box(&buf);
            }
        }
        p.encode_ns = ns_since(t);
        spans.exit();
        p.encodes = (rounds * nodes.len()) as u64;

        let mut mem = SimMemory::new(self.model, m, &self.point.adversary, n)
            .map_err(|e| format!("{key}: {e}"))?;
        spans.enter("automaton.step");
        let t = Instant::now();
        for _ in 0..rounds.div_ceil(n) {
            for (slots, procs) in &nodes {
                for (i, aut) in self.automata.iter().enumerate() {
                    mem.restore(slots);
                    let (mut phase, mut state) = procs[i].clone();
                    let out = closed_loop_step(aut, &mut phase, &mut state, &mut mem.view(i));
                    if out != Outcome::Progress {
                        p.completions += 1;
                    }
                    p.steps += 1;
                    black_box(&state);
                }
            }
        }
        p.step_ns = ns_since(t);
        spans.exit();

        let monitor = monitor_for(&writer_collision(), &self.automata, &self.perms, false);
        spans.enter("props.monitor_eval");
        let t = Instant::now();
        for _ in 0..rounds {
            for (slots, procs) in &nodes {
                p.monitor_hits += u64::from((monitor.eval)(slots, procs));
            }
        }
        p.monitor_ns = ns_since(t);
        spans.exit();
        p.monitor_evals = (rounds * nodes.len()) as u64;
        // Hits among the captured states, counted once.
        p.monitor_hits /= rounds as u64;

        spans.enter("intern");
        let interned = self.probe_intern(captured, seed, &mut p);
        spans.exit();
        interned.map_err(|e| format!("{key}: intern probe: {e}"))?;
        Ok(p)
    }

    fn automorphism_group_order(&self) -> usize {
        let classes: Vec<Option<u64>> = self.automata.iter().map(|a| a.symmetry_class()).collect();
        adversary_automorphisms(&self.perms, &classes).len()
    }
}

impl<A: Observe> McJob<A> {
    /// Insert, hit lookup and get on a resident arena, then get on an
    /// arena with three quarters of its payload spilled.
    fn probe_intern(&self, captured: &Captured, seed: u64, p: &mut Probe) -> Result<(), String> {
        // Small captures are extended with copies tagged by two trailing
        // bytes, so every probe arena spans at least 16 pages.
        let copies = PROBE_MIN_RECORDS.div_ceil(captured.len());
        let records: Vec<Vec<u8>> = (0..copies)
            .flat_map(|c| {
                captured.records().map(move |r| {
                    let mut v = r.to_vec();
                    if copies > 1 {
                        v.extend_from_slice(&(c as u16).to_le_bytes());
                    }
                    v
                })
            })
            .collect();
        let rounds = PROBE_OPS.div_ceil(records.len());
        let mut arena = StateArena::new();
        for _ in 0..rounds {
            arena = StateArena::new();
            let t = Instant::now();
            for r in &records {
                black_box(arena.intern(r).map_err(|e| e.to_string())?);
            }
            p.insert_ns += ns_since(t);
        }
        p.inserts += (rounds * records.len()) as u64;

        let t = Instant::now();
        for _ in 0..rounds {
            for r in &records {
                let hit = arena.lookup(r).map_err(|e| e.to_string())?;
                if hit.is_none() {
                    return Err("an interned record was not found".into());
                }
            }
        }
        p.lookup_ns += ns_since(t);
        p.lookups += (rounds * records.len()) as u64;

        let gets = PROBE_OPS.max(records.len());
        let mut rng = SplitMix::new(seed);
        let len = arena.len() as u64;
        let ids: Vec<u32> = (0..gets).map(|_| (rng.next() % len) as u32).collect();
        let mut out = Vec::with_capacity(128);
        let t = Instant::now();
        for &id in &ids {
            arena.get_into(id, &mut out).map_err(|e| e.to_string())?;
            black_box(&out);
        }
        p.get_resident_ns += ns_since(t);
        p.gets_resident += gets as u64;

        let file = anon_spill_file(&self.settings.spill_dir).map_err(|e| e.to_string())?;
        let budget = arena.data_bytes() / 4;
        arena.set_spill(file, budget);
        let faults_before = arena.spill_stats().faults;
        let t = Instant::now();
        for &id in &ids {
            arena.get_into(id, &mut out).map_err(|e| e.to_string())?;
            black_box(&out);
        }
        p.get_spilled_ns += ns_since(t);
        p.gets_spilled += gets as u64;
        p.spill_faults += arena.spill_stats().faults - faults_before;
        Ok(())
    }
}

/// Verdict tag as `mc_sweep` writes it.
pub fn verdict_tag(r: &Result<McReport, McError>) -> &'static str {
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

/// SCC-query answer as `mc_sweep` writes it.
pub fn query_answer(holds_everywhere: bool, holds_somewhere: bool) -> &'static str {
    if holds_everywhere {
        "everywhere"
    } else if holds_somewhere {
        "somewhere"
    } else {
        "absent"
    }
}

/// The deep record's points with their resident budgets: the alg1
/// (4, 5) frontier under 64 MiB, then alg2 (3, 5) and alg2 (5, 1) in
/// core, all under the identity adversary with the smoke grid's
/// properties.
pub fn record_point(name: &str) -> Option<(Point, Option<usize>)> {
    let (alg, n, m, budget) = match name {
        "alg1-4-5" => ("1", 4, 5, Some(64 << 20)),
        "alg2-3-5" => ("2", 3, 5, None),
        "alg2-5-1" => ("2", 5, 1, None),
        _ => return None,
    };
    Some((
        Point::new(alg, n, m, "identity", Adversary::Identity),
        budget,
    ))
}
