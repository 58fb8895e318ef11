//! The lock-runtime side of the benchmark: closed loops of participants
//! driving `Participant::lock` and `Guard` drop on real threads.
//!
//! Every loop is closed: a thread asks for the lock again only after
//! its previous cycle (acquire → critical section → release → think)
//! completed.  The critical section and the think time are busy-waits,
//! so a cycle does no work the lock does not see.  Think times are
//! exponentially distributed and drawn from the run's seed: with a
//! fixed think time the two threads lock into step, either always or
//! never colliding, and a run's latency depends on which of the two it
//! happened to fall into.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use amx_core::lock::AmxLock;
use amx_core::{MutexSpec, Participant, RmwAnonLock, RwAnonLock};
use amx_registers::{Adversary, OpSnapshot};

use crate::rng::SplitMix;
use crate::spans::Spans;
use crate::stats::Histogram;

/// Busy critical section of every measured cycle.
pub const CS: Duration = Duration::from_nanos(200);
/// Mean busy think time between a release and the next acquire.
pub const THINK_MEAN: Duration = Duration::from_micros(4);
/// Participants (and, in the contended phases, threads): the machine
/// this benchmark was defined on has two hardware threads, and the
/// load never asks for more.
pub const THREADS: usize = 2;

/// The lock object of family `alg` (`"alg1"` or `"alg2"`) at its
/// smallest two-process configuration, m = 3.
pub fn make_lock(alg: &str) -> Result<Box<dyn AmxLock>, String> {
    match alg {
        "alg1" => MutexSpec::smallest_rw(THREADS)
            .map(|spec| Box::new(RwAnonLock::new(spec)) as Box<dyn AmxLock>),
        "alg2" => MutexSpec::smallest_rmw(THREADS)
            .map(|spec| Box::new(RmwAnonLock::new(spec)) as Box<dyn AmxLock>),
        other => return Err(format!("unknown lock family {other}")),
    }
    .map_err(|e| e.to_string())
}

/// Set-up of one lock run: build the lock object and mint the
/// participants.  Starting the threads is not part of it: waking a
/// second vCPU costs twice as much or half as much depending on where
/// the hypervisor placed it.
pub fn set_up(alg: &str, seed: u64) -> Result<(Box<dyn AmxLock>, Vec<Participant>), String> {
    let lock = make_lock(alg)?;
    let participants = lock
        .participants(&Adversary::Random(seed))
        .map_err(|e| e.to_string())?;
    Ok((lock, participants))
}

fn spin_until(t: Instant) {
    while Instant::now() < t {
        spin_loop();
    }
}

fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// What one phase of a closed loop measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Acquire latency: from the call to `lock()` to holding the guard.
    pub acquire: Histogram,
    /// Summed guard-drop (release) time; measured only when asked.
    pub release_ns: f64,
    pub entries_per_thread: Vec<u64>,
    /// Longest thread's measured time.
    pub wall_s: f64,
    /// Critical sections that found another holder inside.
    pub overlaps: u64,
    pub poisoned: bool,
    /// Shared-memory operations of the phase, over all participants.
    pub ops: OpSnapshot,
}

impl Phase {
    pub fn entries(&self) -> u64 {
        self.entries_per_thread.iter().sum()
    }

    pub fn entries_per_s(&self) -> f64 {
        self.entries() as f64 / self.wall_s.max(1e-9)
    }

    /// Overlapping critical sections, plus one for a poisoned lock.
    pub fn failures(&self) -> u64 {
        self.overlaps + u64::from(self.poisoned)
    }
}

/// Loop parameters of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Threads competing; the other participants stay idle.
    pub active: usize,
    pub duration: Duration,
    pub cs: Duration,
    /// Mean of the exponential think time (zero: no think time).
    pub think_mean: Duration,
    /// Seeds the think times; thread `i` draws from `seed + i`.
    pub seed: u64,
    pub time_release: bool,
}

/// Per-thread results of one phase.
struct ThreadRun {
    acquire: Histogram,
    release_ns: f64,
    entries: u64,
    wall_s: f64,
    overlaps: u64,
    poisoned: bool,
}

/// Runs one closed-loop phase on `participants[..shape.active]`.
pub fn run_phase(lock: &dyn AmxLock, participants: &mut [Participant], shape: Shape) -> Phase {
    let before = total_ops(participants);
    let in_cs = AtomicU32::new(0);
    let start = Barrier::new(shape.active);
    // Allocated here, not in the threads, so the measured threads never
    // touch the allocator.
    let histograms: Vec<Histogram> = (0..shape.active).map(|_| Histogram::default()).collect();
    let runs: Vec<ThreadRun> = std::thread::scope(|s| {
        let handles: Vec<_> = participants[..shape.active]
            .iter_mut()
            .zip(histograms)
            .enumerate()
            .map(|(i, (p, mut acquire))| {
                let (in_cs, start) = (&in_cs, &start);
                let mut rng = SplitMix::new(shape.seed.wrapping_add(i as u64));
                let think_mean_ns = shape.think_mean.as_nanos() as f64;
                s.spawn(move || {
                    let (mut release_ns, mut entries, mut overlaps) = (0.0, 0u64, 0u64);
                    let mut poisoned = false;
                    start.wait();
                    let began = Instant::now();
                    let deadline = began + shape.duration;
                    let mut t0 = began;
                    while t0 < deadline {
                        let guard = p.lock();
                        let t1 = Instant::now();
                        acquire.record(elapsed_ns(t0, t1));
                        poisoned |= guard.poisoned();
                        if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                            overlaps += 1;
                        }
                        spin_until(t1 + shape.cs);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        entries += 1;
                        if shape.time_release {
                            let t2 = Instant::now();
                            drop(guard);
                            release_ns += elapsed_ns(t2, Instant::now()) as f64;
                        } else {
                            drop(guard);
                        }
                        // Inverse-transform sample of Exp(1), scaled.
                        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
                        let think_ns = -(1.0 - u).ln() * think_mean_ns;
                        spin_until(Instant::now() + Duration::from_nanos(think_ns as u64));
                        t0 = Instant::now();
                    }
                    ThreadRun {
                        acquire,
                        release_ns,
                        entries,
                        wall_s: t0.duration_since(began).as_secs_f64(),
                        overlaps,
                        poisoned,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lock benchmark thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        ops: total_ops(participants).since(&before),
        poisoned: lock.is_poisoned(),
        ..Phase::default()
    };
    for run in runs {
        phase.acquire.merge(&run.acquire);
        phase.release_ns += run.release_ns;
        phase.entries_per_thread.push(run.entries);
        phase.wall_s = phase.wall_s.max(run.wall_s);
        phase.overlaps += run.overlaps;
        phase.poisoned |= run.poisoned;
    }
    black_box(&phase);
    phase
}

fn total_ops(participants: &[Participant]) -> OpSnapshot {
    participants
        .iter()
        .map(|p| p.counters().snapshot_counts())
        .fold(OpSnapshot::default(), |a, b| OpSnapshot {
            reads: a.reads + b.reads,
            writes: a.writes + b.writes,
            cas_ops: a.cas_ops + b.cas_ops,
            snapshots: a.snapshots + b.snapshots,
            collect_rounds: a.collect_rounds + b.collect_rounds,
        })
}

/// The contended closed loop: every thread cycles through acquire,
/// critical section, release and think time.
pub fn contended(duration: Duration, seed: u64, time_release: bool) -> Shape {
    Shape {
        active: THREADS,
        duration,
        cs: CS,
        think_mean: THINK_MEAN,
        seed,
        time_release,
    }
}

/// The traced lock probe: uncontended, contended and saturated phases,
/// each on a fresh lock object so their counters stay apart.
#[derive(Debug)]
pub struct Probe {
    pub uncontended: Phase,
    pub contended: Phase,
    pub saturated: Phase,
}

impl Probe {
    pub fn failed(&self) -> u64 {
        [&self.uncontended, &self.contended, &self.saturated]
            .iter()
            .map(|p| p.failures())
            .sum()
    }

    pub fn entries(&self) -> u64 {
        self.uncontended.entries() + self.contended.entries() + self.saturated.entries()
    }
}

/// Runs the probe's phases for the given `[uncontended, contended,
/// saturated]` durations.
pub fn probe(
    alg: &str,
    seed: u64,
    durations: [Duration; 3],
    spans: &mut Spans,
) -> Result<Probe, String> {
    let [uncontended, contended_for, saturated] = durations;
    let mut phase = |name: &str, shape: Shape| -> Result<Phase, String> {
        let (lock, mut participants) = set_up(alg, seed)?;
        Ok(spans.time(name, |_| run_phase(lock.as_ref(), &mut participants, shape)))
    };
    Ok(Probe {
        uncontended: phase(
            "lock.uncontended",
            Shape {
                active: 1,
                ..contended(uncontended, seed, true)
            },
        )?,
        contended: phase("lock.contended", contended(contended_for, seed, true))?,
        saturated: phase(
            "lock.saturated",
            Shape {
                active: THREADS,
                duration: saturated,
                cs: Duration::ZERO,
                think_mean: Duration::ZERO,
                seed,
                time_release: false,
            },
        )?,
    })
}
