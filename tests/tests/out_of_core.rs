//! Out-of-core exploration contracts (PR 7).
//!
//! Three properties must hold for the spillable, multi-worker,
//! resumable engine to be trustworthy:
//!
//! * **Four workers ≡ one** — a multi-worker run reports the same
//!   verdict, witness schedule, counts, arena bytes and seen-table bytes
//!   as the one-worker run, on completing and aborting runs alike, even
//!   while a tiny resident budget forces page eviction and fault-in
//!   mid-exploration.
//! * **Spill transparency** — running under a resident budget changes
//!   the report only in the spill-accounting fields: at one worker
//!   count the spilled report is bit-identical, witness included.
//! * **Kill/resume equivalence** — a sweep halted at a level-k
//!   checkpoint and resumed from disk finishes with a report identical
//!   to the uninterrupted run (counts, verdict, witness schedule),
//!   whichever worker counts the halted and the resumed run use; a
//!   checkpoint of an older format is skipped, not misread.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_registers::Adversary;
use amx_sim::mc::{McReport, ModelChecker, Symmetry};
use amx_sim::toys::{NaiveFlagLock, PetersonTwo};
use amx_sim::{Automaton, EncodeState, MemoryModel, Verdict};

fn alg1(n: usize, m: usize) -> Vec<Alg1Automaton> {
    let spec = MutexSpec::rw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg1Automaton::new(spec, pool.mint()).with_policy(FreeSlotPolicy::FirstFree))
        .collect()
}

fn alg2(n: usize, m: usize) -> Vec<Alg2Automaton> {
    let spec = MutexSpec::rmw_unchecked(n, m);
    let mut pool = PidPool::sequential();
    (0..n)
        .map(|_| Alg2Automaton::new(spec, pool.mint()))
        .collect()
}

/// A process-unique, collision-free scratch directory for checkpoint
/// tests; removed on drop so reruns start clean.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("amx-ooc-{tag}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test checkpoint dir");
        TempDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts the parts of two reports that must be bit-identical across
/// engine configurations: verdict (including witness payloads), exact
/// counts, and orbit accounting.
fn assert_equivalent(a: &McReport, b: &McReport, what: &str) {
    assert_eq!(a.verdict, b.verdict, "{what}: verdict diverged");
    assert_eq!(
        a.canonical_states, b.canonical_states,
        "{what}: canonical count diverged"
    );
    assert_eq!(
        a.full_states_estimate, b.full_states_estimate,
        "{what}: concrete count diverged"
    );
    assert_eq!(a.transitions, b.transitions, "{what}: transitions diverged");
    assert_eq!(
        a.acquisitions, b.acquisitions,
        "{what}: acquisitions diverged"
    );
    assert_eq!(
        a.max_pending_depth, b.max_pending_depth,
        "{what}: pending depths diverged"
    );
}

/// Worker-count differential: four-worker exploration under a
/// deliberately starved resident budget must match the one-worker run,
/// with and without symmetry reduction.  Spill is bit-transparent, and
/// so is the worker count — memory figures included, since every
/// worker count interns into one seen set in the same order.
fn worker_count_differential<A, F>(make: F, model: MemoryModel, m: usize, what: &str)
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    for symmetry in [Symmetry::Off, Symmetry::Wreath] {
        let run = |threads: usize, budget: Option<usize>| {
            let mut mc = ModelChecker::with_automata(make(), model, m, &Adversary::Identity)
                .unwrap()
                .max_states(2_000_000)
                .symmetry(symmetry)
                .threads(threads)
                // Lift the single-core clamp so the work-stealing path
                // genuinely runs multi-worker on any test host.
                .oversubscribe(threads > 1);
            if let Some(bytes) = budget {
                mc = mc.resident_budget(bytes);
            }
            mc.run().unwrap()
        };
        let seq = run(1, None);
        // A zero-byte budget evicts every sealed page (the engine
        // always keeps at least one resident), so any state space
        // bigger than one page genuinely exercises the spill path.
        let seq_spill = run(1, Some(0));
        let par = run(4, None);
        let par_spill = run(4, Some(0));
        assert_equivalent(&seq, &seq_spill, &format!("{what}/{symmetry:?} seq-spill"));
        assert_equivalent(&par, &par_spill, &format!("{what}/{symmetry:?} par-spill"));
        assert_equivalent(&seq, &par, &format!("{what}/{symmetry:?} par"));
        assert_eq!(
            (seq.arena_bytes, seq.seen_table_bytes),
            (par.arena_bytes, par.seen_table_bytes),
            "{what}/{symmetry:?}: arena and seen-table bytes must not depend \
             on the worker count"
        );
        if seq.canonical_states > 600 {
            assert!(
                seq_spill.arena_spilled_bytes > 0,
                "{what}/{symmetry:?}: a zero budget must force eviction \
                 (resident {} of {} logical bytes)",
                seq_spill.arena_resident_bytes,
                seq_spill.arena_resident_bytes + seq_spill.arena_spilled_bytes,
            );
            assert!(
                seq_spill.spill_faults > 0,
                "{what}/{symmetry:?}: dedup probes above evicted pages must fault"
            );
        }
    }
}

#[test]
fn four_workers_match_one_on_toys() {
    let mut pool = PidPool::sequential();
    let peterson = vec![
        PetersonTwo::new(pool.mint(), 0),
        PetersonTwo::new(pool.mint(), 1),
    ];
    worker_count_differential(move || peterson.clone(), MemoryModel::Rw, 3, "peterson");
    let mut pool = PidPool::sequential();
    let naive: Vec<NaiveFlagLock> = (0..2).map(|_| NaiveFlagLock::new(pool.mint())).collect();
    worker_count_differential(move || naive.clone(), MemoryModel::Rw, 1, "naive-flag");
}

#[test]
fn four_workers_match_one_on_alg1() {
    // (2,3) verifies; (2,2) is invalid and produces a livelock witness.
    worker_count_differential(|| alg1(2, 3), MemoryModel::Rw, 3, "alg1(2,3)");
    worker_count_differential(|| alg1(2, 2), MemoryModel::Rw, 2, "alg1(2,2)");
}

#[test]
fn four_workers_match_one_on_alg2() {
    worker_count_differential(|| alg2(2, 3), MemoryModel::Rmw, 3, "alg2(2,3)");
    worker_count_differential(|| alg2(3, 1), MemoryModel::Rmw, 1, "alg2(3,1)");
}

/// Kill-at-level-k / resume equivalence: halting at the first level-k
/// checkpoint yields `Verdict::Interrupted`, and resuming from the
/// on-disk checkpoint reproduces the uninterrupted one-worker report
/// exactly — including under a starved resident budget, so the
/// checkpoint write and the restore both cross the spill machinery.
/// The halted run uses `threads.0` workers and the resumed run
/// `threads.1` (oversubscribed, so more than one runs the work-stealing
/// level on any host): a checkpoint resumes at any worker count.
fn kill_resume_roundtrip<A, F>(
    make: F,
    model: MemoryModel,
    m: usize,
    every: u32,
    threads: (usize, usize),
    what: &str,
) where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let dir = TempDir::new("resume");
    let configure = |mc: ModelChecker<A>, threads: usize| {
        mc.max_states(2_000_000)
            .symmetry(Symmetry::Wreath)
            .threads(threads)
            .oversubscribe(threads > 1)
            .resident_budget(0)
            .checkpoint_dir(dir.path())
            .checkpoint_every(every)
    };
    let baseline = ModelChecker::with_automata(make(), model, m, &Adversary::Identity)
        .unwrap()
        .max_states(2_000_000)
        .symmetry(Symmetry::Wreath)
        .run()
        .unwrap();

    let halted = configure(
        ModelChecker::with_automata(make(), model, m, &Adversary::Identity).unwrap(),
        threads.0,
    )
    .halt_after_checkpoints(1)
    .run()
    .unwrap();
    let Verdict::Interrupted { level, checkpoints } = halted.verdict else {
        panic!("{what}: expected an interruption, got {:?}", halted.verdict);
    };
    assert_eq!(
        checkpoints, 1,
        "{what}: exactly one checkpoint before halting"
    );
    assert_eq!(
        level % every,
        0,
        "{what}: checkpoints land on level-{every} boundaries"
    );
    assert_eq!(halted.checkpoints_written, 1);
    assert!(
        dir.path().join(format!("mc-{level:08}.ckpt")).is_file(),
        "{what}: the level-{level} checkpoint file must exist after the halt"
    );

    let resumed = configure(
        ModelChecker::with_automata(make(), model, m, &Adversary::Identity).unwrap(),
        threads.1,
    )
    .resume(true)
    .run()
    .unwrap();
    assert_eq!(
        resumed.resumed_from_level,
        Some(level),
        "{what}: resume must pick up at the checkpointed level"
    );
    assert_equivalent(&baseline, &resumed, &format!("{what} resumed"));

    // A fingerprint mismatch (a smaller max-states bound here) must
    // refuse the checkpoint rather than silently resume the wrong run —
    // as a typed McError::Checkpoint, never a panic.
    let mismatch = ModelChecker::with_automata(make(), model, m, &Adversary::Identity)
        .unwrap()
        .max_states(1_000_000)
        .symmetry(Symmetry::Wreath)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run();
    assert!(
        matches!(mismatch, Err(amx_sim::mc::McError::Checkpoint(_))),
        "{what}: resuming under an incompatible configuration must be refused \
         with a typed error, got {mismatch:?}"
    );
}

#[test]
fn kill_and_resume_alg1_livelock() {
    // Invalid configuration: the resumed run must still converge on the
    // same fair-livelock witness schedule, from the edge rows the
    // checkpoint carried plus the ones it recorded after resuming.
    kill_resume_roundtrip(|| alg1(2, 2), MemoryModel::Rw, 2, 3, (1, 1), "alg1(2,2)");
}

#[test]
fn kill_and_resume_alg1_livelock_across_worker_counts() {
    // Every worker count numbers states in discovery order, so a
    // checkpoint written at one resumes at another.
    for threads in [(1, 3), (3, 1)] {
        let what = format!("alg1(2,2) {threads:?}");
        kill_resume_roundtrip(|| alg1(2, 2), MemoryModel::Rw, 2, 3, threads, &what);
    }
}

#[test]
fn kill_and_resume_alg2_verifies() {
    kill_resume_roundtrip(|| alg2(2, 3), MemoryModel::Rmw, 3, 4, (1, 1), "alg2(2,3)");
}

/// A checkpoint carrying the previous format's magic (`AMXCKPT4`, from
/// before the file carried pending depths) is skipped with a degraded
/// note, and the run starts over to the uninterrupted report.
#[test]
fn previous_format_checkpoint_is_skipped() {
    let dir = TempDir::new("v2");
    let checker = || {
        ModelChecker::with_automata(alg1(2, 2), MemoryModel::Rw, 2, &Adversary::Identity)
            .unwrap()
            .max_states(2_000_000)
            .symmetry(Symmetry::Wreath)
    };
    let baseline = checker().run().unwrap();
    let halted = checker()
        .checkpoint_dir(dir.path())
        .checkpoint_every(2)
        .halt_after_checkpoints(1)
        .run()
        .unwrap();
    let Verdict::Interrupted { level, .. } = halted.verdict else {
        panic!("expected an interruption, got {:?}", halted.verdict);
    };
    let path = dir.path().join(format!("mc-{level:08}.ckpt"));
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        &bytes[..8],
        b"AMXCKPT5",
        "checkpoints are written in the current format"
    );
    bytes[..8].copy_from_slice(b"AMXCKPT4");
    std::fs::write(&path, &bytes).unwrap();

    let resumed = checker()
        .checkpoint_dir(dir.path())
        .checkpoint_every(2)
        .resume(true)
        .run()
        .unwrap();
    assert_eq!(
        resumed.resumed_from_level, None,
        "nothing current to resume"
    );
    assert!(
        resumed
            .degraded
            .iter()
            .any(|note| note.contains(&format!("checkpoint level {level} unusable"))),
        "the skipped file must be on record: {:?}",
        resumed.degraded
    );
    assert_equivalent(
        &baseline,
        &resumed,
        "alg1(2,2) after a skipped AMXCKPT4 file",
    );
}

#[test]
fn resume_without_checkpoint_starts_fresh() {
    let dir = TempDir::new("fresh");
    let report = ModelChecker::with_automata(alg2(2, 1), MemoryModel::Rmw, 1, &Adversary::Identity)
        .unwrap()
        .max_states(1_000_000)
        .symmetry(Symmetry::Wreath)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run()
        .unwrap();
    assert_eq!(report.resumed_from_level, None);
    assert_eq!(report.verdict, Verdict::Ok);
}
