//! Out-of-core exploration contracts (PR 7).
//!
//! Three properties must hold for the spillable, sharded, resumable
//! engine to be trustworthy:
//!
//! * **Sharded ≡ single-table** — the hash-prefix-sharded seen table
//!   (multi-worker runs, 64 shards) reports the same verdict, witness
//!   schedule and counts as the one-worker single-shard table, on
//!   completing and aborting runs alike, even while a tiny resident
//!   budget forces page eviction and fault-in mid-exploration.
//! * **Spill transparency** — running under a resident budget changes
//!   the report only in the spill-accounting fields: within one shard
//!   layout the spilled report is bit-identical, witness included.
//! * **Kill/resume equivalence** — a sweep halted at a level-k
//!   checkpoint and resumed from disk finishes with a report identical
//!   to the uninterrupted run (counts, verdict, witness schedule).

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
}

/// Sharded-vs-single differential: multi-worker sharded exploration
/// under a deliberately starved resident budget must match the
/// one-worker single-shard run, with and without symmetry reduction.
/// Spill is bit-transparent, and so is the shard layout.
fn sharded_differential<A, F>(make: F, model: MemoryModel, m: usize, what: &str)
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
                // Lift the single-core clamp so the sharded path
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
        let sharded = run(4, None);
        let sharded_spill = run(4, Some(0));
        assert_equivalent(&seq, &seq_spill, &format!("{what}/{symmetry:?} seq-spill"));
        assert_equivalent(
            &sharded,
            &sharded_spill,
            &format!("{what}/{symmetry:?} sharded-spill"),
        );
        assert_equivalent(&seq, &sharded, &format!("{what}/{symmetry:?} sharded"));
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
fn sharded_matches_single_on_toys() {
    let mut pool = PidPool::sequential();
    let peterson = vec![
        PetersonTwo::new(pool.mint(), 0),
        PetersonTwo::new(pool.mint(), 1),
    ];
    sharded_differential(move || peterson.clone(), MemoryModel::Rw, 3, "peterson");
    let mut pool = PidPool::sequential();
    let naive: Vec<NaiveFlagLock> = (0..2).map(|_| NaiveFlagLock::new(pool.mint())).collect();
    sharded_differential(move || naive.clone(), MemoryModel::Rw, 1, "naive-flag");
}

#[test]
fn sharded_matches_single_on_alg1() {
    // (2,3) verifies; (2,2) is invalid and produces a livelock witness.
    sharded_differential(|| alg1(2, 3), MemoryModel::Rw, 3, "alg1(2,3)");
    sharded_differential(|| alg1(2, 2), MemoryModel::Rw, 2, "alg1(2,2)");
}

#[test]
fn sharded_matches_single_on_alg2() {
    sharded_differential(|| alg2(2, 3), MemoryModel::Rmw, 3, "alg2(2,3)");
    sharded_differential(|| alg2(3, 1), MemoryModel::Rmw, 1, "alg2(3,1)");
}

/// Kill-at-level-k / resume equivalence: halting at the first level-k
/// checkpoint yields `Verdict::Interrupted`, and resuming from the
/// on-disk checkpoint reproduces the uninterrupted report exactly —
/// including under a starved resident budget, so the checkpoint write
/// and the restore both cross the spill machinery.
fn kill_resume_roundtrip<A, F>(make: F, model: MemoryModel, m: usize, every: u32, what: &str)
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
    F: Fn() -> Vec<A>,
{
    let dir = TempDir::new("resume");
    let configure = |mc: ModelChecker<A>| {
        mc.max_states(2_000_000)
            .symmetry(Symmetry::Wreath)
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

    let halted =
        configure(ModelChecker::with_automata(make(), model, m, &Adversary::Identity).unwrap())
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

    let resumed =
        configure(ModelChecker::with_automata(make(), model, m, &Adversary::Identity).unwrap())
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
    // same fair-livelock witness schedule.
    kill_resume_roundtrip(|| alg1(2, 2), MemoryModel::Rw, 2, 3, "alg1(2,2)");
}

#[test]
fn kill_and_resume_alg2_verifies() {
    kill_resume_roundtrip(|| alg2(2, 3), MemoryModel::Rmw, 3, 4, "alg2(2,3)");
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
