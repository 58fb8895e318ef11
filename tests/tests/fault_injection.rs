//! Fault-injection differentials for the out-of-core engine (PR 8).
//!
//! The contract under injected I/O failure is graceful degradation,
//! never a panic and never a silently wrong verdict:
//!
//! * a **spill write** failure makes the arena fall back to fully
//!   resident — the run completes with a verdict identical to the
//!   clean run and records the degradation in `McReport::degraded`;
//! * a **spill read** failure loses interned state, so no sound
//!   verdict exists — the run aborts with the typed
//!   `McError::Spill`, never a panic;
//! * a **checkpoint write** failure disables checkpointing for the
//!   rest of the run (degraded, verdict unchanged);
//! * a **torn, truncated or garbled newest checkpoint** — a corrupt
//!   length field or one flipped bit anywhere in the file included —
//!   makes `--resume` fall back to the newest *valid* earlier level and
//!   still reproduce the uninterrupted verdict bit-for-bit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amx_core::{Alg1Automaton, Alg2Automaton, FreeSlotPolicy, MutexSpec};
use amx_ids::PidPool;
use amx_registers::Adversary;
use amx_sim::mc::{McError, McReport, ModelChecker, Symmetry};
use amx_sim::{Automaton, EncodeState, FaultPlan, MemoryModel, Verdict};

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

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("amx-fault-{tag}-{}-{seq}", std::process::id()));
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

/// The report facets that must be identical between a clean run and a
/// degraded-but-completed faulty run.
fn assert_same_verdict(clean: &McReport, faulty: &McReport, what: &str) {
    assert_eq!(clean.verdict, faulty.verdict, "{what}: verdict diverged");
    assert_eq!(
        clean.canonical_states, faulty.canonical_states,
        "{what}: canonical count diverged"
    );
    assert_eq!(
        clean.transitions, faulty.transitions,
        "{what}: transitions diverged"
    );
}

fn checker<A>(automata: Vec<A>, model: MemoryModel, m: usize) -> ModelChecker<A>
where
    A: Automaton + Sync + Clone,
    A::State: EncodeState + Send,
{
    ModelChecker::with_automata(automata, model, m, &Adversary::Identity)
        .unwrap()
        .max_states(2_000_000)
        .symmetry(Symmetry::Wreath)
}

/// Spill-write fault ⇒ fully-resident fallback: same verdict and
/// counts as the clean spilling run, with the degradation on record.
#[test]
fn spill_write_fault_degrades_to_resident_with_identical_verdict() {
    for (what, run) in [
        (
            "alg1(3,3)",
            Box::new(|plan: Option<Arc<FaultPlan>>| {
                let mut mc = checker(alg1(3, 3), MemoryModel::Rw, 3).resident_budget(0);
                if let Some(p) = plan {
                    mc = mc.fault_plan(p);
                }
                mc.run().unwrap()
            }) as Box<dyn Fn(Option<Arc<FaultPlan>>) -> McReport>,
        ),
        (
            "alg2(2,3)",
            Box::new(|plan: Option<Arc<FaultPlan>>| {
                let mut mc = checker(alg2(2, 3), MemoryModel::Rmw, 3).resident_budget(0);
                if let Some(p) = plan {
                    mc = mc.fault_plan(p);
                }
                mc.run().unwrap()
            }),
        ),
    ] {
        let clean = run(None);
        assert!(
            clean.arena_spilled_bytes > 0,
            "{what}: the clean run must actually spill for the fault to matter"
        );
        let plan = Arc::new(FaultPlan::new().fail_spill_write(1, std::io::ErrorKind::StorageFull));
        let faulty = run(Some(plan.clone()));
        assert!(plan.spill_write_hit(), "{what}: the fault must have fired");
        assert_same_verdict(&clean, &faulty, what);
        assert!(
            !faulty.degraded.is_empty(),
            "{what}: the degradation must be on record"
        );
        assert_eq!(
            faulty.arena_spilled_bytes, 0,
            "{what}: after the write fault the arena must hold everything resident"
        );
    }
}

/// Spill-read fault ⇒ interned state was lost: the run must abort with
/// the typed `McError::Spill` — not a panic, not a wrong verdict.
#[test]
fn spill_read_fault_is_a_typed_error() {
    let plan = Arc::new(FaultPlan::new().fail_spill_read(1, std::io::ErrorKind::Other));
    let err = checker(alg2(2, 3), MemoryModel::Rmw, 3)
        .resident_budget(0)
        .fault_plan(plan.clone())
        .run();
    assert!(plan.spill_read_hit(), "the read fault must have fired");
    assert!(
        matches!(err, Err(McError::Spill(_))),
        "a lost spilled page must be a typed spill error, got {err:?}"
    );
}

/// Checkpoint-write fault ⇒ checkpointing is disabled for the rest of
/// the run, the exploration itself completes with the clean verdict.
#[test]
fn checkpoint_write_fault_disables_checkpointing() {
    let clean = checker(alg2(2, 3), MemoryModel::Rmw, 3).run().unwrap();
    let dir = TempDir::new("ckpt-write");
    let plan = Arc::new(FaultPlan::new().fail_checkpoint_write(1, std::io::ErrorKind::StorageFull));
    let faulty = checker(alg2(2, 3), MemoryModel::Rmw, 3)
        .checkpoint_dir(dir.path())
        .checkpoint_every(1)
        .fault_plan(plan.clone())
        .run()
        .unwrap();
    assert!(plan.checkpoint_write_hit());
    assert_same_verdict(&clean, &faulty, "alg2(2,3) ckpt-write fault");
    assert!(
        !faulty.degraded.is_empty(),
        "the disabled checkpointing must be on record"
    );
    assert_eq!(
        faulty.checkpoints_written, 0,
        "no checkpoint may survive a first-write failure"
    );
}

/// Runs a halted exploration writing two per-level checkpoints, breaks
/// the newest one with `corrupt`, resumes, and asserts the resume fell
/// back to the older level and still reproduced the clean verdict.
fn corrupt_newest_and_resume<C>(tag: &str, plan: Option<Arc<FaultPlan>>, corrupt: C)
where
    C: FnOnce(&PathBuf),
{
    let baseline = checker(alg2(2, 3), MemoryModel::Rmw, 3).run().unwrap();
    let dir = TempDir::new(tag);
    let configure = |mc: ModelChecker<Alg2Automaton>| {
        mc.checkpoint_dir(dir.path())
            .checkpoint_every(1)
            .resident_budget(0)
    };
    let mut halted_mc =
        configure(checker(alg2(2, 3), MemoryModel::Rmw, 3)).halt_after_checkpoints(2);
    if let Some(p) = &plan {
        halted_mc = halted_mc.fault_plan(p.clone());
    }
    let halted = halted_mc.run().unwrap();
    let Verdict::Interrupted { level, .. } = halted.verdict else {
        panic!("{tag}: expected an interruption, got {:?}", halted.verdict);
    };
    assert_eq!(
        level, 2,
        "{tag}: two level-1-spaced checkpoints end at level 2"
    );

    // Break the newest checkpoint (level 2); level 1 stays valid.
    corrupt(dir.path());

    let resumed = configure(checker(alg2(2, 3), MemoryModel::Rmw, 3))
        .resume(true)
        .run()
        .unwrap();
    assert_eq!(
        resumed.resumed_from_level,
        Some(1),
        "{tag}: the resume must fall back to the newest *valid* level"
    );
    assert!(
        !resumed.degraded.is_empty(),
        "{tag}: the fallback must be on record"
    );
    assert_same_verdict(&baseline, &resumed, tag);
}

/// The newest per-level checkpoint file in `dir`.
fn newest_checkpoint(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|s| s.to_str())
                .is_some_and(|s| s.starts_with("mc-") && s.ends_with(".ckpt"))
        })
        .max()
        .expect("a newest checkpoint exists")
}

/// Satellite 3, torn-rename flavour: the injected tear truncates the
/// newest checkpoint mid-rename (reporting success, as a crash during
/// rename would); resume falls back one level.
#[test]
fn torn_checkpoint_rename_falls_back_one_level() {
    let plan = Arc::new(FaultPlan::new().tear_checkpoint(2));
    let p = plan.clone();
    corrupt_newest_and_resume("torn", Some(plan), move |_dir| {
        assert!(
            p.checkpoint_tear_hit(),
            "the tear must have fired during the halted run"
        );
    });
}

/// Satellite 3, truncated-file flavour: the newest checkpoint is cut
/// in half on disk after the fact (a torn write at the filesystem
/// level); resume falls back one level.
#[test]
fn truncated_checkpoint_file_falls_back_one_level() {
    corrupt_newest_and_resume("trunc", None, |dir| {
        let newest = newest_checkpoint(dir);
        let len = std::fs::metadata(&newest).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&newest)
            .unwrap();
        f.set_len(len / 2).unwrap();
    });
}

/// Garbage bytes (valid length, wrong payload) in the newest
/// checkpoint are also caught and skipped — corruption detection is
/// not just a length check.
#[test]
fn garbage_checkpoint_payload_falls_back_one_level() {
    corrupt_newest_and_resume("garbage", None, |dir| {
        let newest = newest_checkpoint(dir);
        let mut bytes = std::fs::read(&newest).unwrap();
        let at = bytes.len() / 2;
        let end = at + 64.min(bytes.len() - at);
        for b in &mut bytes[at..end] {
            *b ^= 0xFF;
        }
        std::fs::write(&newest, &bytes).unwrap();
    });
}

/// A length field claiming more than the file holds — the monitor
/// count (bytes 56..64, after the magic, fingerprint, level and four
/// counters) or the length of either pending-depth section (the
/// per-position maxima and the frontier's rows), set to 2^60 − 1 — is
/// refused before anything is allocated for it (the checksum catches it
/// before any field is read): the file is skipped like a torn one,
/// never a panic.  A checkpoint whose checksum holds but whose rows do
/// not number frontier × n is refused with `InvalidData` (a unit test
/// of `amx-sim::mc`).
#[test]
fn corrupt_length_field_falls_back_one_level() {
    for field in [
        "monitor count",
        "depth maxima length",
        "frontier depths length",
    ] {
        corrupt_newest_and_resume(
            &format!("length-{}", field.replace(' ', "-")),
            None,
            |dir| {
                let newest = newest_checkpoint(dir);
                let mut bytes = std::fs::read(&newest).unwrap();
                let &(_, at) = flip_sites(&bytes)
                    .iter()
                    .find(|(name, _)| *name == field)
                    .expect("the walk finds every length field");
                bytes[at..at + 8].copy_from_slice(&0x0FFF_FFFF_FFFF_FFFFu64.to_le_bytes());
                std::fs::write(&newest, &bytes).unwrap();
            },
        );
    }
}

/// One byte offset inside each section of a checkpoint file, found by
/// walking the layout the checker writes: magic, fingerprint, level,
/// four counters, monitor records, frontier ids, the arena snapshot
/// (its own magic, record ends, hash table, open-page bases, open-page
/// bytes, sealed-page bytes), meta rows, edge targets, edge sigmas,
/// pending-depth maxima, the frontier's pending depths and the trailing
/// checksum.  Sealed pages get no site (the test's small checkpoints
/// have none), nor does a section the file leaves empty.  The monitor
/// count and the two pending-depth sections' lengths also get their
/// fields' offsets.
fn flip_sites(bytes: &[u8]) -> Vec<(&'static str, usize)> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut sites = vec![
        ("magic", 3),
        ("fingerprint", 8 + 5),
        ("level", 16),
        ("transitions", 24),
    ];
    let mut at = 56;
    sites.push(("monitor count", at));
    let monitors = word(at);
    at += 8;
    for _ in 0..monitors {
        at += if word(at + 8) == 1 { 40 } else { 16 };
    }
    let frontier = word(at);
    at += 8;
    if frontier > 0 {
        sites.push(("frontier", at + 4 * (frontier / 2)));
    }
    at += 4 * frontier;
    assert_eq!(&bytes[at..at + 8], b"AMXARN1\n", "arena snapshot magic");
    at += 8;
    let states = word(at);
    at += 8;
    let ends = at;
    sites.push(("arena record ends", ends + 4 * (states / 2)));
    at += 4 * states;
    let total = u32::from_le_bytes(
        bytes[ends + 4 * (states - 1)..ends + 4 * states]
            .try_into()
            .unwrap(),
    ) as usize;
    let table = word(at);
    at += 8;
    sites.push(("arena table", at + 8 * (table / 2)));
    at += 8 * table;
    let bases = word(at);
    at += 8 + 6 * bases;
    let open = word(at);
    at += 8;
    if open > 0 {
        sites.push(("arena open page", at + open / 2));
    }
    // The sealed pages hold the rest of the records.
    at += total;
    let meta = word(at);
    at += 8;
    sites.push(("meta rows", at + 8 * (meta / 2)));
    at += 8 * meta;
    let targets = word(at);
    at += 8;
    if targets > 0 {
        sites.push(("edge targets", at + 4 * (targets / 2)));
    }
    at += 4 * targets;
    let sigmas = word(at);
    at += 8;
    if sigmas > 0 {
        sites.push(("edge sigmas", at + 2 * (sigmas / 2)));
    }
    at += 2 * sigmas;
    for (section, length) in [
        ("depth maxima", "depth maxima length"),
        ("frontier depths", "frontier depths length"),
    ] {
        let count = word(at);
        sites.push((length, at));
        at += 8;
        if count > 0 {
            sites.push((section, at + 2 * (count / 2)));
        }
        at += 2 * count;
    }
    assert_eq!(at + 8, bytes.len(), "the walk ends at the checksum");
    sites.push(("checksum", at + 3));
    sites
}

/// One flipped bit in any section of the newest checkpoint — the
/// fingerprint included, which must not turn into a hard
/// incompatible-configuration error — makes the resume fall back one
/// level and reproduce the clean verdict and counts.
#[test]
fn single_bit_flip_anywhere_falls_back_one_level() {
    let sections = [
        "magic",
        "fingerprint",
        "level",
        "transitions",
        "frontier",
        "arena record ends",
        "arena table",
        "arena open page",
        "meta rows",
        "edge targets",
        "edge sigmas",
        "depth maxima",
        "frontier depths",
        "checksum",
    ];
    for section in sections {
        corrupt_newest_and_resume(
            &format!("flip-{}", section.replace(' ', "-")),
            None,
            |dir| {
                let newest = newest_checkpoint(dir);
                let mut bytes = std::fs::read(&newest).unwrap();
                let sites = flip_sites(&bytes);
                let &(_, at) = sites
                    .iter()
                    .find(|(name, _)| *name == section)
                    .unwrap_or_else(|| {
                        panic!("the newest checkpoint has no {section} ({sites:?})")
                    });
                bytes[at] ^= 1;
                std::fs::write(&newest, &bytes).unwrap();
            },
        );
    }
}

/// Every checkpoint corrupt ⇒ the resume starts fresh (degraded, not
/// dead) and still reaches the clean verdict.
#[test]
fn all_checkpoints_corrupt_starts_fresh() {
    let baseline = checker(alg2(2, 3), MemoryModel::Rmw, 3).run().unwrap();
    let dir = TempDir::new("all-corrupt");
    let halted = checker(alg2(2, 3), MemoryModel::Rmw, 3)
        .checkpoint_dir(dir.path())
        .checkpoint_every(1)
        .halt_after_checkpoints(2)
        .run()
        .unwrap();
    assert!(matches!(halted.verdict, Verdict::Interrupted { .. }));
    for entry in std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(Result::ok)
    {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "ckpt") {
            let len = std::fs::metadata(&p).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
            f.set_len(len / 3).unwrap();
        }
    }
    let resumed = checker(alg2(2, 3), MemoryModel::Rmw, 3)
        .checkpoint_dir(dir.path())
        .checkpoint_every(1)
        .resume(true)
        .run()
        .unwrap();
    assert_eq!(resumed.resumed_from_level, None, "nothing valid to resume");
    assert!(!resumed.degraded.is_empty());
    assert_same_verdict(&baseline, &resumed, "all-corrupt fresh restart");
}
