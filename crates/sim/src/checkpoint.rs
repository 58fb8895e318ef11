//! Level-boundary checkpoints for resumable BFS exploration.
//!
//! A checkpoint captures everything the exploration loop needs to
//! continue from a completed breadth-first level bit-identically: the
//! per-shard interned arenas (via the spill-invariant
//! [`StateArena`] snapshot format) and BFS-tree metadata, the pending
//! frontier (as global ids — the bytes are rematerialized from the
//! arenas on load), the global counters, the monitor accumulators, and
//! the fair-livelock pass's edge rows of every already-expanded state
//! (so a resumed run never regenerates a successor).
//!
//! Each completed level is written to its own file
//! (`mc-<level:08>.ckpt`) atomically (`.tmp` + rename), and the newest
//! [`RETAIN`] level files are kept on disk.  Resume scans the directory
//! newest-first: a torn, truncated, or otherwise corrupt newest file is
//! *skipped* (with a note the caller surfaces as a degradation event)
//! and the previous valid level is restored instead, so a crash at the
//! worst possible moment costs one level of progress, never the run.
//! Files are keyed by a configuration fingerprint: resuming under a
//! different automaton, parameter set, symmetry mode, or shard count is
//! refused instead of silently producing garbage — a fingerprint
//! mismatch on a structurally valid file is a hard error, not a
//! fallback.
//!
//! Every length field is checked against the bytes left in the file
//! before anything is allocated for it: a corrupt length makes the
//! file unusable (skipped like a torn one), never a panic.
//!
//! Writes consult an optional [`FaultPlan`]: the checkpoint-write point
//! fails the whole write before any byte is produced, and the
//! torn-rename point truncates the finished temporary file to half its
//! length before renaming it into place and then *reports success* —
//! the on-disk outcome of a power cut before the data became durable.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::fault::FaultPlan;
use crate::intern::{read_u64, read_words, write_u64, StateArena};
use crate::mc::{MonitorHit, NodeMeta, Shard};

/// Format magic; bump the trailing digit on layout changes.
const MAGIC: &[u8; 8] = b"AMXCKPT2";
/// Most shards a checkpoint can hold (the engine's largest layout).
const MAX_SHARDS: u64 = 64;
/// How many newest per-level checkpoint files survive a write.
const RETAIN: usize = 2;

/// File name for the checkpoint of a completed `level`.
fn file_name(level: u32) -> String {
    format!("mc-{level:08}.ckpt")
}

/// Parses a `mc-<level:08>.ckpt` file name back to its level.
fn parse_level(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("mc-")?.strip_suffix(".ckpt")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// All per-level checkpoint files in `dir`, sorted newest level first.
fn level_files(dir: &Path) -> io::Result<Vec<(u32, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(level) = entry.file_name().to_str().and_then(parse_level) {
            out.push((level, entry.path()));
        }
    }
    out.sort_by_key(|e| std::cmp::Reverse(e.0));
    Ok(out)
}

/// Borrowed view of the exploration state written at a level boundary.
pub(crate) struct Snapshot<'a> {
    /// Configuration fingerprint the checkpoint is only valid for.
    pub(crate) fingerprint: u64,
    /// Number of completed BFS levels.
    pub(crate) level: u32,
    pub(crate) transitions: u64,
    pub(crate) acquisitions: u64,
    pub(crate) peak_frontier: u64,
    pub(crate) orbit_sum: u64,
    pub(crate) monitor_hits: &'a [MonitorHit],
    /// Global ids of the next frontier (the bytes are rematerialized
    /// from the arenas on load).
    pub(crate) frontier: &'a [u32],
    pub(crate) shards: &'a [Shard],
    /// Edge-table rows of the expanded states: targets (global ids or
    /// `NO_EDGE`), and the canonicalizing group elements (empty without
    /// symmetry).
    pub(crate) edge_targets: &'a [u32],
    pub(crate) edge_sigmas: &'a [u16],
}

/// Owned exploration state read back from a checkpoint.
pub(crate) struct Restored {
    pub(crate) level: u32,
    pub(crate) transitions: u64,
    pub(crate) acquisitions: u64,
    pub(crate) peak_frontier: u64,
    pub(crate) orbit_sum: u64,
    pub(crate) monitor_hits: Vec<MonitorHit>,
    /// Frontier global ids; bytes are rematerialized by the caller.
    pub(crate) frontier: Vec<u32>,
    pub(crate) shards: Vec<Shard>,
    /// Edge-table rows, as in [`Snapshot`]; the caller checks them
    /// against the restored states.
    pub(crate) edge_targets: Vec<u32>,
    pub(crate) edge_sigmas: Vec<u16>,
}

/// Writes `snap` to `<dir>/mc-<level>.ckpt` atomically, then prunes
/// all but the newest [`RETAIN`] level files.
///
/// When `plan` arms the checkpoint-write point this fails cleanly
/// before creating any file; when it arms the torn-rename point the
/// file is truncated mid-payload but still renamed into place and the
/// write *reports success* (the resume path is what must cope).
pub(crate) fn write(dir: &Path, snap: &Snapshot<'_>, plan: Option<&FaultPlan>) -> io::Result<()> {
    if let Some(err) = plan.and_then(FaultPlan::on_checkpoint_write) {
        return Err(err);
    }
    fs::create_dir_all(dir)?;
    let name = file_name(snap.level);
    let tmp = dir.join(format!("{name}.tmp"));
    let mut w = BufWriter::new(File::create(&tmp)?);
    w.write_all(MAGIC)?;
    write_u64(&mut w, snap.fingerprint)?;
    write_u64(&mut w, u64::from(snap.level))?;
    write_u64(&mut w, snap.transitions)?;
    write_u64(&mut w, snap.acquisitions)?;
    write_u64(&mut w, snap.peak_frontier)?;
    write_u64(&mut w, snap.orbit_sum)?;
    write_u64(&mut w, snap.monitor_hits.len() as u64)?;
    for hit in snap.monitor_hits {
        write_u64(&mut w, hit.count as u64)?;
        match hit.best {
            Some(((pos, actor), node)) => {
                write_u64(&mut w, 1)?;
                write_u64(&mut w, pos as u64)?;
                write_u64(&mut w, actor as u64)?;
                write_u64(&mut w, u64::from(node))?;
            }
            None => write_u64(&mut w, 0)?,
        }
    }
    write_u64(&mut w, snap.frontier.len() as u64)?;
    for gid in snap.frontier {
        w.write_all(&gid.to_le_bytes())?;
    }
    write_u64(&mut w, snap.shards.len() as u64)?;
    for shard in snap.shards {
        shard.arena.write_snapshot(&mut w)?;
        write_u64(&mut w, shard.meta.len() as u64)?;
        for m in &shard.meta {
            // Parent in the high half, sigma and actor packed low.
            let packed =
                (u64::from(m.parent) << 32) | (u64::from(m.sigma) << 8) | u64::from(m.actor);
            write_u64(&mut w, packed)?;
        }
    }
    write_u64(&mut w, snap.edge_targets.len() as u64)?;
    for t in snap.edge_targets {
        w.write_all(&t.to_le_bytes())?;
    }
    write_u64(&mut w, snap.edge_sigmas.len() as u64)?;
    for sigma in snap.edge_sigmas {
        w.write_all(&sigma.to_le_bytes())?;
    }
    w.flush()?;
    let file = w.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()?;
    if plan.and_then(FaultPlan::on_checkpoint_rename).is_some() {
        // Torn rename: half the payload never became durable, but the
        // rename itself did.  The caller still sees success.
        let len = file.metadata()?.len();
        file.set_len(len / 2)?;
        file.sync_all()?;
    }
    drop(file);
    fs::rename(&tmp, dir.join(&name))?;
    // Prune older levels, newest RETAIN survive.  A failed unlink is
    // not worth failing the run over.
    if let Ok(files) = level_files(dir) {
        for (_, path) in files.into_iter().skip(RETAIN) {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Why a specific checkpoint file could not be restored.
enum LoadFail {
    /// Structurally valid but written by a different configuration —
    /// never fall back past this, it is a user error.
    Incompatible(io::Error),
    /// Torn, truncated, or corrupt — skip to an older level.
    Corrupt(io::Error),
}

/// Loads the newest restorable checkpoint from `dir`.
///
/// Scans per-level files newest-first, skipping torn or corrupt files
/// (each skip is reported in the second tuple slot so the caller can
/// surface it as a degradation event) and restoring the first valid
/// one.  Returns `Ok((None, skips))` when nothing restorable exists (a
/// fresh run), and a hard `InvalidData` error when a structurally
/// valid file carries the wrong configuration fingerprint.
pub(crate) fn load_latest(
    dir: &Path,
    fingerprint: u64,
) -> io::Result<(Option<Restored>, Vec<String>)> {
    let mut skipped = Vec::new();
    for (level, path) in level_files(dir)? {
        match parse_file(&path, fingerprint) {
            Ok(restored) => return Ok((Some(restored), skipped)),
            Err(LoadFail::Incompatible(e)) => return Err(e),
            Err(LoadFail::Corrupt(e)) => {
                skipped.push(format!(
                    "checkpoint level {level} unusable ({e}); falling back to an earlier level"
                ));
            }
        }
    }
    Ok((None, skipped))
}

/// Parses one checkpoint file, classifying failures.
fn parse_file(path: &Path, fingerprint: u64) -> Result<Restored, LoadFail> {
    let corrupt = LoadFail::Corrupt;
    let file = File::open(path).map_err(corrupt)?;
    let len = file.metadata().map_err(corrupt)?.len();
    // The limit is the rest of the file: length fields check against it.
    let mut r = BufReader::new(file).take(len);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(corrupt)?;
    if magic != *MAGIC {
        return Err(corrupt(bad_data("checkpoint magic mismatch")));
    }
    if read_u64(&mut r).map_err(corrupt)? != fingerprint {
        return Err(LoadFail::Incompatible(bad_data(
            "checkpoint was written by an incompatible configuration",
        )));
    }
    parse_payload(&mut r).map_err(corrupt)
}

/// Parses everything after the magic + fingerprint header.
fn parse_payload<R: Read>(r: &mut io::Take<R>) -> io::Result<Restored> {
    let level = read_u32_checked(r, "level")?;
    let transitions = read_u64(r)?;
    let acquisitions = read_u64(r)?;
    let peak_frontier = read_u64(r)?;
    let orbit_sum = read_u64(r)?;
    // A monitor record is at least its count and its witness flag.
    let n_monitors = read_count(r, 16, "monitor count")?;
    let mut monitor_hits = Vec::with_capacity(n_monitors);
    for _ in 0..n_monitors {
        let count = usize::try_from(read_u64(r)?).map_err(|_| bad_data("monitor count"))?;
        let best = match read_u64(r)? {
            0 => None,
            1 => {
                let pos = usize::try_from(read_u64(r)?).map_err(|_| bad_data("hit pos"))?;
                let actor = usize::try_from(read_u64(r)?).map_err(|_| bad_data("hit actor"))?;
                let node = read_u32_checked(r, "hit node")?;
                Some(((pos, actor), node))
            }
            _ => return Err(bad_data("monitor hit flag")),
        };
        monitor_hits.push(MonitorHit { count, best });
    }
    let n_frontier = read_count(r, 4, "frontier length")?;
    let frontier = read_words(r, n_frontier, u32::from_le_bytes)?;
    let n_shards = read_u64(r)?;
    if n_shards > MAX_SHARDS {
        return Err(bad_data("shard count"));
    }
    let mut shards = Vec::with_capacity(n_shards as usize);
    for _ in 0..n_shards {
        let arena = StateArena::read_snapshot(r)?;
        let n_meta = read_count(r, 8, "meta length")?;
        if n_meta != arena.len() {
            return Err(bad_data("meta table length disagrees with arena"));
        }
        let mut meta = Vec::with_capacity(n_meta);
        for _ in 0..n_meta {
            let packed = read_u64(r)?;
            meta.push(NodeMeta {
                parent: (packed >> 32) as u32,
                actor: packed as u8,
                sigma: (packed >> 8) as u16,
            });
        }
        shards.push(Shard { arena, meta });
    }
    let n_targets = read_count(r, 4, "edge target count")?;
    let edge_targets = read_words(r, n_targets, u32::from_le_bytes)?;
    let n_sigmas = read_count(r, 2, "edge sigma count")?;
    let edge_sigmas = read_words(r, n_sigmas, u16::from_le_bytes)?;
    // Trailing garbage means a torn or foreign file — refuse it.
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(bad_data("trailing bytes after checkpoint payload"));
    }
    Ok(Restored {
        level,
        transitions,
        acquisitions,
        peak_frontier,
        orbit_sum,
        monitor_hits,
        frontier,
        shards,
        edge_targets,
        edge_sigmas,
    })
}

fn read_u32_checked(r: &mut impl Read, what: &str) -> io::Result<u32> {
    u32::try_from(read_u64(r)?).map_err(|_| bad_data(what))
}

/// Reads the length of a field whose items take at least `item_bytes`
/// each, refusing one the rest of the file cannot hold.
fn read_count<R: Read>(r: &mut io::Take<R>, item_bytes: u64, what: &str) -> io::Result<usize> {
    let count = read_u64(r)?;
    if count.checked_mul(item_bytes).is_none_or(|b| b > r.limit()) {
        return Err(bad_data(what));
    }
    usize::try_from(count).map_err(|_| bad_data(what))
}

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}
