//! Level-boundary checkpoints for resumable BFS exploration.
//!
//! A checkpoint captures everything the exploration loop needs to
//! continue from a completed breadth-first level bit-identically: the
//! seen set's interned arena (via the spill-invariant [`StateArena`]
//! snapshot format) and BFS-tree metadata, the pending frontier (as
//! state ids — the bytes are rematerialized from the arena on load),
//! the global counters, the monitor accumulators, the fair-livelock
//! pass's edge rows of every already-expanded state (so a resumed run
//! never regenerates a successor), and the pending depths of the
//! frontier's states with their running per-position maxima (so a
//! resumed run reports the same `max_pending_depth`).  None of it
//! depends on the worker count, so a checkpoint resumes at any.
//!
//! Each completed level is written to its own file
//! (`mc-<level:08>.ckpt`) atomically (`.tmp` + rename), and the newest
//! [`RETAIN`] level files are kept on disk.  Resume scans the directory
//! newest-first: a torn, truncated, or otherwise corrupt newest file is
//! *skipped* (with a note the caller surfaces as a degradation event)
//! and the previous valid level is restored instead, so a crash at the
//! worst possible moment costs one level of progress, never the run.
//! Files are keyed by a configuration fingerprint: resuming under a
//! different automaton, parameter set, or symmetry mode is refused
//! instead of silently producing garbage — a fingerprint
//! mismatch on a structurally valid file is a hard error, not a
//! fallback.
//!
//! Every file ends with a 64-bit checksum of every byte between the
//! magic and it.  Resume streams the file through the checksum before
//! it trusts any field, the fingerprint included: a flipped bit
//! anywhere makes the file corrupt (skipped like a torn one), never a
//! panic, a hard fingerprint error or a resume from different states.
//! Only a file whose checksum holds can be refused as incompatible.
//! Every length field is also checked against the bytes left in the
//! file before anything is allocated for it.
//!
//! Writes consult an optional [`FaultPlan`]: the checkpoint-write point
//! fails the whole write before any byte is produced, and the
//! torn-rename point truncates the finished temporary file to half its
//! length before renaming it into place and then *reports success* —
//! the on-disk outcome of a power cut before the data became durable.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::fault::FaultPlan;
use crate::intern::{read_u64, read_words, write_u64, StateArena};
use crate::mc::{MonitorHit, NodeMeta, Shard};

/// Format magic; bump the trailing digit on layout changes.
const MAGIC: &[u8; 8] = b"AMXCKPT5";
/// How many newest per-level checkpoint files survive a write.
const RETAIN: usize = 2;

/// Multiplier of the 64-bit FNV-1a hash the checksum folds words with.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Offset basis of the 64-bit FNV-1a hash.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The file checksum: FNV-1a folding 8 little-endian bytes per
/// multiply, then the bytes left over one at a time, then a
/// high-into-low fold — over the concatenation of every
/// [`update`](Self::update), whatever the pieces' sizes.
///
/// Every step is a bijection of the 64-bit state (XOR with the input,
/// multiply by an odd constant, the folds), so two streams of the same
/// length that differ only inside one of their 8-byte words — one
/// flipped bit, say — always get different checksums.  It is part of
/// the file format: a change needs a new [`MAGIC`].
#[derive(Debug, Clone)]
struct Checksum {
    h: u64,
    /// Bytes of a word not yet complete.
    tail: [u8; 8],
    tail_len: usize,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            h: FNV_OFFSET,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.fold(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.fold(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn fold(&mut self, v: u64) {
        self.h = (self.h ^ v).wrapping_mul(FNV_PRIME);
    }

    fn finish(&self) -> u64 {
        let mut h = self.h;
        for &b in &self.tail[..self.tail_len] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h ^= h >> 32;
        h = h.wrapping_mul(FNV_PRIME);
        h ^ (h >> 32)
    }
}

/// A writer that feeds every byte it passes on into a [`Checksum`].
struct Summed<W> {
    inner: W,
    sum: Checksum,
}

impl<W: Write> Write for Summed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

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
    /// Ids of the next frontier (the bytes are rematerialized from the
    /// arena on load).
    pub(crate) frontier: &'a [u32],
    pub(crate) shard: &'a Shard,
    /// Edge-table rows of the expanded states: targets (ids or
    /// `NO_EDGE`), and the canonicalizing group elements (empty without
    /// symmetry).
    pub(crate) edge_targets: &'a [u32],
    pub(crate) edge_sigmas: &'a [u16],
    /// Per-position maxima of the stored states' pending depths.
    pub(crate) depth_maxima: &'a [u16],
    /// The frontier's pending depths, one row per frontier id.
    pub(crate) frontier_depths: &'a [u16],
}

/// Owned exploration state read back from a checkpoint.
pub(crate) struct Restored {
    pub(crate) level: u32,
    pub(crate) transitions: u64,
    pub(crate) acquisitions: u64,
    pub(crate) peak_frontier: u64,
    pub(crate) orbit_sum: u64,
    pub(crate) monitor_hits: Vec<MonitorHit>,
    /// Frontier ids; bytes are rematerialized by the caller.
    pub(crate) frontier: Vec<u32>,
    pub(crate) shard: Shard,
    /// Edge-table rows, as in [`Snapshot`]; the caller checks them
    /// against the restored states.
    pub(crate) edge_targets: Vec<u32>,
    pub(crate) edge_sigmas: Vec<u16>,
    /// Pending-depth maxima and frontier rows, as in [`Snapshot`]; the
    /// caller checks their lengths against the process count.
    pub(crate) depth_maxima: Vec<u16>,
    pub(crate) frontier_depths: Vec<u16>,
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
    let mut file = File::create(&tmp)?;
    file.write_all(MAGIC)?;
    // The checksum sits under the buffer, so it sees whole buffer-sized
    // chunks rather than one call per field.
    let mut w = BufWriter::new(Summed {
        inner: file,
        sum: Checksum::new(),
    });
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
    for id in snap.frontier {
        w.write_all(&id.to_le_bytes())?;
    }
    snap.shard.arena.write_snapshot(&mut w)?;
    write_u64(&mut w, snap.shard.meta.len() as u64)?;
    for m in &snap.shard.meta {
        // Parent in the high half, sigma and actor packed low.
        let packed = (u64::from(m.parent) << 32) | (u64::from(m.sigma) << 8) | u64::from(m.actor);
        write_u64(&mut w, packed)?;
    }
    write_u64(&mut w, snap.edge_targets.len() as u64)?;
    for t in snap.edge_targets {
        w.write_all(&t.to_le_bytes())?;
    }
    write_u64(&mut w, snap.edge_sigmas.len() as u64)?;
    for sigma in snap.edge_sigmas {
        w.write_all(&sigma.to_le_bytes())?;
    }
    for depths in [snap.depth_maxima, snap.frontier_depths] {
        write_u64(&mut w, depths.len() as u64)?;
        for d in depths {
            w.write_all(&d.to_le_bytes())?;
        }
    }
    let Summed {
        inner: mut file,
        sum,
    } = w.into_inner().map_err(|e| e.into_error())?;
    write_u64(&mut file, sum.finish())?;
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
///
/// Two passes, neither holding the file in memory: the first streams
/// every byte after the magic through the [`Checksum`] and compares the
/// trailing one, the second parses.  No field, the fingerprint
/// included, is read before the checksum holds.
fn parse_file(path: &Path, fingerprint: u64) -> Result<Restored, LoadFail> {
    let corrupt = LoadFail::Corrupt;
    let file = File::open(path).map_err(corrupt)?;
    let len = file.metadata().map_err(corrupt)?.len();
    let header = MAGIC.len() as u64;
    // Magic, fingerprint and checksum are the least a file holds.
    let Some(body_len) = len.checked_sub(header + 8).filter(|&b| b >= 8) else {
        return Err(corrupt(bad_data("checkpoint shorter than its header")));
    };
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(corrupt)?;
    if magic != *MAGIC {
        return Err(corrupt(bad_data("checkpoint magic mismatch")));
    }
    let computed = checksum_of(&mut r, body_len).map_err(corrupt)?;
    if read_u64(&mut r).map_err(corrupt)? != computed {
        return Err(corrupt(bad_data("checkpoint checksum mismatch")));
    }
    r.seek(SeekFrom::Start(header)).map_err(corrupt)?;
    // The limit is the rest of the body: length fields check against it.
    let mut r = r.take(body_len);
    if read_u64(&mut r).map_err(corrupt)? != fingerprint {
        return Err(LoadFail::Incompatible(bad_data(
            "checkpoint was written by an incompatible configuration",
        )));
    }
    parse_payload(&mut r).map_err(corrupt)
}

/// The [`Checksum`] of the next `len` bytes of `r`.
fn checksum_of(r: &mut impl BufRead, len: u64) -> io::Result<u64> {
    let mut body = r.take(len);
    let mut sum = Checksum::new();
    loop {
        let chunk = body.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        sum.update(chunk);
        let n = chunk.len();
        body.consume(n);
    }
    if body.limit() != 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "checkpoint shorter than its length",
        ));
    }
    Ok(sum.finish())
}

/// Parses everything between the magic + fingerprint header and the
/// checksum.
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
    let n_targets = read_count(r, 4, "edge target count")?;
    let edge_targets = read_words(r, n_targets, u32::from_le_bytes)?;
    let n_sigmas = read_count(r, 2, "edge sigma count")?;
    let edge_sigmas = read_words(r, n_sigmas, u16::from_le_bytes)?;
    let n_maxima = read_count(r, 2, "pending depth maxima count")?;
    let depth_maxima = read_words(r, n_maxima, u16::from_le_bytes)?;
    let n_depths = read_count(r, 2, "frontier depth count")?;
    let frontier_depths = read_words(r, n_depths, u16::from_le_bytes)?;
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
        shard: Shard { arena, meta },
        edge_targets,
        edge_sigmas,
        depth_maxima,
        frontier_depths,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_does_not_depend_on_how_the_stream_is_split() {
        let bytes: Vec<u8> = (0..61u8).map(|b| b.wrapping_mul(37)).collect();
        let mut whole = Checksum::new();
        whole.update(&bytes);
        for split in [1, 3, 7, 8, 9, 16] {
            let mut pieces = Checksum::new();
            for piece in bytes.chunks(split) {
                pieces.update(piece);
            }
            assert_eq!(pieces.finish(), whole.finish(), "pieces of {split}");
        }
    }

    const FINGERPRINT: u64 = 0x5EED;

    /// Writes a level-3 checkpoint of an empty seen set with a frontier
    /// of three ids and two processes' pending depths into a fresh
    /// directory; returns the directory and the file.
    fn write_depths_checkpoint(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("amx-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let shard = Shard::default();
        let snap = Snapshot {
            fingerprint: FINGERPRINT,
            level: 3,
            transitions: 0,
            acquisitions: 0,
            peak_frontier: 3,
            orbit_sum: 0,
            monitor_hits: &[],
            frontier: &[0, 1, 2],
            shard: &shard,
            edge_targets: &[],
            edge_sigmas: &[],
            depth_maxima: &[4, 7],
            frontier_depths: &[0, 1, 2, 3, 4, 7],
        };
        write(&dir, &snap, None).unwrap();
        let path = dir.join(file_name(3));
        (dir, path)
    }

    #[test]
    fn pending_depth_lengths_are_checked_before_allocating() {
        // The file ends in: maxima count, 2 maxima, row count, 6 row
        // entries, checksum.
        let rows_count = |len: usize| len - 8 - 2 * 6 - 8;
        let maxima_count = |len: usize| rows_count(len) - 2 * 2 - 8;
        for (what, field) in [
            ("maxima", &maxima_count as &dyn Fn(usize) -> usize),
            ("rows", &rows_count),
        ] {
            let (dir, path) = write_depths_checkpoint(&format!("depth-length-{what}"));
            let Ok(ck) = parse_file(&path, FINGERPRINT) else {
                panic!("{what}: the intact checkpoint parses");
            };
            assert_eq!(ck.depth_maxima, [4, 7]);
            assert_eq!(ck.frontier_depths, [0, 1, 2, 3, 4, 7]);
            let mut bytes = fs::read(&path).unwrap();
            let at = field(bytes.len());
            bytes[at..at + 8].copy_from_slice(&0x0FFF_FFFF_FFFF_FFFFu64.to_le_bytes());
            // Reseal, so the length check, not the checksum, refuses it.
            let body = bytes.len() - 8;
            let mut sum = Checksum::new();
            sum.update(&bytes[MAGIC.len()..body]);
            bytes[body..].copy_from_slice(&sum.finish().to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            match parse_file(&path, FINGERPRINT) {
                Err(LoadFail::Corrupt(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                Err(LoadFail::Incompatible(e)) => panic!("{what}: incompatible: {e}"),
                Ok(_) => panic!("{what}: a corrupt length parsed"),
            }
            // Skipped like a torn file: nothing to resume.
            let (restored, skipped) = load_latest(&dir, FINGERPRINT).unwrap();
            assert!(restored.is_none(), "{what}");
            assert_eq!(skipped.len(), 1, "{what}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let bytes: Vec<u8> = (0..21u8).collect();
        let mut clean = Checksum::new();
        clean.update(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let mut sum = Checksum::new();
                sum.update(&flipped);
                assert_ne!(sum.finish(), clean.finish(), "byte {i} bit {bit}");
            }
        }
    }
}
