//! An interned arena of encoded states — the model checker's seen-set,
//! with optional out-of-core page spill.
//!
//! The old seen-set was a `HashMap<Node, u32>` whose keys were fully
//! cloned `Node { Vec<Slot>, Vec<(Phase, S)> }` values: two heap
//! allocations plus a clone per stored state, and a second clone per
//! *insertion* (the map key and the node list each held one).
//! [`StateArena`] replaces it with a compressed page layout:
//!
//! * per-page record buffers holding every encoded state's *record*
//!   back to back.  States are grouped into fixed-size pages of
//!   [`PAGE`] states; within a page, the first state of each distinct
//!   byte length is stored raw (a page *base*), and every other state
//!   as a **byte-mask delta** against its page's base of the same
//!   length: a one-byte back-distance to the base, a bitmask of changed
//!   byte positions, then only the changed bytes.  BFS-adjacent
//!   canonical states differ in a dozen scattered bytes out of dozens
//!   (measured on the Algorithm 2 deep point: ~14 of ~53, and
//!   *scattered* — a contiguous-diff encoding captures almost nothing),
//!   so records shrink to roughly `len/8 + changed + 1` bytes.  A state
//!   that drifted too far from its base (delta no smaller than raw) is
//!   stored raw and becomes the page's new base for its length, so
//!   compression adapts instead of degrading across a page.
//! * a `Vec<u32>` of end offsets (state `i`'s record is the span
//!   `ends[i-1]..ends[i]` of the logical record stream) — the compact
//!   offset index,
//! * an open-addressing hash table whose buckets pack the state index
//!   with a 32-bit hash fragment, so membership probes filter on the
//!   fragment before touching state bytes, and table growth rehashes
//!   from the stored fragments in a single pre-sized pass without
//!   re-reading any state's bytes.
//!
//! Interning a fresh state appends its (delta-compressed) record once;
//! interning a seen state allocates nothing.  Deltas never chain: a
//! delta's base is always raw, so materialization and equality tests
//! are one hop.  Indices are dense `u32`s, assigned in insertion
//! order, which is exactly what the breadth-first parent chains and
//! the SCC pass need — compression never disturbs the index contract.
//!
//! # Out-of-core spill
//!
//! A delta record's base always lives in the *same* page (the base
//! directory is cleared at every page boundary), so a completed page is
//! self-contained: every record in it decodes from that page's payload
//! alone.  That makes pages the spill unit.  With a spill backend
//! attached ([`StateArena::set_spill`]), completed pages whose total
//! payload exceeds the resident-byte budget are evicted to a spill
//! file (positioned `pread`/`pwrite`, no memory map) under a CLOCK
//! second-chance policy; the still-filling page, the offset index and
//! the hash table always stay resident.  Page payloads are immutable
//! once complete, so a page is written to its file slot at most once —
//! re-evicting an unmodified faulted page just drops the bytes.
//!
//! Reads fall into two regimes.  The exclusive paths (`&mut self`:
//! interning and [`lookup_hashed_mut`](StateArena::lookup_hashed_mut))
//! transparently fault pages back in, admitting them to the resident
//! set and evicting colder pages to stay on budget.  The shared read
//! paths (`&self`: [`get_into`](StateArena::get_into),
//! [`lookup_hashed`](StateArena::lookup_hashed)) cannot mutate the
//! resident set; their `_cached` variants take a caller-owned
//! [`PageCache`] — a small per-worker LRU of decompressed page
//! payloads — so multi-worker expansion probes and the
//! post-exploration passes (livelock scan, witness chains, queries)
//! run against a spilled arena without locks.  Every page read from the spill file, on either path, counts
//! one *fault*.
//!
//! # Failure semantics
//!
//! No spill I/O result panics.  A failed page *write* during eviction
//! degrades the arena gracefully: the victim's bytes stay resident, the
//! arena marks itself [`degraded`](StateArena::degraded) and stops
//! evicting — it falls back to fully-resident operation over budget,
//! with every already-interned state intact.  A failed page *read* is
//! unrecoverable data loss (the only copy of those states was on disk)
//! and surfaces as a typed [`SpillError`] through every read-path
//! `Result`.  Deterministic failures can be injected for testing via
//! [`StateArena::set_fault_plan`].

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fault::FaultPlan;

/// Which spill-file operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillOp {
    /// Reading an evicted page's payload back (`pread`).
    Read,
    /// Writing a victim page's payload out (`pwrite`).
    Write,
}

/// A spill-file I/O failure, carrying the page and the OS error.
///
/// Read failures propagate out of the arena's fallible API; write
/// failures are absorbed by graceful degradation (see the module docs)
/// and surface only as the [`degraded`](StateArena::degraded) reason.
#[derive(Debug)]
pub struct SpillError {
    /// The failed operation.
    pub op: SpillOp,
    /// The page whose payload was being transferred.
    pub page: usize,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.op {
            SpillOp::Read => "read",
            SpillOp::Write => "write",
        };
        write!(
            f,
            "spill {op} of page {} failed: {}",
            self.page, self.source
        )
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// States per compression page.  A delta record's back-distance to its
/// base must fit one byte, so pages hold 256 states; page boundaries
/// also bound how far apart a delta and its base can land in the
/// record stream (locality for the one-hop reconstruction), and the
/// page is the unit of spill (see the module docs).
pub const PAGE: usize = 256;

/// Multiplier of the 64-bit FNV-1a hash used for the byte strings.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Offset basis of the 64-bit FNV-1a hash.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Hashes a byte string: an FNV-1a variant that folds 8 bytes per
/// multiply (one XOR + one `wrapping_mul` per word instead of per
/// byte), with the classic byte-at-a-time tail and a final
/// high-into-low fold.  Collision handling is unchanged — the table
/// stores indices plus a hash fragment, so a collision costs one
/// filtered comparison.  Hashes never leave one process.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h ^= word;
        h = h.wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // The multiply only carries entropy toward the high bits, so input
    // variation confined to the high half of a late word would never
    // reach the low bits that pick table slots (canonicalization pushes
    // state variation toward late bytes, making that the common case —
    // measured as a 2–3× wall-time blowup from probe chains on the
    // Alg 2 deep point without this).  Fold the halves together.
    h ^= h >> 32;
    h = h.wrapping_mul(FNV_PRIME);
    h ^ (h >> 32)
}

/// Applies a byte-mask delta in place: for every set bit `i` in
/// `mask`, overwrite `buf[i]` with the next byte of `changed`.
/// Iterates set bits only (`trailing_zeros` + clear-lowest), so cost
/// scales with the number of changed bytes, not the state length.
fn patch_slice(buf: &mut [u8], mask: &[u8], changed: &[u8]) {
    let mut next = 0usize;
    for (wi, &mbyte) in mask.iter().enumerate() {
        let mut mb = mbyte;
        while mb != 0 {
            let bit = mb.trailing_zeros() as usize;
            buf[wi * 8 + bit] = changed[next];
            next += 1;
            mb &= mb - 1;
        }
    }
    debug_assert_eq!(next, changed.len(), "mask popcount vs changed bytes");
}

/// Sentinel marking an empty hash-table bucket.
const EMPTY: u64 = u64::MAX;

/// Packs a bucket: the low 32 bits of the state's hash (the slot-index
/// fragment) in the high half, the state index in the low half.
fn bucket(frag: u32, idx: u32) -> u64 {
    (u64::from(frag) << 32) | u64::from(idx)
}

/// Sentinel: the page has never been written to the spill file.
const NEVER_SPILLED: u64 = u64::MAX;

/// Source of unique [`StateArena`] tags for [`PageCache`] keys.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(0);

/// Source of unique names for [`anon_spill_file`].
static NEXT_SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates an anonymous spill file in `dir`: created read/write and
/// immediately unlinked, so the space is reclaimed when the last
/// handle drops — including on abnormal exit.
///
/// # Errors
///
/// Propagates filesystem errors from creation or unlinking.
pub fn anon_spill_file(dir: &std::path::Path) -> io::Result<File> {
    let seq = NEXT_SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("amx-spill-{}-{seq}.tmp", std::process::id()));
    let file = File::options()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    std::fs::remove_file(&path)?;
    Ok(file)
}

/// The payload of one completed page.
#[derive(Debug)]
struct PageSlot {
    /// The page's record bytes; `None` while evicted to the spill file.
    bytes: Option<Box<[u8]>>,
    /// Offset of this page's payload in the spill file
    /// ([`NEVER_SPILLED`] until first evicted).  Payloads are immutable
    /// once the page completes, so the slot is written at most once and
    /// stays valid for every later re-eviction.
    spill_off: u64,
    /// CLOCK second-chance bit, set on fault-in and on completion.
    referenced: bool,
}

/// The spill backend: file, budget, CLOCK state and counters.
#[derive(Debug)]
struct SpillBackend {
    file: File,
    /// Append cursor of the spill file.
    file_len: u64,
    /// Resident-payload budget in bytes, covering completed pages only
    /// (the still-filling page and the indexes are always resident).
    budget: usize,
    /// Payload bytes of currently resident completed pages.
    resident: usize,
    /// CLOCK hand (next page index to examine).
    hand: usize,
    /// Cumulative page evictions (bytes dropped from the resident set).
    evictions: u64,
    /// Cumulative page reads from the spill file: intern-path fault-ins
    /// plus read-side ([`PageCache`] / uncached) misses.  Atomic so the
    /// lock-free shared read paths can count.
    faults: AtomicU64,
    /// Set when a spill write failed: the arena has fallen back to
    /// fully-resident operation (no further evictions).
    degraded: Option<String>,
}

/// A small caller-owned LRU of decompressed page payloads, enabling
/// the `&self` read paths ([`StateArena::get_into_cached`],
/// [`StateArena::lookup_hashed_cached`]) to serve records of spilled
/// pages without mutating the arena — each expand worker of a
/// multi-worker level, and each post-exploration pass, owns one.
/// Entries are keyed by (arena, page), so one cache may serve many
/// arenas.
#[derive(Debug, Default)]
pub struct PageCache {
    slots: Vec<CacheSlot>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheSlot {
    arena: u64,
    page: u32,
    bytes: Vec<u8>,
}

/// Pages a [`PageCache`] retains.  Post-exploration passes walk states
/// in dense order, so a handful of pages per worker captures the
/// locality; parent-chain walks jump around, which is what the extra
/// slots beyond one are for.
const PAGE_CACHE_SLOTS: usize = 16;

impl PageCache {
    /// An empty cache (capacity `PAGE_CACHE_SLOTS` pages).
    #[must_use]
    pub fn new() -> Self {
        PageCache::default()
    }

    /// `(hits, misses)` against this cache; each miss was one spill
    /// file read.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The payload of `arena`'s spilled page `p`, faulting it into the
    /// cache from the spill file if absent.
    ///
    /// # Errors
    ///
    /// Propagates the [`SpillError`] of a failed page read; the cache
    /// is left unchanged.
    fn load(&mut self, arena: &StateArena, p: usize) -> Result<&[u8], SpillError> {
        let key = (arena.id, p as u32);
        if let Some(i) = self.slots.iter().position(|s| (s.arena, s.page) == key) {
            self.hits += 1;
            self.slots[..=i].rotate_right(1);
        } else {
            self.misses += 1;
            let mut slot = if self.slots.len() >= PAGE_CACHE_SLOTS {
                self.slots.pop().expect("cache capacity > 0")
            } else {
                CacheSlot {
                    arena: 0,
                    page: 0,
                    bytes: Vec::new(),
                }
            };
            arena.read_spilled_into(p, &mut slot.bytes)?;
            slot.arena = key.0;
            slot.page = key.1;
            self.slots.insert(0, slot);
        }
        Ok(&self.slots[0].bytes)
    }
}

/// Spill counters of one arena, as reported by
/// [`StateArena::spill_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Payload bytes currently evicted (whose only copy is on disk).
    pub spilled_bytes: usize,
    /// Cumulative page reads from the spill file (any path).
    pub faults: u64,
    /// Cumulative page evictions.
    pub evictions: u64,
    /// Bytes the spill file occupies (each page is written at most
    /// once, so this is the high-water footprint of ever-evicted
    /// pages).
    pub spill_file_bytes: u64,
    /// Whether the arena degraded to fully-resident operation after a
    /// failed spill write (see [`StateArena::degraded`]).
    pub degraded: bool,
}

/// An append-only set of byte strings with dense `u32` indices,
/// page/delta compression of the stored payload, and optional
/// page-granular spill to disk (see the module docs).
///
/// # Example
///
/// ```
/// use amx_sim::intern::StateArena;
/// let mut arena = StateArena::new();
/// let (a, fresh_a) = arena.intern(b"state-a").unwrap();
/// let (b, fresh_b) = arena.intern(b"state-b").unwrap();
/// let (a2, fresh_a2) = arena.intern(b"state-a").unwrap();
/// assert!(fresh_a && fresh_b && !fresh_a2);
/// assert_eq!(a, a2);
/// assert_ne!(a, b);
/// assert_eq!(arena.get(a).unwrap(), b"state-a");
/// assert_eq!(arena.len(), 2);
/// ```
#[derive(Debug)]
pub struct StateArena {
    /// Unique tag keying [`PageCache`] entries.
    id: u64,
    /// Payloads of completed pages, in page order.
    pages: Vec<PageSlot>,
    /// Record buffer of the still-filling page (always resident).
    cur: Vec<u8>,
    /// Total payload bytes of completed pages (resident or spilled) —
    /// equivalently, the global record-stream offset where `cur`
    /// begins.
    sealed_bytes: usize,
    ends: Vec<u32>,
    table: Vec<u64>,
    /// Raw bases of the *current* page, one per distinct state length:
    /// `(length, index)`.  Cleared at every page boundary; purely an
    /// insertion-time aid, never consulted on reads (records carry
    /// their own back-distance).
    page_bases: Vec<(u16, u32)>,
    spill: Option<SpillBackend>,
    /// Deterministic fault injection for tests; `None` in production.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl StateArena {
    /// An empty arena (fully resident; attach spill with
    /// [`set_spill`](Self::set_spill)).
    #[must_use]
    pub fn new() -> Self {
        StateArena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            pages: Vec::new(),
            cur: Vec::new(),
            sealed_bytes: 0,
            ends: Vec::new(),
            table: vec![EMPTY; 16],
            page_bases: Vec::new(),
            spill: None,
            fault_plan: None,
        }
    }

    /// Attaches a spill backend: completed pages beyond `budget_bytes`
    /// of resident payload are evicted to `file` (which the arena owns
    /// from here on; see [`anon_spill_file`]).  Takes effect
    /// immediately — an over-budget arena evicts down on attach.  At
    /// least one completed page stays resident regardless of budget.
    pub fn set_spill(&mut self, file: File, budget_bytes: usize) {
        self.spill = Some(SpillBackend {
            file,
            file_len: 0,
            budget: budget_bytes,
            resident: self.sealed_bytes,
            hand: 0,
            evictions: 0,
            faults: AtomicU64::new(0),
            degraded: None,
        });
        self.evict_to_budget(None);
    }

    /// Installs a deterministic [`FaultPlan`]: subsequent spill reads
    /// and writes consult it and fail on the armed occurrences, as if
    /// the OS had returned the injected error.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Whether a spill backend is attached.
    #[must_use]
    pub fn has_spill(&self) -> bool {
        self.spill.is_some()
    }

    /// The degradation reason, if a failed spill write has forced the
    /// arena back to fully-resident operation (no further evictions;
    /// all states remain intact and readable).
    #[must_use]
    pub fn degraded(&self) -> Option<&str> {
        self.spill.as_ref()?.degraded.as_deref()
    }

    /// Current spill counters (all zero without a backend).
    #[must_use]
    pub fn spill_stats(&self) -> SpillStats {
        match &self.spill {
            None => SpillStats::default(),
            Some(sp) => SpillStats {
                spilled_bytes: self.sealed_bytes - sp.resident,
                faults: sp.faults.load(Ordering::Relaxed),
                evictions: sp.evictions,
                spill_file_bytes: sp.file_len,
                degraded: sp.degraded.is_some(),
            },
        }
    }

    /// Number of interned states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no state has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of the *compressed* record payload, after page/delta
    /// encoding — resident or spilled.
    #[must_use]
    pub fn data_bytes(&self) -> usize {
        self.sealed_bytes + self.cur.len()
    }

    /// Logical bytes of the arena proper: compressed record payload
    /// (resident **and** spilled) plus the offset index (the seen-set
    /// hash table is accounted separately by
    /// [`table_bytes`](Self::table_bytes)).  Call
    /// [`shrink_to_fit`](Self::shrink_to_fit) first to make capacity
    /// equal length.  For the RAM-only share see
    /// [`resident_bytes`](Self::resident_bytes).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.sealed_bytes + self.cur.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }

    /// Resident (in-RAM) bytes of the arena proper: resident page
    /// payloads, the current page buffer, and the offset index.
    /// Equals [`arena_bytes`](Self::arena_bytes) without a spill
    /// backend.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let resident_payload = match &self.spill {
            None => self.sealed_bytes,
            Some(sp) => sp.resident,
        };
        resident_payload + self.cur.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }

    /// Resident bytes of the open-addressing seen-set table (8 bytes
    /// per bucket, ≤ 16/7 buckets per state after growth).  The table
    /// never spills — probes must stay O(1) in RAM.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u64>()
    }

    /// Drops the growth slack of the record and offset buffers (the
    /// hash table is always exactly sized).  Call once exploration is
    /// done and the arena becomes read-mostly.
    pub fn shrink_to_fit(&mut self) {
        self.cur.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.page_bases.shrink_to_fit();
        self.pages.shrink_to_fit();
    }

    /// The record span of state `idx` in the logical record stream.
    fn span(&self, idx: u32) -> (usize, usize) {
        let i = idx as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (start, self.ends[i] as usize)
    }

    /// Global record-stream offset where page `p`'s payload begins.
    fn page_start(&self, p: usize) -> usize {
        if p == 0 {
            0
        } else {
            self.ends[p * PAGE - 1] as usize
        }
    }

    /// Global record-stream offset one past page `p`'s payload.
    fn page_end(&self, p: usize) -> usize {
        let last = ((p + 1) * PAGE).min(self.ends.len());
        self.ends[last - 1] as usize
    }

    /// The payload of page `p` if it is in RAM (the current page always
    /// is).
    fn resident_page(&self, p: usize) -> Option<&[u8]> {
        if p == self.pages.len() {
            Some(&self.cur)
        } else {
            self.pages[p].bytes.as_deref()
        }
    }

    /// Reads the payload of the evicted page `p` from the spill file
    /// into `buf` and counts one fault.
    ///
    /// # Errors
    ///
    /// Returns a [`SpillError`] on spill-file I/O failure (including an
    /// injected one) — the only copy of those states is unreadable.
    fn read_spilled_into(&self, p: usize, buf: &mut Vec<u8>) -> Result<(), SpillError> {
        let slot = &self.pages[p];
        debug_assert!(slot.bytes.is_none(), "transient read of a resident page");
        debug_assert_ne!(slot.spill_off, NEVER_SPILLED, "evicted page never written");
        let len = self.page_end(p) - self.page_start(p);
        buf.clear();
        buf.resize(len, 0);
        let sp = self
            .spill
            .as_ref()
            .expect("non-resident page without a spill backend");
        let read_err = |source| SpillError {
            op: SpillOp::Read,
            page: p,
            source,
        };
        if let Some(e) = self.fault_plan.as_ref().and_then(|fp| fp.on_spill_read()) {
            return Err(read_err(e));
        }
        sp.file
            .read_exact_at(buf, slot.spill_off)
            .map_err(read_err)?;
        sp.faults.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ensures page `p` is resident (intern path), admitting it from
    /// the spill file and evicting colder pages to stay on budget.
    ///
    /// # Errors
    ///
    /// Returns a [`SpillError`] when reading the evicted page fails;
    /// the arena is left unchanged.
    fn fault_in(&mut self, p: usize) -> Result<(), SpillError> {
        if p == self.pages.len() {
            return Ok(());
        }
        if self.pages[p].bytes.is_some() {
            self.pages[p].referenced = true;
            return Ok(());
        }
        let mut buf = Vec::new();
        self.read_spilled_into(p, &mut buf)?;
        let len = buf.len();
        self.pages[p].bytes = Some(buf.into_boxed_slice());
        self.pages[p].referenced = true;
        if let Some(sp) = self.spill.as_mut() {
            sp.resident += len;
        }
        self.evict_to_budget(Some(p));
        Ok(())
    }

    /// CLOCK second-chance eviction until the resident completed-page
    /// payload fits the budget; `keep` (a just-admitted page) is never
    /// the victim.  A page's first eviction writes its payload to the
    /// spill file; later evictions reuse the slot and just drop the
    /// bytes.
    ///
    /// A failed spill write (`ENOSPC`, an injected fault, …) does not
    /// propagate: the victim's bytes are put back, the arena records a
    /// [`degraded`](Self::degraded) reason and performs no further
    /// evictions — graceful fallback to fully-resident operation.
    fn evict_to_budget(&mut self, keep: Option<usize>) {
        let Some(sp) = self.spill.as_mut() else {
            return;
        };
        if sp.degraded.is_some() {
            return;
        }
        let n = self.pages.len();
        while sp.resident > sp.budget {
            let mut spins = 0usize;
            let victim = loop {
                spins += 1;
                if spins > 2 * n + 1 {
                    // Nothing evictable (budget below one page, or only
                    // `keep` is resident): stay over budget by design.
                    return;
                }
                if sp.hand >= n {
                    sp.hand = 0;
                }
                let h = sp.hand;
                sp.hand += 1;
                if Some(h) == keep {
                    continue;
                }
                let slot = &mut self.pages[h];
                if slot.bytes.is_none() {
                    continue;
                }
                if slot.referenced {
                    slot.referenced = false;
                    continue;
                }
                break h;
            };
            let slot = &mut self.pages[victim];
            let bytes = slot.bytes.take().expect("victim page is resident");
            if slot.spill_off == NEVER_SPILLED {
                let injected = self
                    .fault_plan
                    .as_ref()
                    .and_then(|fp| fp.on_spill_write())
                    .map(Err::<(), _>);
                let wrote = match injected {
                    Some(err) => err,
                    None => sp.file.write_all_at(&bytes, sp.file_len),
                };
                match wrote {
                    Ok(()) => {
                        slot.spill_off = sp.file_len;
                        sp.file_len += bytes.len() as u64;
                    }
                    Err(e) => {
                        // Keep the victim resident; the on-disk file may
                        // hold a partial write at the failed offset, but
                        // nothing ever points at it.
                        let reason = SpillError {
                            op: SpillOp::Write,
                            page: victim,
                            source: e,
                        }
                        .to_string();
                        slot.bytes = Some(bytes);
                        sp.degraded = Some(reason);
                        return;
                    }
                }
            }
            sp.resident -= bytes.len();
            sp.evictions += 1;
        }
    }

    /// Decodes the record of state `idx` from its page's payload
    /// (`page`) into `out` (cleared first).  A delta's base is always
    /// in the same page.
    fn decode_record(&self, idx: u32, page: &[u8], out: &mut Vec<u8>) {
        out.clear();
        let poff = self.page_start(idx as usize / PAGE);
        let (start, end) = self.span(idx);
        let rec = &page[start - poff..end - poff];
        let back = rec[0];
        if back == 0 {
            out.extend_from_slice(&rec[1..]);
            return;
        }
        let (bstart, bend) = self.span(idx - u32::from(back));
        let base = &page[bstart + 1 - poff..bend - poff];
        let mask_len = base.len().div_ceil(8);
        let mask = &rec[1..1 + mask_len];
        let changed = &rec[1 + mask_len..];
        out.extend_from_slice(base);
        patch_slice(out, mask, changed);
    }

    /// Compares state `idx` (record in `page`) against `bytes` without
    /// heap traffic: raw records memcmp directly; delta records are
    /// reconstructed into a stack buffer (one memcpy + one patched byte
    /// per set mask bit) and memcmp'd — far cheaper than a branch per
    /// byte position.
    fn record_eq(&self, idx: u32, page: &[u8], bytes: &[u8]) -> bool {
        let poff = self.page_start(idx as usize / PAGE);
        let (start, end) = self.span(idx);
        let rec = &page[start - poff..end - poff];
        let back = rec[0];
        if back == 0 {
            return &rec[1..] == bytes;
        }
        let (bstart, bend) = self.span(idx - u32::from(back));
        let base = &page[bstart + 1 - poff..bend - poff];
        if base.len() != bytes.len() {
            return false;
        }
        let mask_len = base.len().div_ceil(8);
        let mask = &rec[1..1 + mask_len];
        let changed = &rec[1 + mask_len..];
        let mut stack = [0u8; 256];
        if let Some(buf) = stack.get_mut(..base.len()) {
            buf.copy_from_slice(base);
            patch_slice(buf, mask, changed);
            return buf == bytes;
        }
        // Oversized state (> 256 bytes): reconstruct on the heap.
        let mut buf = base.to_vec();
        patch_slice(&mut buf, mask, changed);
        buf == bytes
    }

    /// Materializes the encoded bytes of state `idx` into `out`
    /// (cleared first).  Reads a spilled page transiently; hot readers
    /// over spilled arenas should prefer
    /// [`get_into_cached`](Self::get_into_cached).
    ///
    /// # Errors
    ///
    /// Returns a [`SpillError`] on spill-file read failure.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get_into(&self, idx: u32, out: &mut Vec<u8>) -> Result<(), SpillError> {
        let p = idx as usize / PAGE;
        if let Some(page) = self.resident_page(p) {
            self.decode_record(idx, page, out);
        } else {
            let mut buf = Vec::new();
            self.read_spilled_into(p, &mut buf)?;
            self.decode_record(idx, &buf, out);
        }
        Ok(())
    }

    /// [`get_into`](Self::get_into) that serves spilled pages through a
    /// caller-owned [`PageCache`].
    ///
    /// # Errors
    ///
    /// As for [`get_into`](Self::get_into).
    pub fn get_into_cached(
        &self,
        idx: u32,
        cache: &mut PageCache,
        out: &mut Vec<u8>,
    ) -> Result<(), SpillError> {
        let p = idx as usize / PAGE;
        if let Some(page) = self.resident_page(p) {
            self.decode_record(idx, page, out);
        } else {
            let page = cache.load(self, p)?;
            self.decode_record(idx, page, out);
        }
        Ok(())
    }

    /// The encoded bytes of state `idx`, freshly allocated.  Hot paths
    /// should prefer [`get_into`](Self::get_into) with a reused buffer.
    ///
    /// # Errors
    ///
    /// As for [`get_into`](Self::get_into).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: u32) -> Result<Vec<u8>, SpillError> {
        let mut out = Vec::new();
        self.get_into(idx, &mut out)?;
        Ok(out)
    }

    /// [`record_eq`](Self::record_eq) against a possibly spilled page,
    /// through the cache.
    fn state_eq_cached(
        &self,
        idx: u32,
        bytes: &[u8],
        cache: &mut PageCache,
    ) -> Result<bool, SpillError> {
        let p = idx as usize / PAGE;
        if let Some(page) = self.resident_page(p) {
            Ok(self.record_eq(idx, page, bytes))
        } else {
            let page = cache.load(self, p)?;
            Ok(self.record_eq(idx, page, bytes))
        }
    }

    /// Looks up a state without inserting it.
    ///
    /// # Errors
    ///
    /// Returns a [`SpillError`] on spill-file read failure.
    pub fn lookup(&self, bytes: &[u8]) -> Result<Option<u32>, SpillError> {
        self.lookup_hashed(hash_bytes(bytes), bytes)
    }

    /// [`lookup`](Self::lookup) with a caller-computed [`hash_bytes`]
    /// value — the engine hashes each canonical encoding exactly once
    /// (the seen-set probe and the drain's insert share the hash).
    ///
    /// # Errors
    ///
    /// As for [`lookup`](Self::lookup).
    pub fn lookup_hashed(&self, hash: u64, bytes: &[u8]) -> Result<Option<u32>, SpillError> {
        let mut cache = PageCache::new();
        self.lookup_hashed_cached(hash, bytes, &mut cache)
    }

    /// [`lookup_hashed`](Self::lookup_hashed) that serves spilled pages
    /// through a caller-owned [`PageCache`] — the form the expand
    /// workers of a multi-worker level probe the frozen seen set with.
    ///
    /// # Errors
    ///
    /// As for [`lookup`](Self::lookup).
    pub fn lookup_hashed_cached(
        &self,
        hash: u64,
        bytes: &[u8],
        cache: &mut PageCache,
    ) -> Result<Option<u32>, SpillError> {
        debug_assert_eq!(hash, hash_bytes(bytes), "caller-supplied hash mismatch");
        let mask = self.table.len() - 1;
        let frag = hash as u32;
        let mut slot = frag as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return Ok(None);
            }
            if (entry >> 32) as u32 == frag {
                let idx = entry as u32;
                if self.state_eq_cached(idx, bytes, cache)? {
                    return Ok(Some(idx));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// [`lookup_hashed`](Self::lookup_hashed) for the arena's exclusive
    /// owner: probes against spilled pages fault them back into the
    /// resident set (evicting colder pages), exactly as an
    /// [`intern_hashed`](Self::intern_hashed) probe does.
    ///
    /// # Errors
    ///
    /// As for [`lookup`](Self::lookup).
    pub fn lookup_hashed_mut(
        &mut self,
        hash: u64,
        bytes: &[u8],
    ) -> Result<Option<u32>, SpillError> {
        debug_assert_eq!(hash, hash_bytes(bytes), "caller-supplied hash mismatch");
        Ok(self.probe(hash, bytes)?.ok())
    }

    /// The table probe of the `&mut self` paths: `Ok(index)` when
    /// `bytes` is interned, else `Err(slot)` — the empty bucket an
    /// insert takes.  Spilled pages the probe compares against are
    /// faulted back into the resident set.
    fn probe(&mut self, hash: u64, bytes: &[u8]) -> Result<Result<u32, usize>, SpillError> {
        let mask = self.table.len() - 1;
        let frag = hash as u32;
        let mut slot = frag as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return Ok(Err(slot));
            }
            if (entry >> 32) as u32 == frag {
                let idx = entry as u32;
                self.fault_in(idx as usize / PAGE)?;
                let page = self
                    .resident_page(idx as usize / PAGE)
                    .expect("faulted page is resident");
                if self.record_eq(idx, page, bytes) {
                    return Ok(Ok(idx));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `bytes`, returning `(index, freshly_inserted)`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpillError`] when a dedup probe requires a spilled
    /// page that cannot be read back; the arena is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows `u32` indexing (> 4 GiB of encoded
    /// state data or ≥ `u32::MAX` states) or a state exceeds 64 KiB —
    /// far beyond any state space the checker's bounds admit.
    pub fn intern(&mut self, bytes: &[u8]) -> Result<(u32, bool), SpillError> {
        self.intern_hashed(hash_bytes(bytes), bytes)
    }

    /// [`intern`](Self::intern) with a caller-computed [`hash_bytes`]
    /// value.  Probes against spilled pages fault them back into the
    /// resident set.
    ///
    /// # Errors
    ///
    /// As for [`intern`](Self::intern).
    ///
    /// # Panics
    ///
    /// As for [`intern`](Self::intern).
    pub fn intern_hashed(&mut self, hash: u64, bytes: &[u8]) -> Result<(u32, bool), SpillError> {
        debug_assert_eq!(hash, hash_bytes(bytes), "caller-supplied hash mismatch");
        assert!(
            bytes.len() <= usize::from(u16::MAX),
            "encoded states must fit the page-base directory (≤ 64 KiB)"
        );
        if self.ends.len() * 8 >= self.table.len() * 7 {
            self.grow();
        }
        let slot = match self.probe(hash, bytes)? {
            Ok(idx) => return Ok((idx, false)),
            Err(slot) => slot,
        };
        let idx = u32::try_from(self.ends.len()).expect("arena index overflow");
        assert!(idx != u32::MAX, "arena index overflow");
        self.push_record(idx, bytes);
        let end = u32::try_from(self.sealed_bytes + self.cur.len()).expect("arena data overflow");
        self.ends.push(end);
        self.table[slot] = bucket(hash as u32, idx);
        debug_assert_eq!(
            self.lookup(bytes).ok(),
            Some(Some(idx)),
            "arena index and id-table out of sync after insert"
        );
        Ok((idx, true))
    }

    /// Appends the record of the fresh state `idx`: a byte-mask delta
    /// against the current page's base of the same length, or raw
    /// (becoming that base) when no same-length base exists in the
    /// page, or when the delta would not beat storing raw (drift
    /// re-basing).  At a page boundary the filled page is sealed first
    /// (and becomes evictable).
    fn push_record(&mut self, idx: u32, bytes: &[u8]) {
        if (idx as usize).is_multiple_of(PAGE) {
            self.page_bases.clear();
            if idx != 0 {
                self.seal_page();
            }
        }
        let len16 = bytes.len() as u16;
        let base_entry = self.page_bases.iter().position(|&(l, _)| l == len16);
        if let Some(entry) = base_entry {
            let base_idx = self.page_bases[entry].1;
            debug_assert!(idx - base_idx <= u32::from(u8::MAX), "base beyond one page");
            let (bstart, bend) = self.span(base_idx);
            let base_at = bstart + 1 - self.sealed_bytes;
            let base_end = bend - self.sealed_bytes;
            debug_assert_eq!(base_end - base_at, bytes.len());
            let len = bytes.len();
            let mask_len = len.div_ceil(8);
            // One diff pass into stack buffers (Vecs only for the rare
            // > 256-byte state), then two bulk appends.
            let mut mask_stack = [0u8; 32];
            let mut changed_stack = [0u8; 256];
            let (mut mask_vec, mut changed_vec);
            let (mask, changed): (&mut [u8], &mut [u8]) = if len <= 256 {
                (&mut mask_stack[..mask_len], &mut changed_stack)
            } else {
                mask_vec = vec![0u8; mask_len];
                changed_vec = vec![0u8; len];
                (&mut mask_vec, &mut changed_vec)
            };
            let mut nc = 0usize;
            for (i, (&b, &bb)) in bytes.iter().zip(&self.cur[base_at..base_end]).enumerate() {
                if b != bb {
                    mask[i / 8] |= 1 << (i % 8);
                    changed[nc] = b;
                    nc += 1;
                }
            }
            if 1 + mask_len + nc < 1 + len {
                self.cur.push((idx - base_idx) as u8);
                self.cur.extend_from_slice(&mask[..mask_len]);
                self.cur.extend_from_slice(&changed[..nc]);
                return;
            }
            // Drifted past the break-even point: store raw and make
            // this state the page's new base for its length.
            self.page_bases[entry].1 = idx;
        } else {
            self.page_bases.push((len16, idx));
        }
        self.cur.push(0);
        self.cur.extend_from_slice(bytes);
    }

    /// Moves the filled current page into the completed-page list,
    /// where it becomes a spill candidate, and evicts down to budget.
    fn seal_page(&mut self) {
        let payload = std::mem::take(&mut self.cur).into_boxed_slice();
        let len = payload.len();
        self.sealed_bytes += len;
        self.pages.push(PageSlot {
            bytes: Some(payload),
            spill_off: NEVER_SPILLED,
            referenced: true,
        });
        if let Some(sp) = self.spill.as_mut() {
            sp.resident += len;
        }
        self.evict_to_budget(None);
    }

    /// Doubles the table: a single pre-sized pass over the old buckets,
    /// re-slotting each from its *stored* hash fragment — no state
    /// bytes are re-read and nothing is re-hashed.
    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![EMPTY; new_cap];
        for &entry in &self.table {
            if entry == EMPTY {
                continue;
            }
            let frag = (entry >> 32) as u32;
            let mut slot = frag as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = entry;
        }
        self.table = table;
    }

    /// Writes a self-contained snapshot of the arena's logical content
    /// (offset index, hash table, base directory, every page payload —
    /// spilled pages are read back transiently) to `w`.  The snapshot
    /// is independent of the spill state: a budgeted and an unbudgeted
    /// arena holding the same states serialize bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates write failures, and spill-file read failures (as
    /// `io::Error`s wrapping the [`SpillError`]).
    pub fn write_snapshot(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(SNAPSHOT_MAGIC)?;
        write_u64(w, self.ends.len() as u64)?;
        for &e in &self.ends {
            w.write_all(&e.to_le_bytes())?;
        }
        write_u64(w, self.table.len() as u64)?;
        for &b in &self.table {
            w.write_all(&b.to_le_bytes())?;
        }
        write_u64(w, self.page_bases.len() as u64)?;
        for &(l, i) in &self.page_bases {
            w.write_all(&l.to_le_bytes())?;
            w.write_all(&i.to_le_bytes())?;
        }
        write_u64(w, self.cur.len() as u64)?;
        w.write_all(&self.cur)?;
        let mut buf = Vec::new();
        for p in 0..self.pages.len() {
            match self.resident_page(p) {
                Some(page) => w.write_all(page)?,
                None => {
                    self.read_spilled_into(p, &mut buf)
                        .map_err(|e| io::Error::new(e.source.kind(), e.to_string()))?;
                    w.write_all(&buf)?;
                }
            }
        }
        Ok(())
    }

    /// Reads a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot).  The arena comes back
    /// fully resident; attach a backend with
    /// [`set_spill`](Self::set_spill) afterwards to re-impose a
    /// budget.
    ///
    /// Every length and index field is range-checked before anything is
    /// allocated for it, and buffers grow only as their bytes arrive, so
    /// a malformed structure is an error, never an oversized allocation.
    /// Page payloads (the delta-compressed state records) are taken as
    /// they come: a corrupt payload is not detected here, and decoding
    /// it later can panic or yield different states.  Their integrity
    /// is the container's job — the checkpoint file, the one reader
    /// from disk, verifies a checksum over every byte before it parses
    /// a snapshot.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, and with [`io::ErrorKind::InvalidData`] on a
    /// malformed snapshot.
    pub fn read_snapshot(r: &mut impl Read) -> io::Result<StateArena> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != *SNAPSHOT_MAGIC {
            return Err(bad_data("arena snapshot magic mismatch"));
        }
        // Indices are u32 and u32::MAX is reserved (see `intern`).
        let n_states = read_u64(r)?;
        if n_states >= u64::from(u32::MAX) {
            return Err(bad_data("arena snapshot state count"));
        }
        let n_states = n_states as usize;
        let ends = read_words(r, n_states, u32::from_le_bytes)?;
        // Every record holds at least its back-distance byte, so record
        // ends strictly increase from above zero.
        if ends.first() == Some(&0) || ends.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad_data("arena snapshot record offsets"));
        }
        // The table doubles only when full to 7/8, so it always keeps
        // an empty bucket and never exceeds 4 buckets per state.
        let table_len = read_u64(r)?;
        if table_len < 16
            || !table_len.is_power_of_two()
            || table_len <= n_states as u64
            || table_len > 16.max(4 * n_states as u64)
        {
            return Err(bad_data("arena snapshot table length"));
        }
        let table = read_words(r, table_len as usize, u64::from_le_bytes)?;
        if table
            .iter()
            .any(|&b| b != EMPTY && b as u32 as usize >= n_states)
        {
            return Err(bad_data("arena snapshot table entry"));
        }
        let n_pages = if n_states == 0 {
            0
        } else {
            (n_states - 1) / PAGE
        };
        // One base per distinct length among the open page's states.
        let n_bases = read_u64(r)?;
        if n_bases > (n_states - n_pages * PAGE) as u64 {
            return Err(bad_data("arena snapshot base count"));
        }
        let page_bases: Vec<(u16, u32)> = read_words(r, n_bases as usize, |b: [u8; 6]| {
            (
                u16::from_le_bytes([b[0], b[1]]),
                u32::from_le_bytes([b[2], b[3], b[4], b[5]]),
            )
        })?;
        if page_bases
            .iter()
            .any(|&(_, i)| (i as usize) < n_pages * PAGE || i as usize >= n_states)
        {
            return Err(bad_data("arena snapshot base index"));
        }
        let mut arena = StateArena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            pages: Vec::with_capacity(n_pages),
            cur: Vec::new(),
            sealed_bytes: 0,
            ends,
            table,
            page_bases,
            spill: None,
            fault_plan: None,
        };
        let total = arena.ends.last().map_or(0, |&e| e as usize);
        let open_start = arena.page_start(n_pages);
        if read_u64(r)? != (total - open_start) as u64 {
            return Err(bad_data("arena snapshot open-page length"));
        }
        arena.cur = read_bytes(r, total - open_start)?;
        for p in 0..n_pages {
            let payload = read_bytes(r, arena.page_end(p) - arena.page_start(p))?;
            arena.sealed_bytes += payload.len();
            arena.pages.push(PageSlot {
                bytes: Some(payload.into_boxed_slice()),
                spill_off: NEVER_SPILLED,
                referenced: true,
            });
        }
        Ok(arena)
    }
}

/// Magic + version prefix of [`StateArena::write_snapshot`].
const SNAPSHOT_MAGIC: &[u8; 8] = b"AMXARN1\n";

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt {what}"))
}

/// Writes a little-endian `u64`.
pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `u64`.
pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Largest buffer the snapshot readers reserve before its bytes have
/// arrived: a longer field grows as it is read, so a corrupt length
/// runs into the end of the input instead of sizing an allocation.
const READ_RESERVE_MAX: usize = 1 << 20;

/// Reads exactly `len` bytes (see [`READ_RESERVE_MAX`]).
pub(crate) fn read_bytes(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(len.min(READ_RESERVE_MAX));
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "snapshot field runs past the end of the input",
        ));
    }
    Ok(buf)
}

/// Reads `count` words of `N` bytes each, decoded by `word` (e.g.
/// `u32::from_le_bytes`).
pub(crate) fn read_words<const N: usize, T>(
    r: &mut impl Read,
    count: usize,
    word: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let len = count.checked_mul(N).ok_or_else(|| bad_data("word count"))?;
    let mut buf = [0u8; N];
    Ok(read_bytes(r, len)?
        .chunks_exact(N)
        .map(|c| {
            buf.copy_from_slice(c);
            word(buf)
        })
        .collect())
}

impl Default for StateArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spill_file() -> File {
        anon_spill_file(&std::env::temp_dir()).expect("create spill file")
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut arena = StateArena::new();
        for round in 0..3 {
            for i in 0..1000u32 {
                let bytes = i.to_le_bytes();
                let (idx, fresh) = arena.intern(&bytes).unwrap();
                assert_eq!(idx, i, "dense insertion-order indices");
                assert_eq!(fresh, round == 0);
            }
        }
        assert_eq!(arena.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(arena.get(i).unwrap(), i.to_le_bytes());
            assert_eq!(arena.lookup(&i.to_le_bytes()).unwrap(), Some(i));
        }
        assert_eq!(arena.lookup(&2000u32.to_le_bytes()).unwrap(), None);
    }

    #[test]
    fn variable_length_states_do_not_collide() {
        let mut arena = StateArena::new();
        let (a, _) = arena.intern(b"").unwrap();
        let (b, _) = arena.intern(b"x").unwrap();
        let (c, _) = arena.intern(b"xx").unwrap();
        assert_eq!(arena.get(a).unwrap(), b"");
        assert_eq!(arena.get(b).unwrap(), b"x");
        assert_eq!(arena.get(c).unwrap(), b"xx");
        assert_eq!(arena.intern(b"x").unwrap(), (b, false));
    }

    #[test]
    fn survives_table_growth() {
        let mut arena = StateArena::new();
        let n = 10_000u32;
        for i in 0..n {
            arena.intern(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(arena.len(), n as usize);
        for i in (0..n).rev() {
            assert_eq!(arena.lookup(&i.to_le_bytes()).unwrap(), Some(i));
            assert_eq!(arena.get(i).unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn scattered_diffs_compress() {
        // 10_000 60-byte states differing from each other in ≤ 4
        // *scattered* bytes — the byte-mask delta must beat the raw
        // footprint by far more than the tentpole's 30% target.
        let mk = |i: u64| {
            let mut state = [0u8; 60];
            state[4] = i as u8;
            state[20] = (i >> 8) as u8;
            state[37] = (i >> 16) as u8;
            state[59] = (i >> 24) as u8 ^ i as u8;
            state
        };
        let mut arena = StateArena::new();
        let mut raw = 0usize;
        for i in 0..10_000u64 {
            let state = mk(i);
            raw += state.len();
            let (idx, fresh) = arena.intern(&state).unwrap();
            assert!(fresh);
            assert_eq!(idx as u64, i);
        }
        assert!(
            arena.data_bytes() * 10 < raw * 3,
            "delta encoding too weak: {} compressed vs {} raw",
            arena.data_bytes(),
            raw
        );
        let mut buf = Vec::new();
        for i in 0..10_000u64 {
            arena.get_into(i as u32, &mut buf).unwrap();
            assert_eq!(buf, mk(i));
            assert_eq!(arena.lookup(&mk(i)).unwrap(), Some(i as u32));
        }
    }

    #[test]
    fn delta_handles_divergent_lengths_within_a_page() {
        // Many lengths interleaved in one page: each length gets its
        // own base, every record must round-trip.
        let mut arena = StateArena::new();
        let inputs: Vec<Vec<u8>> = (0..600u32)
            .map(|i| {
                let mut v = vec![0xAB; (i as usize * 7) % 90];
                v.extend_from_slice(&i.to_le_bytes());
                v
            })
            .collect();
        let ids: Vec<u32> = inputs.iter().map(|b| arena.intern(b).unwrap().0).collect();
        for (id, input) in ids.iter().zip(&inputs) {
            assert_eq!(&arena.get(*id).unwrap(), input);
            assert_eq!(arena.lookup(input).unwrap(), Some(*id));
        }
    }

    #[test]
    fn drift_rebases_instead_of_degrading() {
        // A run of states whose content shifts every 8 states: deltas
        // against a stale base would approach raw size, so the arena
        // must re-base and keep the payload small.
        let mk = |i: u32| {
            let fill = (i / 8) as u8; // shifts every 8 states
            let mut state = [fill; 48];
            state[0] = i as u8;
            state[47] = (i >> 8) as u8;
            state
        };
        let mut arena = StateArena::new();
        let mut raw = 0usize;
        for i in 0..2048u32 {
            arena.intern(&mk(i)).unwrap();
            raw += 48;
        }
        assert!(
            arena.data_bytes() * 2 < raw,
            "re-basing must keep the payload under half raw: {} vs {}",
            arena.data_bytes(),
            raw
        );
        let mut buf = Vec::new();
        for i in 0..2048u32 {
            arena.get_into(i, &mut buf).unwrap();
            assert_eq!(buf, mk(i), "state {i}");
        }
    }

    #[test]
    fn shrink_to_fit_tightens_arena_bytes() {
        let mut arena = StateArena::new();
        for i in 0..1000u32 {
            arena.intern(&i.to_le_bytes()).unwrap();
        }
        let before = arena.arena_bytes();
        arena.shrink_to_fit();
        let after = arena.arena_bytes();
        assert!(after <= before);
        assert_eq!(
            after,
            arena.data_bytes() + arena.len() * 4,
            "post-shrink accounting must be exact, not capacity slack"
        );
        assert_eq!(arena.table_bytes(), arena.table.len() * 8);
        assert_eq!(
            arena.resident_bytes(),
            arena.arena_bytes(),
            "fully resident without a spill backend"
        );
        // Still fully functional after shrinking.
        assert_eq!(arena.lookup(&123u32.to_le_bytes()).unwrap(), Some(123));
        assert_eq!(arena.intern(&2000u32.to_le_bytes()).unwrap(), (1000, true));
    }

    #[test]
    fn hash_variants_are_stable_and_low_bits_mix() {
        let data = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(hash_bytes(data), hash_bytes(data));
        // Variation confined to the high half of one word must still
        // move the low 32 bits (the table-slot fragment) — this is
        // exactly the input class the finalizer exists for.
        let mut a = [0u8; 48];
        let mut b = [0u8; 48];
        a[44] = 1;
        b[44] = 2;
        assert_ne!(hash_bytes(&a) as u32, hash_bytes(&b) as u32);
    }

    #[test]
    fn intern_hashed_matches_intern() {
        let mut a = StateArena::new();
        let mut b = StateArena::new();
        for i in 0..500u32 {
            let bytes = (i * 17).to_le_bytes();
            let x = a.intern(&bytes).unwrap();
            let y = b.intern_hashed(hash_bytes(&bytes), &bytes).unwrap();
            assert_eq!(x, y);
            assert_eq!(
                b.lookup_hashed_mut(hash_bytes(&bytes), &bytes).unwrap(),
                Some(y.0)
            );
        }
    }

    /// 40-byte states with scattered per-index variation — enough per
    /// page that a tight budget forces real evictions.
    fn wide_state(i: u32) -> [u8; 40] {
        let mut s = [0u8; 40];
        s[3] = i as u8;
        s[17] = (i >> 8) as u8;
        s[31] = (i >> 16) as u8;
        s[39] = (i as u8).wrapping_mul(31);
        s
    }

    #[test]
    fn spilled_arena_round_trips_and_counts() {
        let mut arena = StateArena::new();
        arena.set_spill(spill_file(), 4 * 1024);
        let n = 20_000u32;
        for i in 0..n {
            let (idx, fresh) = arena.intern(&wide_state(i)).unwrap();
            assert_eq!(idx, i);
            assert!(fresh);
        }
        let stats = arena.spill_stats();
        assert!(stats.evictions > 0, "tight budget must evict");
        assert!(stats.spilled_bytes > 0);
        assert!(
            arena.resident_bytes() < arena.arena_bytes(),
            "resident share must drop below the logical footprint"
        );
        // Every state still reads back — uncached, cached, and by
        // lookup (which probes through spilled pages).
        let mut buf = Vec::new();
        let mut cache = PageCache::new();
        for i in 0..n {
            arena.get_into(i, &mut buf).unwrap();
            assert_eq!(buf, wide_state(i), "uncached read of state {i}");
            arena.get_into_cached(i, &mut cache, &mut buf).unwrap();
            assert_eq!(buf, wide_state(i), "cached read of state {i}");
            assert_eq!(arena.lookup(&wide_state(i)).unwrap(), Some(i));
        }
        assert!(arena.spill_stats().faults > stats.faults, "reads faulted");
        let (hits, misses) = cache.stats();
        assert!(hits > 0 && misses > 0, "sequential scan must hit the LRU");
        // Re-interning everything faults pages back in through the
        // intern path and must stay non-fresh.
        for i in 0..n {
            assert_eq!(arena.intern(&wide_state(i)).unwrap(), (i, false));
        }
    }

    #[test]
    fn zero_budget_keeps_only_the_current_page() {
        let mut arena = StateArena::new();
        arena.set_spill(spill_file(), 0);
        for i in 0..(PAGE as u32 * 4 + 17) {
            arena.intern(&wide_state(i)).unwrap();
        }
        let stats = arena.spill_stats();
        assert_eq!(
            stats.spilled_bytes,
            arena.data_bytes() - arena_cur_len(&arena)
        );
        for i in 0..(PAGE as u32 * 4 + 17) {
            assert_eq!(arena.get(i).unwrap(), wide_state(i));
        }
    }

    fn arena_cur_len(a: &StateArena) -> usize {
        a.cur.len()
    }

    #[test]
    fn reeviction_reuses_the_file_slot() {
        let mut arena = StateArena::new();
        arena.set_spill(spill_file(), 0);
        let n = PAGE as u32 * 3;
        for i in 0..n {
            arena.intern(&wide_state(i)).unwrap();
        }
        let file_after_fill = arena.spill_stats().spill_file_bytes;
        // Fault every page back in via re-interning, then keep going so
        // they are evicted again: the file must not grow (pages are
        // immutable, their slots are reused).
        for i in 0..n {
            assert_eq!(arena.intern(&wide_state(i)).unwrap(), (i, false));
        }
        for i in n..n + PAGE as u32 {
            arena.intern(&wide_state(i)).unwrap();
        }
        assert_eq!(
            arena.spill_stats().spill_file_bytes,
            file_after_fill + page_payload_len(&arena, 3),
            "only the newly completed page may be appended"
        );
    }

    fn page_payload_len(a: &StateArena, p: usize) -> u64 {
        (a.page_end(p) - a.page_start(p)) as u64
    }

    #[test]
    fn spill_attach_after_filling_evicts_down() {
        let mut arena = StateArena::new();
        let n = 10_000u32;
        for i in 0..n {
            arena.intern(&wide_state(i)).unwrap();
        }
        let logical = arena.arena_bytes();
        arena.set_spill(spill_file(), 2 * 1024);
        assert!(arena.resident_bytes() < logical / 2, "attach must evict");
        for i in 0..n {
            assert_eq!(arena.get(i).unwrap(), wide_state(i));
            assert_eq!(arena.lookup(&wide_state(i)).unwrap(), Some(i));
        }
    }

    #[test]
    fn snapshot_round_trips_and_is_spill_invariant() {
        let mut plain = StateArena::new();
        let mut spilled = StateArena::new();
        spilled.set_spill(spill_file(), 1024);
        let n = 5_000u32;
        for i in 0..n {
            plain.intern(&wide_state(i)).unwrap();
            spilled.intern(&wide_state(i)).unwrap();
        }
        let mut snap_plain = Vec::new();
        plain.write_snapshot(&mut snap_plain).unwrap();
        let mut snap_spilled = Vec::new();
        spilled.write_snapshot(&mut snap_spilled).unwrap();
        assert_eq!(
            snap_plain, snap_spilled,
            "snapshots must not depend on what happened to be resident"
        );
        let mut back = StateArena::read_snapshot(&mut snap_plain.as_slice()).unwrap();
        assert_eq!(back.len(), n as usize);
        for i in 0..n {
            assert_eq!(back.get(i).unwrap(), wide_state(i));
            assert_eq!(back.lookup(&wide_state(i)).unwrap(), Some(i));
        }
        // The restored arena keeps interning exactly where it left off.
        assert_eq!(back.intern(&wide_state(n)).unwrap(), (n, true));
        assert_eq!(back.intern(&wide_state(0)).unwrap(), (0, false));
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(StateArena::read_snapshot(&mut &b"not a snapshot"[..]).is_err());
        let mut arena = StateArena::new();
        arena.intern(b"abc").unwrap();
        let mut snap = Vec::new();
        arena.write_snapshot(&mut snap).unwrap();
        let truncated = &snap[..snap.len() - 1];
        assert!(StateArena::read_snapshot(&mut &truncated[..]).is_err());
    }

    #[test]
    fn snapshot_rejects_corrupt_lengths_without_allocating() {
        let mut arena = StateArena::new();
        for i in 0..600u32 {
            arena.intern(&wide_state(i)).unwrap();
        }
        let mut snap = Vec::new();
        arena.write_snapshot(&mut snap).unwrap();
        let n = arena.len();
        let corrupt = |at: usize, value: u64| {
            let mut bad = snap.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            StateArena::read_snapshot(&mut bad.as_slice()).map(|a| a.len())
        };
        // Offsets: magic 8, state count 8, ends 4 each, table length 8,
        // table 8 each, base count 8.
        let table_at = 16 + 4 * n;
        let bases_at = table_at + 8 + 8 * arena.table.len();
        let cur_at = bases_at + 8 + 6 * arena.page_bases.len();
        for (what, at, value) in [
            ("state count", 8, u64::MAX),
            ("state count", 8, u64::from(u32::MAX) - 1),
            ("table length", table_at, 1 << 40),
            ("table length", table_at, 16),
            ("base count", bases_at, u64::MAX),
            ("open-page length", cur_at, u64::MAX),
        ] {
            let err = corrupt(at, value).expect_err(what);
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{what}: {err}"
            );
        }
        // Non-increasing record ends would make a page length negative.
        let mut bad = snap.clone();
        bad[16 + 4 * 300..16 + 4 * 301].copy_from_slice(&0u32.to_le_bytes());
        let err = StateArena::read_snapshot(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn injected_write_fault_degrades_to_fully_resident() {
        let mut arena = StateArena::new();
        arena.set_fault_plan(Arc::new(
            FaultPlan::new().fail_spill_write(1, io::ErrorKind::StorageFull),
        ));
        arena.set_spill(spill_file(), 0);
        let n = PAGE as u32 * 4;
        for i in 0..n {
            arena.intern(&wide_state(i)).unwrap();
        }
        let reason = arena.degraded().expect("first eviction write must degrade");
        assert!(reason.contains("injected fault"), "reason: {reason}");
        let stats = arena.spill_stats();
        assert!(stats.degraded);
        assert_eq!(stats.evictions, 0, "degraded arena must stop evicting");
        assert_eq!(stats.spilled_bytes, 0, "everything stays resident");
        // Every state remains intact and readable, and interning keeps
        // working — over budget by design.
        for i in 0..n {
            assert_eq!(arena.get(i).unwrap(), wide_state(i), "state {i}");
            assert_eq!(arena.intern(&wide_state(i)).unwrap(), (i, false));
        }
    }

    #[test]
    fn injected_write_fault_after_real_evictions_keeps_spilled_pages_readable() {
        let mut arena = StateArena::new();
        // Let a few pages spill for real, then fail the 4th write: the
        // earlier spilled pages must stay readable from disk.
        arena.set_fault_plan(Arc::new(
            FaultPlan::new().fail_spill_write(4, io::ErrorKind::StorageFull),
        ));
        arena.set_spill(spill_file(), 0);
        let n = PAGE as u32 * 8;
        for i in 0..n {
            arena.intern(&wide_state(i)).unwrap();
        }
        assert!(arena.degraded().is_some());
        let stats = arena.spill_stats();
        assert!(
            stats.evictions >= 3,
            "three pages must have spilled before the fault, saw {}",
            stats.evictions
        );
        for i in 0..n {
            assert_eq!(arena.get(i).unwrap(), wide_state(i), "state {i}");
        }
    }

    #[test]
    fn injected_read_fault_is_a_typed_error_not_a_panic() {
        let mut arena = StateArena::new();
        arena.set_fault_plan(Arc::new(
            FaultPlan::new().fail_spill_read(1, io::ErrorKind::UnexpectedEof),
        ));
        arena.set_spill(spill_file(), 0);
        let n = PAGE as u32 * 3;
        for i in 0..n {
            arena.intern(&wide_state(i)).unwrap();
        }
        // Most pages are evicted: scanning forward, the first spilled
        // read hits the armed fault and must surface as a SpillError —
        // never a panic.  The fault is one-shot (a transient medium
        // error), so a rescan succeeds.
        let mut first_err = None;
        for i in 0..n {
            match arena.get(i) {
                Ok(v) => assert_eq!(v, wide_state(i), "state {i}"),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let err = first_err.expect("a zero budget must leave spilled pages");
        assert_eq!(err.op, SpillOp::Read);
        assert_eq!(err.source.kind(), io::ErrorKind::UnexpectedEof);
        for i in 0..n {
            assert_eq!(arena.get(i).unwrap(), wide_state(i), "one-shot fault");
        }
    }
}
