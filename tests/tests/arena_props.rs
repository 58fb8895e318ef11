//! Property tests for the compressed state arena.
//!
//! The page/delta encoding in `amx_sim::intern::StateArena` must be an
//! exact identity under every interleaving of state lengths, contents,
//! duplicate ratios, and page boundaries: `intern → get` round-trips
//! every byte string, `lookup` finds exactly the interned strings,
//! indices stay dense in first-insertion order, and the idempotence
//! contract (`intern` of a seen string returns the original index,
//! fresh = false) survives table growth and drift re-basing.

use amx_sim::intern::{anon_spill_file, hash_bytes, PageCache, StateArena, PAGE};
use proptest::prelude::*;

/// Builds a batch of byte strings shaped like the model checker's
/// canonical encodings: a base pattern per "variant" (length class)
/// plus a few scattered mutated bytes — exactly the workload the
/// byte-mask delta is built for.
fn state_batch(seeds: &[(u8, u16, u8)]) -> Vec<Vec<u8>> {
    seeds
        .iter()
        .map(|&(variant, churn, tail)| {
            let len = 20 + (variant as usize % 5) * 9; // 5 length classes
            let mut s: Vec<u8> = (0..len as u8).map(|i| i ^ variant).collect();
            // scatter a few churned bytes through the middle
            let c = churn.to_le_bytes();
            s[len / 3] = c[0];
            s[2 * len / 3] = c[1];
            let last = s.len() - 1;
            s[last] = tail;
            s
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → compress → get identity on random state batches, with
    /// duplicates interleaved: dense first-insertion indices, exact
    /// round-trips, exact membership.
    #[test]
    fn intern_get_lookup_round_trip(
        seeds in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..700),
    ) {
        let batch = state_batch(&seeds);
        let mut arena = StateArena::new();
        let mut first_idx: Vec<(Vec<u8>, u32)> = Vec::new();
        for bytes in &batch {
            let known = first_idx.iter().find(|(b, _)| b == bytes).map(|&(_, i)| i);
            let (idx, fresh) = arena.intern(bytes).expect("resident intern");
            match known {
                Some(expect) => {
                    prop_assert!(!fresh, "duplicate must not be fresh");
                    prop_assert_eq!(idx, expect, "duplicate must return the original index");
                }
                None => {
                    prop_assert!(fresh);
                    prop_assert_eq!(idx as usize, first_idx.len(), "indices must stay dense");
                    first_idx.push((bytes.clone(), idx));
                }
            }
        }
        prop_assert_eq!(arena.len(), first_idx.len());
        let mut buf = Vec::new();
        for (bytes, idx) in &first_idx {
            arena.get_into(*idx, &mut buf).expect("resident get");
            prop_assert_eq!(&buf, bytes, "get must reproduce the interned bytes");
            prop_assert_eq!(arena.lookup(bytes).expect("lookup"), Some(*idx));
            prop_assert_eq!(
                arena.lookup_hashed(hash_bytes(bytes), bytes).expect("lookup"),
                Some(*idx)
            );
        }
        // Compression bookkeeping sanity: payload never exceeds
        // raw-plus-one-tag-byte per state, and shrink keeps everything
        // reachable.
        let raw: usize = first_idx.iter().map(|(b, _)| b.len() + 1).sum();
        prop_assert!(arena.data_bytes() <= raw, "a record may never exceed raw + tag");
        arena.shrink_to_fit();
        for (bytes, idx) in &first_idx {
            prop_assert_eq!(arena.lookup(bytes).expect("lookup"), Some(*idx));
        }
    }

    /// Batches crafted to straddle page boundaries: every state in a
    /// window around multiples of PAGE still round-trips (bases are
    /// re-established per page, deltas never cross pages).
    #[test]
    fn page_boundaries_round_trip(extra in 0usize..(PAGE / 2), tail in any::<u8>()) {
        let n = PAGE + extra + 1;
        let mut arena = StateArena::new();
        let mk = |i: usize| -> Vec<u8> {
            let mut s = vec![0xA5u8; 40];
            s[7] = (i % 251) as u8;
            s[23] = (i / 251) as u8;
            s[39] = tail;
            s[11] = (i % 3) as u8;
            s
        };
        for i in 0..n {
            let (idx, fresh) = arena.intern(&mk(i)).expect("intern");
            assert!(fresh, "all distinct by construction");
            assert_eq!(idx as usize, i);
        }
        let mut buf = Vec::new();
        for i in 0..n {
            arena.get_into(i as u32, &mut buf).expect("resident get");
            prop_assert_eq!(&buf, &mk(i), "state {} around the page boundary", i);
        }
    }

    /// The 8-bytes-at-a-time hash is deterministic and injective under
    /// single-byte edits: every step of the fold (XOR with the input
    /// word, multiply by the odd FNV prime, xor-shift finalizer) is an
    /// invertible map, so two inputs differing in one byte can never
    /// share the full 64-bit hash.  (The low 32 bits — the table-slot
    /// fragment — are only *statistically* distinct; the deterministic
    /// regression case for the finalizer lives in the arena's unit
    /// tests.)
    #[test]
    fn hash_separates_single_byte_edits(
        base in prop::collection::vec(any::<u8>(), 9..80),
        at in any::<u16>(),
        delta in 1u8..=255,
    ) {
        let mut edited = base.clone();
        let i = at as usize % base.len();
        edited[i] = edited[i].wrapping_add(delta);
        prop_assert_eq!(hash_bytes(&base), hash_bytes(&base));
        prop_assert_ne!(
            hash_bytes(&base),
            hash_bytes(&edited),
            "single-byte edit at {} must change the 64-bit hash", i
        );
    }

    /// Out-of-core identity: attaching a spill file mid-stream (with a
    /// budget small enough to evict every sealed page) must be fully
    /// transparent.  Every state interned before or after the attach
    /// still round-trips through both the uncached fault path and the
    /// caller-owned page cache, membership probes still find exactly
    /// the interned strings, and a snapshot of the spilled arena reads
    /// back as an equivalent (fully resident) arena.
    #[test]
    fn spill_evict_fault_in_round_trip(
        extra in 0usize..(PAGE / 2),
        post in 1usize..(PAGE + 17),
        tail in any::<u8>(),
    ) {
        let pre = 2 * PAGE + extra + 1; // at least two sealed pages to evict
        let mk = |i: usize| -> Vec<u8> {
            let mut s = vec![0x3Cu8; 44];
            s[5] = (i % 251) as u8;
            s[19] = (i / 251) as u8;
            s[31] = (i % 7) as u8;
            s[43] = tail;
            s
        };
        let mut arena = StateArena::new();
        for i in 0..pre {
            let (idx, fresh) = arena.intern(&mk(i)).expect("intern");
            prop_assert!(fresh);
            prop_assert_eq!(idx as usize, i);
        }
        let full = arena.arena_bytes();
        let spill = anon_spill_file(&std::env::temp_dir()).expect("spill file");
        arena.set_spill(spill, 0); // evict everything evictable right away
        let stats = arena.spill_stats();
        prop_assert!(stats.spilled_bytes > 0, "two sealed pages must evict");
        prop_assert!(stats.evictions > 0);
        prop_assert!(
            arena.resident_bytes() < full,
            "resident ({}) must drop below the logical size ({})",
            arena.resident_bytes(),
            full
        );
        // Keep interning across further page boundaries with the spill
        // active: eviction churn must never disturb earlier indices.
        for i in 0..post {
            let (idx, fresh) = arena.intern(&mk(pre + i)).expect("intern");
            prop_assert!(fresh);
            prop_assert_eq!(idx as usize, pre + i);
        }
        let n = pre + post;
        let mut buf = Vec::new();
        let mut cache = PageCache::new();
        for i in 0..n {
            arena.get_into(i as u32, &mut buf).expect("fault-in"); // uncached fault path
            prop_assert_eq!(&buf, &mk(i), "uncached fault-in of state {}", i);
            arena.get_into_cached(i as u32, &mut cache, &mut buf).expect("cached fault-in");
            prop_assert_eq!(&buf, &mk(i), "cached fault-in of state {}", i);
            let bytes = mk(i);
            prop_assert_eq!(
                arena.lookup_hashed_cached(hash_bytes(&bytes), &bytes, &mut cache).expect("probe"),
                Some(i as u32)
            );
        }
        prop_assert!(arena.spill_stats().faults > 0, "reads above faulted pages in");
        // Membership stays exact: an absent state is absent on the
        // spilled probe path too.
        let absent = vec![0xEEu8; 44];
        prop_assert_eq!(
            arena.lookup_hashed_cached(hash_bytes(&absent), &absent, &mut cache).expect("probe"),
            None
        );
        // Snapshots are spill-invariant: a spilled arena serialises to
        // the same logical content as a resident one.
        let mut snap = Vec::new();
        arena.write_snapshot(&mut snap).expect("snapshot write");
        let restored = StateArena::read_snapshot(&mut snap.as_slice()).expect("snapshot read");
        prop_assert_eq!(restored.len(), n);
        for i in 0..n {
            restored.get_into(i as u32, &mut buf).expect("restored get");
            prop_assert_eq!(&buf, &mk(i), "restored state {}", i);
        }
    }
}
