//! Compact byte encodings of model-checker states.
//!
//! The exploration engine in [`crate::mc`] does not store cloned
//! `Vec<Slot>`/state structs per reachable node; it stores one flat,
//! self-delimiting byte string per node inside an interned arena
//! ([`crate::intern::StateArena`]).  [`EncodeState`] is the capability a
//! protocol state must provide to participate:
//!
//! * [`EncodeState::encode_with`] appends the state's bytes to a caller
//!   scratch buffer, passing every embedded [`Slot`] through a
//!   [`PidMap`] and every embedded *physical* register index through a
//!   [`RegMap`] — the two codec hooks symmetry reduction uses to
//!   relabel equality-only identities (and, under the wreath group,
//!   physical register names) while permuting process roles.  States
//!   that quote registers by their **local** names — every state in
//!   this workspace: cursors, sweep positions, local-index bitmasks —
//!   ignore the `RegMap`, because local names are invariant under the
//!   joint action (`ρ ∘ f_i = f_{π(i)}` realigns them exactly).
//! * [`EncodeState::decode`] reads the state back from the front of a
//!   byte slice (the engine expands each state from its stored bytes
//!   instead of keeping cloned nodes).
//!
//! Encodings only ever need to be compared *within one run* (fixed
//! automata, fixed `m`), so they need not be portable or versioned —
//! only injective per configuration and cheap.
//!
//! The free functions are little-endian primitives shared by the
//! implementations in this workspace; a [`Slot`] costs 4 bytes (its raw
//! token, 0 = ⊥).

use amx_ids::codec::{PidMap, RegMap};
use amx_ids::{Pid, Slot};

/// A protocol state that can serialize itself into a flat byte buffer.
///
/// Contract: `a == b` ⇔ `encode(a) == encode(b)` (for states of the same
/// automaton configuration), and `decode(encode(a)) == Some(a)` leaving
/// the input advanced past exactly the written bytes.  Every [`Slot`]
/// embedded in the state must be routed through the identity map given
/// to [`encode_with`](Self::encode_with), and every embedded *physical*
/// register index through the register map; states without embedded
/// slots (or quoting registers only by local name) can ignore the
/// respective map.
pub trait EncodeState: Clone + Eq + std::hash::Hash + std::fmt::Debug {
    /// Appends a self-delimiting encoding of this state to `out`,
    /// rewriting every embedded [`Slot`] through `pids` and every
    /// embedded physical register index through `regs`.
    fn encode_with(&self, pids: &PidMap, regs: &RegMap, out: &mut Vec<u8>);

    /// Appends a self-delimiting encoding of this state to `out`.
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_with(&PidMap::identity(), &RegMap::identity(), out);
    }

    /// Decodes one state from the front of `bytes`, advancing the slice.
    ///
    /// Returns `None` on truncated or malformed input.
    fn decode(bytes: &mut &[u8]) -> Option<Self>;
}

/// Appends one byte.
pub fn put_u8(v: u8, out: &mut Vec<u8>) {
    out.push(v);
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(v: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bytes per slot in [`put_slot`]'s encoding.
pub const SLOT_BYTES: usize = 4;

/// The raw token of a slot relabeled by `map` (0 = ⊥).
fn slot_token(slot: Slot, map: &PidMap) -> u32 {
    match map.map_slot(slot).pid() {
        None => 0,
        Some(p) => p.to_raw(),
    }
}

/// Appends a slot as its 4-byte raw token (0 = ⊥), relabeled by `map`.
pub fn put_slot(slot: Slot, map: &PidMap, out: &mut Vec<u8>) {
    out.extend_from_slice(&slot_token(slot, map).to_le_bytes());
}

/// The order key of a slot relabeled by `map`: keys compare as the
/// slots' [`put_slot`] encodings compare bytewise.  Those are the
/// token's little-endian bytes, so the key is the token byte-swapped.
pub fn slot_key(slot: Slot, map: &PidMap) -> u32 {
    slot_token(slot, map).swap_bytes()
}

/// Reads one byte from the front of `bytes`.
pub fn take_u8(bytes: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = bytes.split_first()?;
    *bytes = rest;
    Some(first)
}

/// Reads a little-endian `u64` from the front of `bytes`.
pub fn take_u64(bytes: &mut &[u8]) -> Option<u64> {
    let (head, rest) = bytes.split_first_chunk::<8>()?;
    *bytes = rest;
    Some(u64::from_le_bytes(*head))
}

/// Reads a 4-byte slot token from the front of `bytes`.
pub fn take_slot(bytes: &mut &[u8]) -> Option<Slot> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    *bytes = rest;
    Some(Slot::from(Pid::from_raw(u32::from_le_bytes(*head))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amx_ids::PidPool;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(7, &mut buf);
        put_u64(0xDEAD_BEEF_0BAD_F00D, &mut buf);
        let mut pool = PidPool::sequential();
        let id = pool.mint();
        put_slot(Slot::from(id), &PidMap::identity(), &mut buf);
        put_slot(Slot::BOTTOM, &PidMap::identity(), &mut buf);

        let mut cur = buf.as_slice();
        assert_eq!(take_u8(&mut cur), Some(7));
        assert_eq!(take_u64(&mut cur), Some(0xDEAD_BEEF_0BAD_F00D));
        assert_eq!(take_slot(&mut cur), Some(Slot::from(id)));
        assert_eq!(take_slot(&mut cur), Some(Slot::BOTTOM));
        assert!(cur.is_empty());
        assert_eq!(take_u8(&mut cur), None, "exhausted input");
    }

    #[test]
    fn slot_keys_order_slots_as_their_encodings_do() {
        let mut pool = PidPool::sequential();
        let mut slots = vec![Slot::BOTTOM];
        slots.extend(pool.mint_many(300).into_iter().map(Slot::from));
        let encoded = |s: Slot| {
            let mut buf = Vec::new();
            put_slot(s, &PidMap::identity(), &mut buf);
            buf
        };
        let identity = PidMap::identity();
        for &a in &slots {
            for &b in slots.iter().step_by(7) {
                assert_eq!(
                    slot_key(a, &identity).cmp(&slot_key(b, &identity)),
                    encoded(a).cmp(&encoded(b)),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn put_slot_applies_the_relabeling() {
        let mut pool = PidPool::sequential();
        let (a, b) = (pool.mint(), pool.mint());
        let swap = PidMap::from_pairs(vec![(a, b), (b, a)]);
        let mut buf = Vec::new();
        put_slot(Slot::from(a), &swap, &mut buf);
        let mut cur = buf.as_slice();
        assert_eq!(take_slot(&mut cur), Some(Slot::from(b)));
    }
}
