//! The symmetry group and the node codec: group elements, their
//! tables, encoding a node's image under one of them, and
//! canonicalization.

use amx_ids::codec::{PidMap, RegMap};
use amx_ids::Slot;

use crate::automaton::{Automaton, Phase};
use crate::encode::{self, EncodeState};
use crate::mem::SimMemory;

use super::{ConfigError, Symmetry};

pub(super) fn phase_to_u8(p: Phase) -> u8 {
    match p {
        Phase::Remainder => 0,
        Phase::Trying => 1,
        Phase::Cs => 2,
        Phase::Exiting => 3,
    }
}

pub(super) fn phase_from_u8(b: u8) -> Option<Phase> {
    Some(match b {
        0 => Phase::Remainder,
        1 => Phase::Trying,
        2 => Phase::Cs,
        3 => Phase::Exiting,
        _ => return None,
    })
}

/// One element of the symmetry group: a role permutation plus the
/// matching identity relabeling, and — under [`Symmetry::Wreath`] — the
/// physical register relabeling the role permutation forces.
///
/// The `π`-projection is injective across the group (the adversary
/// automorphism condition determines `ρ` from `π`), so composition and
/// inverse tables keyed on `pi` remain valid for wreath elements.
#[derive(Debug, Clone)]
pub(super) struct SymElem {
    /// Role map: process `i`'s component moves to position `pi[i]`.
    pub(super) pi: Vec<usize>,
    /// Inverse role map.
    pub(super) pi_inv: Vec<usize>,
    /// Identity relabeling: `pid_i ↦ pid_{pi[i]}`.
    pub(super) map: PidMap,
    /// Inverse physical register relabeling: the image's slot `j` is
    /// read from physical slot `rho_inv[j]`.  Empty ⇒ `ρ = id` (always
    /// the case under [`Symmetry::Off`]), keeping the hot encode loop
    /// free of indirection.
    pub(super) rho_inv: Vec<usize>,
    /// Forward physical relabeling as the codec hook handed to
    /// [`EncodeState::encode_with`] for states quoting physical indices.
    pub(super) regs: RegMap,
}

impl SymElem {
    /// The physical slot the image's slot `j` is read from.
    fn slot_source(&self, j: usize) -> usize {
        if self.rho_inv.is_empty() {
            j
        } else {
            self.rho_inv[j]
        }
    }
}

/// Computes the symmetry group and the class id of every process.
///
/// Under [`Symmetry::Wreath`] the group is the adversary's automorphism
/// group (computed by
/// [`amx_registers::automorphism::adversary_automorphisms`]) restricted
/// to class-compatible role maps, and a class is an orbit of processes
/// under the group's `π`-components — the granularity at which the
/// quotient's fairness pre-filter can distinguish processes.  With
/// [`Symmetry::Off`] every process is a singleton and the group is
/// trivial.  The identity is always element 0.
///
/// A group with more than `u16::MAX` elements is refused with
/// [`ConfigError::SymmetryGroupTooLarge`], counted
/// ([`amx_registers::adversary_automorphism_count`]) before anything is
/// enumerated.
pub(super) fn build_group<A: Automaton>(
    automata: &[A],
    mem0: &SimMemory,
    symmetry: Symmetry,
) -> Result<(Vec<SymElem>, Vec<usize>), ConfigError> {
    let n = automata.len();
    if symmetry == Symmetry::Off {
        let identity = SymElem {
            pi: (0..n).collect(),
            pi_inv: (0..n).collect(),
            map: PidMap::identity(),
            rho_inv: Vec::new(),
            regs: RegMap::identity(),
        };
        return Ok((vec![identity], (0..n).collect()));
    }
    let keys: Vec<Option<u64>> = automata.iter().map(Automaton::symmetry_class).collect();
    let perms: Vec<amx_registers::Permutation> =
        (0..n).map(|i| mem0.permutation(i).clone()).collect();
    let order = amx_registers::adversary_automorphism_count(&perms, &keys);
    if order > usize::from(u16::MAX) {
        return Err(ConfigError::SymmetryGroupTooLarge { order });
    }
    let autos = amx_registers::adversary_automorphisms(&perms, &keys);

    // Process classes: orbits under the π-components (the finest
    // partition the quotient can still tell apart).
    let mut root: Vec<usize> = (0..n).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for a in &autos {
            for i in 0..n {
                let (ri, rj) = (root[i], root[a.pi[i]]);
                if ri != rj {
                    let mn = ri.min(rj);
                    root[i] = mn;
                    root[a.pi[i]] = mn;
                    changed = true;
                }
            }
        }
    }
    let mut class_of = vec![usize::MAX; n];
    let mut next_class = 0usize;
    for i in 0..n {
        // Path-compress through the min-root relation, then number the
        // classes in first-appearance order.
        let r = root[i];
        if class_of[r] == usize::MAX {
            class_of[r] = next_class;
            next_class += 1;
        }
        class_of[i] = class_of[r];
    }

    let elems = autos
        .into_iter()
        .map(|a| {
            let mut pi_inv = vec![0usize; n];
            for (i, &j) in a.pi.iter().enumerate() {
                pi_inv[j] = i;
            }
            let pairs: Vec<_> = (0..n)
                .filter(|&i| a.pi[i] != i)
                .filter_map(|i| Some((automata[i].pid()?, automata[a.pi[i]].pid()?)))
                .collect();
            let (rho_inv, regs) = if a.rho.is_identity() {
                (Vec::new(), RegMap::identity())
            } else {
                (
                    a.rho.inverse().as_slice().to_vec(),
                    RegMap::from_forward(a.rho.as_slice().to_vec()),
                )
            };
            SymElem {
                pi: a.pi,
                pi_inv,
                map: PidMap::from_pairs(pairs),
                rho_inv,
                regs,
            }
        })
        .collect();
    Ok((elems, class_of))
}

/// Decodes a node's bytes into the slots/procs/crashes scratch
/// buffers.  Crash-count bytes trail the process components and only
/// exist when the run enables crashes: whatever is left after `n`
/// process entries lands in `crashes` (empty on crash-free encodings,
/// so those stay byte-identical to previous releases).
pub(super) fn decode_node<S: EncodeState>(
    mut bytes: &[u8],
    m: usize,
    n: usize,
    slots: &mut Vec<Slot>,
    procs: &mut Vec<(Phase, S)>,
    crashes: &mut Vec<u8>,
) {
    slots.clear();
    procs.clear();
    crashes.clear();
    for _ in 0..m {
        slots.push(encode::take_slot(&mut bytes).expect("truncated node: slots"));
    }
    for _ in 0..n {
        let tag = encode::take_u8(&mut bytes).expect("truncated node: phase");
        let phase = phase_from_u8(tag).expect("invalid phase tag");
        let state = S::decode(&mut bytes).expect("truncated node: state");
        procs.push((phase, state));
    }
    debug_assert!(
        bytes.is_empty() || bytes.len() == n,
        "trailing bytes after node decode are crash counts (0 or n of them)"
    );
    crashes.extend_from_slice(bytes);
}

/// Encodes the node image under one group element into `out`: physical
/// slots are permuted by `ρ` (slot `j` of the image is slot
/// `ρ⁻¹(j)` of the node) and identity-relabeled; process components —
/// and the trailing crash counts, when present — are permuted by `π`.
pub(super) fn encode_node_with<S: EncodeState>(
    elem: &SymElem,
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
    out: &mut Vec<u8>,
) {
    out.clear();
    for j in 0..slots.len() {
        encode::put_slot(slots[elem.slot_source(j)], &elem.map, out);
    }
    encode_node_pruned(elem, procs, crashes, None, out);
}

/// Settles the component just written at `out[from..]` against `best`
/// at the same offsets while the image is still `tied` (every earlier
/// byte equal).  Returns `true` when the image compares greater — the
/// caller abandons it — and clears `tied` once it compares smaller, so
/// the rest of the image is written without comparing.
pub(super) fn above_best(tied: &mut bool, out: &[u8], from: usize, best: &[u8]) -> bool {
    if *tied {
        // A tie so far means `best` reaches at least to `from`; where it
        // ends inside this component, a prefix of it is the smaller.
        let end = out.len().min(best.len());
        match out[from..].cmp(&best[from..end]) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => *tied = false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// Appends the process components of the node image under `elem` —
/// each process, then the crash counts — to `out`, which holds the
/// image's slot section, equal to `best`'s when there is a `best`.
/// Against `best`, the least image found so far, the image is pruned:
/// abandoned (returning [`Greater`](std::cmp::Ordering::Greater), `out`
/// left partial) at the first component that makes it compare greater,
/// and once it compares smaller, the remainder is written without
/// comparing.  `Less` and `Equal` leave the full image in `out`; with no
/// `best` the image is written in full and the result is `Less`.
pub(super) fn encode_node_pruned<S: EncodeState>(
    elem: &SymElem,
    procs: &[(Phase, S)],
    crashes: &[u8],
    best: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> std::cmp::Ordering {
    let mut tied = best.is_some();
    let best = best.unwrap_or_default();
    for j in 0..procs.len() {
        let (phase, state) = &procs[elem.pi_inv[j]];
        let from = out.len();
        encode::put_u8(phase_to_u8(*phase), out);
        state.encode_with(&elem.map, &elem.regs, out);
        if above_best(&mut tied, out, from, best) {
            return std::cmp::Ordering::Greater;
        }
    }
    let from = out.len();
    for j in 0..crashes.len() {
        encode::put_u8(crashes[elem.pi_inv[j]], out);
    }
    if above_best(&mut tied, out, from, best) {
        return std::cmp::Ordering::Greater;
    }
    if tied {
        // Equal throughout `out`: a proper prefix of `best` is smaller.
        out.len().cmp(&best.len())
    } else {
        std::cmp::Ordering::Less
    }
}

/// Reusable buffers of [`canonicalize`], one set per worker, and its
/// ranking cache.  Rankings are only valid for the group they were made
/// under, so a `Canon` serves one run.
#[derive(Debug, Default)]
pub(super) struct Canon {
    /// The least image (the canonical encoding) after a call.
    pub(super) best: Vec<u8>,
    /// The image being built.
    pub(super) enc: Vec<u8>,
    /// Stage-1 rankings of the two memory images ranked last, the one
    /// the latest call used first.  Most steps write no register, so a
    /// successor's image is usually its node's: the second entry keeps
    /// the node's ranking while a writing successor ranks its own.
    pub(super) rankings: [Ranking; 2],
}

/// Stage 1 of [`canonicalize`] for one memory image.
#[derive(Debug, Default)]
pub(super) struct Ranking {
    /// The memory image ranked; stage 1 reads nothing else.
    pub(super) image: Vec<Slot>,
    /// Slot keys of the least slot section.
    pub(super) keys: Vec<u32>,
    /// Indices of the group elements whose slot section is the least,
    /// in index order.
    pub(super) ties: Vec<u16>,
}

impl Ranking {
    /// Ranks the group's elements on the slot sections of `slots`.
    fn rank(&mut self, group: &[SymElem], slots: &[Slot]) {
        let Ranking { image, keys, ties } = self;
        image.clear();
        image.extend_from_slice(slots);
        ties.clear();
        ties.push(0);
        let identity = &group[0];
        keys.clear();
        keys.extend(slots.iter().map(|&s| encode::slot_key(s, &identity.map)));
        for (gi, elem) in group.iter().enumerate().skip(1) {
            let mut order = std::cmp::Ordering::Equal;
            for (j, least) in keys.iter_mut().enumerate() {
                let key = encode::slot_key(slots[elem.slot_source(j)], &elem.map);
                if order.is_eq() {
                    order = key.cmp(least);
                    if order.is_gt() {
                        break;
                    }
                }
                // Past the first smaller slot, the rest of this element's
                // keys replace the minimum's.
                *least = key;
            }
            match order {
                std::cmp::Ordering::Greater => {}
                std::cmp::Ordering::Equal => ties.push(gi as u16),
                std::cmp::Ordering::Less => {
                    ties.clear();
                    ties.push(gi as u16);
                }
            }
        }
    }
}

/// Canonicalizes a node under the group: `canon.best` receives the
/// lexicographically least image; returns the index of the group
/// element achieving it (the first such index) plus the exact orbit
/// size.
///
/// An image starts with its slot section, `m` slots of four bytes each,
/// so images are ordered first by their slot sections.  Stage 1 ranks
/// the elements on those alone, as `m` integer keys per element
/// ([`encode::slot_key`]) compared with the running minimum and
/// abandoned at the first greater slot; it writes no bytes and leaves in
/// the [`Ranking`] the least slot section's keys and the elements that
/// hold it, in index order.  Stage 1 reads only the memory image, so
/// `canon` keeps the rankings of the last two images ranked and serves
/// a ranking again to a node whose image equals the one it was made
/// for, never to another.  Stage 2 writes the least slot section from
/// its keys, appends the process components of the first tied element
/// and compares every other one from its first process component on
/// ([`encode_node_pruned`]), its slot section being known equal.  When
/// one element holds the least slot section, as it does for most nodes,
/// stage 2 is one encoding.
///
/// The orbit size comes from the orbit–stabilizer theorem.  The group
/// elements whose image equals the least image form one coset
/// `g·Stab(s)` of the node's stabilizer, so counting them — restarting
/// at 1 on every new minimum — counts `|Stab(s)|` exactly (encodings
/// are injective per configuration), and the orbit size is
/// `|G| / |Stab(s)|` — byte-exact, no hashing.
pub(super) fn canonicalize<S: EncodeState>(
    group: &[SymElem],
    slots: &[Slot],
    procs: &[(Phase, S)],
    crashes: &[u8],
    canon: &mut Canon,
) -> (u16, u32) {
    let Canon {
        best,
        enc,
        rankings,
    } = canon;
    if rankings[0].image != slots {
        rankings.swap(0, 1);
        if rankings[0].image != slots {
            rankings[0].rank(group, slots);
        }
    }
    let Ranking { keys, ties, .. } = &rankings[0];
    let mut sigma = ties[0];
    // A slot key is its token byte-swapped, and a slot is encoded as its
    // token's little-endian bytes: the key's big-endian ones.
    best.clear();
    for key in keys {
        best.extend_from_slice(&key.to_be_bytes());
    }
    encode_node_pruned(&group[usize::from(sigma)], procs, crashes, None, best);
    let mut coset = 1u32;
    let slot_bytes = encode::SLOT_BYTES * slots.len();
    for &gi in &ties[1..] {
        enc.clear();
        enc.extend_from_slice(&best[..slot_bytes]);
        match encode_node_pruned(&group[usize::from(gi)], procs, crashes, Some(best), enc) {
            std::cmp::Ordering::Greater => {}
            std::cmp::Ordering::Equal => coset += 1,
            std::cmp::Ordering::Less => {
                std::mem::swap(enc, best);
                sigma = gi;
                coset = 1;
            }
        }
    }
    debug_assert_eq!(
        group.len() % coset as usize,
        0,
        "Lagrange: the stabilizer order must divide the group order"
    );
    (sigma, group.len() as u32 / coset)
}

/// Composition and inverse tables of the symmetry group, used by the
/// orbit confirmation to walk concrete orbit states as `(canonical
/// member, group element)` pairs without re-stepping any automaton.
pub(super) struct GroupTables {
    /// `inv[g]` = index of g⁻¹.
    pub(super) inv: Vec<u16>,
    /// `compose[g * |G| + h]` = index of g∘h (`(g∘h)(i) = g(h(i))`).
    pub(super) compose: Vec<u16>,
}

pub(super) fn group_tables(group: &[SymElem]) -> GroupTables {
    let gl = group.len();
    let n = group[0].pi.len();
    let index: std::collections::HashMap<&[usize], u16> = group
        .iter()
        .enumerate()
        .map(|(i, e)| (e.pi.as_slice(), i as u16))
        .collect();
    let inv = group
        .iter()
        .map(|e| {
            *index
                .get(e.pi_inv.as_slice())
                .expect("group closed under inverse")
        })
        .collect();
    let mut compose = Vec::with_capacity(gl * gl);
    let mut buf = vec![0usize; n];
    for g in group {
        for h in group {
            for (b, &hp) in buf.iter_mut().zip(&h.pi) {
                *b = g.pi[hp];
            }
            compose.push(
                *index
                    .get(buf.as_slice())
                    .expect("group closed under composition"),
            );
        }
    }
    GroupTables { inv, compose }
}
