//! Automorphisms of an adversary assignment — the joint symmetry group
//! the model checker's wreath canonicalization quotients by.
//!
//! An anonymous memory has no agreed-upon register names, so the state
//! graph of a symmetric algorithm is invariant not just under permuting
//! interchangeable processes but under the *joint* action "permute
//! processes ∘ relabel physical registers".  A pair `(π, ρ)` — process
//! permutation `π ∈ S_n`, physical relabeling `ρ ∈ S_m` — is a state-graph
//! automorphism exactly when it is an automorphism of the adversary
//! itself:
//!
//! ```text
//!     ρ ∘ f_i = f_{π(i)}          for every process i,
//! ```
//!
//! because then process `i`'s local name `x`, moved to role `π(i)`, still
//! denotes the (relabeled) physical register it denoted before:
//! `f_{π(i)}(x) = ρ(f_i(x))`.  Local register names are **invariant**
//! under this action — only the physical array is relabeled — which is
//! why protocol states (cursors, local-index bitmasks) survive the move
//! untouched.
//!
//! Two structural facts keep the enumeration cheap:
//!
//! * `ρ` is *determined* by `π`: the defining equation forces
//!   `ρ = f_{π(i)} ∘ f_i⁻¹` for every `i`, so all those products must
//!   coincide.  In particular the joint group embeds into `S_n` via its
//!   `π`-projection (distinct automorphisms have distinct `π`), and a
//!   register relabeling alone (`π = id`, `ρ ≠ id`) is never an
//!   automorphism.
//! * Fixing the image of one process fixes `ρ`, and `ρ` then determines
//!   the candidate images of every other process.  The search below
//!   exploits both: it tries each candidate image `j₀` of process 0
//!   (each distinct `ρ = f_{j₀} ∘ f_0⁻¹` once), prunes as soon as some
//!   process has no compatible image, and only then backtracks over the
//!   residual bijection choices (nontrivial only when several processes
//!   share a permutation).  The naive `n!·m!` scan this replaces is kept
//!   in the tests as a cross-check oracle.
//!
//! The special cases recover familiar groups: under the identity
//! adversary every class-preserving `π` works with `ρ = id` (the plain
//! process-symmetry group), and under the Theorem 5 ring assignment
//! `f_i = rot_{i·(m/ℓ)}` the group is the cyclic `Z_ℓ` generated by
//! "shift every process one seat ∘ rotate the registers one step" —
//! orbits today's process-only reduction cannot touch at all, because no
//! two ring processes share a permutation.

use std::collections::{HashMap, HashSet};

use crate::permutation::Permutation;

/// One automorphism of an adversary assignment: the process permutation
/// together with the physical register relabeling it forces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvAutomorphism {
    /// Role map: process `i` moves to position `pi[i]`.
    pub pi: Vec<usize>,
    /// The forced physical relabeling, `ρ = f_{π(i)} ∘ f_i⁻¹`.
    pub rho: Permutation,
}

impl AdvAutomorphism {
    /// `true` for the identity automorphism.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.pi.iter().enumerate().all(|(i, &v)| i == v) && self.rho.is_identity()
    }
}

/// The panics [`adversary_automorphisms`] documents.
fn check_inputs(perms: &[Permutation], class_of: &[Option<u64>]) {
    assert!(!perms.is_empty(), "need at least one process");
    assert_eq!(
        perms.len(),
        class_of.len(),
        "one class token per permutation"
    );
    let m = perms[0].len();
    assert!(
        perms.iter().all(|p| p.len() == m),
        "mismatched permutation sizes"
    );
}

/// Whether `π(i) = j` is admissible class-wise: a process may move onto
/// another only when both declare the same `Some` class token; processes
/// declaring `None` are pinned in place (but `i → i` is always allowed).
fn class_compatible(i: usize, j: usize, class_of: &[Option<u64>]) -> bool {
    i == j || matches!((class_of[i], class_of[j]), (Some(a), Some(b)) if a == b)
}

/// Enumerates every automorphism `(π, ρ)` of the assignment `perms`
/// compatible with the process classes, identity first, in a
/// deterministic order.
///
/// `class_of[i]` is process `i`'s interchangeability token (the model
/// checker passes `Automaton::symmetry_class`): `π` may only map a
/// process onto one with the same `Some` token, and a `None` process is
/// never moved.  The result always contains the identity (at index 0)
/// and is closed under composition and inverse — it is the joint
/// symmetry group the wreath canonicalization quotients by.
///
/// # Panics
///
/// Panics if `perms` is empty, the lengths of `perms` and `class_of`
/// differ, or the permutations have mismatched domain sizes.
#[must_use]
pub fn adversary_automorphisms(
    perms: &[Permutation],
    class_of: &[Option<u64>],
) -> Vec<AdvAutomorphism> {
    check_inputs(perms, class_of);
    let n = perms.len();
    let inv0 = perms[0].inverse();
    let mut out = Vec::new();
    let mut seen_rho: HashSet<Vec<usize>> = HashSet::new();
    for j0 in 0..n {
        if !class_compatible(0, j0, class_of) {
            continue;
        }
        // The image of process 0 forces ρ; equal-permutation candidates
        // force the same ρ and are covered by one backtracking pass.
        let rho = perms[j0].compose(&inv0);
        if !seen_rho.insert(rho.as_slice().to_vec()) {
            continue;
        }
        // ρ determines the admissible images of every process: π(i) must
        // land on a class-compatible process holding exactly ρ ∘ f_i.
        let mut cands: Vec<Vec<usize>> = Vec::with_capacity(n);
        let feasible = (0..n).all(|i| {
            let target = rho.compose(&perms[i]);
            let c: Vec<usize> = (0..n)
                .filter(|&j| class_compatible(i, j, class_of) && perms[j] == target)
                .collect();
            let nonempty = !c.is_empty();
            cands.push(c);
            nonempty
        });
        if !feasible {
            continue;
        }
        let mut pi = vec![usize::MAX; n];
        let mut used = vec![false; n];
        assign(0, &cands, &mut pi, &mut used, &rho, &mut out);
    }
    debug_assert!(
        out.first().is_some_and(AdvAutomorphism::is_identity),
        "the identity automorphism must come first"
    );
    out
}

/// The order of the group [`adversary_automorphisms`] enumerates,
/// counted without enumerating it, saturating at `usize::MAX`.
///
/// Each automorphism is `(π, ρ)` with `ρ = f_{π(0)} ∘ f_0⁻¹`, so the
/// order is a sum over the distinct `ρ` that process 0's admissible
/// images give.  For one `ρ`, `π(i)` must land on a process holding
/// `ρ ∘ f_i`: a `None` process only on itself, a `Some` process on one
/// with the same token.  Keyed by (token, permutation), the processes
/// that need a key and the processes that hold it must be equally many
/// in every key, and the admissible `π` then number `Π k!` over the
/// keys, `k` the processes of each; otherwise none.
///
/// # Panics
///
/// Under the same conditions as [`adversary_automorphisms`].
#[must_use]
pub fn adversary_automorphism_count(perms: &[Permutation], class_of: &[Option<u64>]) -> usize {
    check_inputs(perms, class_of);
    let n = perms.len();
    let inv0 = perms[0].inverse();
    let mut seen_rho: HashSet<Vec<usize>> = HashSet::new();
    let mut order = 0usize;
    for j0 in (0..n).filter(|&j0| class_compatible(0, j0, class_of)) {
        let rho = perms[j0].compose(&inv0);
        if !seen_rho.insert(rho.as_slice().to_vec()) {
            continue;
        }
        let needed: Vec<Permutation> = perms.iter().map(|f| rho.compose(f)).collect();
        // A pinned process must be fixed by ρ.
        if (0..n).any(|i| class_of[i].is_none() && needed[i] != perms[i]) {
            continue;
        }
        // Per (token, permutation): the processes holding it and the
        // processes needing it.
        let mut keys: HashMap<(u64, &[usize]), (usize, usize)> = HashMap::new();
        for i in 0..n {
            if let Some(token) = class_of[i] {
                keys.entry((token, perms[i].as_slice())).or_default().0 += 1;
                keys.entry((token, needed[i].as_slice())).or_default().1 += 1;
            }
        }
        if keys.values().any(|&(held, need)| held != need) {
            continue;
        }
        let matchings = keys
            .values()
            .flat_map(|&(k, _)| 1..=k)
            .try_fold(1usize, usize::checked_mul)
            .unwrap_or(usize::MAX);
        order = order.saturating_add(matchings);
    }
    order
}

/// Backtracks over the residual bijection choices once ρ is fixed
/// (candidate sets only overlap between processes sharing a permutation,
/// so this is a product of small per-duplicate-set matchings).
fn assign(
    i: usize,
    cands: &[Vec<usize>],
    pi: &mut Vec<usize>,
    used: &mut Vec<bool>,
    rho: &Permutation,
    out: &mut Vec<AdvAutomorphism>,
) {
    if i == pi.len() {
        out.push(AdvAutomorphism {
            pi: pi.clone(),
            rho: rho.clone(),
        });
        return;
    }
    for &j in &cands[i] {
        if used[j] {
            continue;
        }
        used[j] = true;
        pi[i] = j;
        assign(i + 1, cands, pi, used, rho, out);
        used[j] = false;
    }
    pi[i] = usize::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use crate::permutation::all_permutations;

    fn all_same_class(n: usize) -> Vec<Option<u64>> {
        vec![Some(7); n]
    }

    /// The naive `n!·m!` oracle the pruned search replaces.
    fn brute_force(
        perms: &[Permutation],
        class_of: &[Option<u64>],
    ) -> Vec<(Vec<usize>, Vec<usize>)> {
        let n = perms.len();
        let m = perms[0].len();
        let mut found = Vec::new();
        for pi in all_permutations(n) {
            if !(0..n).all(|i| class_compatible(i, pi.apply(i), class_of)) {
                continue;
            }
            for rho in all_permutations(m) {
                if (0..n).all(|i| rho.compose(&perms[i]) == perms[pi.apply(i)]) {
                    found.push((pi.as_slice().to_vec(), rho.as_slice().to_vec()));
                }
            }
        }
        found.sort();
        found
    }

    fn as_sorted_pairs(autos: &[AdvAutomorphism]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut v: Vec<_> = autos
            .iter()
            .map(|a| (a.pi.clone(), a.rho.as_slice().to_vec()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn identity_adversary_recovers_the_full_symmetric_group() {
        let perms = Adversary::Identity.permutations(3, 4).unwrap();
        let autos = adversary_automorphisms(&perms, &all_same_class(3));
        assert_eq!(autos.len(), 6, "S_3 with ρ = id");
        assert!(autos[0].is_identity());
        assert!(autos.iter().all(|a| a.rho.is_identity()));
    }

    #[test]
    fn ring_adversary_has_the_cyclic_group() {
        // Theorem 5 ring: f_i = rot_{i·(m/ℓ)} with ℓ = 3, m = 6.
        let perms = Adversary::Ring { ell: 3 }.permutations(3, 6).unwrap();
        let autos = adversary_automorphisms(&perms, &all_same_class(3));
        assert_eq!(autos.len(), 3, "Z_3: shift seats ∘ rotate registers");
        assert!(autos[0].is_identity());
        for a in &autos[1..] {
            assert!(!a.rho.is_identity(), "nontrivial shifts relabel registers");
            // Cyclic shift by c pairs with rotation by c·(m/ℓ).
            let c = a.pi[0];
            assert_eq!(a.pi, vec![c % 3, (c + 1) % 3, (c + 2) % 3]);
            assert_eq!(a.rho, Permutation::rotation(6, c * 2));
        }
    }

    #[test]
    fn rotation_triple_on_three_registers_is_cyclic() {
        // (id, rot1, rot2) over m = 3: the n·stride ≡ 0 (mod m) case.
        let perms = Adversary::Rotations { stride: 1 }
            .permutations(3, 3)
            .unwrap();
        let autos = adversary_automorphisms(&perms, &all_same_class(3));
        assert_eq!(autos.len(), 3);
    }

    #[test]
    fn involution_pair_swaps_with_its_own_relabeling() {
        // (id, h) with h an involution: swap processes, relabel by h.
        let h = Permutation::from_forward(vec![1, 0, 2]).unwrap();
        let perms = vec![Permutation::identity(3), h.clone()];
        let autos = adversary_automorphisms(&perms, &all_same_class(2));
        assert_eq!(autos.len(), 2);
        assert_eq!(autos[1].pi, vec![1, 0]);
        assert_eq!(autos[1].rho, h);
    }

    #[test]
    fn non_involution_pair_is_rigid() {
        // (id, rot1) over m = 3: rot1² ≠ id, so no swap — trivial group.
        let perms = vec![Permutation::identity(3), Permutation::rotation(3, 1)];
        let autos = adversary_automorphisms(&perms, &all_same_class(2));
        assert_eq!(autos.len(), 1);
        assert!(autos[0].is_identity());
    }

    #[test]
    fn opted_out_processes_are_pinned() {
        // Same permutations, but process 1 declares no class: only the
        // identity survives, because nothing may move and ρ = id follows.
        let perms = Adversary::Identity.permutations(3, 3).unwrap();
        let autos = adversary_automorphisms(&perms, &[Some(1), None, Some(1)]);
        assert_eq!(autos.len(), 2, "only 0 ↔ 2 may swap");
        assert!(autos.iter().all(|a| a.pi[1] == 1));
    }

    #[test]
    fn distinct_class_tokens_never_merge() {
        let perms = Adversary::Identity.permutations(2, 3).unwrap();
        let autos = adversary_automorphisms(&perms, &[Some(1), Some(2)]);
        assert_eq!(autos.len(), 1);
    }

    #[test]
    fn matches_the_naive_scan_on_small_domains() {
        // The pruned search must agree with the n!·m! oracle exactly,
        // including duplicate-permutation assignments.
        let cases: Vec<Vec<Permutation>> = vec![
            Adversary::Identity.permutations(3, 3).unwrap(),
            Adversary::Rotations { stride: 1 }
                .permutations(3, 3)
                .unwrap(),
            Adversary::Ring { ell: 2 }.permutations(2, 4).unwrap(),
            vec![
                Permutation::identity(3),
                Permutation::identity(3),
                Permutation::rotation(3, 1),
            ],
            vec![
                Permutation::random(4, 11),
                Permutation::random(4, 22),
                Permutation::random(4, 33),
            ],
        ];
        for perms in cases {
            let classes = all_same_class(perms.len());
            let fast = adversary_automorphisms(&perms, &classes);
            assert_eq!(
                as_sorted_pairs(&fast),
                brute_force(&perms, &classes),
                "mismatch for {perms:?}"
            );
        }
    }

    #[test]
    fn the_count_is_the_enumerations_length() {
        // The oracle's configurations under every class pattern: one
        // token, mixed Some/None, two tokens, everything pinned.
        let cases: Vec<Vec<Permutation>> = vec![
            Adversary::Identity.permutations(3, 3).unwrap(),
            Adversary::Identity.permutations(4, 2).unwrap(),
            Adversary::Rotations { stride: 1 }
                .permutations(3, 3)
                .unwrap(),
            Adversary::Ring { ell: 2 }.permutations(2, 4).unwrap(),
            Adversary::Ring { ell: 3 }.permutations(3, 6).unwrap(),
            vec![
                Permutation::identity(3),
                Permutation::identity(3),
                Permutation::rotation(3, 1),
            ],
            vec![
                Permutation::identity(3),
                Permutation::identity(3),
                Permutation::rotation(3, 1),
                Permutation::rotation(3, 1),
            ],
            vec![
                Permutation::random(4, 11),
                Permutation::random(4, 22),
                Permutation::random(4, 33),
            ],
        ];
        for perms in cases {
            let n = perms.len();
            let patterns: Vec<Vec<Option<u64>>> = vec![
                all_same_class(n),
                (0..n).map(|i| (i != 1).then_some(7)).collect(),
                (0..n).map(|i| (i != 0).then_some(7)).collect(),
                (0..n).map(|i| Some(i as u64 % 2)).collect(),
                vec![None; n],
            ];
            for classes in patterns {
                let enumerated = adversary_automorphisms(&perms, &classes).len();
                assert_eq!(
                    adversary_automorphism_count(&perms, &classes),
                    enumerated,
                    "{perms:?} {classes:?}"
                );
                if perms[0].len() <= 4 {
                    assert_eq!(enumerated, brute_force(&perms, &classes).len());
                }
            }
        }
    }

    #[test]
    fn the_count_does_not_enumerate() {
        // S_10 and S_20 on the identity adversary; S_21's order, 21!,
        // overflows 64 bits and saturates.
        for (n, order) in [(10, 3_628_800), (20, 2_432_902_008_176_640_000)] {
            let perms = Adversary::Identity.permutations(n, 1).unwrap();
            assert_eq!(
                adversary_automorphism_count(&perms, &all_same_class(n)),
                order
            );
        }
        let perms = Adversary::Identity.permutations(21, 1).unwrap();
        assert_eq!(
            adversary_automorphism_count(&perms, &all_same_class(21)),
            usize::MAX
        );
    }

    #[test]
    fn group_is_closed_under_composition_and_inverse() {
        let perms = Adversary::Ring { ell: 3 }.permutations(3, 6).unwrap();
        let autos = adversary_automorphisms(&perms, &all_same_class(3));
        let pis: HashSet<Vec<usize>> = autos.iter().map(|a| a.pi.clone()).collect();
        for a in &autos {
            for b in &autos {
                let comp: Vec<usize> = (0..3).map(|i| a.pi[b.pi[i]]).collect();
                assert!(pis.contains(&comp), "not closed under composition");
            }
            let mut inv = vec![0; 3];
            for (i, &j) in a.pi.iter().enumerate() {
                inv[j] = i;
            }
            assert!(pis.contains(&inv), "not closed under inverse");
        }
    }

    #[test]
    fn rho_is_forced_by_pi() {
        // Every returned pair satisfies the defining equation at every i.
        let perms = vec![
            Permutation::from_forward(vec![1, 2, 0, 3]).unwrap(),
            Permutation::from_forward(vec![2, 0, 1, 3]).unwrap(),
            Permutation::identity(4),
        ];
        let autos = adversary_automorphisms(&perms, &all_same_class(3));
        for a in &autos {
            for i in 0..3 {
                assert_eq!(a.rho.compose(&perms[i]), perms[a.pi[i]]);
            }
        }
    }
}
