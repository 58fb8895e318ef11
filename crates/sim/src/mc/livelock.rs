//! The fair-livelock pass and the SCC-interior queries: Tarjan's
//! decomposition of the edge table exploration recorded, a fairness
//! decision per component on the quotient, and the exact confirmation
//! on a candidate's concrete orbit.

use amx_ids::Slot;

use crate::automaton::{Automaton, Phase};
use crate::encode::EncodeState;
use crate::intern::SpillError;
use crate::scc;

use super::group::{decode_node, encode_node_with, group_tables, GroupTables, SymElem};
use super::level::{EdgeTable, Scratch, Shard};
use super::witness::{render_state, schedule_to_image};
use super::{ModelChecker, SccQueryResult, Verdict};

impl<A: Automaton + Sync> ModelChecker<A>
where
    A::State: EncodeState + Send,
{
    /// Fair-livelock search on the completion-free subgraph.
    ///
    /// Runs over the edge table exploration recorded (`edges`):
    /// Tarjan's decomposition over node ids in breadth-first discovery
    /// order — so the candidate order, and with it the reported
    /// component and witnesses, is the same at every worker count — then
    /// a fairness decision per component.  Nothing is stepped,
    /// canonicalized or looked up here.
    ///
    /// Each component's internal edges (those whose target is in it) are
    /// scanned once without decoding: which positions step, and whether
    /// any edge relabels positions (`σ ≠ id`).  One member is decoded,
    /// for its phases.  When no internal edge relabels, the decision is
    /// exact on the quotient: each position's phase is constant across
    /// the component (a `Progress` edge moves a phase one way only, and
    /// no edge moves it to another position), and its orbit expansion is
    /// `|G|` copies of it with positions renamed, so a concrete fair
    /// component exists exactly when every pending position steps on an
    /// internal edge.  Under [`Symmetry::Off`](super::Symmetry::Off)
    /// this is the per-process check itself.  A component whose edges
    /// relabel takes a cheap
    /// necessary check per symmetry class instead.  Every component that
    /// passes is confirmed on its concrete orbit by
    /// [`Self::confirm_livelock_on_orbit`], the only path that reports a
    /// livelock.
    pub(super) fn find_fair_livelock(
        &self,
        shard: &Shard,
        group: &[SymElem],
        class_of: &[usize],
        edges: &EdgeTable,
        scratch: &mut Scratch<A::State>,
    ) -> Result<Option<(Verdict, Vec<SccQueryResult>)>, SpillError> {
        let n_states = shard.arena.len();
        let n = self.automata.len();
        if n_states == 0 {
            return Ok(None);
        }
        let csr = edges.targets.as_slice();
        debug_assert_eq!(csr.len(), n_states * n, "one edge row per stored state");

        // SCC decomposition over the table (Tarjan emits in reverse
        // topological order).
        let sccs = scc::tarjan_sccs_csr(n_states, n, csr);

        // Component id per node for internal-edge testing.
        let mut comp = vec![u32::MAX; n_states];
        for (cid, members) in sccs.iter().enumerate() {
            for &v in members {
                comp[v as usize] = cid as u32;
            }
        }
        // Built on the first candidate that needs orbit confirmation: a
        // |G|² table, which Ok verdicts on large groups never touch.
        let mut gtab: Option<GroupTables> = None;
        for members in sccs.iter() {
            let cid = comp[members[0] as usize];
            // Internal edges, undecoded.  A singleton without a
            // self-loop — most components on Ok verdicts — has none.
            let (mut steps, mut relabels, mut has_edge) = (0u64, false, false);
            for &v in members {
                let row = v as usize * n;
                for k in 0..n {
                    let w = csr[row + k];
                    if w != scc::NO_EDGE && comp[w as usize] == cid {
                        has_edge = true;
                        steps |= 1 << k;
                        relabels |= edges.sigmas.get(row + k).is_some_and(|&g| g != 0);
                    }
                }
            }
            if !has_edge {
                continue;
            }
            // Phases, off one member: within a completion-free SCC each
            // process's phase is constant up to relabeling (phase changes
            // other than via completions cannot be undone without one).
            scratch.load(shard, members[0])?;
            if scratch.procs.iter().any(|(p, _)| *p == Phase::Cs) {
                // Someone is parked in the CS: the antecedent of
                // deadlock-freedom fails; this is just "the lock is held".
                continue;
            }
            // Positions as bits: `n ≤ 64` (see `with_automata`).
            let pending = (0..n)
                .filter(|&i| matches!(scratch.procs[i].0, Phase::Trying | Phase::Exiting))
                .fold(0u64, |mask, i| mask | 1 << i);
            if pending == 0 {
                continue;
            }
            #[cfg(test)]
            {
                // Every decision is audited against the confirmation.
                let gtab = gtab.get_or_insert_with(|| group_tables(group));
                let confirmed = self.confirm_livelock_on_orbit(
                    shard, group, gtab, members, edges, &comp, cid, scratch,
                )?;
                super::tests::audit_livelock_decision(relabels, pending & !steps == 0, confirmed);
            }
            if relabels {
                // Which symmetry classes step, while pending, inside this
                // component?  The quotient folds interchangeable processes
                // together, so this is only *necessary* for a concrete
                // fair component (every one projects onto a quotient SCC
                // passing it); the confirmation below decides.
                let mut classes = 0u64; // at most n ≤ 64 classes
                for &v in members {
                    scratch.load(shard, v)?;
                    for k in 0..n {
                        let w = csr[v as usize * n + k];
                        if w != scc::NO_EDGE
                            && comp[w as usize] == cid
                            && matches!(scratch.procs[k].0, Phase::Trying | Phase::Exiting)
                        {
                            classes |= 1 << class_of[k];
                        }
                    }
                }
                if (0..n).any(|i| pending & 1 << i != 0 && classes & 1 << class_of[i] == 0) {
                    continue;
                }
            } else if pending & !steps != 0 {
                // Fairness, exact on the quotient: a component where some
                // pending process is starved is an unfair execution and
                // proves nothing.
                continue;
            }
            // Confirm exactly on the concrete orbit of this component
            // (≤ |SCC|·|G| states; the component itself under the
            // trivial group).
            let gtab = gtab.get_or_insert_with(|| group_tables(group));
            if let Some(v) = self.confirm_livelock_on_orbit(
                shard, group, gtab, members, edges, &comp, cid, scratch,
            )? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Expands a candidate quotient SCC into its concrete orbit, finds
    /// the concrete completion-free SCCs inside, and applies the exact
    /// per-process fairness check there.  Returns a concrete witness on
    /// success, entering the first confirmed sub-component at its member
    /// `(v, g)` with the least state id `v`, then the least group element
    /// `g`.
    ///
    /// This is the only path that reports a livelock; under the trivial
    /// group the expansion is the component itself.
    /// [`Self::find_fair_livelock`] calls it only for components that
    /// can be livelocks: those without a relabeling internal edge that
    /// pass the position check (which then always confirm), and those
    /// with one that pass the class-level check.
    ///
    /// Every concrete fair-livelock component is contained in the orbit
    /// expansion of exactly one quotient SCC (projection of a strongly
    /// connected set is strongly connected), so confirming candidates
    /// this way keeps the reduced livelock verdict exact — not just
    /// differential-tested.
    ///
    /// The expansion is walked as `(canonical member, group element)`
    /// pairs using the edge table recorded during exploration: by
    /// equivariance, concrete actor `a` in state `g·ŝ_v` is quotient actor
    /// `g⁻¹(a)` in `ŝ_v`, and with `ŝ_v --k--> t`, `ŝ_w = σ·t` the
    /// successor is `(w, g∘σ⁻¹)` — so no automaton is stepped and no
    /// state is re-encoded here, only table composition.  When a state
    /// has a nontrivial stabilizer, its orbit appears as `|Stab|`
    /// disconnected isomorphic copies; every copy carries the same
    /// fairness structure and the true component size, so the verdict
    /// and `scc_states` are unaffected.
    #[allow(clippy::too_many_arguments)]
    fn confirm_livelock_on_orbit(
        &self,
        shard: &Shard,
        group: &[SymElem],
        gtab: &GroupTables,
        members: &[u32],
        edges: &EdgeTable,
        comp: &[u32],
        cid: u32,
        scratch: &mut Scratch<A::State>,
    ) -> Result<Option<(Verdict, Vec<SccQueryResult>)>, SpillError> {
        let n = self.automata.len();
        let gl = group.len();
        let k_nodes = members.len() * gl;

        // Quotient phases per member, decoded once; the concrete copy
        // `g·ŝ_v` reads its position-`j` phase from position `g⁻¹(j)`.
        let local_of: std::collections::HashMap<u32, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut phases_q: Vec<Phase> = Vec::with_capacity(members.len() * n);
        for &v in members {
            scratch.load(shard, v)?;
            phases_q.extend(scratch.procs.iter().map(|(p, _)| *p));
        }

        // Concrete non-completion adjacency restricted to the expansion
        // (edges leaving it cannot belong to a component inside it).
        let mut adj: Vec<u32> = vec![scc::NO_EDGE; k_nodes * n];
        for (vi, &vm) in members.iter().enumerate() {
            let v = vm as usize;
            for (gi, elem) in group.iter().enumerate() {
                let x = vi * gl + gi;
                let pi_inv = &elem.pi_inv;
                for a in 0..n {
                    let k = pi_inv[a];
                    let w = edges.targets[v * n + k];
                    if w == scc::NO_EDGE || comp[w as usize] != cid {
                        continue;
                    }
                    let wl = local_of[&w] as usize;
                    // The trivial group records no σ: it is the identity.
                    let sigma = edges.sigmas.get(v * n + k).map_or(0, |&g| usize::from(g));
                    let h = gtab.compose[gi * gl + gtab.inv[sigma] as usize] as usize;
                    adj[x * n + a] = (wl * gl + h) as u32;
                }
            }
        }

        let sub_sccs = scc::tarjan_sccs_csr(k_nodes, n, &adj);
        let mut sub_comp = vec![u32::MAX; k_nodes];
        for (sc_id, s) in sub_sccs.iter().enumerate() {
            for &v in s {
                sub_comp[v as usize] = sc_id as u32;
            }
        }
        let phase_at = |x: usize, j: usize| {
            let (vi, gi) = (x / gl, x % gl);
            phases_q[vi * n + group[gi].pi_inv[j]]
        };
        for sub in sub_sccs.iter() {
            let mut actors = vec![false; n];
            let mut has_edge = false;
            for &v in sub {
                for (actor, &w) in adj[v as usize * n..(v as usize + 1) * n].iter().enumerate() {
                    if w != scc::NO_EDGE && sub_comp[w as usize] == sub_comp[v as usize] {
                        actors[actor] = true;
                        has_edge = true;
                    }
                }
            }
            if !has_edge {
                continue;
            }
            let x0 = sub[0] as usize;
            if (0..n).any(|j| phase_at(x0, j) == Phase::Cs) {
                continue;
            }
            let pending: Vec<usize> = (0..n)
                .filter(|&j| matches!(phase_at(x0, j), Phase::Trying | Phase::Exiting))
                .collect();
            if pending.is_empty() || !pending.iter().all(|&i| actors[i]) {
                continue;
            }
            // Concrete fair livelock confirmed.  Its members as `(state
            // id, group element)` pairs, least first: ids are
            // breadth-first discovery order, so the least id is the
            // shallowest, and the witness enters there.
            let mut order: Vec<(u32, usize)> = sub
                .iter()
                .map(|&x| (members[x as usize / gl], x as usize % gl))
                .collect();
            order.sort_unstable();
            let (v, gi) = order[0];
            let witness_schedule = schedule_to_image(shard, group, v, gi);
            // Exact distinct-state count: nontrivial stabilizers make
            // the pair walk cover the concrete component several times
            // over, so dedup by concrete encoding (success path only —
            // at most one confirmation per run reaches this).
            let mut distinct: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
            for &(v, gi) in &order {
                scratch.load(shard, v)?;
                encode_node_with(
                    &group[gi],
                    &scratch.slots,
                    &scratch.procs,
                    &scratch.crashes,
                    &mut scratch.canon.enc,
                );
                distinct.insert(scratch.canon.enc.clone());
            }
            let queries = self.eval_queries_orbit(shard, group, &order, scratch)?;
            // `pending` (from sub[0]) equals the pending set at the entry:
            // phases are constant across a concrete completion-free SCC.
            return Ok(Some((
                Verdict::FairLivelock {
                    pending,
                    scc_states: distinct.len(),
                    witness_schedule,
                },
                queries,
            )));
        }
        Ok(None)
    }

    /// Evaluates the registered [`SccQuery`](super::SccQuery)s over a
    /// confirmed concrete component, given as `(state id, group element)`
    /// pairs in
    /// ascending order.  Orbit-invariant queries decode each distinct
    /// canonical member once, in id order; non-invariant queries
    /// materialize every group image (the symmetry expansion) in pair
    /// order, deduped by concrete encoding so stabilizer copies are not
    /// double-counted.  Each query's witness is the first member it
    /// holds on.
    fn eval_queries_orbit(
        &self,
        shard: &Shard,
        group: &[SymElem],
        order: &[(u32, usize)],
        scratch: &mut Scratch<A::State>,
    ) -> Result<Vec<SccQueryResult>, SpillError> {
        if self.scc_queries.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.automata.len();
        let m = self.mem0.m();
        // Distinct canonical members of the component, ascending.
        let mut canon: Vec<u32> = order.iter().map(|&(v, _)| v).collect();
        canon.dedup();

        let mut results = Vec::with_capacity(self.scc_queries.len());
        for q in &self.scc_queries {
            let mut hits = 0usize;
            let mut examined = 0usize;
            let mut witness: Option<(u32, usize, String)> = None; // (v, gi, render)
            if q.orbit_invariant {
                for &v in &canon {
                    scratch.load(shard, v)?;
                    examined += 1;
                    if (q.eval)(&scratch.slots, &scratch.procs) {
                        hits += 1;
                        if witness.is_none() {
                            witness = Some((v, 0, render_state(&scratch.slots, &scratch.procs)));
                        }
                    }
                }
            } else {
                let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
                let mut slots_img: Vec<Slot> = Vec::new();
                let mut procs_img: Vec<(Phase, A::State)> = Vec::new();
                let mut crashes_img: Vec<u8> = Vec::new();
                for &(v, gi) in order {
                    scratch.load(shard, v)?;
                    encode_node_with(
                        &group[gi],
                        &scratch.slots,
                        &scratch.procs,
                        &scratch.crashes,
                        &mut scratch.canon.enc,
                    );
                    if !seen.insert(scratch.canon.enc.clone()) {
                        continue; // a stabilizer copy of an examined state
                    }
                    decode_node(
                        &scratch.canon.enc,
                        m,
                        n,
                        &mut slots_img,
                        &mut procs_img,
                        &mut crashes_img,
                    );
                    examined += 1;
                    if (q.eval)(&slots_img, &procs_img) {
                        hits += 1;
                        if witness.is_none() {
                            witness = Some((v, gi, render_state(&slots_img, &procs_img)));
                        }
                    }
                }
            }
            // The replay reaches the g-image the predicate was evaluated
            // on (the canonical member itself, for invariant queries).
            let (witness_schedule, witness_state) = match witness {
                None => (None, None),
                Some((v, gi, render)) => {
                    (Some(schedule_to_image(shard, group, v, gi)), Some(render))
                }
            };
            results.push(SccQueryResult {
                name: q.name.clone(),
                states_examined: examined,
                hit_states: hits,
                holds_somewhere: hits > 0,
                holds_everywhere: hits == examined,
                witness_schedule,
                witness_state,
            });
        }
        Ok(results)
    }
}
