//! Witness schedules: parent chains out of the BFS metadata, mapped
//! back to concrete schedules through the recorded group elements, and
//! the monitor results built from them.

use amx_ids::Slot;

use crate::automaton::{Automaton, Phase};

use super::group::SymElem;
use super::level::{MonitorHit, Shard};
use super::{ModelChecker, MonitorResult, CRASH_ACTOR};

impl<A: Automaton> ModelChecker<A> {
    /// Turns the accumulated [`MonitorHit`]s into reportable results,
    /// reconstructing a shortest witness schedule for each monitor that
    /// hit at least one state.
    pub(super) fn monitor_results(
        &self,
        shard: &Shard,
        group: &[SymElem],
        hits: &[MonitorHit],
    ) -> Vec<MonitorResult> {
        self.monitors
            .iter()
            .zip(hits)
            .map(|(mon, hit)| MonitorResult {
                name: mon.name.clone(),
                hit_states: hit.count,
                witness_schedule: hit.best.map(|(_, node)| {
                    let chain = chain_from_root(shard, node);
                    concretize(group, &chain).0
                }),
            })
            .collect()
    }
}

/// Renders a decoded node for humans: physical slot owners (raw
/// identity tokens, `⊥` for free) plus each process's phase and state.
pub(super) fn render_state<S: std::fmt::Debug>(slots: &[Slot], procs: &[(Phase, S)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("slots[");
    for (i, s) in slots.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match s.pid() {
            None => out.push('⊥'),
            Some(p) => {
                let _ = write!(out, "{}", p.to_raw());
            }
        }
    }
    out.push_str("] procs[");
    for (i, (phase, st)) in procs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "p{i}:{phase:?}:{st:?}");
    }
    out.push(']');
    out
}

/// The BFS-tree edges from the root to `target`, in root-first order.
pub(super) fn chain_from_root(shard: &Shard, mut cur: u32) -> Vec<(usize, u16)> {
    let mut rev = Vec::new();
    loop {
        let meta = shard.meta[cur as usize];
        if meta.parent == u32::MAX {
            break;
        }
        rev.push((meta.actor as usize, meta.sigma));
        cur = meta.parent;
    }
    rev.reverse();
    rev
}

/// Maps a quotient tree path to a concrete schedule.
///
/// Walking the quotient, each tree edge `(i_k, σ_k)` means "step
/// quotient actor `i_k`, then canonicalize by `σ_k`".  Maintaining the
/// accumulated permutation `τ_k = σ_k ∘ τ_{k-1}` (with `τ` mapping the
/// concrete replay state onto the canonical representative), the
/// concrete actor to schedule is `τ_{k-1}⁻¹(i_k)`.  Returns the
/// concrete schedule plus the final `τ` and `τ⁻¹` (to map process
/// indices between the canonical target and the concrete replay).
pub(super) fn concretize(
    group: &[SymElem],
    chain: &[(usize, u16)],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = group[0].pi.len();
    let mut tau: Vec<usize> = (0..n).collect();
    let mut tau_inv: Vec<usize> = (0..n).collect();
    let mut schedule = Vec::with_capacity(chain.len());
    for &(actor, sigma) in chain {
        if actor >= usize::from(CRASH_ACTOR) {
            // A crash edge: schedule entry `n + i` = "process i
            // crashes" (see the Verdict docs).
            schedule.push(n + tau_inv[actor & !usize::from(CRASH_ACTOR)]);
        } else {
            schedule.push(tau_inv[actor]);
        }
        let pi = &group[sigma as usize].pi;
        for t in &mut tau {
            *t = pi[*t];
        }
        for (j, &t) in tau.iter().enumerate() {
            tau_inv[t] = j;
        }
    }
    (schedule, tau, tau_inv)
}

/// A concrete schedule from the initial state to the image `g·ŝ_v` of
/// stored state `v` under group element `gi`.  The quotient chain
/// reaches a concrete state `u` with `τ·u = ŝ_v`; the relabeling
/// `h = g ∘ τ` is a graph automorphism fixing the initial state, so
/// mapping every scheduled actor through `h` turns the chain into a
/// schedule reaching `h·u = g·ŝ_v`.  Crash entries (`a ≥ n`) relabel
/// the crashed process the same way normal entries relabel the stepped
/// one.
pub(super) fn schedule_to_image(shard: &Shard, group: &[SymElem], v: u32, gi: usize) -> Vec<usize> {
    let n = group[0].pi.len();
    let (schedule_u, tau, _) = concretize(group, &chain_from_root(shard, v));
    let g_pi = &group[gi].pi;
    schedule_u
        .into_iter()
        .map(|a| {
            if a >= n {
                n + g_pi[tau[a - n]]
            } else {
                g_pi[tau[a]]
            }
        })
        .collect()
}
