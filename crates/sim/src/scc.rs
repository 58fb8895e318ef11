//! Strongly-connected components over the model checker's state graphs.
//!
//! [`tarjan_sccs`] is an iterative single-pass Tarjan, generic over an
//! implicit successor function: exact, sequential, and deterministic —
//! components are emitted in reverse topological order of a traversal
//! that visits roots and edges in index order.
//!
//! The model checker calls it through [`tarjan_sccs_csr`] on a dense
//! out-edge table ("CSR" here): a `Vec<u32>` of `n * d` entries where
//! entry `v * d + k` is the target of node `v`'s `k`-th edge, or
//! [`NO_EDGE`] when that edge is filtered out (the fair-livelock pass
//! filters completion edges).  The caller builds the table once —
//! regenerating each successor from interned bytes exactly once —
//! instead of paying the regeneration on every algorithmic probe.

/// Sentinel for a filtered-out edge slot in the dense out-edge table.
pub const NO_EDGE: u32 = u32::MAX;

/// Iterative Tarjan strongly-connected components over an implicit
/// graph: node `v`'s candidate successors are `succ(v, k)` for
/// `k < out_degree`, with `None` meaning "edge filtered out".
///
/// Returns the list of components, each a list of node ids, in reverse
/// topological order.
pub fn tarjan_sccs(
    n: usize,
    out_degree: usize,
    mut succ: impl FnMut(u32, usize) -> Option<u32>,
) -> Vec<Vec<u32>> {
    #[derive(Clone, Copy)]
    struct Frame {
        v: u32,
        edge: usize,
    }

    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<u32>> = Vec::new();
    let mut call_stack: Vec<Frame> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        call_stack.push(Frame { v: root, edge: 0 });
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(frame) = call_stack.last_mut() {
            let v = frame.v;
            if frame.edge < out_degree {
                let k = frame.edge;
                frame.edge += 1;
                let Some(w) = succ(v, k) else { continue };
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call_stack.push(Frame { v: w, edge: 0 });
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                call_stack.pop();
                if let Some(parent_frame) = call_stack.last() {
                    let p = parent_frame.v;
                    lowlink[p as usize] = lowlink[p as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// [`tarjan_sccs`] over a dense out-edge table ([`NO_EDGE`]-filtered).
pub fn tarjan_sccs_csr(n: usize, d: usize, succ: &[u32]) -> Vec<Vec<u32>> {
    debug_assert_eq!(succ.len(), n * d);
    tarjan_sccs(n, d, |v, k| {
        let w = succ[v as usize * d + k];
        (w != NO_EDGE).then_some(w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalizes a component list into a canonical partition.
    fn normalize(mut sccs: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
        for s in &mut sccs {
            s.sort_unstable();
        }
        sccs.sort();
        sccs
    }

    #[test]
    fn tarjan_handles_simple_graphs() {
        // 0 → 1 → 2 → 0 (one SCC), 3 isolated.
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![0], vec![]];
        let sccs = normalize(tarjan_sccs(4, 1, |v, k| adj[v as usize].get(k).copied()));
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
    }

    #[test]
    fn tarjan_chain_has_singleton_components() {
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![]];
        let sccs = tarjan_sccs(3, 1, |v, k| adj[v as usize].get(k).copied());
        assert_eq!(sccs.len(), 3);
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn csr_wrapper_filters_no_edge() {
        // 0 → 1, 1 → 0, 2 has only a filtered slot.
        let succ = vec![1, NO_EDGE, 0, NO_EDGE, NO_EDGE, NO_EDGE];
        let sccs = normalize(tarjan_sccs_csr(3, 2, &succ));
        assert_eq!(sccs, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn empty_graph_is_fine() {
        assert!(tarjan_sccs_csr(0, 2, &[]).is_empty());
    }
}
