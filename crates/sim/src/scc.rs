//! Strongly-connected components over the model checker's state graphs.
//!
//! [`tarjan_sccs`] is an iterative single-pass Tarjan, generic over an
//! implicit successor function: exact, sequential, and deterministic —
//! components are emitted in reverse topological order of a traversal
//! that visits roots and edges in index order.  The result is one flat
//! [`Components`] buffer (members plus end offsets), so a graph of
//! millions of singleton components costs two allocations, not one per
//! component.
//!
//! The model checker calls it through [`tarjan_sccs_csr`] on a dense
//! out-edge table ("CSR" here): a `Vec<u32>` of `n * d` entries where
//! entry `v * d + k` is the target of node `v`'s `k`-th edge, or
//! [`NO_EDGE`] when that edge is filtered out (the fair-livelock pass
//! filters completion edges).  The checker records that table while
//! it explores, so the decomposition steps no automaton.

/// Sentinel for a filtered-out edge slot in the dense out-edge table.
pub const NO_EDGE: u32 = u32::MAX;

/// The components of one decomposition, in emission order, stored
/// flat: every member id in one buffer, plus each component's end
/// offset into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    members: Vec<u32>,
    ends: Vec<u32>,
}

impl Components {
    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the graph had no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The components' member lists, in emission order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.ends.iter().enumerate().map(|(i, &end)| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.members[start as usize..end as usize]
        })
    }
}

/// Iterative Tarjan strongly-connected components over an implicit
/// graph: node `v`'s candidate successors are `succ(v, k)` for
/// `k < out_degree`, with `None` meaning "edge filtered out".
///
/// Returns the components in reverse topological order, each listing
/// its members in the order they leave the Tarjan stack.
pub fn tarjan_sccs(
    n: usize,
    out_degree: usize,
    mut succ: impl FnMut(u32, usize) -> Option<u32>,
) -> Components {
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
    let mut out = Components {
        members: Vec::with_capacity(n),
        ends: Vec::new(),
    };
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
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        out.members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.ends.push(out.members.len() as u32);
                }
            }
        }
    }
    out
}

/// [`tarjan_sccs`] over a dense out-edge table ([`NO_EDGE`]-filtered).
pub fn tarjan_sccs_csr(n: usize, d: usize, succ: &[u32]) -> Components {
    debug_assert_eq!(succ.len(), n * d);
    tarjan_sccs(n, d, |v, k| {
        let w = succ[v as usize * d + k];
        (w != NO_EDGE).then_some(w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalizes a decomposition into a canonical partition.
    fn normalize(sccs: &Components) -> Vec<Vec<u32>> {
        let mut parts: Vec<Vec<u32>> = sccs
            .iter()
            .map(|s| {
                let mut s = s.to_vec();
                s.sort_unstable();
                s
            })
            .collect();
        parts.sort();
        parts
    }

    #[test]
    fn tarjan_handles_simple_graphs() {
        // 0 → 1 → 2 → 0 (one SCC), 3 isolated.
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![0], vec![]];
        let sccs = normalize(&tarjan_sccs(4, 1, |v, k| adj[v as usize].get(k).copied()));
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
    fn components_come_out_in_reverse_topological_order() {
        // 0 → {1, 2} cycle → 3: the sink (3) first, the source (0) last,
        // members in stack-pop order.
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let sccs = tarjan_sccs(4, 2, |v, k| adj[v as usize].get(k).copied());
        let parts: Vec<&[u32]> = sccs.iter().collect();
        assert_eq!(parts, vec![&[3][..], &[2, 1][..], &[0][..]]);
    }

    #[test]
    fn csr_wrapper_filters_no_edge() {
        // 0 → 1, 1 → 0, 2 has only a filtered slot.
        let succ = vec![1, NO_EDGE, 0, NO_EDGE, NO_EDGE, NO_EDGE];
        let sccs = normalize(&tarjan_sccs_csr(3, 2, &succ));
        assert_eq!(sccs, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let sccs = tarjan_sccs_csr(0, 2, &[]);
        assert!(sccs.is_empty());
        assert_eq!(sccs.iter().count(), 0);
    }
}
