//! Bottom-up interprocedural summaries over the call graph.
//!
//! [`solve_summaries`] is the one fixpoint every interprocedural rule
//! shares: C1's reaches-collective bit and E1's panic-surface mask.
//! SCCs are processed
//! callees-first, so a summary is final before any caller reads it no
//! matter how deep the call chain; inside an SCC (mutual recursion) the
//! members are re-evaluated until their summaries stop changing or a
//! round cap trips. Summaries are context-insensitive; rules layer
//! context on where it pays (E1's witness chains).

use crate::callgraph::{CallGraph, FnId};

/// Bottom-up interprocedural summary fixpoint. `compute(fid, get)`
/// produces `fid`'s summary, reading callee summaries through `get`
/// (which returns the current approximation — `initial` on first
/// touch). Members of a cyclic SCC iterate to a local fixpoint with an
/// `8n + 8` round cap.
pub fn solve_summaries<S: Clone + PartialEq>(
    cg: &CallGraph<'_>,
    initial: S,
    compute: &mut dyn FnMut(FnId, &dyn Fn(FnId) -> S) -> S,
) -> Vec<S> {
    let mut summaries = vec![initial; cg.nodes.len()];
    for comp in cg.sccs() {
        let cap = 8 * comp.len() as u32 + 8;
        let mut rounds = 0u32;
        loop {
            let mut changed = false;
            for &fid in &comp {
                let s = compute(fid, &|id: FnId| summaries[id].clone());
                if s != summaries[fid] {
                    summaries[fid] = s;
                    changed = true;
                }
            }
            rounds += 1;
            if !changed || rounds >= cap {
                break;
            }
        }
    }
    summaries
}
