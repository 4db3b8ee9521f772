//! SPMD vocabulary shared by C1 and C2: the collective surface, what
//! makes an expression rank-dependent, and the bottom-up "this function
//! transitively executes a collective" summary both rules read.

use std::collections::BTreeSet;

use crate::ast::{self, Expr, ExprKind};
use crate::context::Context;
use crate::dataflow::solve_summaries;

/// The `hacc_ranks::Comm` collective surface (method names).
const COLLECTIVES: [&str; 10] = [
    "barrier",
    "broadcast",
    "gather",
    "all_gather",
    "all_reduce",
    "all_reduce_f64",
    "all_reduce_sum_u64",
    "exscan_u64",
    "all_to_allv",
    "exchange",
];

/// Identifiers that mark an expression as rank-dependent.
const RANK_IDENTS: [&str; 4] = ["rank", "rank_id", "my_rank", "world_rank"];

/// The collective `e` invokes, when it is a `recv.<collective>(..)` call.
pub fn collective(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::MethodCall { method, .. } if COLLECTIVES.contains(&method.as_str()) => {
            Some(method)
        }
        _ => None,
    }
}

/// Does this expression read a rank identity: a rank identifier in any
/// position — path, field, or method name; exact match, so `per_rank`
/// is not one — or one of the caller's `rank_locals`?
pub fn mentions_rank(e: &Expr, rank_locals: &BTreeSet<String>) -> bool {
    let is_rank = |s: &String| RANK_IDENTS.contains(&s.as_str());
    let mut hit = false;
    ast::walk_expr(e, &mut |x: &Expr| {
        hit |= match &x.kind {
            ExprKind::Path(segs) => segs.iter().any(|s| is_rank(s) || rank_locals.contains(s)),
            ExprKind::MethodCall { method: name, .. } | ExprKind::Field { name, .. } => {
                is_rank(name)
            }
            _ => false,
        }
    });
    hit
}

/// Per call-graph node: does the function execute a collective, itself
/// or through any resolved callee? Test code never does — the hacc-san
/// fixtures wrap collectives on purpose, and their taint must not leak
/// onto production callers.
pub fn reaches_collective(cx: &Context<'_>) -> Vec<bool> {
    let cg = &cx.cg;
    solve_summaries(cg, false, &mut |fid, get| {
        let n = &cg.nodes[fid];
        let Some(body) = n.def.body.as_ref().filter(|_| !n.in_test) else { return false };
        let mut direct = false;
        ast::walk_block(body, &mut |e: &Expr| direct |= collective(e).is_some());
        direct || cg.calls[fid].iter().any(|s| get(s.callee))
    })
}
