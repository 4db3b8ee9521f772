//! C1 — SPMD collective consistency.
//!
//! Every rank of an SPMD program must execute the same sequence of
//! collectives; a collective reached by some ranks and not others
//! deadlocks the job (at production scale: 72,000 ranks hang until the
//! scheduler kills them). The classic way to write that bug is
//!
//! ```text
//! if comm.rank() == 0 {
//!     let total = comm.all_reduce_sum_u64(n);   // ranks 1.. never enter
//! }
//! ```
//!
//! This rule walks every production function body and flags a
//! `Communicator` collective call that is lexically inside an
//! `if`/`while`/`match` whose guard mentions a rank identity (`rank`,
//! `rank_id`, `my_rank`, `world_rank` as exact identifiers — which
//! includes any `.rank()` method call). `else` branches and every
//! `match` arm of such a conditional are equally rank-dependent and
//! inherit the taint; a rank-dependent arm guard (`_ if rank == 0 =>`)
//! taints its own arm.
//!
//! The check is *interprocedural*: a rank-guarded call whose resolved
//! targets all transitively execute a collective (the shared
//! [`spmd::reaches_collective`](super::spmd::reaches_collective)
//! summary over the workspace call graph) is exactly as deadlock-prone
//! as the inlined collective, so it fires the same rule:
//!
//! ```text
//! fn sync_all(comm: &Comm) { comm.barrier(); }
//! if comm.rank() == 0 { sync_all(comm); }      // C1 — wrapped deadlock
//! ```
//!
//! Call resolution is the call graph's: a `merge` on a `Timers` stays
//! quiet while a `merge` on a type whose method reduces across ranks is
//! caught. A call the graph cannot resolve (an inferred-type local, a
//! generic receiver) is judged by name instead: it fires when every
//! production definition of that name in the workspace reaches a
//! collective, so dedicated wrappers are caught wherever they are
//! called from and common names with one collective-bearing overload
//! among many stay quiet.
//!
//! Guard tracking is lexical: it follows the expression tree, not
//! control flow, so a call whose *execution* is rank-uniform but whose
//! *text* sits under a rank guard still fires. That is the right
//! default for a deadlock class — suppress the rare intentional case in
//! `lint.allow` with a justification explaining why every rank reaches
//! the call. C2 is the path-sensitive refinement, but it reports once
//! per function and stops enumerating at 64 paths; C1 reports every
//! site and has no cap, so it stays as the backstop.
//!
//! Test code is exempt: the seeded-violation fixtures for the hacc-san
//! dynamic sanitizer *deliberately* place collectives under rank guards,
//! and divergent collectives in tests are caught at runtime by the
//! sanitizer's ledger/deadlock checks (the tier-4 `HACC_SAN=1` gate)
//! rather than lexically.

use std::collections::BTreeSet;

use super::spmd::{collective, mentions_rank};
use crate::ast::{self, Expr, ExprKind};
use crate::callgraph::FnId;
use crate::context::Context;
use hacc_telem::diag::{Diagnostic, Rule};

pub fn run(cx: &Context<'_>, reaches: &[bool]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fid, n) in cx.cg.nodes.iter().enumerate() {
        if let Some(body) = n.def.body.as_ref().filter(|_| !n.in_test) {
            ast::block_exprs(body, &mut |e| scan(cx, reaches, fid, e, false, &mut out));
        }
    }
    out
}

/// Walk `e`; `guarded` is true inside the body of a rank-dependent
/// conditional (or anything nested in one).
fn scan(
    cx: &Context<'_>,
    reaches: &[bool],
    fid: FnId,
    e: &Expr,
    guarded: bool,
    out: &mut Vec<Diagnostic>,
) {
    if guarded {
        check_call(cx, reaches, fid, e, out);
    }
    let rank = |h: &Expr| mentions_rank(h, &BTreeSet::new());
    let mut go = |c: &Expr, g: bool| scan(cx, reaches, fid, c, g, out);
    // A conditional's head is evaluated by every rank that reaches it;
    // only what it controls inherits the taint.
    match &e.kind {
        ExprKind::Match { scrutinee, arms } => {
            go(scrutinee, guarded);
            let inner = guarded || rank(scrutinee);
            for a in arms {
                a.guard.iter().for_each(|g| go(g, inner));
                go(&a.body, inner || a.guard.as_ref().is_some_and(rank));
            }
        }
        ExprKind::If { cond: head, .. } | ExprKind::While { cond: head, .. } => {
            let inner = guarded || rank(head);
            let taint = |c: &Expr| if std::ptr::eq(&**head, c) { guarded } else { inner };
            ast::for_each_child(e, &mut |c| go(c, taint(c)));
        }
        _ => ast::for_each_child(e, &mut |c| go(c, guarded)),
    }
}

fn check_call(cx: &Context<'_>, reaches: &[bool], fid: FnId, e: &Expr, out: &mut Vec<Diagnostic>) {
    let name = match &e.kind {
        ExprKind::MethodCall { method, .. } => method,
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) if !segs.is_empty() => &segs[segs.len() - 1],
            _ => return,
        },
        _ => return,
    };
    let message = if collective(e).is_some() {
        format!(
            "collective `{name}` inside a rank-dependent conditional: ranks \
             that skip the branch never enter the collective (SPMD \
             deadlock); hoist it out or make the guard rank-uniform"
        )
    } else {
        // A helper that transitively performs a collective, called
        // under the same rank guard — the wrapped form of the same
        // deadlock. The candidates are the call's resolved targets, or
        // every production definition of the name when the graph has no
        // edge for it; the call is tainted only when *all* reach one.
        let nodes = &cx.cg.nodes;
        let mut targets: Vec<FnId> = cx.cg.callees_at(fid, e.line, name).collect();
        if targets.is_empty() {
            let by_name = |t: &FnId| nodes[*t].name == *name && !nodes[*t].in_test;
            targets = (0..nodes.len()).filter(by_name).collect();
        }
        if targets.is_empty() || !targets.iter().all(|&t| reaches[t]) {
            return;
        }
        format!(
            "call to `{name}` inside a rank-dependent conditional: every \
             definition `{name}` can resolve to transitively executes a \
             collective, so ranks that skip the branch never enter it (SPMD \
             deadlock); hoist the call out or make the guard rank-uniform"
        )
    };
    out.push(Diagnostic {
        witness: Vec::new(),
        file: cx.cg.nodes[fid].file.to_string(),
        line: e.line,
        rule: Rule::C1,
        message,
    });
}
