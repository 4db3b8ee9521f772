//! P1 — heap allocation in hot loops.
//!
//! PR 6's scratch-reuse work moved every per-pair and per-tile
//! allocation out of the interaction path; this rule locks that in
//! statically. A heap allocation inside code that runs once per pair
//! (or once per tile, or once per step iteration) turns an O(1)
//! amortized cost into allocator traffic on the hottest path in the
//! code — exactly the regression the paper's utilization numbers
//! cannot absorb.
//!
//! Hot contexts:
//!
//! 1. The whole body of `interact` / `interact_pair` / `partial` in any
//!    non-test `SplitKernel` impl (per-pair code).
//! 2. Every loop inside a function whose name starts with
//!    `execute_leaf` (the interaction-tile drivers).
//! 3. Every loop marked with a `// p1: hot-loop` comment on the line of
//!    the loop header or the line above (the driver step loop and any
//!    future hand-annotated hot path), including all nested loops.
//! 4. The whole body of a fn whose definition line (or the line above
//!    it) carries the same marker: a stage the step loop calls, whose
//!    body runs once per step as the loop's own body does.
//!
//! Allocation set: `Vec::new` / `Box::new` / `String::from` /
//! `*::with_capacity` path calls; `push` / `push_back` / `push_front` /
//! `collect` / `to_vec` / `to_string` / `to_owned` / `with_capacity`
//! method calls; `format!` / `vec!` macros.
//!
//! Site suppression: `// p1: allow: <reason>` on the allocation's line
//! or the line above documents a reviewed exception (e.g. a cold error
//! branch inside a hot loop); [`super::run_all`] applies it.
//! `#[cfg(test)]` items and `tests/` / `benches/` trees are exempt.

use crate::ast::{self, Block, Expr, ExprKind};
use crate::context::{near, Context, MarkedLines};
use hacc_telem::diag::{Diagnostic, Rule};

/// Methods that allocate on (or grow) the heap.
const ALLOC_METHODS: [&str; 8] = [
    "push",
    "push_back",
    "push_front",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "with_capacity",
];

/// Container types whose constructors allocate (or may allocate on
/// first growth — flagged all the same: constructing one per pair is
/// the design smell).
const ALLOC_TYPES: [&str; 8] = [
    "Vec", "VecDeque", "Box", "String", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let hot = cx.marked("p1", |rest| rest.starts_with("hot-loop"));
    let mut out = Vec::new();
    for n in cx.cg.nodes.iter().filter(|n| !n.in_test) {
        let Some(body) = &n.def.body else { continue };
        let kernel = n.impl_trait == Some("SplitKernel")
            && matches!(n.name, "interact" | "interact_pair" | "partial");
        if kernel {
            flag_block(n.file, body, "per-pair kernel body", &mut out);
        } else if near(&hot, n.file, n.def.line) {
            flag_block(n.file, body, "`// p1: hot-loop` marked fn", &mut out);
        } else {
            scan_for_hot_loops(n.file, body, n.name, &hot, &mut out);
        }
    }
    out
}

/// Non-kernel function: hot regions are its loops — all of them when
/// the fn is a tile driver (`execute_leaf*`), otherwise just the ones
/// carrying a `// p1: hot-loop` marker.
fn scan_for_hot_loops(
    file: &str,
    body: &Block,
    fn_name: &str,
    hot: &MarkedLines<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let tile_driver = fn_name.starts_with("execute_leaf");
    ast::walk_block(body, &mut |e: &Expr| {
        let loop_body = match &e.kind {
            ExprKind::For { body, .. }
            | ExprKind::While { body, .. }
            | ExprKind::Loop { body } => body,
            _ => return,
        };
        if tile_driver || near(hot, file, e.line) {
            let ctx = if tile_driver {
                "interaction-tile loop"
            } else {
                "`// p1: hot-loop` marked loop"
            };
            // walk_block on the loop body also covers nested loops, so
            // a marked outer loop flags allocations at any depth.
            flag_block(file, loop_body, ctx, out);
        }
    });
}

fn flag_block(file: &str, b: &Block, ctx: &str, out: &mut Vec<Diagnostic>) {
    ast::walk_block(b, &mut |e: &Expr| {
        let what = match &e.kind {
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Path(segs) if segs.len() >= 2 => {
                    let ty = &segs[segs.len() - 2];
                    let m = &segs[segs.len() - 1];
                    let ctor = matches!(m.as_str(), "new" | "with_capacity" | "from");
                    if ctor && ALLOC_TYPES.iter().any(|t| t == ty) {
                        Some(format!("`{ty}::{m}`"))
                    } else {
                        None
                    }
                }
                _ => None,
            },
            ExprKind::MethodCall { method, .. }
                if ALLOC_METHODS.iter().any(|m| m == method) =>
            {
                Some(format!("`.{method}(..)`"))
            }
            ExprKind::Macro { name, .. } if name == "format" || name == "vec" => {
                Some(format!("`{name}!`"))
            }
            _ => None,
        };
        if let Some(what) = what {
            out.push(Diagnostic { witness: Vec::new(),
                file: file.to_string(),
                line: e.line,
                rule: Rule::P1,
                message: format!(
                    "{what} allocates inside a {ctx} — hoist the buffer into reused \
                     scratch, or document the exception with `// p1: allow: <reason>`"
                ),
            });
        }
    });
}
