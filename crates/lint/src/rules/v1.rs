//! V1 — hot-tile vectorization blockers.
//!
//! Fig. 2 of the paper: the short-range tiles are 97.7% of
//! time-to-solution, and the ROADMAP item-1 SoA refactor assumes the
//! lane loops stay auto-vectorizable. This rule machine-checks the
//! hygiene that assumption rests on, in the two hot scopes P1 already
//! polices:
//!
//! * the whole body of `interact` / `interact_pair` in a `SplitKernel`
//!   impl (per-pair lane code), and
//! * the *innermost* ("lane") loops of `execute_leaf*` tile drivers.
//!
//! Blockers flagged:
//!
//! 1. **Early exit** — `return` / `break` inside the lane region. A
//!    data-dependent exit serializes the loop; hoist it above the loop
//!    or mask the lane instead.
//! 2. **Unguarded indexing** — `xs[i]` where `i` is not a literal, not
//!    a `for`-variable bounded by a literal or `.len()`-derived range,
//!    and no dominating block asserts/tests `xs.len()`. Bounds checks
//!    the optimizer cannot discharge keep the loop scalar.
//! 3. **Opaque calls** — a call whose resolved workspace target is
//!    neither `#[inline]` nor leaf-trivial (no loops, no further
//!    workspace calls, small body). Unresolved calls (std, generic
//!    kernel hooks) are assumed inlinable.
//! 4. **Order-dependent accumulation** — `acc += ...` / `acc -= ...`
//!    into a plain local in the lane region. Strict-FP reductions into
//!    a scalar force serial evaluation; the blessed idiom scatters
//!    into the caller-provided accumulator (`out.acc[0] -= s * dx`),
//!    which the executors order deterministically. Locals with an
//!    integer type annotation (loop counters) are exempt.
//!
//! Suppression: `// v1: allow: <reason>` on the site line or the line
//! above. `#[cfg(test)]` items and `tests/` / `benches/` trees are
//! exempt.

use std::collections::BTreeSet;

use crate::ast::{self, Block, Expr, ExprKind};
use crate::callgraph::{CallGraph, FnId};
use crate::cfg::{is_literal, lower_fn, render_expr, FnCfg};
use crate::context::{near, Context, MarkedLines};
use hacc_telem::diag::{Diagnostic, Rule, WitnessStep};

/// The scope kind a function is checked under.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// interact / interact_pair: the whole body is the lane region.
    KernelBody,
    /// execute_leaf*: innermost loops are the lane region.
    TileDriver,
}

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let allowed = cx.allowed("v1");
    let mut out = Vec::new();
    for (fid, n) in cx.cg.nodes.iter().enumerate() {
        let kernel = n.impl_trait == Some("SplitKernel")
            && matches!(n.name.as_str(), "interact" | "interact_pair");
        let scope = if kernel {
            Scope::KernelBody
        } else if n.name.starts_with("execute_leaf") {
            Scope::TileDriver
        } else {
            continue;
        };
        if !n.in_test {
            check_fn(&cx.cg, fid, scope, &allowed, &mut out);
        }
    }
    out
}

fn check_fn(
    cg: &CallGraph<'_>,
    fid: FnId,
    scope: Scope,
    allowed: &MarkedLines<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let (file, fd) = (cg.nodes[fid].file, cg.nodes[fid].def);
    let Some(body) = &fd.body else { return };
    let cfg = lower_fn(fd, &|_| false);
    let idom = cfg.dominators();
    let bounded = range_bound_vars(body);
    let int_locals = int_typed_locals(body);

    // Lane region: every block (kernel body) or blocks inside an
    // innermost loop (tile driver).
    let in_region = |b: usize| -> bool {
        match scope {
            Scope::KernelBody => true,
            Scope::TileDriver => cfg.blocks[b]
                .loop_id
                .map(|l| cfg.loops[l].innermost)
                .unwrap_or(false),
        }
    };
    let region_name = match scope {
        Scope::KernelBody => format!("per-pair kernel body `{}`", fd.name),
        Scope::TileDriver => format!("lane loop of `{}`", fd.name),
    };

    let mut flagged: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    for (b, bb) in cfg.blocks.iter().enumerate() {
        if !in_region(b) {
            continue;
        }
        for &ev in &bb.events {
            // 1. Early exits.
            let exit = match &ev.kind {
                ExprKind::Return(_) => Some("return"),
                ExprKind::Break { .. } => Some("break"),
                _ => None,
            };
            if let Some(kw) = exit {
                push_once(
                    file, ev.line, &mut flagged, "exit", allowed, out,
                    format!(
                        "`{kw}` inside the {region_name} defeats vectorization — \
                         hoist the exit above the lane loop or mask the lane \
                         (`// v1: allow: <reason>` to justify)"
                    ),
                    Vec::new(),
                );
            }
            ast::walk_expr(ev, &mut |e: &Expr| {
                match &e.kind {
                    // 2. Unguarded indexing.
                    ExprKind::Index { recv, index } => {
                        if index_is_clean(recv, index, &bounded, &cfg, &idom, b) {
                            return;
                        }
                        push_once(
                            file, e.line, &mut flagged, "index", allowed, out,
                            format!(
                                "bounds-checked index `{}` in the {region_name} has no \
                                 dominating slice-length guard — assert the length \
                                 before the loop or use a zipped iterator",
                                render_expr(e)
                            ),
                            Vec::new(),
                        );
                    }
                    // 4. Order-dependent local accumulation.
                    ExprKind::Assign { op: Some(op), lhs, .. }
                        if matches!(op, ast::BinOp::Add | ast::BinOp::Sub) =>
                    {
                        if let ExprKind::Path(segs) = &lhs.kind {
                            if segs.len() == 1 && !int_locals.contains(&segs[0]) {
                                push_once(
                                    file, e.line, &mut flagged, "accum", allowed, out,
                                    format!(
                                        "order-dependent accumulation `{} {}= ...` into a \
                                         local in the {region_name} — scatter into the \
                                         caller-provided accumulator instead",
                                        segs[0],
                                        if *op == ast::BinOp::Add { "+" } else { "-" },
                                    ),
                                    Vec::new(),
                                );
                            }
                        }
                    }
                    // 3. Opaque calls (resolved workspace targets only).
                    ExprKind::Call { .. } | ExprKind::MethodCall { .. } => {
                        for site in &cg.calls[fid] {
                            if site.line != e.line {
                                continue;
                            }
                            let t = &cg.nodes[site.callee];
                            if t.def.inline || leaf_trivial(cg, site.callee) {
                                continue;
                            }
                            let witness = vec![
                                WitnessStep {
                                    file: file.to_string(),
                                    line: e.line,
                                    label: format!("call in the {region_name}"),
                                },
                                WitnessStep {
                                    file: t.file.to_string(),
                                    line: t.def.line,
                                    label: format!(
                                        "`{}` defined without `#[inline]`",
                                        t.qual_name()
                                    ),
                                },
                            ];
                            push_once(
                                file, e.line, &mut flagged, "call", allowed, out,
                                format!(
                                    "`{}` called in the {region_name} is neither \
                                     `#[inline]` nor leaf-trivial — the optimizer \
                                     cannot vectorize across the call",
                                    t.qual_name()
                                ),
                                witness,
                            );
                        }
                    }
                    _ => {}
                }
            });
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_once(
    file: &str,
    line: u32,
    flagged: &mut BTreeSet<(u32, &'static str)>,
    kind: &'static str,
    allowed: &MarkedLines<'_>,
    out: &mut Vec<Diagnostic>,
    message: String,
    witness: Vec<WitnessStep>,
) {
    if near(allowed, file, line) || !flagged.insert((line, kind)) {
        return;
    }
    out.push(Diagnostic { file: file.to_string(), line, rule: Rule::V1, message, witness });
}

/// Index expressions the optimizer can discharge without a guard.
fn index_is_clean(
    recv: &Expr,
    index: &Expr,
    bounded: &BTreeSet<String>,
    cfg: &FnCfg<'_>,
    idom: &[Option<usize>],
    block: usize,
) -> bool {
    if is_literal(index) {
        return true;
    }
    if let ExprKind::Path(segs) = &index.kind {
        if segs.len() == 1 && bounded.contains(&segs[0]) {
            return true;
        }
    }
    // Dominating guard: some dominating block's events mention
    // `<recv base>.len()` (an assert or an if-test).
    let Some(base) = base_ident(recv) else { return false };
    let mut cur = block;
    let mut hops = 0;
    loop {
        if cfg.blocks[cur].events.iter().any(|ev| has_len_call(ev, Some(base))) {
            return true;
        }
        match idom.get(cur).copied().flatten() {
            Some(p) if p != cur => cur = p,
            _ => return false,
        }
        hops += 1;
        if hops > 512 {
            return false;
        }
    }
}

/// Leftmost path identifier under field/index/deref projections.
fn base_ident(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(segs) => segs.first().map(|s| s.as_str()),
        ExprKind::Field { recv, .. } | ExprKind::Index { recv, .. } => base_ident(recv),
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => base_ident(expr),
        _ => None,
    }
}

/// Does this expression contain a `.len()` call — on a projection of
/// `base` when one is given? Macro arguments are walked, so entry
/// asserts like `assert_eq!(xs.len(), ys.len())` count.
fn has_len_call(e: &Expr, base: Option<&str>) -> bool {
    let mut hit = false;
    ast::walk_expr(e, &mut |x: &Expr| {
        if let ExprKind::MethodCall { recv, method, .. } = &x.kind {
            hit |= method == "len" && (base.is_none() || base_ident(recv) == base);
        }
    });
    hit
}

/// `for`-variables whose range is literal-bounded or `.len()`-derived
/// (`for d in 0..3`, `for i in 0..xs.len()`), including through
/// `.step_by(..)` / `.rev()` adapters.
fn range_bound_vars(body: &Block) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    ast::walk_block(body, &mut |e: &Expr| {
        if let ExprKind::For { var: Some(v), iter, .. } = &e.kind {
            let mut it: &Expr = iter;
            while let ExprKind::MethodCall { recv, .. } = &it.kind {
                it = recv;
            }
            if let ExprKind::Range { hi: Some(h), .. } = &it.kind {
                if is_literal(h) || has_len_call(h, None) {
                    out.insert(v.clone());
                }
            }
        }
    });
    out
}

/// Locals that are integers by annotation, literal, or cast (loop/eval
/// counters) — exempt from the accumulation check.
fn int_typed_locals(body: &Block) -> BTreeSet<String> {
    const INT_TYPES: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let mut out = BTreeSet::new();
    ast::walk_lets(body, &mut |names, ty, init| {
        let is_int = match (ty, init.map(|e| &e.kind)) {
            (Some(t), _) | (None, Some(ExprKind::Cast { ty: t, .. })) => {
                INT_TYPES.contains(&t.base.as_str())
            }
            (None, Some(ExprKind::Num { is_float, .. })) => !is_float,
            _ => false,
        };
        if is_int {
            out.extend(names.iter().cloned());
        }
    });
    out
}

/// A callee the optimizer will fold into the loop even without
/// `#[inline]`: no loops, no further workspace calls, small body.
fn leaf_trivial(cg: &CallGraph<'_>, fid: FnId) -> bool {
    let Some(body) = &cg.nodes[fid].def.body else { return false };
    if !cg.calls[fid].is_empty() {
        return false;
    }
    let mut exprs = 0u32;
    let mut loops = false;
    ast::walk_block(body, &mut |e: &Expr| {
        exprs += 1;
        if matches!(
            e.kind,
            ExprKind::For { .. } | ExprKind::While { .. } | ExprKind::Loop { .. }
        ) {
            loops = true;
        }
    });
    !loops && exprs <= 60
}
