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
//! * the "lane" loops of `execute_leaf*` tile drivers: the body of
//!   every loop that holds no other loop.
//!
//! Blockers flagged:
//!
//! 1. **Early exit** — `return` / `break` inside the lane region. A
//!    data-dependent exit serializes the loop; hoist it above the loop
//!    or mask the lane instead.
//! 2. **Unguarded indexing** — `xs[i]` where `i` is not a literal, not
//!    a `for`-variable bounded by a literal or `.len()`-derived range,
//!    and no `xs.len()` runs on every path to it — in an earlier
//!    statement of an enclosing block (not inside that statement's
//!    branch arms, loop bodies or closures) or in the head of an
//!    enclosing `if` / `match` / loop. A length test inside one arm of
//!    an earlier `if` guards nothing. Bounds checks the optimizer
//!    cannot discharge keep the loop scalar.
//! 3. **Opaque calls** — a call whose resolved workspace target is
//!    neither `#[inline]` nor leaf-trivial (no loops, no further
//!    workspace calls, small body). Unresolved calls (std, generic
//!    kernel hooks) are assumed inlinable.
//! 4. **Order-dependent accumulation** — `acc += ...` / `acc -= ...`
//!    into a plain local in the lane region. Strict-FP reductions into
//!    a scalar force serial evaluation; the blessed idiom scatters
//!    into the caller-provided accumulator (`out.acc[0] -= s * dx`),
//!    which the executors order deterministically. Locals the typer
//!    types as integers (loop counters) are exempt.
//!
//! Suppression: `// v1: allow: <reason>` on the site line or the line
//! above, applied by [`super::run_all`]. `#[cfg(test)]` items and
//! `tests/` / `benches/` trees are exempt.

use std::collections::BTreeSet;

use crate::ast::{self, is_literal, Block, Expr, ExprKind, Stmt};
use crate::callgraph::CallGraph;
use crate::context::Context;
use crate::index::{Env, FnId, Ty, Typer};
use hacc_telem::diag::{Diagnostic, Rule, WitnessStep};

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let typer = Typer::new(cx.index);
    let mut out = Vec::new();
    for (fid, n) in cx.cg.nodes.iter().enumerate() {
        let kernel = n.impl_trait == Some("SplitKernel")
            && matches!(n.name, "interact" | "interact_pair");
        let region = if kernel {
            format!("per-pair kernel body `{}`", n.name)
        } else if n.name.starts_with("execute_leaf") {
            format!("lane loop of `{}`", n.name)
        } else {
            continue;
        };
        let Some(body) = n.def.body.as_ref().filter(|_| !n.in_test) else { continue };
        let mut walk = Walk {
            cg: &cx.cg,
            fid,
            region,
            bounded: range_bound_vars(body),
            int_locals: int_typed_locals(&typer, body),
            flagged: BTreeSet::new(),
            out: &mut out,
            before: Vec::new(),
            // A kernel body is lane code throughout; a tile driver's lane
            // region is the body of each loop that holds no other loop.
            lane: kernel,
        };
        walk.block(body);
    }
    out
}

/// One function's walk in source order.
struct Walk<'a, 'c> {
    cg: &'c CallGraph<'a>,
    fid: FnId,
    region: String,
    bounded: BTreeSet<String>,
    int_locals: BTreeSet<String>,
    flagged: BTreeSet<(u32, &'static str)>,
    out: &'c mut Vec<Diagnostic>,
    /// What has run on every path to the current expression: earlier
    /// statements of the enclosing blocks and the heads of the enclosing
    /// conditionals and loops.
    before: Vec<&'a Expr>,
    /// Inside the lane region.
    lane: bool,
}

impl<'a> Walk<'a, '_> {
    fn block(&mut self, b: &'a Block) {
        let mark = self.before.len();
        for s in &b.stmts {
            let (Stmt::Let { init: Some(e), .. } | Stmt::Expr(e)) = s else { continue };
            self.expr(e);
            self.before.push(e);
            if let Stmt::Let { els: Some(els), .. } = s {
                self.block(els);
            }
        }
        self.before.truncate(mark);
    }

    /// Walk `e` with `head` counted as run before `then`.
    fn after(&mut self, head: &'a Expr, then: impl FnOnce(&mut Self)) {
        self.expr(head);
        self.before.push(head);
        then(self);
        self.before.pop();
    }

    /// Run `walk` over a loop whose body is `body`: lane code when the
    /// body holds no other loop.
    fn lane_loop(&mut self, body: &'a Block, walk: impl FnOnce(&mut Self)) {
        let outer = self.lane;
        self.lane = outer || !has_loop(body);
        walk(self);
        self.lane = outer;
    }

    fn expr(&mut self, e: &'a Expr) {
        match &e.kind {
            ExprKind::If { cond, then, els } => self.after(cond, |w| {
                w.block(then);
                if let Some(x) = els {
                    w.expr(x);
                }
            }),
            ExprKind::Match { scrutinee, arms } => self.after(scrutinee, |w| {
                for a in arms {
                    match &a.guard {
                        Some(g) => w.after(g, |w| w.expr(&a.body)),
                        None => w.expr(&a.body),
                    }
                }
            }),
            ExprKind::For { iter, body, .. } => {
                self.after(iter, |w| w.lane_loop(body, |w| w.block(body)))
            }
            // A `while` head runs once per iteration: lane code too.
            ExprKind::While { cond, body } => {
                self.lane_loop(body, |w| w.after(cond, |w| w.block(body)))
            }
            ExprKind::Loop { body } => self.lane_loop(body, |w| w.block(body)),
            ExprKind::Block(b) => self.block(b),
            _ => {
                if self.lane {
                    self.check(e);
                }
                ast::for_each_child(e, &mut |c| self.expr(c));
            }
        }
    }

    /// The four blockers, at one lane-region expression.
    fn check(&mut self, e: &'a Expr) {
        let region = &self.region;
        match &e.kind {
            // 1. Early exits.
            ExprKind::Return(_) | ExprKind::Break { .. } => {
                let kw = if matches!(e.kind, ExprKind::Return(_)) { "return" } else { "break" };
                let message = format!(
                    "`{kw}` inside the {region} defeats vectorization — \
                     hoist the exit above the lane loop or mask the lane \
                     (`// v1: allow: <reason>` to justify)"
                );
                self.push(e.line, "exit", message, Vec::new());
            }
            // 2. Unguarded indexing.
            ExprKind::Index { recv, index } if !self.index_is_clean(recv, index) => {
                let message = format!(
                    "bounds-checked index `{}` in the {region} has no \
                     dominating slice-length guard — assert the length \
                     before the loop or use a zipped iterator",
                    render_expr(e)
                );
                self.push(e.line, "index", message, Vec::new());
            }
            // 4. Order-dependent local accumulation.
            ExprKind::Assign { op: Some(op @ (ast::BinOp::Add | ast::BinOp::Sub)), lhs, .. } => {
                if let ExprKind::Path(segs) = &lhs.kind {
                    if segs.len() == 1 && !self.int_locals.contains(&segs[0]) {
                        let message = format!(
                            "order-dependent accumulation `{} {}= ...` into a \
                             local in the {region} — scatter into the \
                             caller-provided accumulator instead",
                            segs[0],
                            if *op == ast::BinOp::Add { "+" } else { "-" },
                        );
                        self.push(e.line, "accum", message, Vec::new());
                    }
                }
            }
            // 3. Opaque calls (resolved workspace targets only).
            ExprKind::Call { .. } | ExprKind::MethodCall { .. } => {
                let (cg, fid) = (self.cg, self.fid);
                let file = cg.nodes[fid].file;
                for site in cg.calls[fid].iter().filter(|s| s.line == e.line) {
                    let t = &cg.nodes[site.callee];
                    if t.def.inline || leaf_trivial(cg, site.callee) {
                        continue;
                    }
                    let witness = vec![
                        WitnessStep {
                            file: file.to_string(),
                            line: e.line,
                            label: format!("call in the {}", self.region),
                        },
                        WitnessStep {
                            file: t.file.to_string(),
                            line: t.def.line,
                            label: format!("`{}` defined without `#[inline]`", t.qual_name()),
                        },
                    ];
                    let message = format!(
                        "`{}` called in the {} is neither \
                         `#[inline]` nor leaf-trivial — the optimizer \
                         cannot vectorize across the call",
                        t.qual_name(),
                        self.region
                    );
                    self.push(e.line, "call", message, witness);
                }
            }
            _ => {}
        }
    }

    fn push(&mut self, line: u32, kind: &'static str, message: String, witness: Vec<WitnessStep>) {
        let file = self.cg.nodes[self.fid].file;
        if !self.flagged.insert((line, kind)) {
            return;
        }
        self.out.push(Diagnostic { file: file.to_string(), line, rule: Rule::V1, message, witness });
    }

    /// Index expressions the optimizer can discharge without a guard: a
    /// literal, a bounded `for` variable, or a slice whose `.len()` has
    /// run on every path here.
    fn index_is_clean(&self, recv: &Expr, index: &Expr) -> bool {
        if is_literal(index) {
            return true;
        }
        if let ExprKind::Path(segs) = &index.kind {
            if segs.len() == 1 && self.bounded.contains(&segs[0]) {
                return true;
            }
        }
        let Some(base) = base_ident(recv) else { return false };
        self.before.iter().any(|e| runs_len_of(e, base))
    }
}

/// Does evaluating `e` always call `.len()` on a projection of `base` —
/// outside branch arms, loop bodies and closures, which may not run?
/// Macro arguments count, so entry asserts like
/// `assert_eq!(xs.len(), ys.len())` do.
fn runs_len_of(e: &Expr, base: &str) -> bool {
    match &e.kind {
        ExprKind::MethodCall { recv, method, .. }
            if method == "len" && base_ident(recv) == Some(base) =>
        {
            true
        }
        ExprKind::If { cond: head, .. }
        | ExprKind::Match { scrutinee: head, .. }
        | ExprKind::For { iter: head, .. }
        | ExprKind::While { cond: head, .. } => runs_len_of(head, base),
        ExprKind::Loop { .. } | ExprKind::Closure { .. } => false,
        _ => {
            let mut hit = false;
            ast::for_each_child(e, &mut |c| hit = hit || runs_len_of(c, base));
            hit
        }
    }
}

/// Does `b` hold a loop at any depth?
fn has_loop(b: &Block) -> bool {
    let mut hit = false;
    ast::walk_block(b, &mut |e: &Expr| {
        hit |= matches!(e.kind, ExprKind::For { .. } | ExprKind::While { .. })
            || matches!(e.kind, ExprKind::Loop { .. });
    });
    hit
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

/// Does this expression contain a `.len()` call?
fn has_len_call(e: &Expr) -> bool {
    let mut hit = false;
    ast::walk_expr(e, &mut |x: &Expr| {
        hit |= matches!(&x.kind, ExprKind::MethodCall { method, .. } if method == "len");
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
                if is_literal(h) || has_len_call(h) {
                    out.insert(v.clone());
                }
            }
        }
    });
    out
}

/// Locals the typer types as integers (loop and eval counters) —
/// exempt from the accumulation check.
fn int_typed_locals(typer: &Typer, body: &Block) -> BTreeSet<String> {
    let mut env = Env::new();
    ast::walk_lets(body, &mut |names, ty, init| typer.bind(&mut env, names, ty, init));
    env.into_iter().filter(|(_, t)| *t == Ty::Int).map(|(name, _)| name).collect()
}

/// A callee the optimizer will fold into the loop even without
/// `#[inline]`: no loops, no further workspace calls, small body.
fn leaf_trivial(cg: &CallGraph<'_>, fid: FnId) -> bool {
    let Some(body) = &cg.nodes[fid].def.body else { return false };
    if !cg.calls[fid].is_empty() {
        return false;
    }
    let mut exprs = 0u32;
    ast::walk_block(body, &mut |_| exprs += 1);
    !has_loop(body) && exprs <= 60
}

/// An expression as a compact stable string for diagnostics.
fn render_expr(e: &Expr) -> String {
    let list = |xs: &[Expr]| xs.iter().map(render_expr).collect::<Vec<_>>().join(",");
    let opt = |x: &Option<Box<Expr>>| x.as_deref().map(render_expr).unwrap_or_default();
    let s = match &e.kind {
        ExprKind::Num { text, .. } => text.clone(),
        ExprKind::Path(segs) => segs.join("::"),
        ExprKind::Unary { op, expr } => format!("{op}{}", render_expr(expr)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("{}{}{}", render_expr(lhs), op.symbol(), render_expr(rhs))
        }
        ExprKind::Call { callee, args } => format!("{}({})", render_expr(callee), list(args)),
        ExprKind::MethodCall { recv, method, args } => {
            format!("{}.{method}({})", render_expr(recv), list(args))
        }
        ExprKind::Field { recv, name } => format!("{}.{name}", render_expr(recv)),
        ExprKind::Index { recv, index } => format!("{}[{}]", render_expr(recv), render_expr(index)),
        ExprKind::Cast { expr, ty } => format!("{} as {}", render_expr(expr), ty.base),
        ExprKind::Range { lo, hi } => format!("{}..{}", opt(lo), opt(hi)),
        ExprKind::Macro { name, .. } => format!("{name}!"),
        _ => "<expr>".to_string(),
    };
    match s.char_indices().nth(160) {
        Some((cut, _)) => format!("{}…", &s[..cut]),
        None => s,
    }
}
