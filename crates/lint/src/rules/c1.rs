//! C1 — SPMD collective consistency.
//!
//! Every rank of an SPMD program must execute the same sequence of
//! collectives; a collective reached by some ranks and not others
//! deadlocks the job (at production scale: 72,000 ranks hang until the
//! scheduler kills them). The rule walks every production function body
//! and flags a `Comm` collective that is lexically inside an
//! `if`/`while`/`match` whose guard mentions a rank identity, or that
//! follows a rank-guarded exit:
//!
//! ```text
//! if comm.rank() == 0 { comm.all_reduce_sum_u64(n); }  // ranks 1.. never enter
//! let me = comm.rank();
//! if me != 0 { return; }
//! comm.barrier();                                      // rank 0 alone
//! ```
//!
//! A rank identity is `rank`, `rank_id`, `my_rank` or `world_rank` as an
//! exact identifier (any `.rank()` call included), or a local of the same
//! body assigned from one (one propagation round, so `let lead = me ==
//! 0;` counts too). `else` branches and every arm of a rank-dependent
//! conditional inherit the taint; a rank-dependent arm guard taints its
//! own arm. A `return` or panic-family macro under a rank guard taints
//! the rest of the function or closure body it leaves; a `break` /
//! `continue` the rest of the loop it leaves — the innermost, or for `'l`
//! the loop or block labeled `'l`. An exit inside a closure never taints
//! the code around the closure.
//!
//! The check is *interprocedural*: a rank-guarded call whose resolved
//! targets all transitively execute a collective (the bottom-up
//! [`reaches_collective`] summary over the workspace call graph) fires
//! the same rule (`if me == 0 { sync_all(comm); }`). A call the graph
//! cannot resolve (an inferred-type local, a generic receiver) fires when
//! every production definition of that name reaches a collective, so
//! dedicated wrappers are caught and common names with one
//! collective-bearing overload among many stay quiet.
//!
//! Guard tracking is lexical, not control flow: a call whose *execution*
//! is rank-uniform but whose *text* sits under a rank guard still fires —
//! the right default for a deadlock class; suppress the rare intentional
//! case with a `// c1: allow: <reason>` marker. Every site is reported.
//! Test code is exempt: the hacc-san fixtures place collectives under
//! rank guards on purpose, and the tier-4 `HACC_SAN=1` gate catches
//! divergent collectives in tests at runtime.

use std::collections::BTreeSet;

use crate::ast::{self, Block, Expr, ExprKind};
use crate::context::Context;
use crate::index::FnId;
use hacc_telem::diag::{Diagnostic, Rule};

/// The `hacc_ranks::Comm` collective surface (method names).
const COLLECTIVES: [&str; 10] = [
    "barrier", "broadcast", "gather", "all_gather", "all_reduce", "all_reduce_f64",
    "all_reduce_sum_u64", "exscan_u64", "all_to_allv", "exchange",
];

/// Identifiers that mark an expression as rank-dependent.
const RANK_IDENTS: [&str; 4] = ["rank", "rank_id", "my_rank", "world_rank"];

/// Does `e` invoke a collective: a `recv.<collective>(..)` call?
fn is_collective(e: &Expr) -> bool {
    matches!(&e.kind, ExprKind::MethodCall { method, .. } if COLLECTIVES.contains(&method.as_str()))
}

/// Does this expression read a rank identity: a rank identifier in any
/// position — path, field, or method name; exact match, so `per_rank`
/// is not one — or one of the body's `rank_locals`?
fn mentions_rank(e: &Expr, rank_locals: &BTreeSet<String>) -> bool {
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

/// Locals assigned from a rank expression anywhere in the body, closures
/// included (one propagation round: `let me = comm.rank(); let lead =
/// me == 0;`).
fn rank_locals(body: &Block) -> BTreeSet<String> {
    let mut locals = BTreeSet::new();
    for _ in 0..2 {
        let mut next = locals.clone();
        ast::walk_lets(body, &mut |names, _, init| {
            if init.is_some_and(|e| mentions_rank(e, &locals)) {
                next.extend(names.iter().cloned());
            }
        });
        if next.len() == locals.len() {
            break;
        }
        locals = next;
    }
    locals
}

/// Per call-graph node: does the function execute a collective, itself
/// or through any resolved callee? Test code never does — the hacc-san
/// fixtures wrap collectives on purpose, and their taint must not leak
/// onto production callers.
fn reaches_collective(cx: &Context<'_>) -> Vec<bool> {
    let cg = &cx.cg;
    cg.solve_summaries(false, &mut |fid, get| {
        let n = &cg.nodes[fid];
        let Some(body) = n.def.body.as_ref().filter(|_| !n.in_test) else { return false };
        let mut direct = false;
        ast::walk_block(body, &mut |e: &Expr| direct |= is_collective(e));
        direct || cg.calls[fid].iter().any(|s| get(s.callee))
    })
}

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let reaches = reaches_collective(cx);
    let mut out = Vec::new();
    for (fid, n) in cx.cg.nodes.iter().enumerate() {
        if let Some(body) = n.def.body.as_ref().filter(|_| !n.in_test) {
            let locals = rank_locals(body);
            let mut scan = Scan {
                cx,
                reaches: &reaches,
                fid,
                locals: &locals,
                frames: Vec::new(),
                out: &mut out,
            };
            scan.seq(false, &mut |f| ast::block_exprs(body, f));
        }
    }
    out
}

/// How far a rank-guarded exit reaches past its own statement: the
/// depth in [`Scan::frames`] of the frame it leaves (1 is the
/// outermost), [`BODY`] for the whole function or closure body, or
/// [`NO_EXIT`]. Smaller reaches further, so exits combine by `min`.
type Exit = usize;
const BODY: Exit = 0;
const NO_EXIT: Exit = usize::MAX;

/// A sequence of expressions, handed out one by one: `ast::block_exprs`
/// or `ast::for_each_child` bound to its node.
type Each<'e, 'f> = &'f mut dyn FnMut(&mut dyn FnMut(&'e Expr));

struct Scan<'a, 'c> {
    cx: &'c Context<'a>,
    reaches: &'c [bool],
    fid: FnId,
    locals: &'c BTreeSet<String>,
    /// The loops and labeled expressions enclosing the walk, innermost
    /// last: `None` a loop, `Some(l)` an expression labeled `'l`.
    frames: Vec<Option<String>>,
    out: &'c mut Vec<Diagnostic>,
}

impl Scan<'_, '_> {
    /// Scan a sequence of expressions (a block's statements, in order):
    /// everything after a rank-guarded exit is tainted.
    fn seq<'e>(&mut self, guarded: bool, each: Each<'e, '_>) -> Exit {
        let mut exit = NO_EXIT;
        each(&mut |c| {
            let e = self.expr(c, guarded || exit != NO_EXIT);
            exit = exit.min(e);
        });
        exit
    }

    /// Walk `body` inside a new innermost frame; the exits that leave
    /// exactly this frame end their taint here.
    fn frame(&mut self, label: Option<String>, body: &mut dyn FnMut(&mut Self) -> Exit) -> Exit {
        self.frames.push(label);
        let depth = self.frames.len();
        let exit = body(self);
        self.frames.pop();
        if exit == depth { NO_EXIT } else { exit }
    }

    /// Walk `e`; `guarded` is true inside the body of a rank-dependent
    /// conditional, or after a rank-guarded exit. Returns the reach of
    /// the rank-guarded exits `e` holds.
    fn expr(&mut self, e: &Expr, guarded: bool) -> Exit {
        if guarded {
            self.check_call(e);
        }
        // A conditional's head is evaluated by every rank that reaches
        // it; only what it controls inherits the taint. Its branches are
        // alternatives, so an exit in one does not taint the next.
        match &e.kind {
            ExprKind::If { cond, then, els } => {
                let mut exit = self.expr(cond, guarded);
                let inner = guarded || mentions_rank(cond, self.locals);
                exit = exit.min(self.seq(inner, &mut |f| ast::block_exprs(then, f)));
                if let Some(x) = els {
                    exit = exit.min(self.expr(x, inner));
                }
                exit
            }
            ExprKind::Match { scrutinee, arms } => {
                let mut exit = self.expr(scrutinee, guarded);
                let inner = guarded || mentions_rank(scrutinee, self.locals);
                for a in arms {
                    if let Some(g) = &a.guard {
                        exit = exit.min(self.expr(g, inner));
                    }
                    let arm =
                        inner || a.guard.as_ref().is_some_and(|g| mentions_rank(g, self.locals));
                    exit = exit.min(self.expr(&a.body, arm));
                }
                exit
            }
            ExprKind::While { cond, body } => {
                let head = self.expr(cond, guarded);
                let inner = guarded || mentions_rank(cond, self.locals);
                let body = self.frame(None, &mut |s| s.seq(inner, &mut |f| ast::block_exprs(body, f)));
                head.min(body)
            }
            ExprKind::For { iter, body, .. } => {
                let head = self.expr(iter, guarded);
                let body =
                    self.frame(None, &mut |s| s.seq(guarded, &mut |f| ast::block_exprs(body, f)));
                head.min(body)
            }
            ExprKind::Loop { body } => {
                self.frame(None, &mut |s| s.seq(guarded, &mut |f| ast::block_exprs(body, f)))
            }
            ExprKind::Labeled { label, body } => {
                self.frame(Some(label.clone()), &mut |s| s.expr(body, guarded))
            }
            ExprKind::Closure { body } => {
                let outer = std::mem::take(&mut self.frames);
                self.expr(body, guarded);
                self.frames = outer;
                NO_EXIT
            }
            _ => {
                let inner = self.seq(guarded, &mut |f| ast::for_each_child(e, f));
                if guarded { inner.min(self.exit_of(e)) } else { inner }
            }
        }
    }

    /// How far `e` jumps when it is an exit: a `break` / `continue` to
    /// its target frame — an unknown target is taken as the whole body —
    /// a `return` or panic out of the body.
    fn exit_of(&self, e: &Expr) -> Exit {
        let target = |label: &Option<String>| {
            let pos = match label {
                None => self.frames.iter().rposition(Option::is_none),
                Some(l) => self.frames.iter().rposition(|f| f.as_ref() == Some(l)),
            };
            pos.map_or(BODY, |i| i + 1)
        };
        match &e.kind {
            ExprKind::Break { label } | ExprKind::Continue { label } => target(label),
            ExprKind::Return(_) => BODY,
            ExprKind::Macro { name, .. }
                if matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented") =>
            {
                BODY
            }
            _ => NO_EXIT,
        }
    }

    fn check_call(&mut self, e: &Expr) {
        let name = match &e.kind {
            ExprKind::MethodCall { method, .. } => method,
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Path(segs) if !segs.is_empty() => &segs[segs.len() - 1],
                _ => return,
            },
            _ => return,
        };
        let message = if is_collective(e) {
            format!(
                "collective `{name}` inside a rank-dependent conditional: ranks \
                 that skip the branch never enter the collective (SPMD \
                 deadlock); hoist it out or make the guard rank-uniform"
            )
        } else {
            // A helper that transitively performs a collective, called
            // under the same rank guard — the wrapped form of the same
            // deadlock. The candidates are the call's resolved targets,
            // or every production definition of the name when the graph
            // has no edge for it; the call is tainted only when *all*
            // reach one.
            let nodes = &self.cx.cg.nodes;
            let mut targets: Vec<FnId> = self.cx.cg.callees_at(self.fid, e.line, name).collect();
            if targets.is_empty() {
                let by_name = |t: &FnId| nodes[*t].name == *name && !nodes[*t].in_test;
                targets = (0..nodes.len()).filter(by_name).collect();
            }
            if targets.is_empty() || !targets.iter().all(|&t| self.reaches[t]) {
                return;
            }
            format!(
                "call to `{name}` inside a rank-dependent conditional: every \
                 definition `{name}` can resolve to transitively executes a \
                 collective, so ranks that skip the branch never enter it (SPMD \
                 deadlock); hoist the call out or make the guard rank-uniform"
            )
        };
        self.out.push(Diagnostic {
            witness: Vec::new(),
            file: self.cx.cg.nodes[self.fid].file.to_string(),
            line: e.line,
            rule: Rule::C1,
            message,
        });
    }
}
