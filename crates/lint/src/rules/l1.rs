//! L1 — static lock order.
//!
//! The static complement to hacc-san's dynamic W1 deadlock detector:
//! build the workspace's lock-acquisition graph from `Mutex`/`RwLock`
//! guard scopes and report every cycle (including self-edges — a
//! re-acquisition of a non-reentrant lock while it is already held).
//! W1 only sees orderings the test suite happens to execute; this rule
//! sees every lexical ordering in the code.
//!
//! Lock identity ("keys"):
//!
//! - `Owner.field` — a struct field of type `Mutex`/`RwLock` (std or
//!   the `hacc_rt::sync` wrappers; `Arc`/`Rc`/`Box`/`&` layers are
//!   stripped), reached via a `self`-rooted field chain.
//! - `static NAME` — a `static` item of lock type.
//!
//! Guard scopes:
//!
//! - `let g = x.lock();` holds the key until the end of the enclosing
//!   block, an explicit `drop(g)`, or a rebinding assignment `g = ...`.
//! - An un-bound acquisition (`x.lock().field += 1;`) is held for that
//!   statement only.
//!
//! Wrappers: a function whose return type is a guard (`*Guard*`) and
//! whose tail expression acquires exactly one lock (e.g. the
//! `lock` poison-recovery wrappers of the `hacc-ranks` mailbox and
//! `rt::sched`) transfers that key to the *caller's* binding. Calls the
//! workspace call graph resolves propagate their transitively-acquired
//! keys: holding `A` while calling a function that takes `B` records
//! the edge `A -> B`. The per-function summaries (acquired keys,
//! returned guard) are solved bottom-up over the graph's SCCs, so the
//! lock may sit any number of calls below the holder.
//!
//! Known blind spots (documented non-goals, conservative toward *not*
//! reporting): locks reached through locals or trait objects, guards
//! returned through branches, and closures invoked by other threads.
//! `#[cfg(test)]` items and `tests/`/`benches/` trees are exempt.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Block, Expr, ExprKind, Stmt, TypeRef};
use crate::callgraph::FnId;
use crate::context::Context;
use crate::dataflow::solve_summaries;
use hacc_telem::diag::{Diagnostic, Rule};

/// Methods that acquire a primitive lock.
const PRIM_METHODS: [&str; 4] = ["lock", "read", "write", "try_lock"];

fn is_lock_base(base: &str) -> bool {
    base == "Mutex" || base == "RwLock"
}

/// Strip smart-pointer and reference layers off a type.
fn unwrap_ty(tr: &TypeRef) -> &TypeRef {
    let mut t = tr;
    while let ("&" | "Arc" | "Rc" | "Box", Some(inner)) = (t.base.as_str(), t.args.first()) {
        t = inner;
    }
    t
}

/// What a function does with locks, as seen by its callers.
#[derive(Debug, Default, Clone, PartialEq)]
struct Summary {
    /// Keys this fn (transitively) acquires.
    acquires: BTreeSet<String>,
    /// `Some(key)` when the fn returns a guard of `key` (wrapper shape).
    returns_guard: Option<String>,
}

/// `held -> acquired` lock-order edges with the first site of each.
type Edges = BTreeMap<(String, String), (String, u32)>;

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    // Acquisition summaries, callees first; the edges seen against
    // not-yet-final summaries are scratch.
    let mut scratch = Edges::new();
    let summaries = solve_summaries(&cx.cg, Summary::default(), &mut |fid, get| {
        analyze(cx, fid, get, &mut scratch)
    });
    let mut edges = Edges::new();
    for fid in 0..cx.cg.nodes.len() {
        analyze(cx, fid, &|id| summaries[id].clone(), &mut edges);
    }
    report_cycles(&edges)
}

/// Walk one production fn body: record its lock-order edges and return
/// its summary.
fn analyze(
    cx: &Context<'_>,
    fid: FnId,
    summary_of: &dyn Fn(FnId) -> Summary,
    edges: &mut Edges,
) -> Summary {
    let n = &cx.cg.nodes[fid];
    let Some(body) = n.def.body.as_ref().filter(|_| !n.in_test) else {
        return Summary::default();
    };
    let mut an = Analyzer { cx, fid, summary_of, acquires: BTreeSet::new(), edges };
    let tail_keys = an.block(body, &mut Vec::new());
    let returns_guard = match &n.def.ret {
        Some(r) if r.base.contains("Guard") && an.acquires.len() == 1 => {
            tail_keys.into_iter().next()
        }
        _ => None,
    };
    Summary { acquires: an.acquires, returns_guard }
}

struct Analyzer<'a, 'c> {
    cx: &'c Context<'a>,
    fid: FnId,
    summary_of: &'c dyn Fn(FnId) -> Summary,
    acquires: BTreeSet<String>,
    edges: &'c mut Edges,
}

impl Analyzer<'_, '_> {
    /// Walk a block; `held` is the stack of `(binder, key)` guard scopes.
    /// Returns the keys produced by the block's tail expression.
    fn block(&mut self, b: &Block, held: &mut Vec<(String, String)>) -> BTreeSet<String> {
        let depth = held.len();
        let mut tail = BTreeSet::new();
        for (i, s) in b.stmts.iter().enumerate() {
            tail = match s {
                Stmt::Let { names, init: Some(e), .. } => {
                    let keys = self.expr(e, held);
                    let binder = names.first().cloned().unwrap_or_else(|| "_".into());
                    for k in &keys {
                        held.push((binder.clone(), k.clone()));
                    }
                    BTreeSet::new()
                }
                Stmt::Expr(e) => {
                    let keys = self.expr(e, held);
                    if i + 1 == b.stmts.len() {
                        keys
                    } else {
                        // Un-bound guard: statement-scoped, released here.
                        BTreeSet::new()
                    }
                }
                _ => BTreeSet::new(),
            };
        }
        held.truncate(depth);
        tail
    }

    /// Walk an expression, recording acquisitions against the current
    /// held set. Returns the keys of any guards the expression's value
    /// carries (so `let g = x.lock().some_adapter()` still binds `x`).
    fn expr(&mut self, e: &Expr, held: &mut Vec<(String, String)>) -> BTreeSet<String> {
        let mut keys = BTreeSet::new();
        match &e.kind {
            ExprKind::Call { callee, args } => {
                if let ExprKind::Path(segs) = &callee.kind {
                    // `drop(g)` ends g's guard scope early.
                    if let ([f], Some(ExprKind::Path(arg))) =
                        (segs.as_slice(), args.first().map(|a| &a.kind))
                    {
                        if f == "drop" && arg.len() == 1 {
                            held.retain(|(b, _)| *b != arg[0]);
                            return keys;
                        }
                    }
                    if let Some(name) = segs.last() {
                        self.apply_callees(e.line, name, held, &mut keys);
                    }
                }
                for a in args {
                    keys.extend(self.expr(a, held));
                }
            }
            ExprKind::MethodCall { recv, method, args } => {
                keys.extend(self.expr(recv, held));
                for a in args {
                    keys.extend(self.expr(a, held));
                }
                match self.lock_key(recv) {
                    Some(key) if PRIM_METHODS.contains(&method.as_str()) => {
                        self.acquire(&key, e.line, held);
                        keys.insert(key);
                    }
                    Some(_) => {}
                    None => self.apply_callees(e.line, method, held, &mut keys),
                }
            }
            ExprKind::Assign { op: None, lhs, rhs }
                if matches!(&lhs.kind, ExprKind::Path(segs) if segs.len() == 1) =>
            {
                // Rebinding: the RHS acquires against the *old* held set
                // (x = x_lock() while still held is a real
                // self-deadlock), then replaces the binding.
                let ExprKind::Path(segs) = &lhs.kind else { return keys };
                let new_keys = self.expr(rhs, held);
                held.retain(|(b, _)| *b != segs[0]);
                held.extend(new_keys.into_iter().map(|k| (segs[0].clone(), k)));
            }
            ExprKind::If { cond, then, els } => {
                self.expr(cond, held);
                let snapshot = held.clone();
                keys.extend(self.block(then, held));
                *held = snapshot.clone();
                if let Some(els) = els {
                    keys.extend(self.expr(els, held));
                    *held = snapshot;
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.expr(scrutinee, held);
                let snapshot = held.clone();
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.expr(g, held);
                    }
                    keys.extend(self.expr(&arm.body, held));
                    *held = snapshot.clone();
                }
            }
            ExprKind::For { iter: head, body, .. } | ExprKind::While { cond: head, body } => {
                self.expr(head, held);
                self.block(body, held);
            }
            ExprKind::Loop { body } => {
                self.block(body, held);
            }
            ExprKind::Block(b) => keys.extend(self.block(b, held)),
            ExprKind::Index { recv, index } => {
                keys.extend(self.expr(recv, held));
                self.expr(index, held);
            }
            // Operators produce fresh values: operand guards are
            // statement temporaries.
            ExprKind::Binary { .. } | ExprKind::Assign { .. } | ExprKind::Range { .. } => {
                ast::for_each_child(e, &mut |c| {
                    self.expr(c, held);
                })
            }
            // Everything else (`&`/`*`, casts, fields, `?`, closures —
            // treated as invoked here — tuples, macros, ...) passes its
            // operands' guards through.
            _ => ast::for_each_child(e, &mut |c| keys.extend(self.expr(c, held))),
        }
        keys
    }

    fn acquire(&mut self, key: &str, line: u32, held: &[(String, String)]) {
        self.acquires.insert(key.to_string());
        let file = self.cx.cg.nodes[self.fid].file;
        for (_, h) in held {
            self.edges
                .entry((h.clone(), key.to_string()))
                .or_insert_with(|| (file.to_string(), line));
        }
    }

    /// Apply the summaries of the call to `name` on `line`: everything a
    /// resolved callee acquires is acquired here, and a wrapper's
    /// returned guard lands in the caller's value. Methods of the lock
    /// types themselves are primitives, never callees: the graph keys
    /// receivers by type *name*, so a `std::sync::Mutex` reached through
    /// a local would otherwise resolve into `hacc_rt::sync::Mutex`'s
    /// body and borrow its key.
    fn apply_callees(
        &mut self,
        line: u32,
        name: &str,
        held: &[(String, String)],
        keys: &mut BTreeSet<String>,
    ) {
        let cg = &self.cx.cg;
        for callee in cg.callees_at(self.fid, line, name) {
            if cg.nodes[callee].owner.as_deref().is_some_and(is_lock_base) {
                continue;
            }
            let s = (self.summary_of)(callee);
            for a in &s.acquires {
                self.acquire(a, line, held);
            }
            keys.extend(s.returns_guard);
        }
    }

    /// The lock a method-call receiver denotes: a lock-typed `static`,
    /// or a lock-typed field at the end of a `self`-rooted chain.
    fn lock_key(&self, e: &Expr) -> Option<String> {
        match &e.kind {
            ExprKind::Path(segs) if segs.len() == 1 => {
                let st = self.cx.index.statics.get(&segs[0])?;
                is_lock_base(&unwrap_ty(&st.ty).base).then(|| format!("static {}", st.name))
            }
            ExprKind::Field { recv, name } => {
                let owner = self.owner_of(recv)?;
                let fty = unwrap_ty(self.field_ty(&owner, name)?);
                is_lock_base(&fty.base).then(|| format!("{owner}.{name}"))
            }
            ExprKind::Unary { expr, .. } => self.lock_key(expr),
            _ => None,
        }
    }

    /// Resolve a `self`-rooted field chain to the struct name it denotes.
    fn owner_of(&self, e: &Expr) -> Option<String> {
        match &e.kind {
            ExprKind::Path(segs)
                if segs.len() == 1 && (segs[0] == "self" || segs[0] == "Self") =>
            {
                self.cx.cg.nodes[self.fid].owner.clone()
            }
            ExprKind::Field { recv, name } => {
                let owner = self.owner_of(recv)?;
                Some(unwrap_ty(self.field_ty(&owner, name)?).base.clone())
            }
            ExprKind::Unary { expr, .. } => self.owner_of(expr),
            _ => None,
        }
    }

    fn field_ty(&self, owner: &str, field: &str) -> Option<&TypeRef> {
        let sd = self.cx.index.structs.get(owner)?;
        sd.fields.iter().find(|(n, _)| n == field).map(|(_, t)| t)
    }
}

/// Find and render every elementary cycle in the lock graph,
/// deterministically (shortest cycle through each edge, canonicalized
/// to start at its smallest key).
fn report_cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), (file, line)) in edges {
        let cycle: Vec<String> = if a == b {
            vec![a.clone()]
        } else {
            // BFS back from b to a.
            let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(b.as_str());
            let mut found = false;
            while let Some(n) = queue.pop_front() {
                if n == a {
                    found = true;
                    break;
                }
                for &m in adj.get(n).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if m != b.as_str() && !prev.contains_key(m) {
                        prev.insert(m, n);
                        queue.push_back(m);
                    }
                }
            }
            if !found {
                continue;
            }
            let mut path = vec![a.clone()];
            let mut cur = a.as_str();
            while cur != b.as_str() {
                cur = prev[cur];
                path.push(cur.to_string());
            }
            path.reverse(); // b .. a
            let mut cycle = vec![a.clone()];
            cycle.extend(path.into_iter().filter(|k| k != a));
            cycle
        };
        // Canonical rotation: start at the smallest key.
        let min = cycle.iter().enumerate().min_by_key(|(_, k)| *k).map(|(i, _)| i).unwrap_or(0);
        let canon: Vec<String> =
            cycle[min..].iter().chain(cycle[..min].iter()).cloned().collect();
        if !reported.insert(canon.clone()) {
            continue;
        }
        let rendered = if canon.len() == 1 {
            format!("{0} -> {0} (re-acquired while already held)", canon[0])
        } else {
            let mut r = canon.join(" -> ");
            r.push_str(" -> ");
            r.push_str(&canon[0]);
            r
        };
        out.push(Diagnostic { witness: Vec::new(),
            file: file.clone(),
            line: *line,
            rule: Rule::L1,
            message: format!(
                "lock-order cycle: {rendered} — two threads taking these locks in \
                 opposite orders deadlock; impose a single acquisition order or drop \
                 the first guard before taking the second"
            ),
        });
    }
    out
}
