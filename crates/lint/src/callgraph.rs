//! Workspace call graph — the one interprocedural backbone, shared by
//! C1, E1 and V1 through [`crate::context::Context`].
//!
//! Nodes are every parsed `fn` with a body (free functions, impl
//! methods, trait defaults, `fn` items nested in a body), including
//! test code (nodes carry an `in_test` flag — `#[cfg(test)]` regions
//! and `tests/`/`benches/` trees — so rules can filter). Edges come
//! from a best-effort resolution pass over each body:
//!
//! * `free_fn(..)` resolves to same-file definitions first, then
//!   same-crate, then a workspace-wide *unique* name — and not at all
//!   when the caller `let`-binds the name (a closure shadows the fn).
//!   Common names (`run`, `parse`) defined in many crates would
//!   otherwise fan out into absurd cross-crate paths;
//! * `path::free_fn(..)` (module-qualified) resolves through the
//!   free-fn index;
//! * `Type::assoc(..)` resolves through the method index;
//! * `recv.method(..)` resolves through light local type inference
//!   (parameter signatures, `self`, let-initializers, struct-field
//!   lookups). When the receiver type is unknown the call gets **no
//!   edge**: untyped fan-out matches std methods (`load`, `push`,
//!   `get`) onto unrelated workspace types and drowns the
//!   panic-surface analysis in false paths. DESIGN.md
//!   ("Static analysis") records this precision/soundness
//!   tradeoff.
//!
//! On top of the edge lists: Tarjan SCC condensation in callees-first
//! order (the summary solver in [`crate::dataflow`] walks it) and BFS
//! reachability with parent links, from which the rules materialize
//! human-readable witness call paths.

use std::collections::BTreeMap;

use crate::ast::{self, Expr, ExprKind, FnDef, Item, ItemKind, Stmt};
use crate::cfg::{resolve_ty, Index, Ty};
use crate::context::is_test_path;
use crate::Workspace;

pub type FnId = usize;

/// One function definition in the graph.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Workspace-relative file of the definition.
    pub file: &'a str,
    /// Impl type name for methods, trait name for trait defaults,
    /// `None` for free functions.
    pub owner: Option<String>,
    /// The trait of the enclosing `impl Trait for Type` block, if any.
    pub impl_trait: Option<&'a str>,
    pub name: String,
    pub def: &'a FnDef,
    /// `#[cfg(test)]` / `#[test]` code, or anything in a test tree.
    pub in_test: bool,
}

impl FnNode<'_> {
    /// `Type::name` or plain `name` — stable display form.
    pub fn qual_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call site.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    pub callee: FnId,
    /// Line of the call expression in the caller's file.
    pub line: u32,
}

pub struct CallGraph<'a> {
    pub nodes: Vec<FnNode<'a>>,
    /// Outgoing calls per node, deduplicated, stable order.
    pub calls: Vec<Vec<CallSite>>,
}

impl<'a> CallGraph<'a> {
    pub fn build(ws: &'a Workspace, index: &Index<'a>) -> Self {
        let mut nodes = Vec::new();
        for f in &ws.files {
            collect_nodes(&f.rel, &f.ast.items, is_test_path(&f.rel), &mut nodes);
        }
        // (owner, name) and free name -> ids, for resolution.
        let mut by_qual: BTreeMap<(Option<&str>, &str), Vec<FnId>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_qual.entry((n.owner.as_deref(), n.name.as_str())).or_default().push(id);
            if n.owner.is_none() {
                free_by_name.entry(n.name.as_str()).or_default().push(id);
            }
        }
        let mut calls = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            let Some(body) = &n.def.body else { continue };
            let env = local_env(n, index);
            let shadowed = let_bound_names(body);
            let mut sites: Vec<CallSite> = Vec::new();
            ast::walk_block(body, &mut |e: &Expr| {
                match &e.kind {
                    ExprKind::Call { callee, .. } => {
                        if let ExprKind::Path(segs) = &callee.kind {
                            if segs.len() == 1 && shadowed.contains(&segs[0]) {
                                return; // a closure/local shadows the name
                            }
                            resolve_path_call(
                                segs, e.line, n.file, &nodes, &by_qual, &free_by_name,
                                &mut sites,
                            );
                        }
                    }
                    ExprKind::MethodCall { recv, method, .. } => {
                        // Typed receivers only — see module docs.
                        if let Ty::Struct(s) = ty_of(recv, &env, index) {
                            let targets = by_qual
                                .get(&(Some(s.as_str()), method.as_str()))
                                .cloned()
                                .unwrap_or_else(|| {
                                    trait_default_targets(&s, method, index, &by_qual)
                                });
                            for t in targets {
                                sites.push(CallSite { callee: t, line: e.line });
                            }
                        }
                    }
                    _ => {}
                }
            });
            sites.sort_by_key(|s| (s.callee, s.line));
            sites.dedup_by_key(|s| (s.callee, s.line));
            calls[id] = sites;
        }
        CallGraph { nodes, calls }
    }

    /// Resolved targets of the call to `name` on `line` of `fid`'s body.
    pub fn callees_at<'s>(
        &'s self,
        fid: FnId,
        line: u32,
        name: &'s str,
    ) -> impl Iterator<Item = FnId> + 's {
        self.calls[fid]
            .iter()
            .filter(move |s| s.line == line && self.nodes[s.callee].name == name)
            .map(|s| s.callee)
    }

    /// Ids of nodes matching `(owner, name)`.
    pub fn find(&self, owner: Option<&str>, name: &str) -> Vec<FnId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name && n.owner.as_deref() == owner)
            .map(|(i, _)| i)
            .collect()
    }

    /// Strongly connected components in callees-first (reverse
    /// topological) order — the evaluation order for bottom-up
    /// summaries. Iterative Tarjan (no recursion on hostile input).
    pub fn sccs(&self) -> Vec<Vec<FnId>> {
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<FnId> = Vec::new();
        let mut next = 0usize;
        let mut out: Vec<Vec<FnId>> = Vec::new();
        // Explicit DFS state: (node, child cursor).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut work: Vec<(FnId, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut ci)) = work.last_mut() {
                if *ci == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ci < self.calls[v].len() {
                    let w = self.calls[v][*ci].callee;
                    *ci += 1;
                    if index[w] == usize::MAX {
                        work.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                    work.pop();
                    if let Some(&mut (p, _)) = work.last_mut() {
                        low[p] = low[p].min(low[v]);
                    }
                }
            }
        }
        out
    }

    /// BFS from `roots` over call edges; returns parent links
    /// `(caller, call line)` for every reachable node (roots map to
    /// `None`). Deterministic: lowest-id-first expansion.
    pub fn reachable(&self, roots: &[FnId]) -> BTreeMap<FnId, Option<(FnId, u32)>> {
        let mut parent: BTreeMap<FnId, Option<(FnId, u32)>> = BTreeMap::new();
        let mut frontier: Vec<FnId> = roots.to_vec();
        frontier.sort_unstable();
        for &r in &frontier {
            parent.insert(r, None);
        }
        while !frontier.is_empty() {
            let mut next_frontier = Vec::new();
            for &v in &frontier {
                for site in &self.calls[v] {
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        parent.entry(site.callee)
                    {
                        slot.insert(Some((v, site.line)));
                        next_frontier.push(site.callee);
                    }
                }
            }
            next_frontier.sort_unstable();
            frontier = next_frontier;
        }
        parent
    }

    /// Materialize the call path root -> .. -> `target` from `reachable`
    /// parent links as `(node, call line into the next hop)` pairs,
    /// root first.
    pub fn witness_path(
        &self,
        parents: &BTreeMap<FnId, Option<(FnId, u32)>>,
        target: FnId,
    ) -> Vec<(FnId, u32)> {
        let mut rev: Vec<(FnId, u32)> = Vec::new();
        let mut cur = target;
        let mut hops = 0;
        while let Some(&Some((p, line))) = parents.get(&cur) {
            rev.push((cur, line));
            cur = p;
            hops += 1;
            if hops > 256 {
                break;
            }
        }
        rev.push((cur, self.nodes[cur].def.line));
        rev.reverse();
        rev
    }
}

fn collect_nodes<'a>(
    file: &'a str,
    items: &'a [Item],
    in_test_mod: bool,
    out: &mut Vec<FnNode<'a>>,
) {
    for it in items {
        let in_test = in_test_mod || it.in_test;
        let mut push = |owner: Option<&String>, impl_trait: Option<&'a str>, def: &'a FnDef| {
            let (owner, name) = (owner.cloned(), def.name.clone());
            push_fn(FnNode { file, owner, impl_trait, name, def, in_test }, out)
        };
        match &it.kind {
            ItemKind::Fn(fd) => push(None, None, fd),
            ItemKind::Impl(im) => {
                im.fns.iter().for_each(|fd| push(Some(&im.type_name), im.trait_name.as_deref(), fd))
            }
            ItemKind::Trait(td) => td
                .fns
                .iter()
                .filter(|fd| fd.body.is_some())
                .for_each(|fd| push(Some(&td.name), None, fd)),
            ItemKind::Mod(_, inner) => collect_nodes(file, inner, in_test, out),
            _ => {}
        }
    }
}

/// Add `n`, then the `fn` items nested in its body as free functions
/// of the same file.
fn push_fn<'a>(n: FnNode<'a>, out: &mut Vec<FnNode<'a>>) {
    let (file, in_test, def) = (n.file, n.in_test, n.def);
    out.push(n);
    let Some(body) = &def.body else { return };
    ast::walk_stmts(body, &mut |s| {
        if let Stmt::Fn(def) = s {
            let name = def.name.clone();
            push_fn(FnNode { file, owner: None, impl_trait: None, name, def, in_test }, out);
        }
    });
}

/// `crates/foo/src/...` -> `crates/foo` (the crate key used for
/// same-crate free-fn preference).
fn crate_of(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(i) = rest.find('/') {
            return &rel[..7 + i];
        }
    }
    rel
}

#[allow(clippy::too_many_arguments)]
fn resolve_path_call(
    segs: &[String],
    line: u32,
    caller_file: &str,
    nodes: &[FnNode<'_>],
    by_qual: &BTreeMap<(Option<&str>, &str), Vec<FnId>>,
    free_by_name: &BTreeMap<&str, Vec<FnId>>,
    sites: &mut Vec<CallSite>,
) {
    let Some(name) = segs.last() else { return };
    if segs.len() >= 2 {
        let qual = &segs[segs.len() - 2];
        let is_type = qual.chars().next().map(char::is_uppercase).unwrap_or(false);
        if is_type && qual != "Self" {
            if let Some(ids) = by_qual.get(&(Some(qual.as_str()), name.as_str())) {
                for &t in ids {
                    sites.push(CallSite { callee: t, line });
                }
            }
            return;
        }
        if qual == "Self" {
            // Self-calls are rare here; skipping keeps the graph precise.
            return;
        }
        // Module-qualified (`mod::helper`): unique name across the
        // workspace resolves, otherwise same-crate candidates.
        if let Some(ids) = free_by_name.get(name.as_str()) {
            if ids.len() == 1 {
                sites.push(CallSite { callee: ids[0], line });
            } else {
                for &t in ids {
                    if crate_of(nodes[t].file) == crate_of(caller_file) {
                        sites.push(CallSite { callee: t, line });
                    }
                }
            }
        }
        return;
    }
    // Bare name: same file beats same crate beats workspace-unique.
    let Some(ids) = free_by_name.get(name.as_str()) else { return };
    let same_file = |t: &FnId| nodes[*t].file == caller_file;
    let same_crate = |t: &FnId| crate_of(nodes[*t].file) == crate_of(caller_file);
    let unique = |_: &FnId| ids.len() == 1;
    let tiers: [&dyn Fn(&FnId) -> bool; 3] = [&same_file, &same_crate, &unique];
    for tier in tiers {
        let before = sites.len();
        sites.extend(ids.iter().filter(|t| tier(t)).map(|&callee| CallSite { callee, line }));
        if sites.len() > before {
            return;
        }
    }
}

/// Every `let`-bound name in the body, any depth — used to detect
/// closures shadowing free-fn names.
fn let_bound_names(body: &ast::Block) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    ast::walk_lets(body, &mut |names, _, _| out.extend(names.iter().cloned()));
    out
}

/// Trait-default fallback: `s.method(..)` where the impl does not
/// override `method` but a trait `s` implements has a default body.
fn trait_default_targets(
    ty: &str,
    method: &str,
    index: &Index<'_>,
    by_qual: &BTreeMap<(Option<&str>, &str), Vec<FnId>>,
) -> Vec<FnId> {
    let Some(traits) = index.trait_impls.get(ty) else { return Vec::new() };
    let mut out = Vec::new();
    for tr in traits {
        if let Some(ids) = by_qual.get(&(Some(tr.as_str()), method)) {
            out.extend_from_slice(ids);
        }
    }
    out
}

/// Parameter + let-initializer types for method-receiver resolution.
fn local_env(n: &FnNode<'_>, index: &Index<'_>) -> BTreeMap<String, Ty> {
    let bindings = BTreeMap::new();
    let mut env: BTreeMap<String, Ty> = BTreeMap::new();
    for p in &n.def.params {
        let ty = if p.name == "self" {
            n.owner.clone().map(Ty::Struct).unwrap_or(Ty::Unknown)
        } else {
            resolve_ty(&p.ty, &bindings)
        };
        env.insert(p.name.clone(), ty);
    }
    if let Some(body) = &n.def.body {
        collect_lets(body, index, &mut env);
    }
    env
}

fn collect_lets(b: &ast::Block, index: &Index<'_>, env: &mut BTreeMap<String, Ty>) {
    let bindings = BTreeMap::new();
    for s in &b.stmts {
        if let Stmt::Let { names, ty, init, .. } = s {
            if names.len() != 1 {
                continue;
            }
            let inferred = match (ty, init) {
                (Some(tr), _) => resolve_ty(tr, &bindings),
                (None, Some(e)) => ty_of(e, env, index),
                _ => Ty::Unknown,
            };
            if !matches!(inferred, Ty::Unknown) {
                env.insert(names[0].clone(), inferred);
            }
        }
    }
    // One level of nesting is deliberately *not* walked: shadowing
    // inside branches would need flow-sensitive scoping to stay sound,
    // and the receivers the rules care about are fn-level locals.
}

/// Best-effort expression typing for call receivers.
fn ty_of(e: &Expr, env: &BTreeMap<String, Ty>, index: &Index<'_>) -> Ty {
    let bindings = BTreeMap::new();
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => {
            env.get(&segs[0]).cloned().unwrap_or(Ty::Unknown)
        }
        ExprKind::Unary { expr, .. } => ty_of(expr, env, index),
        ExprKind::Field { recv, name } => match ty_of(recv, env, index) {
            Ty::Struct(s) => index
                .structs
                .get(&s)
                .and_then(|sd| sd.fields.iter().find(|(f, _)| f == name))
                .map(|(_, tr)| resolve_ty(tr, &bindings))
                .unwrap_or(Ty::Unknown),
            _ => Ty::Unknown,
        },
        ExprKind::Index { recv, .. } => match ty_of(recv, env, index) {
            Ty::Array(t) => *t,
            _ => Ty::Unknown,
        },
        ExprKind::StructLit { path, .. } => path
            .last()
            .map(|s| Ty::Struct(s.clone()))
            .unwrap_or(Ty::Unknown),
        ExprKind::Call { callee, .. } => {
            // `Type::new(..)` / `Type::with_capacity(..)` constructors.
            if let ExprKind::Path(segs) = &callee.kind {
                if segs.len() >= 2 {
                    let ty = &segs[segs.len() - 2];
                    if ty.chars().next().map(char::is_uppercase).unwrap_or(false) {
                        return Ty::Struct(ty.clone());
                    }
                }
            }
            Ty::Unknown
        }
        ExprKind::MethodCall { recv, method, .. } => {
            // One hop through a resolvable method's return type.
            if let Ty::Struct(s) = ty_of(recv, env, index) {
                if let Some((_, fd)) = index.find_method(&s, method) {
                    if let Some(ret) = &fd.ret {
                        return resolve_ty(ret, &bindings);
                    }
                }
            }
            Ty::Unknown
        }
        _ => Ty::Unknown,
    }
}
