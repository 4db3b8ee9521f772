//! Workspace call graph — the one interprocedural backbone, shared by
//! C1, E1 and V1 through [`crate::context::Context`].
//!
//! Nodes are the [`Index`]'s fns, by [`FnId`]. Edges come from the
//! index's resolver over each body: every path call (except a bare name
//! the caller `let`-binds: a closure shadows the fn) and every method
//! call on a receiver the typer names from the parameters and the body's
//! top-level `let`s. Shadowing inside branches would need scoping to
//! stay sound, and the receivers the rules care about are fn-level
//! locals.
//!
//! On top of the edge lists: Tarjan SCC condensation in callees-first
//! order, the bottom-up summary solver that walks it, and BFS
//! reachability with parent links, from which the rules materialize
//! human-readable witness call paths.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, Expr, ExprKind, Stmt};
use crate::index::{FnId, FnNode, Index, Ty, Typer};
use crate::Workspace;

/// One resolved call site.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    pub callee: FnId,
    /// Line of the call expression in the caller's file.
    pub line: u32,
}

pub struct CallGraph<'a> {
    index: &'a Index<'a>,
    /// The index's fns.
    pub nodes: &'a [FnNode<'a>],
    /// Outgoing calls per node, deduplicated, stable order.
    pub calls: Vec<Vec<CallSite>>,
}

impl<'a> CallGraph<'a> {
    /// The call graph over `index`, the index of `_ws`.
    pub fn build(_ws: &'a Workspace, index: &'a Index<'a>) -> Self {
        let typer = Typer::new(index);
        let calls = index.fns.iter().map(|n| {
            let Some(body) = &n.def.body else { return Vec::new() };
            let mut env = typer.params(n.def, n.owner);
            let mut shadowed = BTreeSet::new();
            ast::walk_lets(body, &mut |names, _, _| shadowed.extend(names));
            for s in &body.stmts {
                if let Stmt::Let { names, ty, init, .. } = s {
                    typer.bind(&mut env, names, ty.as_ref(), init.as_ref());
                }
            }
            let mut sites: Vec<CallSite> = Vec::new();
            ast::walk_block(body, &mut |e: &Expr| {
                let targets = match &e.kind {
                    ExprKind::Call { callee, .. } => match &callee.kind {
                        ExprKind::Path(segs) if segs.len() > 1 || !shadowed.contains(&segs[0]) => {
                            index.resolve_path(segs, n.file)
                        }
                        _ => return,
                    },
                    ExprKind::MethodCall { recv, method, .. } => match typer.ty_of(recv, &env) {
                        Ty::Struct(s) => index.resolve_method(&s, method),
                        _ => return,
                    },
                    _ => return,
                };
                sites.extend(targets.into_iter().map(|callee| CallSite { callee, line: e.line }));
            });
            sites.sort_by_key(|s| (s.callee, s.line));
            sites.dedup_by_key(|s| (s.callee, s.line));
            sites
        });
        CallGraph { index, nodes: &index.fns, calls: calls.collect() }
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
        self.index.find(owner, name)
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

    /// Bottom-up interprocedural summary fixpoint, the one every
    /// interprocedural rule shares (C1's reaches-collective bit). SCCs
    /// are processed callees-first, so a summary is final before any
    /// caller reads it; `compute(fid, get)` produces `fid`'s summary,
    /// reading callee summaries through `get` (the current
    /// approximation — `initial` on first touch). Members
    /// of a cyclic SCC iterate to a local fixpoint with an `8n + 8`
    /// round cap.
    pub fn solve_summaries<S: Clone + PartialEq>(
        &self,
        initial: S,
        compute: &mut dyn FnMut(FnId, &dyn Fn(FnId) -> S) -> S,
    ) -> Vec<S> {
        let mut summaries = vec![initial; self.nodes.len()];
        for comp in self.sccs() {
            let cap = 8 * comp.len() as u32 + 8;
            for _ in 0..cap {
                let mut changed = false;
                for &fid in &comp {
                    let s = compute(fid, &|id: FnId| summaries[id].clone());
                    changed |= s != summaries[fid];
                    summaries[fid] = s;
                }
                if !changed {
                    break;
                }
            }
        }
        summaries
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
