//! E1 — panic surface of the supervised step loop.
//!
//! PR 3's recovery contract: when a rank dies inside the supervised
//! step loop, the supervisor rolls every rank back to the last
//! validated checkpoint. That contract only holds for panics the
//! supervisor *chose* (registered `FaultKind` injection sites) or
//! panics carrying a typed error it knows how to log. A stray
//! `unwrap()` seven calls below `rank_main` is an unplanned job-killer
//! at 72,000 ranks.
//!
//! The analysis: build the workspace call graph, compute each
//! function's panic surface bottom-up with the summary solver, then
//! BFS from the supervised roots and report every *explicit* panic
//! site reachable from them, with the full call-path witness.
//!
//! Roots: `rank_main` in `crates/core/src/driver.rs`, plus any fn
//! whose definition line carries `// e1: root` (line or line above) —
//! fixtures and future entry points opt in without touching this rule.
//!
//! Reported panic class (A): `unwrap` / `expect` / `unwrap_err` /
//! `expect_err` method calls and `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!` macros. Class B sites — `assert*` macros, slice
//! indexing, non-literal integer division — also panic, but the
//! workspace has ~726 asserts and indexes on nearly every hot line;
//! reporting them would bury the signal. They still feed the computed
//! can-panic *surface* (exposed to tests via [`panic_surface`]), so
//! tightening the reported class later is a one-line change.
//!
//! Exemptions:
//! * panic sites inside an `if` whose condition mentions `FaultKind`
//!   or calls `.fire(..)` — those are the registered injection sites
//!   the supervisor exists to catch;
//! * `#[cfg(test)]` items and `tests/` / `benches/` trees.
//!
//! A `// e1: allow: <reason>` marker on the site line or the line above
//! drops the finding in [`super::run_all`]'s suppression step.

use crate::ast::{self, Expr, ExprKind};
use crate::callgraph::CallGraph;
use crate::context::{near, Context};
use crate::index::FnId;
use hacc_telem::diag::{Diagnostic, Rule, WitnessStep};

/// Panic-surface bits, OR-combined through the call graph.
pub const PANIC_EXPLICIT: u8 = 1;
pub const PANIC_INDEX: u8 = 2;
pub const PANIC_DIV: u8 = 4;
pub const PANIC_ASSERT: u8 = 8;

const EXPLICIT_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 6] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// One explicit (class A) panic site in a function body.
struct PanicSite {
    line: u32,
    /// `unwrap`, `panic!`, ...
    what: String,
}

/// Does this guard expression mark a registered fault-injection branch?
fn mentions_fault(e: &Expr) -> bool {
    let mut hit = false;
    ast::walk_expr(e, &mut |x: &Expr| match &x.kind {
        ExprKind::Path(segs) if segs.iter().any(|s| s == "FaultKind") => hit = true,
        ExprKind::MethodCall { method, .. } if method == "fire" => hit = true,
        _ => {}
    });
    hit
}

/// Collect class-A sites (skipping fault-guarded branches) and the
/// full surface mask of an expression tree.
fn scan_expr(e: &Expr, guarded: bool, sites: &mut Vec<PanicSite>, mask: &mut u8) {
    let mut explicit = |what: String| {
        *mask |= PANIC_EXPLICIT;
        if !guarded {
            sites.push(PanicSite { line: e.line, what });
        }
    };
    match &e.kind {
        ExprKind::MethodCall { method, .. } if EXPLICIT_METHODS.contains(&method.as_str()) => {
            explicit(format!("`.{method}()`"))
        }
        ExprKind::Macro { name, .. } if PANIC_MACROS.contains(&name.as_str()) => {
            explicit(format!("`{name}!`"))
        }
        ExprKind::Macro { name, .. } if ASSERT_MACROS.contains(&name.as_str()) => {
            *mask |= PANIC_ASSERT
        }
        ExprKind::Index { .. } => *mask |= PANIC_INDEX,
        ExprKind::Binary { op: ast::BinOp::Div | ast::BinOp::Rem, rhs, .. }
            if !ast::is_literal(rhs) =>
        {
            *mask |= PANIC_DIV
        }
        _ => {}
    }
    // Everything an `if` on a fault probe controls is a registered
    // injection site; its condition is not.
    let fault_cond = match &e.kind {
        ExprKind::If { cond, .. } if mentions_fault(cond) => Some(&**cond),
        _ => None,
    };
    ast::for_each_child(e, &mut |c| {
        let inner = guarded || fault_cond.is_some_and(|fc| !std::ptr::eq(fc, c));
        scan_expr(c, inner, sites, mask)
    });
}

/// Whole-graph panic surface: per-fn OR of own bits and every
/// (transitive) callee's bits. Public so tests can pin the class-B
/// calibration.
pub fn panic_surface(cg: &CallGraph<'_>, local: &[u8]) -> Vec<u8> {
    cg.solve_summaries(0u8, &mut |fid, get| {
        let mut m = local[fid];
        for site in &cg.calls[fid] {
            m |= get(site.callee);
        }
        m
    })
}

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let cg = &cx.cg;
    // Local panic info per node.
    let mut local_mask = vec![0u8; cg.nodes.len()];
    let mut local_sites: Vec<Vec<PanicSite>> = Vec::with_capacity(cg.nodes.len());
    for (fid, n) in cg.nodes.iter().enumerate() {
        let mut sites = Vec::new();
        if let Some(body) = &n.def.body {
            let mask = &mut local_mask[fid];
            ast::block_exprs(body, &mut |e| scan_expr(e, false, &mut sites, mask));
        }
        local_sites.push(sites);
    }

    // Roots: the supervised per-rank entry point, plus `// e1: root`
    // opt-ins.
    let root_marks = cx.marked("e1", |rest| rest == "root" || rest.starts_with("root "));
    let roots: Vec<FnId> = (0..cg.nodes.len())
        .filter(|&fid| {
            let n = &cg.nodes[fid];
            !n.in_test
                && (near(&root_marks, n.file, n.def.line)
                    || (n.name == "rank_main" && n.file == "crates/core/src/driver.rs"))
        })
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }

    let parents = cg.reachable(&roots);
    let mut out = Vec::new();
    for (&fid, _) in &parents {
        let n = &cg.nodes[fid];
        if n.in_test {
            continue;
        }
        for site in &local_sites[fid] {
            let chain = cg.witness_path(&parents, fid);
            let mut witness = Vec::with_capacity(chain.len() + 1);
            let root_id = chain[0].0;
            witness.push(WitnessStep {
                file: cg.nodes[root_id].file.to_string(),
                line: cg.nodes[root_id].def.line,
                label: format!("supervised root `{}`", cg.nodes[root_id].qual_name()),
            });
            for w in chain.windows(2) {
                let (caller, _) = w[0];
                let (callee, call_line) = w[1];
                witness.push(WitnessStep {
                    file: cg.nodes[caller].file.to_string(),
                    line: call_line,
                    label: format!(
                        "`{}` calls `{}`",
                        cg.nodes[caller].qual_name(),
                        cg.nodes[callee].qual_name()
                    ),
                });
            }
            witness.push(WitnessStep {
                file: n.file.to_string(),
                line: site.line,
                label: format!("panics via {}", site.what),
            });
            out.push(Diagnostic {
                file: n.file.to_string(),
                line: site.line,
                rule: Rule::E1,
                message: format!(
                    "{} in `{}` is reachable from the supervised step loop \
                     ({} call hop{}) — convert to a typed error for the supervisor, \
                     make it a registered FaultKind site, or justify with \
                     `// e1: allow: <reason>`",
                    site.what,
                    n.qual_name(),
                    chain.len() - 1,
                    if chain.len() == 2 { "" } else { "s" },
                ),
                witness,
            });
        }
    }
    out
}
