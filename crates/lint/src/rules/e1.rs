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
//! The analysis: build the workspace call graph, BFS from the
//! supervised roots and report every *explicit* panic site reachable
//! from them, with the full call-path witness.
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
//! reporting them would bury the signal.
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
use crate::context::{near, Context};
use crate::index::FnId;
use hacc_telem::diag::{Diagnostic, Rule, WitnessStep};

const EXPLICIT_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

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

/// Collect class-A sites, skipping fault-guarded branches.
fn scan_expr(e: &Expr, guarded: bool, sites: &mut Vec<PanicSite>) {
    let what = match &e.kind {
        _ if guarded => None,
        ExprKind::MethodCall { method, .. } if EXPLICIT_METHODS.contains(&method.as_str()) => {
            Some(format!("`.{method}()`"))
        }
        ExprKind::Macro { name, .. } if PANIC_MACROS.contains(&name.as_str()) => {
            Some(format!("`{name}!`"))
        }
        _ => None,
    };
    if let Some(what) = what {
        sites.push(PanicSite { line: e.line, what });
    }
    // Everything an `if` on a fault probe controls is a registered
    // injection site; its condition is not.
    let fault_cond = match &e.kind {
        ExprKind::If { cond, .. } if mentions_fault(cond) => Some(&**cond),
        _ => None,
    };
    ast::for_each_child(e, &mut |c| {
        let inner = guarded || fault_cond.is_some_and(|fc| !std::ptr::eq(fc, c));
        scan_expr(c, inner, sites)
    });
}

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let cg = &cx.cg;
    // Local panic sites per node.
    let mut local_sites: Vec<Vec<PanicSite>> = Vec::with_capacity(cg.nodes.len());
    for n in cg.nodes {
        let mut sites = Vec::new();
        if let Some(body) = &n.def.body {
            ast::block_exprs(body, &mut |e| scan_expr(e, false, &mut sites));
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
