//! H1 — hermeticity.
//!
//! The workspace builds fully offline: every dependency in every
//! manifest must be a `path = ...` or `workspace = true` reference, and
//! the six crates the vendored `hacc-rt` runtime replaced are banned by
//! name even as path deps (a vendored copy of `rayon` would be a policy
//! end-run). On the source side, `extern crate` (beyond the compiler
//! built-ins) and `use ::<crate>` paths naming a non-workspace crate
//! are flagged — they are the two lexical escape hatches around the
//! manifest.
//!
//! This rule replaces the grep-based dependency lint `scripts/verify.sh`
//! shipped through PR 3.

use crate::context::Context;
use hacc_telem::diag::{Diagnostic, Rule};
use crate::lexer::Kind;

/// Crates `hacc-rt` vendored replacements for; banned in any form.
const BANNED: [&str; 6] = [
    "rand",
    "rayon",
    "crossbeam",
    "parking_lot",
    "proptest",
    "criterion",
];

/// Compiler-provided crate roots that need no manifest entry.
const BUILTIN_ROOTS: [&str; 5] = ["std", "core", "alloc", "test", "proc_macro"];

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let ws = cx.ws;
    let mut out = Vec::new();

    // Workspace package names, underscored, for `use ::name` validation.
    let mut local: Vec<String> = ws
        .manifests
        .iter()
        .filter_map(|m| m.package.as_ref())
        .map(|p| p.replace('-', "_"))
        .collect();
    local.extend(BUILTIN_ROOTS.iter().map(|s| s.to_string()));

    for m in &ws.manifests {
        for d in &m.deps {
            if BANNED.contains(&d.name.as_str()) {
                out.push(Diagnostic { witness: Vec::new(),
                    file: m.rel.clone(),
                    line: d.line,
                    rule: Rule::H1,
                    message: format!(
                        "banned crate `{}`: replaced by the vendored hacc-rt \
                         runtime (DESIGN.md, \"Dependency policy\")",
                        d.name
                    ),
                });
            } else if !d.hermetic {
                out.push(Diagnostic { witness: Vec::new(),
                    file: m.rel.clone(),
                    line: d.line,
                    rule: Rule::H1,
                    message: format!(
                        "external dependency `{}` ({}): only `path = ...` or \
                         `workspace = true` entries build offline",
                        d.name,
                        d.spec.trim()
                    ),
                });
            }
        }
    }

    for f in &ws.files {
        let toks: Vec<_> = f
            .toks
            .iter()
            .filter(|t| t.kind != Kind::Comment)
            .collect();
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("extern")
                && toks.get(i + 1).is_some_and(|n| n.is_ident("crate"))
            {
                if let Some(name) = toks.get(i + 2) {
                    if name.kind == Kind::Ident && !BUILTIN_ROOTS.contains(&name.text.as_str()) {
                        out.push(Diagnostic { witness: Vec::new(),
                            file: f.rel.clone(),
                            line: t.line,
                            rule: Rule::H1,
                            message: format!(
                                "`extern crate {}`: external crates are banned; \
                                 declare a path dependency instead",
                                name.text
                            ),
                        });
                    }
                }
            }
            if t.is_ident("use")
                && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            {
                if let Some(root) = toks.get(i + 3) {
                    if root.kind == Kind::Ident && !local.contains(&root.text) {
                        out.push(Diagnostic { witness: Vec::new(),
                            file: f.rel.clone(),
                            line: t.line,
                            rule: Rule::H1,
                            message: format!(
                                "`use ::{}` names a crate outside the workspace",
                                root.text
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}
