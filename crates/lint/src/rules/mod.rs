//! The rule registry. [`run_all`] builds one [`Context`] — parsed
//! sources, scanned manifests, workspace index, call graph — and hands
//! it to every rule; each rule is a pure function of that context,
//! diagnostics out. Suppression is one step after every rule has run
//! ([`suppress`]), so no rule knows about it.

use std::collections::BTreeMap;

use crate::context::{markers, Context};
use crate::index::Index;
use hacc_telem::diag::{normalize, Diagnostic, Rule, RULES};
use crate::Workspace;

pub mod c1;
pub mod d1;
pub mod e1;
pub mod f1;
pub mod h1;
pub mod p1;
pub mod v1;

/// Run every rule over the workspace and apply the on-site
/// suppressions; findings come back sorted and deduplicated
/// (byte-stable output across runs and platforms).
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let index = Index::build(ws);
    let cx = Context::new(ws, &index);
    let mut out = Vec::new();
    out.extend(d1::run(&cx));
    out.extend(c1::run(&cx));
    out.extend(h1::run(&cx));
    out.extend(f1::run(&cx));
    out.extend(p1::run(&cx));
    out.extend(e1::run(&cx));
    out.extend(v1::run(&cx));
    normalize(suppress(ws, out))
}

/// The one suppression step. A finding of rule R at `file:line` is
/// dropped when a `// r: allow: <reason>` marker (`r` the lowercase
/// code, the reason non-empty) sits on that line or the line above. A
/// marker that drops nothing is itself a finding of its rule, at its
/// own line: a stale suppression would hide the next violation that
/// lands beside it.
fn suppress(ws: &Workspace, found: Vec<Diagnostic>) -> Vec<Diagnostic> {
    // file -> (rule, marker line) -> dropped a finding yet?
    let mut marks: BTreeMap<&str, BTreeMap<(Rule, u32), bool>> = BTreeMap::new();
    for rule in RULES {
        let tag = rule.code().to_ascii_lowercase();
        for f in &ws.files {
            for (line, rest) in markers(&f.toks, &tag) {
                if rest.strip_prefix("allow:").is_some_and(|r| !r.trim().is_empty()) {
                    marks.entry(f.rel.as_str()).or_default().insert((rule, line), false);
                }
            }
        }
    }
    let mut kept: Vec<Diagnostic> = found
        .into_iter()
        .filter(|d| {
            let Some(file) = marks.get_mut(d.file.as_str()) else { return true };
            let mut dropped = false;
            for line in [Some(d.line), d.line.checked_sub(1)].into_iter().flatten() {
                if let Some(used) = file.get_mut(&(d.rule, line)) {
                    *used = true;
                    dropped = true;
                }
            }
            !dropped
        })
        .collect();
    for (file, lines) in marks {
        for ((rule, line), _) in lines.into_iter().filter(|&(_, used)| !used) {
            let message = format!(
                "`// {}: allow:` suppresses no {} finding; delete it",
                rule.code().to_ascii_lowercase(),
                rule.code()
            );
            kept.push(Diagnostic::new(file, line, rule, message));
        }
    }
    kept
}
