//! The one analysis context of a lint pass.
//!
//! [`crate::rules::run_all`] builds the workspace [`Index`] and, with
//! [`Context::new`], the typed [`CallGraph`] over it exactly once, and
//! hands the same context to every rule. The helpers every rule shares
//! live here too: the test-tree predicate and the `// <tag>: ...`
//! marker-comment scanner behind all on-site annotations (`e1: allow:`,
//! `e1: root`, `p1: hot-loop`, `k1: bind`, ...).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::index::Index;
use crate::lexer::{Kind, Token};
use crate::{SourceFile, Workspace};

pub struct Context<'a> {
    pub ws: &'a Workspace,
    pub index: &'a Index<'a>,
    pub cg: CallGraph<'a>,
}

impl<'a> Context<'a> {
    pub fn new(ws: &'a Workspace, index: &'a Index<'a>) -> Self {
        Context { ws, index, cg: CallGraph::build(ws, index) }
    }

    /// Per-file lines of the `// <tag>: <rest>` markers whose `rest`
    /// passes `keep`.
    pub fn marked(&self, tag: &str, keep: fn(&str) -> bool) -> MarkedLines<'a> {
        let lines = |f: &'a SourceFile| {
            markers(&f.toks, tag).filter(|(_, rest)| keep(rest)).map(|(line, _)| line).collect()
        };
        self.ws.files.iter().map(|f| (f.rel.as_str(), lines(f))).collect()
    }

    /// Per-file `// <tag>: allow: <reason>` lines; an empty reason does
    /// not suppress.
    pub fn allowed(&self, tag: &str) -> MarkedLines<'a> {
        self.marked(tag, |rest| rest.strip_prefix("allow:").is_some_and(|r| !r.trim().is_empty()))
    }
}

/// Marker lines per workspace-relative file.
pub type MarkedLines<'a> = BTreeMap<&'a str, BTreeSet<u32>>;

/// Does a marker in `marks[file]` cover `line`? A marker covers its own
/// line and the line below it.
pub fn near(marks: &MarkedLines<'_>, file: &str, line: u32) -> bool {
    marks.get(file).is_some_and(|set| {
        set.contains(&line) || line.checked_sub(1).is_some_and(|l| set.contains(&l))
    })
}

/// Integration-test and bench trees: exempt from the production-only
/// rules (in-file `#[cfg(test)]` regions carry `in_test` instead).
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/")
}

/// The `// <tag>: <rest>` marker comments in `toks` as `(line, rest)`.
pub fn markers<'t>(toks: &'t [Token], tag: &'t str) -> impl Iterator<Item = (u32, &'t str)> {
    toks.iter().filter(|t| t.kind == Kind::Comment).filter_map(move |t| {
        let body = t.text.trim_start_matches('/').trim_start_matches('*').trim();
        let rest = body.strip_prefix(tag)?.strip_prefix(':')?;
        Some((t.line, rest.trim()))
    })
}
