//! S1 — unsafe audit.
//!
//! Every `unsafe` block, function, impl, or trait must be preceded by a
//! `// SAFETY:` comment (within the three lines above it, or on the
//! same line) stating the invariant that makes it sound. The rule
//! applies to test code too: an unexplained `unsafe` is exactly as
//! unexplained in a test.

use crate::context::Context;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::Kind;
use crate::SourceFile;

/// How far above the `unsafe` token a SAFETY comment may sit.
const SAFETY_WINDOW_LINES: u32 = 3;

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &cx.ws.files {
        scan_file(f, &mut out);
    }
    out
}

fn scan_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, t) in f.toks.iter().enumerate() {
        if !(t.kind == Kind::Ident && t.text == "unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_WINDOW_LINES);
        let documented = f.toks[..i]
            .iter()
            .rev()
            .take_while(|p| p.line >= lo)
            .chain(f.toks[i + 1..].iter().take_while(|p| p.line == t.line))
            .any(|p| p.kind == Kind::Comment && p.text.contains("SAFETY:"));
        if !documented {
            out.push(Diagnostic { witness: Vec::new(),
                file: f.rel.clone(),
                line: t.line,
                rule: Rule::S1,
                message: "`unsafe` without a `// SAFETY:` comment in the three \
                          lines above it: state the invariant that makes this \
                          sound, or refactor the unsafety away"
                    .into(),
            });
        }
    }
}
