//! F1 — fault-site coverage.
//!
//! The chaos tier is only as honest as its injection coverage: a
//! `FaultKind` variant with no production `fire(FaultKind::X)` call
//! site is a fault the test matrix *claims* to model but can never
//! actually inject. This rule parses the `enum FaultKind` definition
//! from the token stream and requires every variant to be referenced by
//! at least one `fire(...)` call outside test code.

use crate::context::{is_test_path, Context};
use hacc_telem::diag::{Diagnostic, Rule};
use crate::lexer::{Kind, Token};

/// The enum whose variants are the injection sites.
const SITE_ENUM: &str = "FaultKind";

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let ws = cx.ws;
    // (variant, defining file, line) — usually one enum, but fixture
    // workspaces may define their own.
    let mut variants: Vec<(String, String, u32)> = Vec::new();
    for f in &ws.files {
        let toks: Vec<&Token> = f.toks.iter().filter(|t| t.kind != Kind::Comment).collect();
        for i in 0..toks.len() {
            if toks[i].is_ident("enum")
                && toks.get(i + 1).is_some_and(|n| n.is_ident(SITE_ENUM))
            {
                collect_variants(&toks[i + 2..], &f.rel, &mut variants);
            }
        }
    }
    if variants.is_empty() {
        return Vec::new();
    }

    // Production `fire( ... FaultKind::X ... )` references. Integration
    // test and bench trees do not count as injection coverage.
    let mut fired: Vec<String> = Vec::new();
    for f in &ws.files {
        if is_test_path(&f.rel) {
            continue;
        }
        let toks: Vec<&Token> = f.toks.iter().filter(|t| t.kind != Kind::Comment).collect();
        for i in 0..toks.len() {
            if !(toks[i].is_ident("fire")
                && !toks[i].in_test
                && toks.get(i + 1).is_some_and(|n| n.is_punct('(')))
            {
                continue;
            }
            // Scan the argument list for SITE_ENUM::Variant paths.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                let t = toks[j];
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident(SITE_ENUM)
                    && toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
                {
                    if let Some(v) = toks.get(j + 3) {
                        if v.kind == Kind::Ident {
                            fired.push(v.text.clone());
                        }
                    }
                }
                j += 1;
            }
        }
    }

    variants
        .into_iter()
        .filter(|(v, _, _)| !fired.contains(v))
        .map(|(v, file, line)| Diagnostic { witness: Vec::new(),
            file,
            line,
            rule: Rule::F1,
            message: format!(
                "fault site `{SITE_ENUM}::{v}` has no production `fire(...)` \
                 call site: the chaos tier cannot inject it, so its recovery \
                 path is untested"
            ),
        })
        .collect()
}

/// Collect variant names from the tokens following `enum FaultKind`
/// (attributes, then `{ Variant [= N] , ... }`).
fn collect_variants(toks: &[&Token], rel: &str, out: &mut Vec<(String, String, u32)>) {
    // Skip to the opening brace.
    let Some(open) = toks.iter().position(|t| t.is_punct('{')) else {
        return;
    };
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        let t = toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 1
            && t.kind == Kind::Ident
            && t.text.chars().next().is_some_and(|c| c.is_uppercase())
        {
            // At depth 1 the only uppercase idents are variant names
            // (discriminant values are Num tokens).
            out.push((t.text.clone(), rel.to_string(), t.line));
        }
        i += 1;
    }
}
