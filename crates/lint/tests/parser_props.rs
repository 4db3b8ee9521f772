//! Parser robustness properties.
//!
//! The lint gate runs on every commit, over whatever state the tree is
//! in — half-saved files included. So the frontline invariant is not
//! "parses Rust" but "never panics, never loses tokens": on arbitrary
//! windows and mutations of real workspace sources, `lex` and `parse`
//! must return normally and the parsed item spans (plus the recorded
//! skip list) must cover the non-comment token stream exactly
//! (`check_coverage` — the respan invariant the AST rules rely on to
//! map findings back to lines).

use hacc_lint::ast;
use hacc_lint::lexer;
use hacc_rt::prop::prelude::*;

/// Real workspace sources: the largest lint modules (including the
/// interprocedural layer — call graph, dataflow, E1 and C1) plus
/// the hottest production files the AST rules actually analyze.
const CORPUS: [&str; 10] = [
    include_str!("../src/ast.rs"),
    include_str!("../src/index.rs"),
    include_str!("../../sph/src/hydro.rs"),
    include_str!("../../ranks/src/mailbox.rs"),
    include_str!("../../core/src/driver.rs"),
    include_str!("../../gpusim/src/exec.rs"),
    include_str!("../src/callgraph.rs"),
    include_str!("../src/rules/k1.rs"),
    include_str!("../src/rules/e1.rs"),
    include_str!("../src/rules/c1.rs"),
];

/// A char-aligned window of `src`, wrapped to stay in range.
fn window(src: &str, start: usize, len: usize) -> String {
    let chars: Vec<char> = src.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let s = start % chars.len();
    let e = (s + len).min(chars.len());
    chars[s..e].iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lex_parse_never_panics_and_covers_windows(
        file in 0usize..10,
        start in 0usize..200_000,
        len in 0usize..6_000,
        mutate in 0u64..u64::MAX,
    ) {
        let mut text = window(CORPUS[file], start, len);
        // Splice in a structural character to stress error recovery:
        // windows already cut items mid-token; this adds unbalanced
        // braces, stray quotes, and half-open attributes.
        const SPICE: [char; 8] = ['{', '}', '(', ')', '"', '#', '!', ';'];
        if !text.is_empty() && mutate % 3 != 0 {
            let chars: Vec<char> = text.chars().collect();
            let pos = (mutate as usize / 3) % chars.len();
            let c = SPICE[(mutate as usize / 7) % SPICE.len()];
            text = chars[..pos]
                .iter()
                .chain([c].iter())
                .chain(chars[pos + 1..].iter())
                .collect();
        }
        let toks = lexer::lex(&text);
        let parsed = ast::parse(&toks);
        ast::check_coverage(&toks, &parsed).expect("span coverage");
    }

    #[test]
    fn full_workspace_files_roundtrip(file in 0usize..10) {
        // On intact sources the parser must produce real items (not
        // recover everything into opaque blobs) and still satisfy the
        // same coverage invariant.
        let toks = lexer::lex(CORPUS[file]);
        let parsed = ast::parse(&toks);
        ast::check_coverage(&toks, &parsed).expect("span coverage");
        assert!(
            parsed.items.len() > 1,
            "expected multiple items, got {}",
            parsed.items.len()
        );
    }
}
