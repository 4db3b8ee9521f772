//! `hacc-lint` — workspace-native static analysis for determinism,
//! SPMD collective safety, and hermeticity.
//!
//! The golden-run, chaos, and hermetic-build tiers assert this repo's
//! headline properties (bitwise-reproducible checkpoints, deadlock-free
//! collectives, offline builds) *at runtime*. This crate is the static
//! side of the same contract, on one front end: a std-only lexer
//! ([`lexer`]) tokenizes every Rust source in the workspace (a
//! line-level manifest reader ([`manifest`]) scans every `Cargo.toml`)
//! and a recursive-descent parser ([`ast`]) turns each token stream
//! into spanned items and expressions, once. One analysis context
//! ([`context`]) per lint pass then holds the workspace index with its
//! one call resolver and one typer ([`index`]), and the call graph
//! built with them ([`callgraph`]), over which the interprocedural
//! rules solve their per-function summaries bottom-up. There is no
//! control-flow graph: every AST rule walks the parsed tree. The rule
//! registry ([`rules`]) hands that one context to every rule:
//!
//! | rule | reads | class |
//! |------|-------|-------|
//! | D1   | tokens           | hash-ordered iteration in golden paths; stray wall-clock reads (timed waits included), env reads and thread creation |
//! | C1   | AST + call graph | collectives under rank-dependent guards or after rank-guarded exits (SPMD deadlock) |
//! | H1   | tokens + manifests | non-path dependencies, `extern crate`, `use ::` escapes      |
//! | F1   | tokens           | `FaultKind` variants no production site can inject             |
//! | P1   | AST              | heap allocation in per-pair kernels, tile loops, hot loops     |
//! | E1   | AST + call graph | unregistered panics reachable from the supervised step loop    |
//! | V1   | AST + call graph | lane-divergence blockers in the hot interaction tiles          |
//!
//! Findings print as `file:line: [RULE] message` (plus an indented
//! witness chain for interprocedural findings); `--json` emits the
//! stable `hacc-lint/2` schema (`docs/LINT.md`). A finding is
//! suppressed only at its site: a `// <rule>: allow: <reason>` comment
//! (`d1`, `c1`, ..., `v1`) on its line or the line above, applied once
//! after every rule by [`rules::run_all`]. A marker that suppresses
//! nothing is itself a finding, so a stale one cannot wait for the next
//! violation beside it. Exit codes: 0 clean, 1 findings, 2 bad
//! invocation/IO. The `hacc-lint` binary is the one way to run it (the
//! tier-0 gate in `scripts/verify.sh`); nothing that simulates depends
//! on this crate — the finding format both it and `hacc-san` speak
//! lives in `hacc-telem`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

pub mod ast;
pub mod callgraph;
pub mod context;
pub mod index;
pub mod lexer;
pub mod manifest;
pub mod rules;

use hacc_telem::diag;
pub use hacc_telem::{Diagnostic, Rule};

/// One lexed + parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Token stream (comments included; test regions marked).
    pub toks: Vec<lexer::Token>,
    /// Recursive-descent parse of `toks` (never fails; unparseable
    /// regions degrade to `Other` items and skipped tokens).
    pub ast: ast::File,
}

/// Everything the rules see: lexed sources plus scanned manifests.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Lexed `.rs` files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Scanned `Cargo.toml` files, sorted by path.
    pub manifests: Vec<manifest::ManifestFile>,
}

/// Directories never scanned (build output, VCS, artifacts).
const SKIP_DIRS: [&str; 4] = ["target", ".git", "bench_artifacts", "node_modules"];

impl Workspace {
    /// Build a workspace from in-memory sources — the fixture entry
    /// point for rule tests. Paths ending in `Cargo.toml` are scanned
    /// as manifests, everything else is lexed as Rust.
    pub fn from_sources(entries: &[(&str, &str)]) -> Self {
        let mut ws = Workspace::default();
        for (rel, text) in entries {
            ws.add(rel.to_string(), text);
        }
        ws.sort();
        ws
    }

    /// Scan `text` as a manifest (`Cargo.toml`) or lex + parse it as Rust.
    fn add(&mut self, rel: String, text: &str) {
        if rel.ends_with("Cargo.toml") {
            self.manifests.push(manifest::scan(&rel, text));
        } else {
            let toks = lexer::lex(text);
            let ast = ast::parse(&toks);
            self.files.push(SourceFile { rel, toks, ast });
        }
    }

    /// Recursively load every `.rs` and `Cargo.toml` under `root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut ws = Workspace::default();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let entries = std::fs::read_dir(&dir)
                .map_err(|e| format!("read {}: {e}", dir.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if path.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                        stack.push(path);
                    }
                } else if name == "Cargo.toml" || name.ends_with(".rs") {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    ws.add(relpath(root, &path), &text);
                }
            }
        }
        ws.sort();
        Ok(ws)
    }

    fn sort(&mut self) {
        self.files.sort_by(|a, b| a.rel.cmp(&b.rel));
        self.manifests.sort_by(|a, b| a.rel.cmp(&b.rel));
    }
}

fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walk upward from `start` to the manifest declaring `[workspace]`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        dir = dir.parent()?.to_path_buf();
    }
}

/// The CLI driver behind the `hacc-lint` binary.
///
/// ```text
/// hacc-lint [--root DIR] [--json]
/// ```
///
/// Returns the process exit code: 0 clean, 1 findings (stale
/// suppression markers among them), 2 invocation or IO error.
pub fn cli_main(args: &[String]) -> i32 {
    let (mut root, mut json) = (None, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => {
                let Some(v) = it.next() else {
                    eprintln!("lint: --root requires a directory");
                    return 2;
                };
                root = Some(PathBuf::from(v));
            }
            other => {
                eprintln!("lint: unknown option {other:?} (expected --root DIR | --json)");
                return 2;
            }
        }
    }

    let start = root.unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = find_workspace_root(&start) else {
        eprintln!("lint: no workspace Cargo.toml found at or above {}", start.display());
        return 2;
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: {e}");
            return 2;
        }
    };
    let findings = rules::run_all(&ws);

    if json {
        print!("{}", diag::render_json(&findings));
    } else {
        findings.iter().for_each(|d| println!("{}", d.render()));
        eprintln!(
            "hacc-lint: {} file(s), {} manifest(s): {} finding(s)",
            ws.files.len(),
            ws.manifests.len(),
            findings.len()
        );
    }
    i32::from(!findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sources_routes_manifests_and_rust() {
        let ws = Workspace::from_sources(&[
            ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"),
            ("crates/x/src/lib.rs", "fn f() {}"),
        ]);
        assert_eq!(ws.files.len(), 1);
        assert_eq!(ws.manifests.len(), 1);
        assert_eq!(ws.manifests[0].package.as_deref(), Some("x"));
    }
}
