//! The `lint.allow` suppression file.
//!
//! Every suppression is scoped to (file, rule) and must carry a
//! justification — an allowlist entry is a reviewed decision, not an
//! off switch. Format, one entry per line:
//!
//! ```text
//! # comment
//! crates/telem/src/span.rs: D1: wall_s is the blessed measurement; exporters keep it non-golden
//! ```
//!
//! Parsing is strict: an unknown rule code or an empty justification is
//! a hard error (exit 2), so a typo cannot silently grant a suppression.
//! Entries that match no finding are reported after a run — a stale
//! suppression is a smell worth surfacing.

use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Rule};

/// Walk upward from `start` to the manifest declaring `[workspace]` —
/// the directory `lint.allow` and `san.allow` live in.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
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

/// One parsed suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Workspace-relative file the suppression covers.
    pub file: String,
    /// Rule being suppressed in that file.
    pub rule: Rule,
    /// Mandatory human rationale.
    pub justification: String,
    /// Line in `lint.allow` (for error reporting).
    pub line: u32,
}

/// The parsed suppression set, tracking which entries matched.
#[derive(Debug, Default)]
pub struct AllowList {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl AllowList {
    /// The empty list (no suppressions).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parse the file format above. `origin` names the file in errors.
    pub fn parse(text: &str, origin: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (file, rest) = line
                .split_once(':')
                .ok_or_else(|| format!("{origin}:{lineno}: expected `file: RULE: justification`"))?;
            let (code, justification) = rest
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("{origin}:{lineno}: expected `file: RULE: justification`"))?;
            let rule = Rule::from_code(code.trim()).ok_or_else(|| {
                format!("{origin}:{lineno}: unknown rule code {:?}", code.trim())
            })?;
            let justification = justification.trim();
            if justification.is_empty() {
                return Err(format!(
                    "{origin}:{lineno}: suppression of {} in {} has no justification",
                    rule.code(),
                    file.trim()
                ));
            }
            entries.push(AllowEntry {
                file: file.trim().to_string(),
                rule,
                justification: justification.to_string(),
                line: lineno,
            });
        }
        let used = vec![false; entries.len()];
        Ok(Self { entries, used })
    }

    /// True (and marks the entry used) when a suppression covers `d`.
    pub fn suppresses(&mut self, d: &Diagnostic) -> bool {
        let mut hit = false;
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == d.rule && e.file == d.file {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries that never matched a finding this run.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e)
            .collect()
    }

    /// Number of parsed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries were parsed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, rule: Rule) -> Diagnostic {
        Diagnostic::new(file, 1, rule, "m")
    }

    #[test]
    fn parse_and_suppress() {
        let mut a = AllowList::parse(
            "# header\n\ncrates/x/src/a.rs: D1: measured wall time feeds a non-golden field\n",
            "lint.allow",
        )
        .unwrap();
        assert_eq!(a.len(), 1);
        assert!(a.suppresses(&diag("crates/x/src/a.rs", Rule::D1)));
        assert!(!a.suppresses(&diag("crates/x/src/a.rs", Rule::H1)));
        assert!(!a.suppresses(&diag("crates/x/src/b.rs", Rule::D1)));
        assert!(a.unused().is_empty());
    }

    #[test]
    fn justification_is_mandatory() {
        assert!(AllowList::parse("a.rs: D1:\n", "f").is_err());
        assert!(AllowList::parse("a.rs: D1:   \n", "f").is_err());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        assert!(AllowList::parse("a.rs: Q7: because\n", "f").is_err());
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(AllowList::parse("just some words\n", "f").is_err());
    }

    #[test]
    fn unused_entries_are_reported() {
        let a = AllowList::parse("a.rs: D1: a stale suppression\n", "f").unwrap();
        assert_eq!(a.unused().len(), 1);
    }
}
