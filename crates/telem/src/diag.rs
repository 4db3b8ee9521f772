//! Diagnostics: the rule catalog, the finding record, and the text /
//! JSON renderers behind `hacc-lint [--json]` and a sanitized run's
//! `sanitizer.txt` / `sanitizer.json`.

/// The rule catalog. Codes are stable API: they appear in diagnostics,
/// in `lint.allow` entries, and in CI logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Determinism: hash-ordered collections in golden/reduction paths;
    /// wall-clock reads outside the blessed timer modules.
    D1,
    /// Collective consistency: a communicator collective (or a call that
    /// transitively executes one) lexically inside a rank-dependent
    /// conditional or after a rank-guarded early exit (SPMD deadlock
    /// hazard).
    C1,
    /// Hermeticity: every manifest dependency must be a path/workspace
    /// reference; no `extern crate` / `use ::` escape hatches.
    H1,
    /// Fault-site coverage: every `FaultKind` variant must be injected by
    /// at least one production `fire(...)` call site.
    F1,
    /// Hot-loop allocation: heap-allocating calls inside interaction-tile
    /// loops, per-pair kernel bodies, or `// p1: hot-loop` marked loops.
    P1,
    /// Panic surface: an explicit panic site (`unwrap`/`expect`/
    /// `panic!`-family) reachable through the call graph from the
    /// supervised step loop without being a registered `FaultKind`
    /// injection or `// e1: allow:`-justified.
    E1,
    /// Hot-tile vectorization blockers: early exits, unguarded
    /// bounds-checked indexing, non-inline calls, or order-dependent
    /// scalar accumulation in `interact`/`interact_pair` bodies and
    /// `execute_leaf*` lane loops.
    V1,
    /// Dynamic (hacc-san): an annotated region one rank wrote and another
    /// rank touched — rank-private state shared across ranks.
    R1,
    /// Dynamic (hacc-san): collective sequence or signature divergence
    /// across ranks (MUST-style collective matching).
    Q1,
    /// Dynamic (hacc-san): wait-for-graph deadlock cycle or a wait on an
    /// exited rank (stall).
    W1,
    /// Dynamic (hacc-san): point-to-point match with a payload size or
    /// type that disagrees with what the sender declared.
    M1,
}

/// All rules, in report order. D1–V1 are `hacc-lint`'s static rules
/// (D1/H1/F1 scan tokens, P1 walks the AST, C1/E1/V1 walk it with the
/// shared call graph of its `context`), and R1/Q1/W1/M1 are dynamic
/// findings emitted by the `hacc-san` runtime sanitizer; one catalog, so
/// `san.allow` and `lint.allow` speak one format.
pub const RULES: [Rule; 11] = [
    Rule::D1,
    Rule::C1,
    Rule::H1,
    Rule::F1,
    Rule::P1,
    Rule::E1,
    Rule::V1,
    Rule::R1,
    Rule::Q1,
    Rule::W1,
    Rule::M1,
];

impl Rule {
    /// Stable code string (`D1`, `C1`, ...).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::C1 => "C1",
            Rule::H1 => "H1",
            Rule::F1 => "F1",
            Rule::P1 => "P1",
            Rule::E1 => "E1",
            Rule::V1 => "V1",
            Rule::R1 => "R1",
            Rule::Q1 => "Q1",
            Rule::W1 => "W1",
            Rule::M1 => "M1",
        }
    }

    /// Parse a code string.
    pub fn from_code(s: &str) -> Option<Rule> {
        RULES.iter().copied().find(|r| r.code() == s)
    }
}

/// One step of an interprocedural witness path (SARIF "code flow"):
/// where control was, and what that hop did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessStep {
    pub file: String,
    pub line: u32,
    /// `rank_main`, `calls Checkpoint::load`, `panics via unwrap`, ...
    pub label: String,
}

/// One finding: `file:line: [RULE] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Interprocedural call-path witness, root first. Empty for
    /// single-location findings.
    pub witness: Vec<WitnessStep>,
}

impl Diagnostic {
    /// A single-location finding (no witness path).
    pub fn new(file: impl Into<String>, line: u32, rule: Rule, message: impl Into<String>) -> Self {
        Diagnostic { file: file.into(), line, rule, message: message.into(), witness: Vec::new() }
    }

    /// The canonical rendering: the finding line, then one indented
    /// line per witness step.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.code(),
            self.message
        );
        for (i, w) in self.witness.iter().enumerate() {
            out.push_str(&format!("\n    {}. {}:{}: {}", i + 1, w.file, w.line, w.label));
        }
        out
    }
}

/// Sort + dedup a batch of findings into report order (file, line, rule,
/// message) so output is byte-stable across runs and platforms.
pub fn normalize(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup();
    diags
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a SARIF-lite JSON document (documented in
/// `docs/LINT.md`). Stable schema, version `"hacc-lint/1"`:
///
/// ```json
/// {
///   "schema": "hacc-lint/1",
///   "results": [
///     {"ruleId": "E1", "level": "error",
///      "message": {"text": "..."},
///      "location": {"uri": "crates/x/src/lib.rs", "line": 7},
///      "codeFlow": [{"uri": "...", "line": 3, "label": "rank_main"}]}
///   ],
///   "suppressed": 0
/// }
/// ```
///
/// `codeFlow` is present only on interprocedural findings. Key order,
/// indentation, and escaping are fixed so CI can byte-compare output.
pub fn render_json(findings: &[Diagnostic], suppressed: usize) -> String {
    let mut out = String::from("{\n  \"schema\": \"hacc-lint/1\",\n  \"results\": [");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"location\": {{\"uri\": \"{}\", \"line\": {}}}",
            d.rule.code(),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line,
        ));
        if !d.witness.is_empty() {
            out.push_str(", \"codeFlow\": [");
            for (j, w) in d.witness.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"uri\": \"{}\", \"line\": {}, \"label\": \"{}\"}}",
                    json_escape(&w.file),
                    w.line,
                    json_escape(&w.label)
                ));
            }
            out.push(']');
        }
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"suppressed\": {}\n}}\n", suppressed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_file_line_rule_message() {
        let d = Diagnostic::new("crates/x/src/lib.rs", 7, Rule::D1, "msg");
        assert_eq!(d.render(), "crates/x/src/lib.rs:7: [D1] msg");
    }

    #[test]
    fn render_appends_witness_steps() {
        let mut d = Diagnostic::new("b.rs", 9, Rule::E1, "panic reachable");
        d.witness = vec![
            WitnessStep { file: "a.rs".into(), line: 3, label: "rank_main".into() },
            WitnessStep { file: "b.rs".into(), line: 9, label: "panics via unwrap".into() },
        ];
        let r = d.render();
        assert!(r.starts_with("b.rs:9: [E1] panic reachable\n"));
        assert!(r.contains("\n    1. a.rs:3: rank_main"));
        assert!(r.contains("\n    2. b.rs:9: panics via unwrap"));
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let d = |f: &str, l: u32| Diagnostic::new(f, l, Rule::D1, "m");
        let out = normalize(vec![d("b.rs", 2), d("a.rs", 9), d("b.rs", 2)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].file, "a.rs");
    }

    #[test]
    fn json_escapes_and_counts() {
        let d = Diagnostic::new("a.rs", 1, Rule::H1, "say \"no\"\n");
        let j = render_json(&[d], 3);
        assert!(j.contains("\"schema\": \"hacc-lint/1\""));
        assert!(j.contains("\\\"no\\\"\\n"));
        assert!(j.contains("\"suppressed\": 3"));
        assert!(!j.contains("codeFlow"), "no witness => no codeFlow key");
        assert_eq!(json_escape("a\"b\\c\u{1}"), "a\\\"b\\\\c\\u0001");
    }

    #[test]
    fn json_emits_code_flow_for_witnessed_findings() {
        let mut d = Diagnostic::new("b.rs", 9, Rule::E1, "m");
        d.witness =
            vec![WitnessStep { file: "a.rs".into(), line: 3, label: "rank_main".into() }];
        let j = render_json(&[d], 0);
        assert!(j.contains(
            "\"codeFlow\": [{\"uri\": \"a.rs\", \"line\": 3, \"label\": \"rank_main\"}]"
        ));
    }

    #[test]
    fn rule_codes_round_trip() {
        for r in RULES {
            assert_eq!(Rule::from_code(r.code()), Some(r));
        }
        assert_eq!(Rule::from_code("Z9"), None);
    }
}
