//! D1 — determinism.
//!
//! Four lexical checks back the golden-run contract:
//!
//! 1. **Hash-ordered collections in golden paths.** Iterating a
//!    `HashMap`/`HashSet` visits entries in hasher order, which varies
//!    with `RandomState` — any value that flows from such an iteration
//!    into telemetry, analysis output, or a cross-rank reduction breaks
//!    bitwise reproducibility. The rule flags *any* mention of a hash
//!    collection in the scoped golden paths (`crates/telem/src`,
//!    `crates/analysis/src`, `crates/core/src/driver.rs`): in those
//!    files the fix is always `BTreeMap`/`BTreeSet` or a sort before
//!    iteration, so mere presence is the signal.
//!
//! 2. **Wall-clock reads outside the blessed modules.** `Instant::now`
//!    and `SystemTime` are how wall time leaks into what should be a
//!    pure function of the seed. Only the `crates/bench` harness may
//!    read clocks; anything else — the span tracer, the one
//!    wall-duration authority of a run, included — needs a reviewed
//!    `lint.allow` entry. A timed wait (`wait_timeout`, `park_timeout`,
//!    `recv_timeout`, `thread::sleep`) is a clock read in disguise —
//!    what the code does next depends on how long something took — and
//!    is flagged the same way: a blocking point parks on the scheduler
//!    and is woken by an event or a quiescence proof.
//!
//! 3. **Environment reads outside the two env owners.** `std::env::var`
//!    (and `var_os` / `vars` / `option_env!`) is ambient configuration:
//!    two runs of the same seed on different machines silently diverge,
//!    and a benchmark no longer knows what it measured. Every knob must
//!    arrive through the parsed config; only `crates/san/src/lib.rs`
//!    (`HACC_SAN`, `HACC_SAN_ALLOW`: the tier-4 full-suite gate) and
//!    `crates/bench` may read the environment.
//!
//! 4. **Thread creation outside the two thread owners.** Ranks on
//!    `hacc_rt::sched` lanes are the host's only parallelism: the
//!    scheduler's "only `lanes` run permits exist" holds for the whole
//!    process only if nothing else starts OS threads. `thread::spawn`,
//!    `thread::scope` and `thread::Builder` paths are flagged outside
//!    `ranks::comm` (hosting ranks), `iosim::tiers` (hosting the
//!    bleeder) and `crates/bench`.
//!
//! `#[cfg(test)]` regions and `tests/`/`benches/` trees are exempt —
//! test scaffolding may time itself without touching golden artifacts.

use crate::context::{is_test_path, Context};
use hacc_telem::diag::{Diagnostic, Rule};
use crate::lexer::{Kind, Token};
use crate::SourceFile;

/// Paths where hash-ordered collections are output-affecting.
const GOLDEN_SCOPES: [&str; 3] = [
    "crates/telem/src/",
    "crates/analysis/src/",
    "crates/core/src/driver.rs",
];

/// Modules blessed to read wall clocks.
const CLOCK_ALLOWED: [&str; 1] = ["crates/bench/"];

/// Calls that wait on the wall clock.
const TIMED_WAITS: [&str; 3] = ["wait_timeout", "park_timeout", "recv_timeout"];

/// Modules that may create OS threads: the rank host, the bleeder host,
/// and the bench harness.
const THREAD_ALLOWED: [&str; 3] = [
    "crates/ranks/src/comm.rs",
    "crates/iosim/src/tiers.rs",
    "crates/bench/",
];

/// Modules that may read the process environment: the sanitizer's
/// full-suite gate and the bench harness.
const ENV_ALLOWED: [&str; 2] = ["crates/san/src/lib.rs", "crates/bench/"];

fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes
        .iter()
        .any(|s| rel == s.trim_end_matches('/') || rel.starts_with(s))
}

/// The file's tokens without comments, so `a :: b` paths are adjacent.
fn code_tokens(f: &SourceFile) -> Vec<&Token> {
    f.toks.iter().filter(|t| t.kind != Kind::Comment).collect()
}

/// For a non-test `head::tail` path starting at token `i`, the `tail`
/// identifier's text.
fn path_tail<'a>(toks: &[&'a Token], i: usize, head: &str) -> Option<&'a str> {
    let path = toks.get(i..i + 4)?;
    (path[0].is_ident(head)
        && !path[0].in_test
        && path[1].is_punct(':')
        && path[2].is_punct(':')
        && path[3].kind == Kind::Ident)
        .then_some(path[3].text.as_str())
}

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &cx.ws.files {
        if in_scope(&f.rel, &GOLDEN_SCOPES) {
            hash_collections(f, &mut out);
        }
        if is_test_path(&f.rel) {
            continue;
        }
        let toks = code_tokens(f);
        if !in_scope(&f.rel, &ENV_ALLOWED) {
            env_reads(f, &toks, &mut out);
        }
        if !in_scope(&f.rel, &CLOCK_ALLOWED) {
            wall_clock(f, &toks, &mut out);
        }
        if !in_scope(&f.rel, &THREAD_ALLOWED) {
            thread_creation(f, &toks, &mut out);
        }
    }
    out
}

fn hash_collections(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &f.toks {
        if t.kind != Kind::Ident || t.in_test {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(Diagnostic { witness: Vec::new(),
                file: f.rel.clone(),
                line: t.line,
                rule: Rule::D1,
                message: format!(
                    "`{}` in a golden/reduction path: iteration order depends on \
                     hasher state; use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            });
        }
    }
}

fn env_reads(f: &SourceFile, toks: &[&Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        let what = if t.is_ident("option_env")
            && !t.in_test
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            "option_env!"
        } else if matches!(path_tail(toks, i, "env"), Some("var" | "var_os" | "vars")) {
            "std::env::var"
        } else {
            continue;
        };
        out.push(Diagnostic { witness: Vec::new(),
            file: f.rel.clone(),
            line: t.line,
            rule: Rule::D1,
            message: format!(
                "`{what}` outside the two env owners (crates/san's tier-4 gate, \
                 crates/bench): ambient environment must not steer a run — plumb \
                 the knob through core::config instead"
            ),
        });
    }
}

fn wall_clock(f: &SourceFile, toks: &[&Token], out: &mut Vec<Diagnostic>) {
    const TIMED: &str = "a timed wait is a clock read in disguise — park on the \
                         scheduler and be woken by an event";
    for (i, t) in toks.iter().enumerate() {
        let (what, advice) = if t.is_ident("SystemTime") && !t.in_test {
            ("SystemTime", "wall time must not reach deterministic state")
        } else if path_tail(toks, i, "Instant") == Some("now") {
            ("Instant::now", "route timing through the span tracer")
        } else if path_tail(toks, i, "thread") == Some("sleep") {
            ("thread::sleep", TIMED)
        } else if TIMED_WAITS.iter().any(|w| t.is_ident(w))
            && !t.in_test
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            (t.text.as_str(), TIMED)
        } else {
            continue;
        };
        out.push(Diagnostic { witness: Vec::new(),
            file: f.rel.clone(),
            line: t.line,
            rule: Rule::D1,
            message: format!(
                "`{what}` outside the blessed timer module (crates/bench): {advice}"
            ),
        });
    }
}

fn thread_creation(f: &SourceFile, toks: &[&Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in toks.iter().enumerate() {
        let Some(what @ ("spawn" | "scope" | "Builder")) = path_tail(toks, i, "thread") else {
            continue;
        };
        out.push(Diagnostic { witness: Vec::new(),
            file: f.rel.clone(),
            line: t.line,
            rule: Rule::D1,
            message: format!(
                "`thread::{what}` outside the two thread owners (ranks::comm hosting \
                 ranks, iosim::tiers hosting the bleeder): ranks on sched lanes \
                 are the host's only parallelism — use more ranks, not more threads"
            ),
        });
    }
}
