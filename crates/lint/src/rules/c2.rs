//! C2 — path-sensitive collective divergence.
//!
//! C1 flags a collective *lexically* under a rank guard. C2 upgrades
//! that to symbolic per-path reasoning over the CFG: enumerate the
//! feasible paths through each function, record the **collective
//! trace** each path executes (which `Comm` collectives, in which
//! order, splicing in callee summaries through the call graph), and
//! report when two paths that agree on every *data* decision but
//! differ on a *rank-dependent* decision produce different traces.
//! That is the static form of the cross-rank divergence hacc-san's Q1
//! ledger catches at runtime: some ranks will execute one collective
//! sequence, other ranks the other, and the job deadlocks.
//!
//! Path semantics:
//! * Conditions are keyed by their rendered text; a path never takes
//!   `true` and `false` on the same key (feasibility pruning), and
//!   each CFG edge is taken at most once per path (loops contribute
//!   their 0- and 1-iteration shapes).
//! * Rank-dependence: a condition mentioning `rank` / `rank_id` /
//!   `my_rank` / `world_rank`, calling `.rank()`, or testing a local
//!   assigned from such an expression.
//! * Paths are grouped by their assignments to every *non*-rank
//!   decision — including `?` error exits and `let`-`else`
//!   refutations, which are per-rank data: an early `Err` return is
//!   error propagation for the caller/supervisor to handle, not a
//!   collective ordering bug. Divergence is only reported *within* a
//!   group, where every difference is attributable to rank.
//! * Call-graph splicing is bottom-up over SCCs with the summary
//!   solver; a callee with internally divergent traces is reported at
//!   its own definition, and callers splice its first (canonical)
//!   trace. Recursive expansion is bounded by the k-limited call
//!   strings of the framework (the summary fixpoint caps trace sets).
//!
//! One finding per function, carrying both paths' rank decisions and
//! traces as the witness. Suppression: `// c2: allow: <reason>` on the
//! `fn` line or the line above; `#[cfg(test)]` and `tests/`/`benches/`
//! trees are exempt.

use std::collections::{BTreeMap, BTreeSet};

use super::spmd::{collective, mentions_rank};
use crate::ast::{self, Block, Expr, ExprKind};
use crate::callgraph::{CallGraph, FnId};
use crate::cfg::{lower_fn, EdgeKind, FnCfg, Outcome};
use crate::context::{near, Context};
use crate::dataflow::solve_summaries;
use hacc_telem::diag::{Diagnostic, Rule, WitnessStep};

/// Paths enumerated per function (hard cap — beyond this the function
/// is too branchy for path-sensitive reporting and we keep the first
/// arrivals, which cover the shallow branch structure).
const MAX_PATHS: usize = 64;
/// Distinct traces kept in a function's summary.
const MAX_TRACES: usize = 8;

/// One collective execution in a trace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct TraceStep {
    /// `barrier`, `all_reduce (via Checkpoint::write)`, ...
    label: String,
    file: String,
    line: u32,
}

type Trace = Vec<TraceStep>;

/// One enumerated path: rank decisions + data decisions + trace.
struct PathInfo {
    /// (cond key, outcome, line) for rank-tagged conditions, in order.
    rank_decisions: Vec<(String, Outcome, u32)>,
    /// Canonical group key: sorted (key, outcome) over non-rank
    /// conditions.
    group: Vec<(String, Outcome)>,
    trace: Trace,
}

fn outcome_str(o: Outcome) -> String {
    match o {
        Outcome::True => "true".into(),
        Outcome::False => "false".into(),
        Outcome::Arm(i) => format!("arm {i}"),
        Outcome::Ok => "Ok".into(),
        Outcome::Err => "Err".into(),
    }
}

/// Locals assigned from a rank expression anywhere in the body
/// (one propagation round: `let me = comm.rank(); let lead = me == 0;`).
fn rank_locals(body: &Block) -> BTreeSet<String> {
    let mut locals = BTreeSet::new();
    for _ in 0..2 {
        let mut next = locals.clone();
        ast::walk_lets(body, &mut |names, _, init| {
            if init.is_some_and(|e| mentions_rank(e, &locals)) {
                next.extend(names.iter().cloned());
            }
        });
        if next.len() == locals.len() {
            break;
        }
        locals = next;
    }
    locals
}

/// Enumerate feasible paths through `cfg`, splicing callee traces.
fn enumerate_paths(
    cfg: &FnCfg<'_>,
    file: &str,
    fid: FnId,
    cg: &CallGraph<'_>,
    summaries: &dyn Fn(FnId) -> Vec<Trace>,
) -> Vec<PathInfo> {
    struct Frame {
        block: usize,
        /// Next successor edge index to try.
        next_succ: usize,
        /// Trace length when this frame was entered (for unwinding).
        trace_len: usize,
        decisions_len: usize,
        /// Edge `(block, succ index)` taken *into* this frame — popped
        /// from the path-edge set when the frame unwinds. `None` for
        /// the entry frame.
        in_edge: Option<(usize, usize)>,
    }

    // Collective events of one block, callee splices included.
    let block_trace = |b: usize| -> Trace {
        let mut t = Trace::new();
        for &ev in &cfg.blocks[b].events {
            ast::walk_expr(ev, &mut |e: &Expr| {
                if let Some(method) = collective(e) {
                    t.push(TraceStep {
                        label: method.to_string(),
                        file: file.to_string(),
                        line: e.line,
                    });
                    return;
                }
                if matches!(e.kind, ExprKind::Call { .. } | ExprKind::MethodCall { .. }) {
                    for site in &cg.calls[fid] {
                        if site.line != e.line {
                            continue;
                        }
                        let callee_traces = summaries(site.callee);
                        if let Some(first) = callee_traces.first() {
                            for step in first {
                                t.push(TraceStep {
                                    label: format!(
                                        "{} (via `{}`)",
                                        step.label.split(" (via").next().unwrap_or(&step.label),
                                        cg.nodes[site.callee].qual_name()
                                    ),
                                    file: step.file.clone(),
                                    line: step.line,
                                });
                            }
                        }
                    }
                }
            });
        }
        t
    };

    // One decision: (cond id, key, outcome, line, rank-tagged).
    type Decision = (usize, String, Outcome, u32, bool);
    let mut paths = Vec::new();
    let mut trace = block_trace(FnCfg::ENTRY);
    let mut decisions: Vec<Decision> = Vec::new();
    // Edges on the *current* path — each edge at most once per path, so
    // every loop contributes its 0- and 1-iteration shapes and the walk
    // terminates on any CFG, reducible or not.
    let mut path_edges: Vec<(usize, usize)> = Vec::new();
    let mut stack = vec![Frame {
        block: FnCfg::ENTRY,
        next_succ: 0,
        trace_len: 0,
        decisions_len: 0,
        in_edge: None,
    }];
    let mut steps = 0u32;
    let record = |trace: &Trace, decisions: &[Decision], paths: &mut Vec<PathInfo>| {
        // Loop re-tests of one cond get per-occurrence group keys, so a
        // data loop's 0- and 1-iteration paths land in different groups
        // (never falsely compared), while a rank loop's do get compared.
        let mut occ: BTreeMap<usize, u32> = BTreeMap::new();
        let mut group: Vec<(String, Outcome)> = Vec::new();
        let mut rank_decisions = Vec::new();
        for (cid, key, o, l, tagged) in decisions {
            let n = occ.entry(*cid).or_insert(0);
            let k = *n;
            *n += 1;
            if *tagged {
                rank_decisions.push((key.clone(), *o, *l));
            } else {
                group.push((format!("{key}#{k}"), *o));
            }
        }
        group.sort();
        group.dedup();
        paths.push(PathInfo { rank_decisions, group, trace: trace.clone() });
    };

    while let Some(top) = stack.last_mut() {
        steps += 1;
        if paths.len() >= MAX_PATHS || steps > 50_000 {
            break;
        }
        let b = top.block;
        let terminal = b == FnCfg::EXIT || cfg.blocks[b].succs.is_empty();
        let si = top.next_succ;
        if terminal || si >= cfg.blocks[b].succs.len() {
            if terminal {
                record(&trace, &decisions, &mut paths);
            } else if si == 0 {
                // All successor edges were already on the path (a loop
                // retraversal): treat as path end so the prefix is kept.
                record(&trace, &decisions, &mut paths);
            }
            let f = stack.pop().unwrap();
            trace.truncate(f.trace_len);
            decisions.truncate(f.decisions_len);
            if f.in_edge.is_some() {
                path_edges.pop();
            }
            continue;
        }
        top.next_succ += 1;
        let (succ, kind) = cfg.blocks[b].succs[si];
        if path_edges.contains(&(b, si)) {
            continue;
        }
        // Feasibility: a *different* cond with the same syntactic key
        // must repeat its outcome (`if c {..} if c {..}` never goes
        // true-then-false). A re-test of the *same* cond id is a loop
        // head re-evaluation — a fresh decision by construction.
        let mut edge_decision: Option<Decision> = None;
        if let EdgeKind::Cond { cond, outcome } = kind {
            let ci = &cfg.conds[cond];
            let retest = decisions.iter().any(|d| d.0 == cond);
            if !retest {
                if let Some(prev) = decisions.iter().find(|d| d.1 == ci.key) {
                    if prev.2 != outcome {
                        continue;
                    }
                }
            }
            edge_decision = Some((cond, ci.key.clone(), outcome, ci.line, ci.tagged));
        }
        let tl = trace.len();
        let dl = decisions.len();
        if let Some(d) = &edge_decision {
            decisions.push(d.clone());
        }
        trace.extend(block_trace(succ));
        path_edges.push((b, si));
        stack.push(Frame {
            block: succ,
            next_succ: 0,
            trace_len: tl,
            decisions_len: dl,
            in_edge: Some((b, si)),
        });
    }
    paths
}

pub fn run(cx: &Context<'_>, reaches: &[bool]) -> Vec<Diagnostic> {
    let cg = &cx.cg;
    let allowed = cx.allowed("c2");

    // Lower every production fn that can reach a collective, with
    // rank-classification. The rest have only empty traces: nothing to
    // splice, nothing to diverge.
    let mut cfgs: Vec<Option<FnCfg<'_>>> = Vec::with_capacity(cg.nodes.len());
    for (fid, n) in cg.nodes.iter().enumerate() {
        cfgs.push(n.def.body.as_ref().filter(|_| !n.in_test && reaches[fid]).map(|body| {
            let locals = rank_locals(body);
            lower_fn(n.def, &|e: &Expr| mentions_rank(e, &locals))
        }));
    }

    // Bottom-up trace summaries (distinct traces per fn, capped).
    let summaries: Vec<Vec<Trace>> =
        solve_summaries(cg, Vec::new(), &mut |fid, get| {
            let Some(cfg) = &cfgs[fid] else { return Vec::new() };
            let paths =
                enumerate_paths(cfg, cg.nodes[fid].file, fid, cg, &|id| get(id));
            let mut traces: Vec<Trace> =
                paths.into_iter().map(|p| p.trace).collect();
            traces.sort();
            traces.dedup();
            traces.truncate(MAX_TRACES);
            traces
        });

    // Findings: re-enumerate with final summaries and compare groups.
    let mut out = Vec::new();
    for (fid, n) in cg.nodes.iter().enumerate() {
        let Some(cfg) = &cfgs[fid] else { continue };
        if near(&allowed, n.file, n.def.line) {
            continue;
        }
        let paths = enumerate_paths(cfg, n.file, fid, cg, &|id| summaries[id].clone());
        let mut groups: BTreeMap<&[(String, Outcome)], Vec<&PathInfo>> = BTreeMap::new();
        for p in &paths {
            groups.entry(p.group.as_slice()).or_default().push(p);
        }
        'fn_done: for (_, members) in groups {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let (a, b) = (members[i], members[j]);
                    if a.trace == b.trace {
                        continue;
                    }
                    out.push(divergence(n.file, n.def.line, &cg.nodes[fid].qual_name(), a, b));
                    break 'fn_done;
                }
            }
        }
    }
    out
}

fn trace_names(t: &Trace) -> String {
    if t.is_empty() {
        "(none)".into()
    } else {
        t.iter().map(|s| s.label.as_str()).collect::<Vec<_>>().join(", ")
    }
}

fn divergence(file: &str, line: u32, qual: &str, a: &PathInfo, b: &PathInfo) -> Diagnostic {
    let mut witness = Vec::new();
    for (tag, p) in [("path A", a), ("path B", b)] {
        for (key, o, l) in p.rank_decisions.iter().take(4) {
            witness.push(WitnessStep {
                file: file.to_string(),
                line: *l,
                label: format!("{tag}: rank-dependent `{key}` -> {}", outcome_str(*o)),
            });
        }
        if p.trace.is_empty() {
            witness.push(WitnessStep {
                file: file.to_string(),
                line,
                label: format!("{tag}: reaches exit with no collectives"),
            });
        }
        for step in p.trace.iter().take(6) {
            witness.push(WitnessStep {
                file: step.file.clone(),
                line: step.line,
                label: format!("{tag}: collective `{}`", step.label),
            });
        }
    }
    Diagnostic {
        file: file.to_string(),
        line,
        rule: Rule::C2,
        message: format!(
            "two feasible paths through `{qual}` agree on every data branch but \
             diverge on rank-dependent decisions, executing different collective \
             sequences: [{}] vs [{}] — every rank must reach the same collectives \
             in the same order (`// c2: allow: <reason>` to justify)",
            trace_names(&a.trace),
            trace_names(&b.trace),
        ),
        witness,
    }
}
