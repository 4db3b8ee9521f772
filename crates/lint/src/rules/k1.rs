//! K1 — cost-model conformance.
//!
//! The paper's utilization and time-to-solution figures are computed
//! from the `pair_flops()` tables every [`SplitKernel`] declares; PR 6
//! showed those tables can silently drift 2× from the code. This rule
//! replaces the comment-only audits: it statically derives the f64
//! arithmetic cost of each production kernel's `interact_pair` body
//! (falling back to 2× `interact` when no symmetric override exists)
//! with the `cfg` evaluator and cross-checks it against the declared
//! table, field by field.
//!
//! Checks per kernel impl:
//!
//! 1. **Table conformance** — for each of `adds`/`muls`/`fmas`/`trans`,
//!    `declared <= derived <= declared + tolerance` (tolerance defaults
//!    to 0, i.e. exact). The derived count charges the most expensive
//!    non-diverging path, so a data-dependent branch the table chooses
//!    not to bill (e.g. the ForceKernel squared-radius pre-filter) is
//!    declared with a `// k1: tolerance(...)` annotation instead of a
//!    silent fudge.
//! 2. **One-sided bracket** — the symmetric body must cost at least one
//!    one-sided `interact` and at most two (sharing the pair term can
//!    only save work, never add it).
//! 3. **State words** — the literal `state_words()` must equal the f64
//!    word count of the `State` associated type, recursively summed
//!    over nested structs and arrays.
//!
//! Annotation syntax (comments anywhere inside the impl block):
//!
//! ```text
//! // k1: bind K = CubicSpline
//! // k1: tolerance(muls = 2)
//! ```
//!
//! `bind` resolves a generic parameter to a concrete type so kernel
//! methods (`self.kernel.w(...)`) can be costed; `tolerance` grants a
//! per-field slack for data-dependent work. `partial_flops()` is *not*
//! checked (the partial path is trivial for every current kernel and
//! the table is documented as a model input, not an audit).

use std::collections::BTreeMap;

use crate::ast::{Expr, ExprKind, FnDef, ImplDef, Item, ItemKind, Stmt, TypeRef};
use crate::cfg::{Cost, Evaluator, Index};
use crate::context::{markers, Context};
use hacc_telem::diag::{Diagnostic, Rule};
use crate::SourceFile;

/// The four conformance fields, in declaration order.
const FIELDS: [&str; 4] = ["adds", "muls", "fmas", "trans"];

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &cx.ws.files {
        check_items(f, &f.ast.items, &cx.index, &mut out);
    }
    out
}

fn check_items(f: &SourceFile, items: &[Item], index: &Index, out: &mut Vec<Diagnostic>) {
    for it in items {
        if it.in_test {
            continue;
        }
        match &it.kind {
            ItemKind::Mod(_, inner) => check_items(f, inner, index, out),
            ItemKind::Impl(im) if im.trait_name.as_deref() == Some("SplitKernel") => {
                check_kernel(f, it, im, index, out);
            }
            _ => {}
        }
    }
}

/// Per-impl `// k1:` annotations.
#[derive(Default)]
struct Annotations {
    /// `bind G = Type`: generic-parameter substitutions.
    binds: Vec<(String, TypeRef)>,
    /// `tolerance(field = n, ...)`: per-field conformance slack.
    tol: BTreeMap<String, u64>,
}

fn parse_annotations(f: &SourceFile, lo: usize, hi: usize) -> Annotations {
    let mut ann = Annotations::default();
    for (_, rest) in markers(&f.toks[lo..hi.min(f.toks.len())], "k1") {
        if let Some(bind) = rest.strip_prefix("bind ") {
            if let Some((name, ty)) = bind.split_once('=') {
                let name = name.trim();
                let ty = ty.trim().trim_end_matches(|c| c == '.' || c == ';');
                if !name.is_empty() && !ty.is_empty() {
                    ann.binds.push((name.to_string(), TypeRef::simple(ty)));
                }
            }
        } else if let Some(tol) = rest.strip_prefix("tolerance") {
            let inner = tol.trim().trim_start_matches('(').trim_end_matches(|c| c == ')' || c == '.');
            for part in inner.split(',') {
                if let Some((field, n)) = part.split_once('=') {
                    if let Ok(n) = n.trim().parse::<u64>() {
                        ann.tol.insert(field.trim().to_string(), n);
                    }
                }
            }
        }
    }
    ann
}

/// The last expression statement of a body (its value, for the
/// literal-returning shapes K1 reads).
fn last_expr(fd: &FnDef) -> Option<&Expr> {
    fd.body.as_ref()?.stmts.iter().rev().find_map(|s| match s {
        Stmt::Expr(e) => Some(e),
        _ => None,
    })
}

/// Read the declared table out of a `pair_flops`-shaped body: a literal
/// `PairFlops { adds: N, ... }` struct expression (missing fields and
/// `..Default::default()` rests read as 0) or `PairFlops::default()`.
fn declared_table(fd: &FnDef) -> Option<[u64; 4]> {
    match &last_expr(fd)?.kind {
        ExprKind::StructLit { path, fields, .. }
            if path.last().map(String::as_str) == Some("PairFlops") =>
        {
            let mut vals = [0u64; 4];
            for (name, value) in fields {
                let slot = FIELDS.iter().position(|f| f == name)?;
                match &value.kind {
                    ExprKind::Num { text, is_float: false } => {
                        vals[slot] = text.replace('_', "").parse().ok()?;
                    }
                    _ => return None,
                }
            }
            Some(vals)
        }
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs)
                if segs.len() >= 2
                    && segs[segs.len() - 2] == "PairFlops"
                    && segs[segs.len() - 1] == "default" =>
            {
                Some([0; 4])
            }
            _ => None,
        },
        _ => None,
    }
}

/// Read a literal `u64` body (`state_words`-shaped).
fn declared_literal(fd: &FnDef) -> Option<u64> {
    match &last_expr(fd)?.kind {
        ExprKind::Num { text, is_float: false } => text.replace('_', "").parse().ok(),
        _ => None,
    }
}

fn field_of(c: &Cost, name: &str) -> u64 {
    match name {
        "adds" => c.adds,
        "muls" => c.muls,
        "fmas" => c.fmas,
        _ => c.trans,
    }
}

fn check_kernel(
    f: &SourceFile,
    item: &Item,
    im: &ImplDef,
    index: &Index,
    out: &mut Vec<Diagnostic>,
) {
    let find = |name: &str| im.fns.iter().find(|fd| fd.name == name && fd.body.is_some());
    let (Some(pf), Some(interact)) = (find("pair_flops"), find("interact")) else {
        // Not a costable kernel declaration (e.g. a partial fixture).
        return;
    };
    let ty = im.type_name.as_str();
    let ann = parse_annotations(f, item.lo, item.hi);

    let mut diag = |line: u32, message: String| {
        out.push(Diagnostic { witness: Vec::new(), file: f.rel.clone(), line, rule: Rule::K1, message });
    };

    // --- Declared table -------------------------------------------------
    let Some(declared) = declared_table(pf) else {
        diag(
            pf.line,
            format!(
                "cannot read the declared table of `{ty}::pair_flops` — K1 needs a \
                 literal `PairFlops {{ ... }}` struct expression to check against"
            ),
        );
        return;
    };

    // --- Derived costs ---------------------------------------------------
    let mut ev = Evaluator::new(index);
    for (name, tr) in &im.assoc_types {
        ev.bindings.insert(name.clone(), tr.clone());
    }
    for (name, tr) in &ann.binds {
        ev.bindings.insert(name.clone(), tr.clone());
    }

    let one = match ev.eval_fn(Some(ty), interact) {
        Ok(c) => c,
        Err(e) => {
            diag(
                e.line,
                format!("cannot statically cost `{ty}::interact`: {} (K1 needs a bounded, resolvable pair path)", e.msg),
            );
            return;
        }
    };
    let (pair, pair_line) = match find("interact_pair") {
        Some(fd) => match ev.eval_fn(Some(ty), fd) {
            Ok(c) => (c, fd.line),
            Err(e) => {
                diag(
                    e.line,
                    format!("cannot statically cost `{ty}::interact_pair`: {} (K1 needs a bounded, resolvable pair path)", e.msg),
                );
                return;
            }
        },
        // Default symmetric path: two one-sided calls.
        None => (one.scaled(2), interact.line),
    };

    // --- 1. Table conformance -------------------------------------------
    let mut bad = Vec::new();
    for (slot, name) in FIELDS.iter().enumerate() {
        let tol = ann.tol.get(*name).copied().unwrap_or(0);
        let d = field_of(&pair, name);
        if d < declared[slot] || d > declared[slot] + tol {
            bad.push(*name);
        }
    }
    if !bad.is_empty() {
        let declared_c = Cost {
            adds: declared[0],
            muls: declared[1],
            fmas: declared[2],
            trans: declared[3],
            minmax: 0,
        };
        let tol_note = if ann.tol.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> =
                ann.tol.iter().map(|(k, v)| format!("{k} = {v}")).collect();
            format!(" with tolerance({})", parts.join(", "))
        };
        diag(
            pf.line,
            format!(
                "`{ty}::pair_flops` disagrees with the derived cost of the symmetric \
                 pair path on {}: declared {{{}}}{tol_note}, derived {{{}}} — fix the \
                 table or annotate the data-dependent branch with `// k1: tolerance(...)`",
                bad.join(", "),
                declared_c.render(),
                pair.render()
            ),
        );
    }

    // --- 2. One-sided bracket -------------------------------------------
    if pair.total() < one.total() || pair.total() > 2 * one.total() {
        diag(
            pair_line,
            format!(
                "`{ty}::interact_pair` costs {} flops, outside the one-sided bracket \
                 [{}, {}] — a symmetric override may only share work relative to two \
                 `interact` calls, never add it",
                pair.total(),
                one.total(),
                2 * one.total()
            ),
        );
    }

    // --- 3. State words ---------------------------------------------------
    if let Some(sw) = find("state_words") {
        if let Some(declared_words) = declared_literal(sw) {
            if let Some((_, state_ty)) = im.assoc_types.iter().find(|(n, _)| n == "State") {
                match index.float_words(state_ty) {
                    Ok(derived_words) => {
                        if derived_words != declared_words {
                            diag(
                                sw.line,
                                format!(
                                    "`{ty}::state_words` declares {declared_words} but \
                                     `{}` holds {derived_words} f64 words",
                                    state_ty.base
                                ),
                            );
                        }
                    }
                    Err(e) => diag(sw.line, format!("cannot derive `{ty}` state words: {e}")),
                }
            }
        } else {
            diag(
                sw.line,
                format!("cannot read `{ty}::state_words` — K1 needs a literal integer body"),
            );
        }
    }
}
