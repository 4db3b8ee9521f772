//! K1 — cost-model conformance.
//!
//! The paper's utilization and time-to-solution figures are computed
//! from the `pair_flops()` tables every [`SplitKernel`] declares; PR 6
//! showed those tables can silently drift 2× from the code. This rule
//! replaces the comment-only audits: it statically derives the f64
//! arithmetic cost of each production kernel's `interact_pair` body
//! (falling back to 2× `interact` when no symmetric override exists)
//! and cross-checks it against the declared table, field by field.
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
//!
//! The evaluator only counts: calls resolve through the index's one
//! resolver (the call graph's rules; test code is never a target) and
//! every type comes from the one typer, with the impl's associated
//! types and `bind`s as its substitutions. The cost model (DESIGN.md
//! "Static analysis"): `+`/`-` = add, `*` = mul, `/`, `%`, `sqrt`, … =
//! trans, `powi(n)` = n-1 muls, `mul_add` = fma; `x ± a*b` fuses to one
//! FMA when the product's factor spine is literal-free and `x` is not a
//! literal; literal ⊗ literal const-folds free; casts, `min`/`max`/`abs`
//! and integer/bool arithmetic are free; a branch charges the condition
//! plus the most expensive non-diverging arm; `for i in
//! <int-lit>..<int-lit>` multiplies the body by the trip count; a call
//! charges its most expensive resolved target. Any other construct on
//! a costed path — `while`, `loop`, `match`, closures, macros, an
//! unresolvable call — is "cannot statically cost".

use std::collections::BTreeMap;

use crate::ast::{
    self, is_literal, BinOp, Block, Expr, ExprKind, FnDef, ImplDef, Item, ItemKind, Stmt, TypeRef,
};
use crate::context::{markers, Context};
use crate::index::{Env, Index, Ty, Typer};
use crate::SourceFile;
use hacc_telem::diag::{Diagnostic, Rule};

/// The four conformance fields, in declaration order.
const FIELDS: [&str; 4] = ["adds", "muls", "fmas", "trans"];

pub fn run(cx: &Context<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &cx.ws.files {
        check_items(f, &f.ast.items, cx.index, &mut out);
    }
    out
}

fn check_items(f: &SourceFile, items: &[Item], index: &Index, out: &mut Vec<Diagnostic>) {
    for it in items.iter().filter(|it| !it.in_test) {
        match &it.kind {
            ItemKind::Mod(inner) => check_items(f, inner, index, out),
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
                let ty = ty.trim().trim_end_matches(['.', ';']);
                if !name.is_empty() && !ty.is_empty() {
                    ann.binds.push((name.to_string(), TypeRef::simple(ty)));
                }
            }
        } else if let Some(tol) = rest.strip_prefix("tolerance") {
            let inner = tol.trim().trim_start_matches('(').trim_end_matches([')', '.']);
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
fn declared_table(fd: &FnDef) -> Option<Cost> {
    match &last_expr(fd)?.kind {
        ExprKind::StructLit { path, fields } if path.last().map(String::as_str) == Some("PairFlops") => {
            let mut vals = Cost::default();
            for (name, value) in fields {
                vals.0[FIELDS.iter().position(|f| f == name)?] = declared_int(value)?;
            }
            Some(vals)
        }
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Path(segs) if segs.ends_with(&["PairFlops".into(), "default".into()]) => {
                Some(Cost::default())
            }
            _ => None,
        },
        _ => None,
    }
}

/// A literal integer expression's value.
fn declared_int(e: &Expr) -> Option<u64> {
    match &e.kind {
        ExprKind::Num { text, is_float: false } => text.replace('_', "").parse().ok(),
        _ => None,
    }
}

fn check_kernel(f: &SourceFile, item: &Item, im: &ImplDef, index: &Index, out: &mut Vec<Diagnostic>) {
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
    let mut typer = Typer::new(index);
    typer.bindings.extend(im.assoc_types.iter().chain(&ann.binds).cloned());
    let mut ev = Eval { typer, stack: Vec::new() };
    let mut derive = |fd: &FnDef| {
        ev.eval_fn(fd, &f.rel, Some(ty)).map_err(|e| {
            let msg = format!(
                "cannot statically cost `{ty}::{}`: {} (K1 needs a bounded, resolvable pair path)",
                fd.name, e.msg
            );
            (e.line, msg)
        })
    };
    let costs = derive(interact).and_then(|one| match find("interact_pair") {
        Some(fd) => derive(fd).map(|pair| (one, pair, fd.line)),
        // Default symmetric path: two one-sided calls.
        None => Ok((one, one.scaled(2), interact.line)),
    });
    let (one, pair, pair_line) = match costs {
        Ok(c) => c,
        Err((line, msg)) => return diag(line, msg),
    };

    // --- 1. Table conformance -------------------------------------------
    let tol = |name: &str| ann.tol.get(name).copied().unwrap_or(0);
    let off = |&(i, name): &(usize, &str)| {
        pair.0[i] < declared.0[i] || pair.0[i] > declared.0[i] + tol(name)
    };
    let bad: Vec<&str> = FIELDS.into_iter().enumerate().filter(off).map(|(_, name)| name).collect();
    if !bad.is_empty() {
        let tol_note = if ann.tol.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = ann.tol.iter().map(|(k, v)| format!("{k} = {v}")).collect();
            format!(" with tolerance({})", parts.join(", "))
        };
        diag(
            pf.line,
            format!(
                "`{ty}::pair_flops` disagrees with the derived cost of the symmetric \
                 pair path on {}: declared {{{}}}{tol_note}, derived {{{}}} — fix the \
                 table or annotate the data-dependent branch with `// k1: tolerance(...)`",
                bad.join(", "),
                declared.render(),
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
    let Some(sw) = find("state_words") else { return };
    let Some(declared_words) = last_expr(sw).and_then(declared_int) else {
        return diag(sw.line, format!("cannot read `{ty}::state_words` — K1 needs a literal integer body"));
    };
    let Some((_, state_ty)) = im.assoc_types.iter().find(|(n, _)| n == "State") else { return };
    match float_words(index, state_ty, 0) {
        Ok(words) if words != declared_words => diag(
            sw.line,
            format!(
                "`{ty}::state_words` declares {declared_words} but `{}` holds {words} f64 words",
                state_ty.base
            ),
        ),
        Ok(_) => {}
        Err(e) => diag(sw.line, format!("cannot derive `{ty}` state words: {e}")),
    }
}

/// The f64 words of a state type, recursing into nested structs,
/// arrays and tuples. Errors on unresolvable shapes.
fn float_words(index: &Index, ty: &TypeRef, depth: u32) -> Result<u64, String> {
    if depth > 16 {
        return Err("state type nests too deep".into());
    }
    let ty = ty.deref();
    let sum = |tys: &mut dyn Iterator<Item = &TypeRef>| {
        tys.map(|t| float_words(index, t, depth + 1)).sum::<Result<u64, String>>()
    };
    match ty.base.as_str() {
        "f64" | "f32" => Ok(1),
        "[array]" => {
            let elem = ty.args.first().ok_or("array without element type")?;
            let n = ty.array_len.ok_or("array without literal length")?;
            Ok(n * float_words(index, elem, depth + 1)?)
        }
        "(tuple)" => sum(&mut ty.args.iter()),
        name => {
            let sd = index.structs.get(name).ok_or_else(|| format!("cannot resolve state struct `{name}`"))?;
            sum(&mut sd.fields.iter().map(|(_, t)| t))
        }
    }
}

// ---------------------------------------------------------------------------
// The evaluator
// ---------------------------------------------------------------------------

/// `[adds, muls, fmas, trans]`, in [`FIELDS`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost(pub [u64; 4]);

const ADDS: usize = 0;
const MULS: usize = 1;
const FMAS: usize = 2;
const TRANS: usize = 3;

impl Cost {
    pub fn total(&self) -> u64 {
        // Same weights as gpusim::counters::PairFlops::total().
        let [a, m, f, t] = self.0;
        a + m + 2 * f + t
    }
    fn add(&mut self, o: &Cost) {
        (0..4).for_each(|i| self.0[i] += o.0[i]);
    }
    fn scaled(&self, n: u64) -> Cost {
        Cost(self.0.map(|x| x * n))
    }
    fn render(&self) -> String {
        let fields: Vec<String> = FIELDS.iter().zip(self.0).map(|(f, v)| format!("{f}: {v}")).collect();
        fields.join(", ")
    }
}

#[derive(Debug)]
pub struct EvalErr {
    pub line: u32,
    pub msg: String,
}

/// The cost of costed code, and whether it diverges (`return`s).
#[derive(Default)]
struct Out {
    cost: Cost,
    diverges: bool,
}

impl Out {
    fn add(&mut self, o: Out) {
        self.cost.add(&o.cost);
        self.diverges |= o.diverges;
    }
}

type Res = Result<Out, EvalErr>;

fn err<T>(line: u32, msg: impl Into<String>) -> Result<T, EvalErr> {
    Err(EvalErr { line, msg: msg.into() })
}

struct Eval<'i, 'a> {
    typer: Typer<'i, 'a>,
    /// The fns being costed, innermost last, as (self type, definition,
    /// file) — the recursion guard, and the caller file of resolution.
    stack: Vec<(Option<String>, *const FnDef, &'a str)>,
}

impl<'a> Eval<'_, 'a> {
    /// Cost of one invocation of `def` (defined in `file`) with `self`
    /// typed as `self_ty`.
    fn eval_fn(&mut self, def: &FnDef, file: &'a str, self_ty: Option<&str>) -> Result<Cost, EvalErr> {
        let key = (self_ty.map(str::to_string), def as *const FnDef);
        if self.stack.iter().any(|(t, d, _)| (t, d) == (&key.0, &key.1)) {
            return err(def.line, format!("recursive call to `{}`", def.name));
        }
        if self.stack.len() > 24 {
            return err(def.line, "call nesting too deep");
        }
        let Some(body) = &def.body else {
            return err(def.line, format!("`{}` has no body to derive a cost from", def.name));
        };
        let mut env = self.typer.params(def, self_ty);
        self.stack.push((key.0, key.1, file));
        let r = self.block(body, &mut env);
        self.stack.pop();
        r.map(|o| o.cost)
    }

    fn block(&mut self, b: &Block, env: &mut Env) -> Res {
        let mut out = Out::default();
        for s in &b.stmts {
            match s {
                Stmt::Let { names, ty, init, .. } => {
                    if let Some(e) = init {
                        out.add(self.expr(e, env)?);
                    }
                    self.typer.bind(env, names, ty.as_ref(), init.as_ref());
                }
                Stmt::Expr(e) => out.add(self.expr(e, env)?),
                Stmt::Fn(_) | Stmt::Opaque => {}
            }
        }
        Ok(out)
    }

    fn expr(&mut self, e: &Expr, env: &mut Env) -> Res {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } if op.is_arith() => {
                let mut out = self.expr(lhs, env)?;
                out.add(self.expr(rhs, env)?);
                let fusable = (is_literal(lhs), mul_spine_literal_free(lhs));
                self.charge(*op, lhs, rhs, fusable, env, &mut out.cost);
                Ok(out)
            }
            // `x op= rhs` costs like `x op rhs`: the lvalue is never a
            // literal and never a fusable product.
            ExprKind::Assign { op: Some(op), lhs, rhs } if op.is_arith() => {
                let mut out = self.expr(lhs, env)?;
                out.add(self.expr(rhs, env)?);
                self.charge(*op, lhs, rhs, (false, false), env, &mut out.cost);
                Ok(out)
            }
            // Free structure: the cost of the parts.
            ExprKind::Num { .. }
            | ExprKind::Path(_)
            | ExprKind::Unary { .. }
            | ExprKind::Binary { .. }
            | ExprKind::Assign { .. }
            | ExprKind::Cast { .. }
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Array(_)
            | ExprKind::Tuple(_)
            | ExprKind::Range { .. } => self.parts(e, env),
            ExprKind::Return(_) => Ok(Out { diverges: true, ..self.parts(e, env)? }),
            ExprKind::Block(b) => self.block(b, &mut env.clone()),
            // The condition plus the most expensive non-diverging arm (a
            // missing `else` is a free arm); when every arm of an
            // `if`/`else` diverges the branch does, charged at its max.
            ExprKind::If { cond, then, els } => {
                let mut out = self.expr(cond, env)?;
                let mut arms = vec![self.block(then, &mut env.clone())?];
                if let Some(x) = els {
                    arms.push(self.expr(x, &mut env.clone())?);
                }
                let diverges = els.is_some() && arms.iter().all(|a| a.diverges);
                let taken = arms.iter().filter(|a| diverges || !a.diverges).map(|a| a.cost);
                out.cost.add(&taken.max_by_key(Cost::total).unwrap_or_default());
                Ok(Out { diverges, ..out })
            }
            ExprKind::For { var, iter, body } => {
                let Some(trips) = const_trip_count(iter) else {
                    return err(e.line, "loop without a literal `lo..hi` bound on a costed path");
                };
                let mut out = self.expr(iter, env)?;
                let mut env = env.clone();
                env.extend(var.iter().map(|v| (v.clone(), Ty::Int)));
                out.cost.add(&self.block(body, &mut env)?.cost.scaled(trips));
                Ok(out)
            }
            ExprKind::Call { callee, args } => {
                let mut out = self.all(args, env)?;
                let ExprKind::Path(segs) = &callee.kind else {
                    return err(e.line, "indirect call on a costed path");
                };
                let qual = segs.len().checked_sub(2).map(|i| segs[i].as_str());
                let self_ty = qual.filter(|q| q.starts_with(char::is_uppercase));
                let file = self.stack.last().map_or("", |s| s.2);
                let targets = self.typer.index.resolve_path(segs, file);
                let last = segs.last().map_or("", String::as_str);
                out.cost.add(&self.most_expensive(e.line, &targets, self_ty, last)?);
                Ok(out)
            }
            ExprKind::MethodCall { recv, method, args } => {
                let mut out = self.expr(recv, env)?;
                out.add(self.all(args, env)?);
                let recv_ty = self.typer.ty_of(recv, env);
                let builtin = recv_ty.is_floatish() || recv_ty == Ty::Int;
                let c = &mut out.cost;
                match method.as_str() {
                    "sqrt" | "recip" | "ln" | "log2" | "log10" | "exp" | "exp2" | "sin" | "cos"
                    | "tan" | "asin" | "acos" | "atan" | "atan2" | "sinh" | "cosh" | "tanh"
                    | "cbrt" | "hypot" | "powf"
                        if builtin =>
                    {
                        c.0[TRANS] += u64::from(recv_ty.is_floatish())
                    }
                    "powi" if builtin => match args.first().and_then(declared_int) {
                        Some(n) => c.0[MULS] += n.saturating_sub(1),
                        None => return err(e.line, "powi with a non-literal exponent on a costed path"),
                    },
                    "mul_add" if builtin => c.0[FMAS] += 1,
                    "min" | "max" | "abs" | "signum" | "floor" | "ceil" | "round" | "trunc"
                    | "fract" | "clamp" | "to_bits"
                        if builtin => {}
                    "len" => {}
                    _ => {
                        let Ty::Struct(name) = &recv_ty else {
                            let msg = format!("cannot resolve method `.{method}()` on a costed path");
                            return err(e.line, msg);
                        };
                        let targets = self.typer.index.resolve_method(name, method);
                        out.cost.add(&self.most_expensive(e.line, &targets, Some(name), method)?);
                    }
                }
                Ok(out)
            }
            _ => err(e.line, "construct outside the cost model on a costed path"),
        }
    }

    /// The summed cost of `e`'s sub-expressions.
    fn parts(&mut self, e: &Expr, env: &mut Env) -> Res {
        let mut parts = Vec::new();
        ast::for_each_child(e, &mut |c| parts.push(c));
        self.all(parts, env)
    }

    fn all<'e>(&mut self, items: impl IntoIterator<Item = &'e Expr>, env: &mut Env) -> Res {
        let mut out = Out::default();
        for x in items {
            out.add(self.expr(x, env)?);
        }
        Ok(Out { diverges: false, ..out })
    }

    /// The costliest of a call's resolved production targets.
    fn most_expensive(
        &mut self,
        line: u32,
        targets: &[usize],
        self_ty: Option<&str>,
        name: &str,
    ) -> Result<Cost, EvalErr> {
        let index = self.typer.index;
        let mut best: Option<Cost> = None;
        for n in targets.iter().map(|&t| &index.fns[t]).filter(|n| !n.in_test) {
            let c = self.eval_fn(n.def, n.file, self_ty)?;
            best = best.filter(|b| b.total() >= c.total()).or(Some(c));
        }
        best.map_or_else(|| err(line, format!("cannot resolve call to `{name}` on a costed path")), Ok)
    }

    /// Charge the arithmetic node `lhs op rhs`; `(lhs literal, lhs a
    /// fusable product)` describe the left operand, whose cost and the
    /// right operand's are already in `cost`, so FMA fusion can
    /// reclassify the consumed mul on either side.
    fn charge(
        &self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        (lhs_lit, lhs_fusable): (bool, bool),
        env: &Env,
        cost: &mut Cost,
    ) {
        if !self.typer.is_float_arith(lhs, rhs, env) {
            return;
        }
        // literal ⊗ literal const-folds to another literal: free.
        if lhs_lit && is_literal(rhs) {
            return;
        }
        let c = &mut cost.0;
        match op {
            BinOp::Mul => c[MULS] += 1,
            BinOp::Div | BinOp::Rem => c[TRANS] += 1,
            // FMA fusion (`x ± a*b` -> one fma): prefer a product on the
            // rhs, then the lhs. The fused product's top-level mul was
            // already counted by whichever side evaluated it, so fusion
            // reclassifies that mul into the fma. A literal in the
            // product's factor spine or a literal co-operand blocks
            // fusion (the declared-table convention: literal-coefficient
            // polynomials stay mul+add).
            _ if (mul_spine_literal_free(rhs) && !lhs_lit) || (lhs_fusable && !is_literal(rhs)) => {
                c[MULS] = c[MULS].saturating_sub(1);
                c[FMAS] += 1;
            }
            _ => c[ADDS] += 1,
        }
    }
}

/// True when `e` is a `*` product whose factor spine (the operands of
/// the top-level multiplication chain) contains no literal — the
/// precondition for fusing `x ± e` into one FMA.
fn mul_spine_literal_free(e: &Expr) -> bool {
    fn spine_ok(e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Binary { op: BinOp::Mul, lhs, rhs } => spine_ok(lhs) && spine_ok(rhs),
            _ => !is_literal(e),
        }
    }
    matches!(&e.kind, ExprKind::Binary { op: BinOp::Mul, .. }) && spine_ok(e)
}

/// Trip count of `for _ in lo..hi` when both bounds are integer literals.
fn const_trip_count(iter: &Expr) -> Option<u64> {
    let ExprKind::Range { lo, hi } = &iter.kind else { return None };
    Some(declared_int(hi.as_deref()?)?.saturating_sub(declared_int(lo.as_deref()?)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(&[("crates/x/src/lib.rs", src)])
    }

    /// The derived `[adds, muls, fmas, trans]` of the fn `target` in `src`.
    fn cost(src: &str) -> Result<[u64; 4], EvalErr> {
        let ws = ws(src);
        let index = Index::build(&ws);
        let n = index.fns.iter().find(|n| n.name == "target").expect("a fn `target`");
        let c = Eval { typer: Typer::new(&index), stack: Vec::new() }.eval_fn(n.def, n.file, None)?;
        Ok(c.0)
    }

    #[test]
    fn the_cost_model() {
        let table = "pub struct Table { scale: f64 } \
                     impl Table { pub fn eval(&self, x: f64) -> f64 { self.scale * x } }";
        for (src, want) in [
            // `a*b + a/b` fuses the lhs product (the rhs is no literal);
            // `- 1.0` with a literal rhs is a plain add.
            ("fn target(a: f64, b: f64) -> f64 { a * b + a / b - 1.0 }", [1, 0, 1, 1]),
            ("fn target(x: f64, y: f64, z: f64) -> f64 { x * x + y * y + z * z }", [0, 1, 2, 0]),
            // A literal in the product's spine or as the co-operand
            // blocks fusion; literal ⊗ literal folds free.
            ("fn target(x: f64, y: f64) -> f64 { x + 0.5 * y }", [1, 1, 0, 0]),
            ("fn target(a: f64, b: f64) -> f64 { 1.0 + a * b }", [1, 1, 0, 0]),
            ("fn target(x: f64) -> f64 { x * (1.0 + 1e-12) }", [0, 1, 0, 0]),
            // Integer index arithmetic and `min` are free.
            (
                "fn target(v: &Vec<f64>, x: f64) -> f64 { let i = x as usize; v[(i + 1).min(v.len() - 1)] }",
                [0; 4],
            ),
            // div + sqrt are transcendentals, `powi(3)` two muls.
            ("fn target(x: f64, y: f64) -> f64 { (x / y).sqrt().max(0.0) + x.powi(3) }", [1, 2, 0, 2]),
            // The costliest non-diverging arm; the early return is skipped.
            (
                "fn target(x: f64, lim: f64) -> f64 { if x >= lim { return 0.0; } \
                 if x > 0.0 { x * x * x } else { x + 1.0 } }",
                [0, 2, 0, 0],
            ),
            ("fn target(out: &mut [f64; 3], s: f64, dx: f64) { out[0] -= s * dx; }", [0, 0, 1, 0]),
            (
                "fn target(m: &mut [f64; 3], w: f64, d: [f64; 3]) { for i in 0..3 { m[i] += w * d[i]; } }",
                [0, 0, 3, 0],
            ),
            // A call result is no product: `+ b` cannot fuse.
            (&format!("{table} fn target(t: &Table, a: f64, b: f64) -> f64 {{ t.eval(a) + b }}"), [1, 1, 0, 0]),
        ] {
            assert_eq!(cost(src).unwrap(), want, "{src}");
        }
        assert!(cost("fn target(x: f64) -> f64 { let mut s = x; loop { s = s + s; } }").is_err());
    }

    #[test]
    fn state_word_counting() {
        let ws = ws("pub struct Inner { a: f64, b: [f64; 3] } \
                     pub struct State { pos: [f64; 3], h: f64, c: Inner }");
        assert_eq!(float_words(&Index::build(&ws), &TypeRef::simple("State"), 0), Ok(8));
    }
}
