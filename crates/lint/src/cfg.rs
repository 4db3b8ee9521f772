//! Workspace index, local types and the FLOP evaluator over the `ast`
//! module — no control-flow graph: every rule reads the parsed tree.
//!
//! Three services for the rules:
//!
//! * a workspace-wide **index** of structs, traits, impls, methods, and
//!   free functions (non-test code only), so rules can resolve
//!   `recv.method(...)` and `free_fn(...)` across files;
//! * **local type inference** good enough to tell float arithmetic from
//!   integer index arithmetic: parameter signatures, let-initializers,
//!   struct-field lookups, casts, and a table of builtin methods;
//! * a **FLOP cost evaluator** that walks an expression tree and counts
//!   f64 adds / muls / fused multiply-adds / transcendentals under the
//!   workspace cost-model convention (see DESIGN.md "Static analysis"):
//!   `+`/`-` = add, `*` = mul, `/`,`sqrt`,… = trans, `powi(n)` = n-1
//!   muls, `x ± a*b` fuses to one FMA when the product's factor spine
//!   is literal-free and `x` is not a literal, literal⊗literal is
//!   const-folded free, casts and integer/bool arithmetic are free,
//!   `min`/`max`/`abs` land in a separate informational bucket,
//!   branches charge the condition plus the most expensive
//!   non-diverging arm, and `for i in <int-lit>..<int-lit>` multiplies
//!   the body by the trip count. Anything outside the model (unbounded
//!   loops, unresolvable calls) is a hard error the rules surface.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{
    Arm, BinOp, Block, Expr, ExprKind, FnDef, Item, ItemKind, Stmt, StructDef, TraitDef, TypeRef,
};
use crate::Workspace;

// ---------------------------------------------------------------------------
// Workspace index
// ---------------------------------------------------------------------------

pub struct Index<'a> {
    pub structs: BTreeMap<String, &'a StructDef>,
    pub traits: BTreeMap<String, &'a TraitDef>,
    /// (type base name, method name) -> definitions.
    pub methods: BTreeMap<(String, String), Vec<(&'a str, &'a FnDef)>>,
    pub free_fns: BTreeMap<String, Vec<(&'a str, &'a FnDef)>>,
    /// type base name -> trait names it implements.
    pub trait_impls: BTreeMap<String, BTreeSet<String>>,
}

impl<'a> Index<'a> {
    pub fn build(ws: &'a Workspace) -> Self {
        let mut ix = Index {
            structs: BTreeMap::new(),
            traits: BTreeMap::new(),
            methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
        };
        for f in &ws.files {
            ix.add_items(&f.rel, &f.ast.items);
        }
        ix
    }

    fn add_items(&mut self, file: &'a str, items: &'a [Item]) {
        for it in items {
            if it.in_test {
                continue;
            }
            match &it.kind {
                ItemKind::Struct(sd) => {
                    self.structs.entry(sd.name.clone()).or_insert(sd);
                }
                ItemKind::Trait(td) => {
                    self.traits.entry(td.name.clone()).or_insert(td);
                }
                ItemKind::Fn(fd) => {
                    self.free_fns.entry(fd.name.clone()).or_default().push((file, fd));
                }
                ItemKind::Impl(im) => {
                    if let Some(tr) = &im.trait_name {
                        self.trait_impls
                            .entry(im.type_name.clone())
                            .or_default()
                            .insert(tr.clone());
                    }
                    for fd in &im.fns {
                        self.methods
                            .entry((im.type_name.clone(), fd.name.clone()))
                            .or_default()
                            .push((file, fd));
                    }
                }
                ItemKind::Mod(_, inner) => self.add_items(file, inner),
                _ => {}
            }
        }
    }

    /// Find a method body: inherent/trait impls first, then default
    /// bodies from traits the type implements.
    pub fn find_method(&self, ty: &str, name: &str) -> Option<(&'a str, &'a FnDef)> {
        if let Some(defs) = self.methods.get(&(ty.to_string(), name.to_string())) {
            if let Some(d) = defs.iter().find(|(_, f)| f.body.is_some()) {
                return Some(*d);
            }
        }
        if let Some(traits) = self.trait_impls.get(ty) {
            for tr in traits {
                if let Some(td) = self.traits.get(tr) {
                    if let Some(fd) = td.fns.iter().find(|f| f.name == name && f.body.is_some()) {
                        return Some(("<trait default>", fd));
                    }
                }
            }
        }
        None
    }

    /// Count the f64 words of a state struct, recursing into nested
    /// structs. Errors on unresolvable shapes.
    pub fn float_words(&self, ty: &TypeRef) -> Result<u64, String> {
        self.float_words_depth(ty, 0)
    }

    fn float_words_depth(&self, ty: &TypeRef, depth: u32) -> Result<u64, String> {
        if depth > 16 {
            return Err("state type nests too deep".into());
        }
        let ty = ty.deref();
        match ty.base.as_str() {
            "f64" | "f32" => Ok(1),
            "[array]" => {
                let elem = ty.args.first().ok_or("array without element type")?;
                let n = ty.array_len.ok_or("array without literal length")?;
                Ok(n * self.float_words_depth(elem, depth + 1)?)
            }
            "(tuple)" => {
                let mut n = 0;
                for a in &ty.args {
                    n += self.float_words_depth(a, depth + 1)?;
                }
                Ok(n)
            }
            name => {
                let sd = self
                    .structs
                    .get(name)
                    .ok_or_else(|| format!("cannot resolve state struct `{name}`"))?;
                let mut n = 0;
                for (_, fty) in &sd.fields {
                    n += self.float_words_depth(fty, depth + 1)?;
                }
                Ok(n)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    Float,
    Int,
    Bool,
    Struct(String),
    Array(Box<Ty>),
    Tuple(Vec<Ty>),
    Unknown,
}

impl Ty {
    fn is_floatish(&self) -> bool {
        // Unknown is treated as float so that untracked values make the
        // count *louder*, not silently smaller.
        matches!(self, Ty::Float | Ty::Unknown)
    }
}

/// Resolve a syntactic type to a `Ty`, substituting generic parameters
/// and associated types through `bindings`.
pub fn resolve_ty(tr: &TypeRef, bindings: &BTreeMap<String, TypeRef>) -> Ty {
    let mut cur = tr.clone();
    for _ in 0..8 {
        let stripped = cur.deref().clone();
        if let Some(sub) = bindings.get(&stripped.base) {
            if sub.base != stripped.base {
                cur = sub.clone();
                continue;
            }
        }
        cur = stripped;
        break;
    }
    match cur.base.as_str() {
        "f64" | "f32" => Ty::Float,
        "usize" | "isize" | "u8" | "u16" | "u32" | "u64" | "u128" | "i8" | "i16" | "i32"
        | "i64" | "i128" | "char" => Ty::Int,
        "bool" => Ty::Bool,
        "[array]" | "Vec" | "VecDeque" => match cur.args.first() {
            Some(e) => Ty::Array(Box::new(resolve_ty(e, bindings))),
            None => Ty::Unknown,
        },
        "Box" | "Rc" | "Arc" => match cur.args.first() {
            Some(e) => resolve_ty(e, bindings),
            None => Ty::Unknown,
        },
        "(tuple)" => Ty::Tuple(cur.args.iter().map(|a| resolve_ty(a, bindings)).collect()),
        "?" => Ty::Unknown,
        name => Ty::Struct(name.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    pub adds: u64,
    pub muls: u64,
    pub fmas: u64,
    pub trans: u64,
    /// min/max/abs and friends: informational, excluded from the
    /// 4-field conformance comparison (the declared tables ignore them).
    pub minmax: u64,
}

impl Cost {
    pub fn total(&self) -> u64 {
        // Same weights as gpusim::counters::PairFlops::total().
        self.adds + self.muls + 2 * self.fmas + self.trans
    }
    pub fn add(&mut self, o: &Cost) {
        self.adds += o.adds;
        self.muls += o.muls;
        self.fmas += o.fmas;
        self.trans += o.trans;
        self.minmax += o.minmax;
    }
    pub fn scaled(&self, n: u64) -> Cost {
        Cost {
            adds: self.adds * n,
            muls: self.muls * n,
            fmas: self.fmas * n,
            trans: self.trans * n,
            minmax: self.minmax * n,
        }
    }
    pub fn render(&self) -> String {
        format!(
            "adds: {}, muls: {}, fmas: {}, trans: {}",
            self.adds, self.muls, self.fmas, self.trans
        )
    }
}

#[derive(Debug)]
pub struct EvalErr {
    pub line: u32,
    pub msg: String,
}

struct Out {
    cost: Cost,
    ty: Ty,
    diverges: bool,
}

impl Out {
    fn free(ty: Ty) -> Out {
        Out { cost: Cost::default(), ty, diverges: false }
    }
}

/// Branch costing: charge the most expensive non-diverging arm. When
/// the arms are `exhaustive` and every one diverges, the whole branch
/// diverges and the max is charged anyway.
fn pick_arm(arms: &[Out], exhaustive: bool) -> (Cost, Ty, bool) {
    let all_diverge = exhaustive && arms.iter().all(|a| a.diverges);
    let pick = arms.iter().filter(|a| all_diverge || !a.diverges).max_by_key(|a| a.cost.total());
    match pick {
        Some(a) => (a.cost, a.ty.clone(), all_diverge),
        None => (Cost::default(), Ty::Unknown, all_diverge),
    }
}

pub struct Evaluator<'a> {
    pub index: &'a Index<'a>,
    /// Generic-parameter and associated-type substitutions.
    pub bindings: BTreeMap<String, TypeRef>,
    /// In-progress (type, fn) pairs — recursion guard.
    stack: Vec<(String, String)>,
}

impl<'a> Evaluator<'a> {
    pub fn new(index: &'a Index<'a>) -> Self {
        Evaluator { index, bindings: BTreeMap::new(), stack: Vec::new() }
    }

    /// Cost of one invocation of `fd` with `self` typed as `self_ty`.
    pub fn eval_fn(&mut self, self_ty: Option<&str>, fd: &FnDef) -> Result<Cost, EvalErr> {
        let key = (self_ty.unwrap_or("").to_string(), fd.name.clone());
        if self.stack.contains(&key) {
            return Err(EvalErr { line: fd.line, msg: format!("recursive call to `{}`", fd.name) });
        }
        if self.stack.len() > 24 {
            return Err(EvalErr { line: fd.line, msg: "call nesting too deep".into() });
        }
        let body = fd.body.as_ref().ok_or(EvalErr {
            line: fd.line,
            msg: format!("`{}` has no body to derive a cost from", fd.name),
        })?;
        let mut env: BTreeMap<String, Ty> = BTreeMap::new();
        for p in &fd.params {
            let ty = if p.name == "self" {
                match self_ty {
                    Some(t) => Ty::Struct(t.to_string()),
                    None => Ty::Unknown,
                }
            } else {
                resolve_ty(&p.ty, &self.bindings)
            };
            env.insert(p.name.clone(), ty);
        }
        if let Some(t) = self_ty {
            env.insert("self".into(), Ty::Struct(t.to_string()));
        }
        self.stack.push(key);
        let r = self.block(body, &mut env);
        self.stack.pop();
        r.map(|o| o.cost)
    }

    fn block(&mut self, b: &Block, env: &mut BTreeMap<String, Ty>) -> Result<Out, EvalErr> {
        let mut cost = Cost::default();
        let mut ty = Ty::Unknown;
        let mut diverges = false;
        for s in &b.stmts {
            match s {
                Stmt::Let { names, ty: ann, init, .. } => {
                    let mut init_ty = Ty::Unknown;
                    if let Some(e) = init {
                        let o = self.expr(e, env)?;
                        cost.add(&o.cost);
                        init_ty = o.ty;
                        diverges = diverges || o.diverges;
                    }
                    if let Some(a) = ann {
                        init_ty = resolve_ty(a, &self.bindings);
                    }
                    match (&init_ty, names.len()) {
                        (_, 0) => {}
                        (Ty::Tuple(ts), n) if n > 1 => {
                            for (name, t) in names.iter().zip(ts.iter()) {
                                env.insert(name.clone(), t.clone());
                            }
                        }
                        (_, 1) => {
                            env.insert(names[0].clone(), init_ty);
                        }
                        _ => {
                            for name in names {
                                env.insert(name.clone(), Ty::Unknown);
                            }
                        }
                    }
                    ty = Ty::Unknown;
                }
                Stmt::Expr(e) => {
                    let o = self.expr(e, env)?;
                    cost.add(&o.cost);
                    ty = o.ty;
                    diverges = diverges || o.diverges;
                }
                Stmt::Fn(_) | Stmt::Opaque => {}
            }
        }
        Ok(Out { cost, ty, diverges })
    }

    fn expr(&mut self, e: &Expr, env: &mut BTreeMap<String, Ty>) -> Result<Out, EvalErr> {
        match &e.kind {
            ExprKind::Num { is_float, .. } => {
                Ok(Out::free(if *is_float { Ty::Float } else { Ty::Int }))
            }
            ExprKind::Lit => Ok(Out::free(Ty::Unknown)),
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    if let Some(t) = env.get(&segs[0]) {
                        return Ok(Out::free(t.clone()));
                    }
                }
                // Known float consts type as Float (but are not literals
                // for fusion purposes); everything else is Unknown.
                let last = segs.last().map(String::as_str).unwrap_or("");
                let floaty = matches!(
                    last,
                    "PI" | "E" | "SQRT_2" | "LN_2" | "INFINITY" | "NEG_INFINITY" | "EPSILON"
                        | "MAX" | "MIN" | "NAN"
                ) && segs.iter().any(|s| s == "f64" || s == "f32" || s == "consts");
                Ok(Out::free(if floaty { Ty::Float } else { Ty::Unknown }))
            }
            ExprKind::Unary { op, expr } => {
                let o = self.expr(expr, env)?;
                let ty = match op {
                    '!' => Ty::Bool,
                    _ => o.ty,
                };
                Ok(Out { cost: o.cost, ty, diverges: o.diverges })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lo = self.expr(lhs, env)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => self.arith(
                        *op,
                        lo.cost,
                        &lo.ty,
                        is_literal(lhs),
                        mul_spine_literal_free(lhs),
                        rhs,
                        env,
                    ),
                    // Comparisons and logic yield bools; shifts and bit
                    // ops are integer-domain. Both are free.
                    _ => {
                        let ro = self.expr(rhs, env)?;
                        let mut cost = lo.cost;
                        cost.add(&ro.cost);
                        let bits = matches!(
                            op,
                            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr
                        );
                        Ok(Out { cost, ty: if bits { Ty::Int } else { Ty::Bool }, diverges: false })
                    }
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let lo = self.expr(lhs, env)?;
                match op {
                    Some(bop @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)) => {
                        // `x op= rhs` costs like `x op rhs`: the lvalue
                        // is never a literal and never a fusable product.
                        let mut out =
                            self.arith(*bop, lo.cost, &lo.ty, false, false, rhs, env)?;
                        out.ty = Ty::Tuple(Vec::new()); // unit
                        Ok(out)
                    }
                    _ => {
                        let ro = self.expr(rhs, env)?;
                        let mut cost = lo.cost;
                        cost.add(&ro.cost);
                        // Track re-typed locals: `x = expr`.
                        if let ExprKind::Path(segs) = &lhs.kind {
                            if segs.len() == 1 {
                                env.insert(segs[0].clone(), ro.ty.clone());
                            }
                        }
                        Ok(Out { cost, ty: Ty::Tuple(Vec::new()), diverges: ro.diverges })
                    }
                }
            }
            ExprKind::Cast { expr, ty } => {
                let o = self.expr(expr, env)?;
                Ok(Out { cost: o.cost, ty: resolve_ty(ty, &self.bindings), diverges: o.diverges })
            }
            ExprKind::Field { recv, name } => {
                let ro = self.expr(recv, env)?;
                let ty = self.field_ty(&ro.ty, name);
                Ok(Out { cost: ro.cost, ty, diverges: ro.diverges })
            }
            ExprKind::Index { recv, index } => {
                let ro = self.expr(recv, env)?;
                let io = self.expr(index, env)?;
                let mut cost = ro.cost;
                cost.add(&io.cost);
                let ty = match ro.ty {
                    Ty::Array(e) => *e,
                    _ => Ty::Unknown,
                };
                Ok(Out { cost, ty, diverges: ro.diverges || io.diverges })
            }
            ExprKind::Array(items) => {
                let (cost, tys) = self.each(items, env)?;
                let elem = tys.into_iter().next().unwrap_or(Ty::Unknown);
                Ok(Out { cost, ty: Ty::Array(Box::new(elem)), diverges: false })
            }
            ExprKind::Tuple(items) => {
                let (cost, tys) = self.each(items, env)?;
                Ok(Out { cost, ty: Ty::Tuple(tys), diverges: false })
            }
            ExprKind::StructLit { path, fields, .. } => {
                let (cost, _) = self.each(fields.iter().map(|(_, v)| v), env)?;
                let name = path.last().cloned().unwrap_or_default();
                Ok(Out { cost, ty: Ty::Struct(name), diverges: false })
            }
            ExprKind::Range { lo, hi } => {
                let (cost, _) = self.each([lo, hi].into_iter().flatten().map(|x| &**x), env)?;
                Ok(Out { cost, ty: Ty::Unknown, diverges: false })
            }
            ExprKind::If { cond, then, els } => {
                let co = self.expr(cond, env)?;
                let mut cost = co.cost;
                let to = self.block(then, &mut env.clone())?;
                let eo = match els {
                    Some(x) => Some(self.expr(x, &mut env.clone())?),
                    None => None,
                };
                // A missing else is a free arm.
                let mut arms = vec![to];
                arms.extend(eo);
                let (arm_cost, ty, diverges) = pick_arm(&arms, els.is_some());
                cost.add(&arm_cost);
                Ok(Out { cost, ty, diverges })
            }
            ExprKind::LetCond { names, scrutinee } => {
                let o = self.expr(scrutinee, env)?;
                for n in names {
                    env.insert(n.clone(), Ty::Unknown);
                }
                Ok(Out { cost: o.cost, ty: Ty::Bool, diverges: o.diverges })
            }
            ExprKind::Match { scrutinee, arms } => {
                let so = self.expr(scrutinee, env)?;
                let mut cost = so.cost;
                let mut outs = Vec::new();
                for Arm { names, body, .. } in arms {
                    let mut aenv = env.clone();
                    for n in names {
                        aenv.insert(n.clone(), Ty::Unknown);
                    }
                    outs.push(self.expr(body, &mut aenv)?);
                }
                let (arm_cost, ty, diverges) = pick_arm(&outs, !outs.is_empty());
                cost.add(&arm_cost);
                Ok(Out { cost, ty, diverges })
            }
            ExprKind::For { var, iter, body } => {
                let trips = const_trip_count(iter).ok_or(EvalErr {
                    line: e.line,
                    msg: "loop without a literal `lo..hi` bound on a costed path".into(),
                })?;
                let io = self.expr(iter, env)?;
                let mut benv = env.clone();
                if let Some(v) = var {
                    benv.insert(v.clone(), Ty::Int);
                }
                let bo = self.block(body, &mut benv)?;
                let mut cost = io.cost;
                cost.add(&bo.cost.scaled(trips));
                Ok(Out { cost, ty: Ty::Tuple(Vec::new()), diverges: false })
            }
            ExprKind::While { .. } | ExprKind::Loop { .. } => Err(EvalErr {
                line: e.line,
                msg: "unbounded loop on a costed path".into(),
            }),
            ExprKind::Block(b) => self.block(b, &mut env.clone()),
            ExprKind::Closure { body } => {
                // Closures on costed paths are charged as if invoked once.
                let o = self.expr(body, &mut env.clone())?;
                Ok(Out { cost: o.cost, ty: Ty::Unknown, diverges: false })
            }
            ExprKind::Macro { name, .. } => {
                // Macro bodies are opaque by design; assertions and
                // formatting are not kernel arithmetic. A macro other
                // than the known-free set is an error on a costed path.
                const FREE: &[&str] = &[
                    "debug_assert", "debug_assert_eq", "debug_assert_ne", "assert", "assert_eq",
                    "assert_ne", "panic", "unreachable", "todo", "println", "eprintln", "write",
                    "writeln", "format",
                ];
                if FREE.contains(&name.as_str()) {
                    Ok(Out::free(Ty::Unknown))
                } else {
                    Err(EvalErr { line: e.line, msg: format!("opaque macro `{name}!` on a costed path") })
                }
            }
            ExprKind::Return(val) => {
                let (cost, _) = self.each(val.as_deref(), env)?;
                Ok(Out { cost, ty: Ty::Unknown, diverges: true })
            }
            ExprKind::Break { .. } | ExprKind::Continue { .. } => Ok(Out {
                cost: Cost::default(),
                ty: Ty::Unknown,
                diverges: true,
            }),
            ExprKind::Labeled { body, .. } => self.expr(body, env),
            ExprKind::Try(inner) => {
                // `?` on a costed path: charge the inner expression; the
                // early error exit itself is control flow, not FLOPs.
                let o = self.expr(inner, env)?;
                Ok(Out { cost: o.cost, ty: Ty::Unknown, diverges: false })
            }
            ExprKind::Call { callee, args } => self.call(e.line, callee, args, env),
            ExprKind::MethodCall { recv, method, args } => {
                self.method_call(e.line, recv, method, args, env)
            }
            ExprKind::Opaque => Err(EvalErr {
                line: e.line,
                msg: "expression the parser could not model on a costed path".into(),
            }),
        }
    }

    /// Evaluate `items` in order: their summed cost and their types.
    fn each<'e>(
        &mut self,
        items: impl IntoIterator<Item = &'e Expr>,
        env: &mut BTreeMap<String, Ty>,
    ) -> Result<(Cost, Vec<Ty>), EvalErr> {
        let mut cost = Cost::default();
        let mut tys = Vec::new();
        for it in items {
            let o = self.expr(it, env)?;
            cost.add(&o.cost);
            tys.push(o.ty);
        }
        Ok((cost, tys))
    }

    /// Cost of a float/int arithmetic node `lhs op rhs`. The caller has
    /// already evaluated the left operand and passes its cost, type,
    /// literal-ness, and whether it is a fusable product; the merge
    /// happens here so FMA fusion can reclassify the consumed mul on
    /// either side.
    #[allow(clippy::too_many_arguments)]
    fn arith(
        &mut self,
        op: BinOp,
        lhs_cost: Cost,
        lhs_ty: &Ty,
        lhs_is_lit: bool,
        lhs_fusable: bool,
        rhs: &Expr,
        env: &mut BTreeMap<String, Ty>,
    ) -> Result<Out, EvalErr> {
        let ro = self.expr(rhs, env)?;
        let mut cost = lhs_cost;
        cost.add(&ro.cost);
        let int_only =
            matches!(lhs_ty, Ty::Int | Ty::Bool) && matches!(ro.ty, Ty::Int | Ty::Bool);
        let float = (lhs_ty.is_floatish() || ro.ty.is_floatish()) && !int_only;
        if !float {
            return Ok(Out { cost, ty: Ty::Int, diverges: false });
        }
        // literal ⊗ literal const-folds to another literal: free.
        if lhs_is_lit && is_literal(rhs) {
            return Ok(Out { cost, ty: Ty::Float, diverges: false });
        }
        match op {
            BinOp::Mul => cost.muls += 1,
            BinOp::Div | BinOp::Rem => cost.trans += 1,
            BinOp::Add | BinOp::Sub => {
                // FMA fusion (`x ± a*b` -> one fma): prefer a product on
                // the rhs, then the lhs. The fused product's top-level
                // mul was already counted by whichever side evaluated
                // it, so fusion reclassifies that mul into the fma. A
                // literal in the product's factor spine or a literal
                // co-operand blocks fusion (matches the declared-table
                // convention: literal-coefficient polynomials stay
                // mul+add).
                if mul_spine_literal_free(rhs) && !lhs_is_lit {
                    cost.muls = cost.muls.saturating_sub(1);
                    cost.fmas += 1;
                } else if lhs_fusable && !is_literal(rhs) {
                    cost.muls = cost.muls.saturating_sub(1);
                    cost.fmas += 1;
                } else {
                    cost.adds += 1;
                }
            }
            _ => {}
        }
        Ok(Out { cost, ty: Ty::Float, diverges: false })
    }

    fn call(
        &mut self,
        line: u32,
        callee: &Expr,
        args: &[Expr],
        env: &mut BTreeMap<String, Ty>,
    ) -> Result<Out, EvalErr> {
        let (mut cost, _) = self.each(args, env)?;
        let segs = match &callee.kind {
            ExprKind::Path(s) => s.clone(),
            _ => {
                return Err(EvalErr { line, msg: "indirect call on a costed path".into() });
            }
        };
        let last = segs.last().cloned().unwrap_or_default();
        // Known-free builtins.
        if matches!(last.as_str(), "drop" | "default" | "from_bits" | "debug_assert") {
            let ty = if last == "from_bits" { Ty::Float } else { Ty::Unknown };
            return Ok(Out { cost, ty, diverges: false });
        }
        // Two-segment `Type::method` calls resolve like method calls.
        if segs.len() >= 2 {
            let ty_name = &segs[segs.len() - 2];
            if ty_name.chars().next().map(char::is_uppercase).unwrap_or(false) {
                if let Some((_, fd)) = self.index.find_method(ty_name, &last) {
                    let body = self.eval_fn(Some(ty_name), fd)?;
                    cost.add(&body);
                    let ty = self.ret_ty(fd);
                    return Ok(Out { cost, ty, diverges: false });
                }
            }
        }
        // Free function by name: evaluate every candidate, charge the max.
        if let Some(defs) = self.index.free_fns.get(&last) {
            let mut best: Option<(Cost, Ty)> = None;
            for (_, fd) in defs {
                if fd.body.is_none() {
                    continue;
                }
                let c = self.eval_fn(None, fd)?;
                let ty = self.ret_ty(fd);
                if best.as_ref().map(|(b, _)| c.total() > b.total()).unwrap_or(true) {
                    best = Some((c, ty));
                }
            }
            if let Some((c, ty)) = best {
                cost.add(&c);
                return Ok(Out { cost, ty, diverges: false });
            }
        }
        Err(EvalErr { line, msg: format!("cannot resolve call to `{last}` on a costed path") })
    }

    fn method_call(
        &mut self,
        line: u32,
        recv: &Expr,
        method: &str,
        args: &[Expr],
        env: &mut BTreeMap<String, Ty>,
    ) -> Result<Out, EvalErr> {
        let ro = self.expr(recv, env)?;
        let mut cost = ro.cost;
        cost.add(&self.each(args, env)?.0);
        // Builtin numeric methods.
        if ro.ty.is_floatish() || matches!(ro.ty, Ty::Int) {
            let is_float = ro.ty.is_floatish();
            match method {
                "sqrt" | "recip" | "ln" | "log2" | "log10" | "exp" | "exp2" | "sin" | "cos"
                | "tan" | "asin" | "acos" | "atan" | "atan2" | "sinh" | "cosh" | "tanh"
                | "cbrt" | "hypot" | "powf" => {
                    if is_float {
                        cost.trans += 1;
                    }
                    return Ok(Out { cost, ty: Ty::Float, diverges: false });
                }
                "powi" => {
                    let n = args.first().and_then(int_literal).ok_or(EvalErr {
                        line,
                        msg: "powi with a non-literal exponent on a costed path".into(),
                    })?;
                    cost.muls += n.saturating_sub(1);
                    return Ok(Out { cost, ty: Ty::Float, diverges: false });
                }
                "mul_add" => {
                    cost.fmas += 1;
                    return Ok(Out { cost, ty: Ty::Float, diverges: false });
                }
                "min" | "max" | "abs" | "signum" | "floor" | "ceil" | "round" | "trunc"
                | "fract" | "clamp" => {
                    if is_float {
                        cost.minmax += if method == "clamp" { 2 } else { 1 };
                    }
                    let ty = ro.ty.clone();
                    return Ok(Out { cost, ty, diverges: false });
                }
                "to_bits" => return Ok(Out { cost, ty: Ty::Int, diverges: false }),
                "is_finite" | "is_nan" | "is_sign_negative" | "is_sign_positive" => {
                    return Ok(Out { cost, ty: Ty::Bool, diverges: false });
                }
                "saturating_sub" | "saturating_add" | "wrapping_sub" | "wrapping_add"
                | "checked_sub" | "checked_add" | "pow" | "count_ones" | "leading_zeros"
                | "trailing_zeros" | "rotate_left" | "rotate_right" => {
                    return Ok(Out { cost, ty: Ty::Int, diverges: false });
                }
                _ => {}
            }
        }
        // Structure-free accessors available on any receiver.
        match method {
            "len" => return Ok(Out { cost, ty: Ty::Int, diverges: false }),
            "is_empty" => return Ok(Out { cost, ty: Ty::Bool, diverges: false }),
            "clone" | "to_owned" => {
                let ty = ro.ty.clone();
                return Ok(Out { cost, ty, diverges: false });
            }
            _ => {}
        }
        // User-defined method on a known struct.
        if let Ty::Struct(name) = &ro.ty {
            let name = name.clone();
            if let Some((_, fd)) = self.index.find_method(&name, method) {
                let body = self.eval_fn(Some(&name), fd)?;
                cost.add(&body);
                let ty = self.ret_ty(fd);
                return Ok(Out { cost, ty, diverges: false });
            }
        }
        Err(EvalErr {
            line,
            msg: format!("cannot resolve method `.{method}()` on a costed path"),
        })
    }

    /// Declared return type of a callee (unit when omitted).
    fn ret_ty(&self, fd: &FnDef) -> Ty {
        fd.ret.as_ref().map(|r| resolve_ty(r, &self.bindings)).unwrap_or(Ty::Tuple(Vec::new()))
    }

    fn field_ty(&self, recv: &Ty, name: &str) -> Ty {
        match recv {
            Ty::Struct(sname) => {
                if let Some(sd) = self.index.structs.get(sname) {
                    if let Some((_, tr)) = sd.fields.iter().find(|(f, _)| f == name) {
                        return resolve_ty(tr, &self.bindings);
                    }
                }
                Ty::Unknown
            }
            Ty::Tuple(ts) => name
                .parse::<usize>()
                .ok()
                .and_then(|i| ts.get(i).cloned())
                .unwrap_or(Ty::Unknown),
            _ => Ty::Unknown,
        }
    }
}

// ---------------------------------------------------------------------------
// Syntactic helpers for the fusion rule
// ---------------------------------------------------------------------------

/// A literal for const-folding/fusion purposes: numeric literals,
/// negated literals, folded literal⊗literal, and literal casts.
pub fn is_literal(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Num { .. } => true,
        ExprKind::Unary { op: '-', expr } => is_literal(expr),
        ExprKind::Binary { lhs, rhs, .. } => is_literal(lhs) && is_literal(rhs),
        ExprKind::Cast { expr, .. } => is_literal(expr),
        _ => false,
    }
}

/// True when `e` is a `*` product whose factor spine (the operands of
/// the top-level multiplication chain) contains no literal — the
/// precondition for fusing `x ± e` into one FMA.
pub fn mul_spine_literal_free(e: &Expr) -> bool {
    fn spine_ok(e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Binary { op: BinOp::Mul, lhs, rhs } => spine_ok(lhs) && spine_ok(rhs),
            _ => !is_literal(e),
        }
    }
    matches!(&e.kind, ExprKind::Binary { op: BinOp::Mul, .. }) && spine_ok(e)
}

fn int_literal(e: &Expr) -> Option<u64> {
    match &e.kind {
        ExprKind::Num { text, is_float: false } => text.parse::<u64>().ok(),
        _ => None,
    }
}

/// Trip count of `for _ in lo..hi` when both bounds are integer literals.
fn const_trip_count(iter: &Expr) -> Option<u64> {
    if let ExprKind::Range { lo, hi } = &iter.kind {
        let lo = lo.as_deref().and_then(int_literal)?;
        let hi = hi.as_deref().and_then(int_literal)?;
        return Some(hi.saturating_sub(lo));
    }
    None
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Render an expression as a compact stable string for diagnostics.
pub fn render_expr(e: &Expr) -> String {
    let mut s = String::new();
    render_into(e, &mut s, 0);
    s
}

fn render_into(e: &Expr, s: &mut String, depth: u32) {
    if depth > 24 || s.len() > 160 {
        s.push('…');
        return;
    }
    match &e.kind {
        ExprKind::Num { text, .. } => s.push_str(text),
        ExprKind::Lit => s.push_str("<lit>"),
        ExprKind::Path(segs) => s.push_str(&segs.join("::")),
        ExprKind::Unary { op, expr } => {
            s.push(*op);
            render_into(expr, s, depth + 1);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            render_into(lhs, s, depth + 1);
            s.push_str(op.symbol());
            render_into(rhs, s, depth + 1);
        }
        ExprKind::Call { callee: head, args } | ExprKind::MethodCall { recv: head, args, .. } => {
            render_into(head, s, depth + 1);
            if let ExprKind::MethodCall { method, .. } = &e.kind {
                s.push('.');
                s.push_str(method);
            }
            s.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                render_into(a, s, depth + 1);
            }
            s.push(')');
        }
        ExprKind::Field { recv, name } => {
            render_into(recv, s, depth + 1);
            s.push('.');
            s.push_str(name);
        }
        ExprKind::Index { recv, index } => {
            render_into(recv, s, depth + 1);
            s.push('[');
            render_into(index, s, depth + 1);
            s.push(']');
        }
        ExprKind::Cast { expr, ty } => {
            render_into(expr, s, depth + 1);
            s.push_str(" as ");
            s.push_str(&ty.base);
        }
        ExprKind::Range { lo, hi } => {
            if let Some(x) = lo {
                render_into(x, s, depth + 1);
            }
            s.push_str("..");
            if let Some(x) = hi {
                render_into(x, s, depth + 1);
            }
        }
        ExprKind::Try(inner) => {
            render_into(inner, s, depth + 1);
            s.push('?');
        }
        ExprKind::Macro { name, .. } => {
            s.push_str(name);
            s.push('!');
        }
        _ => s.push_str("<expr>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn eval_first_fn(src: &str) -> Result<Cost, EvalErr> {
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        let ix = Index::build(&ws);
        // Find the fn named `target` wherever it lives.
        for f in &ws.files {
            for it in &f.ast.items {
                if let ItemKind::Fn(fd) = &it.kind {
                    if fd.name == "target" {
                        let mut ev = Evaluator::new(&ix);
                        return ev.eval_fn(None, fd);
                    }
                }
            }
        }
        panic!("no fn `target` in fixture");
    }

    #[test]
    fn counts_basic_float_ops() {
        let c = eval_first_fn("pub fn target(a: f64, b: f64) -> f64 { a * b + a / b - 1.0 }")
            .unwrap();
        // `a*b + a/b`: rhs is a div, lhs is a fusable product and the
        // rhs is not a literal -> lhs-side fusion: 1 fma + 1 div. Then
        // `- 1.0` with a literal rhs: plain add.
        assert_eq!((c.adds, c.muls, c.fmas, c.trans), (1, 0, 1, 1));
    }

    #[test]
    fn fma_fusion_on_rhs_product() {
        // dx*dx + dy*dy + dz*dz = 1 mul + 2 fma.
        let c = eval_first_fn(
            "pub fn target(dx: f64, dy: f64, dz: f64) -> f64 { dx * dx + dy * dy + dz * dz }",
        )
        .unwrap();
        assert_eq!((c.adds, c.muls, c.fmas, c.trans), (0, 1, 2, 0));
    }

    #[test]
    fn literal_spine_blocks_fusion() {
        // x + 0.5*y: the 0.5 blocks the fma -> 1 add + 1 mul.
        let c = eval_first_fn("pub fn target(x: f64, y: f64) -> f64 { x + 0.5 * y }").unwrap();
        assert_eq!((c.adds, c.muls, c.fmas), (1, 1, 0));
    }

    #[test]
    fn literal_lhs_blocks_fusion() {
        // 1.0 + a*b: literal co-operand blocks fusion -> 1 add + 1 mul.
        let c = eval_first_fn("pub fn target(a: f64, b: f64) -> f64 { 1.0 + a * b }").unwrap();
        assert_eq!((c.adds, c.muls, c.fmas), (1, 1, 0));
    }

    #[test]
    fn const_folding_is_free() {
        let c = eval_first_fn("pub fn target(x: f64) -> f64 { x * (1.0 + 1e-12) }").unwrap();
        assert_eq!((c.adds, c.muls, c.fmas, c.trans), (0, 1, 0, 0));
    }

    #[test]
    fn integer_index_arithmetic_is_free() {
        let c = eval_first_fn(
            "pub fn target(v: &Vec<f64>, x: f64) -> f64 {
                 let i = x as usize;
                 v[(i + 1).min(v.len() - 1)]
             }",
        )
        .unwrap();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn sqrt_div_powi_minmax() {
        let c = eval_first_fn(
            "pub fn target(x: f64, y: f64) -> f64 { (x / y).sqrt().max(0.0) + x.powi(3) }",
        )
        .unwrap();
        assert_eq!(c.trans, 2); // div + sqrt
        assert_eq!(c.minmax, 1);
        assert_eq!(c.muls, 2); // powi(3) = 2 muls
        assert_eq!(c.adds, 1);
    }

    #[test]
    fn branch_takes_max_arm_and_skips_returning_arm() {
        let c = eval_first_fn(
            "pub fn target(x: f64, lim: f64) -> f64 {
                 if x >= lim { return 0.0; }
                 if x > 0.0 { x * x * x } else { x + 1.0 }
             }",
        )
        .unwrap();
        // Early-return arm excluded; max(2 muls, 1 add) by total = 2 muls.
        assert_eq!((c.adds, c.muls), (0, 2));
    }

    #[test]
    fn compound_assign_fuses() {
        let c = eval_first_fn(
            "pub fn target(out: &mut [f64; 3], s: f64, dx: f64) { out[0] -= s * dx; }",
        )
        .unwrap();
        assert_eq!((c.adds, c.muls, c.fmas), (0, 0, 1));
    }

    #[test]
    fn for_loop_multiplies_by_trip_count() {
        let c = eval_first_fn(
            "pub fn target(m: &mut [f64; 3], vw: f64, dr: [f64; 3]) {
                 for d in 0..3 { m[d] += vw * dr[d]; }
             }",
        )
        .unwrap();
        assert_eq!(c.fmas, 3);
    }

    #[test]
    fn unbounded_loop_is_an_error() {
        let e = eval_first_fn("pub fn target(x: f64) -> f64 { let mut s = x; loop { s = s + s; } }");
        assert!(e.is_err());
    }

    #[test]
    fn cross_fn_resolution() {
        let src = "
            pub struct Table { scale: f64 }
            impl Table {
                pub fn eval(&self, x: f64) -> f64 { self.scale * x }
            }
            pub fn target(t: &Table, a: f64, b: f64) -> f64 { t.eval(a) + b }
        ";
        let c = eval_first_fn(src).unwrap();
        // eval = 1 mul; `+ b` cannot fuse (call result, not a product) -> 1 add.
        assert_eq!((c.adds, c.muls, c.fmas), (1, 1, 0));
    }

    #[test]
    fn state_word_counting() {
        let src = "
            pub struct Inner { a: f64, b: [f64; 3] }
            pub struct State { pos: [f64; 3], h: f64, c: Inner }
        ";
        let ws = Workspace::from_sources(&[("crates/x/src/lib.rs", src)]);
        let ix = Index::build(&ws);
        let tr = TypeRef::simple("State");
        assert_eq!(ix.float_words(&tr).unwrap(), 8);
    }
}
