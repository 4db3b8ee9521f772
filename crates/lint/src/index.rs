//! The workspace index, the call resolver and the typer: one of each,
//! shared by the call graph and V1.
//!
//! * The **index** holds every parsed `fn` with a body as an [`FnNode`]
//!   addressed by [`FnId`] (free functions, impl methods, trait
//!   defaults, `fn` items nested in a body; test code included and
//!   flagged), the structs of non-test code, and the traits each type
//!   implements.
//! * The **resolver** maps a call to its candidate targets:
//!   `Type::f(..)` to the type's methods, else the default bodies of the
//!   traits it implements (`Self::f` to none); `module::f(..)` to the
//!   workspace-unique free fn, else the caller crate's; a bare `f(..)`
//!   to the caller file's, else the caller crate's, else the
//!   workspace-unique one — common names (`run`, `parse`) defined in
//!   many crates would otherwise fan out into absurd cross-crate paths.
//!   `recv.m(..)` resolves like `Type::m` only when the typer names the
//!   receiver's type: untyped fan-out matches std methods (`push`,
//!   `get`) onto unrelated workspace types. DESIGN.md ("Static
//!   analysis") records this precision/soundness tradeoff.
//! * The **typer** types parameters (`self` as its owner), `let`s (by
//!   annotation, else initializer), literals, casts, struct and tuple
//!   fields, indexing, arithmetic, integer-valued builtin methods,
//!   resolved methods' declared returns and `Type::f(..)` constructors
//!   — enough to tell float arithmetic from integer index arithmetic
//!   and to name a method receiver. A generic parameter types as the
//!   struct of its name; arithmetic on it is float arithmetic.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{self, BinOp, Expr, ExprKind, FnDef, Item, ItemKind, Stmt, StructDef, TypeRef};
use crate::context::is_test_path;
use crate::Workspace;

pub type FnId = usize;

/// One function definition.
#[derive(Debug, Clone, Copy)]
pub struct FnNode<'a> {
    /// Workspace-relative file of the definition.
    pub file: &'a str,
    /// Impl type for methods, trait for trait defaults, `None` for free
    /// functions.
    pub owner: Option<&'a str>,
    /// The trait of the enclosing `impl Trait for Type` block, if any.
    pub impl_trait: Option<&'a str>,
    pub name: &'a str,
    pub def: &'a FnDef,
    /// `#[cfg(test)]` / `#[test]` code, or anything in a test tree.
    pub in_test: bool,
}

impl FnNode<'_> {
    /// `Type::name` or plain `name` — stable display form.
    pub fn qual_name(&self) -> String {
        match self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

pub struct Index<'a> {
    pub fns: Vec<FnNode<'a>>,
    /// Non-test structs by name (first definition wins).
    pub structs: BTreeMap<&'a str, &'a StructDef>,
    /// Type name -> the traits its non-test impls implement.
    traits_of: BTreeMap<&'a str, BTreeSet<&'a str>>,
    /// (owner, name) -> fns; free fns under `None`.
    by_owner: BTreeMap<(Option<&'a str>, &'a str), Vec<FnId>>,
}

impl<'a> Index<'a> {
    pub fn build(ws: &'a Workspace) -> Self {
        let mut ix = Index {
            fns: Vec::new(),
            structs: BTreeMap::new(),
            traits_of: BTreeMap::new(),
            by_owner: BTreeMap::new(),
        };
        for f in &ws.files {
            ix.add_items(&f.rel, &f.ast.items, is_test_path(&f.rel));
        }
        for (id, n) in ix.fns.iter().enumerate() {
            ix.by_owner.entry((n.owner, n.name)).or_default().push(id);
        }
        ix
    }

    fn add_items(&mut self, file: &'a str, items: &'a [Item], in_test_mod: bool) {
        for it in items {
            let in_test = in_test_mod || it.in_test;
            let mut push = |owner, impl_trait, def: &'a FnDef| {
                let n = FnNode { file, owner, impl_trait, name: &def.name, def, in_test };
                self.push_fn(n)
            };
            match &it.kind {
                ItemKind::Fn(fd) => push(None, None, fd),
                ItemKind::Impl(im) => {
                    let owner = Some(im.type_name.as_str());
                    im.fns.iter().for_each(|fd| push(owner, im.trait_name.as_deref(), fd));
                    if let (Some(tr), false) = (&im.trait_name, it.in_test) {
                        self.traits_of.entry(&im.type_name).or_default().insert(tr);
                    }
                }
                ItemKind::Trait(td) => {
                    let owner = Some(td.name.as_str());
                    td.fns.iter().filter(|fd| fd.body.is_some()).for_each(|fd| push(owner, None, fd));
                }
                ItemKind::Struct(sd) if !it.in_test => {
                    self.structs.entry(&sd.name).or_insert(sd);
                }
                ItemKind::Mod(inner) => self.add_items(file, inner, in_test),
                _ => {}
            }
        }
    }

    /// Add `n`, then the `fn` items nested in its body as free functions
    /// of the same file.
    fn push_fn(&mut self, n: FnNode<'a>) {
        self.fns.push(n);
        let Some(body) = &n.def.body else { return };
        ast::walk_stmts(body, &mut |s| {
            if let Stmt::Fn(def) = s {
                let name = &def.name;
                self.push_fn(FnNode { owner: None, impl_trait: None, name, def, ..n });
            }
        });
    }

    /// Ids of the fns named `name` under `owner`.
    pub fn find(&self, owner: Option<&str>, name: &str) -> Vec<FnId> {
        self.by_owner.get(&(owner, name)).cloned().unwrap_or_default()
    }

    /// Targets of `ty::name(..)` / `recv.name(..)` with `recv: ty`: the
    /// type's own methods, else the default bodies of the traits it
    /// implements.
    pub fn resolve_method(&self, ty: &str, name: &str) -> Vec<FnId> {
        let own = self.find(Some(ty), name);
        if !own.is_empty() {
            return own;
        }
        let traits = self.traits_of.get(ty).into_iter().flatten();
        traits.flat_map(|tr| self.find(Some(tr), name)).collect()
    }

    /// Targets of the path call `segs(..)` made from `file`.
    pub fn resolve_path(&self, segs: &[String], file: &str) -> Vec<FnId> {
        let Some(name) = segs.last() else { return Vec::new() };
        let qual = segs.len().checked_sub(2).map(|i| segs[i].as_str());
        if let Some(q) = qual.filter(|q| starts_upper(q)) {
            return if q == "Self" { Vec::new() } else { self.resolve_method(q, name) };
        }
        let ids = self.find(None, name);
        let same_file = |t: &FnId| self.fns[*t].file == file;
        let same_crate = |t: &FnId| crate_of(self.fns[*t].file) == crate_of(file);
        let unique = |_: &FnId| ids.len() == 1;
        // Module-qualified: workspace-unique, else same crate. Bare:
        // same file, then same crate, then workspace-unique.
        let tiers: &[&dyn Fn(&FnId) -> bool] = match qual {
            Some(_) => &[&unique, &same_crate],
            None => &[&same_file, &same_crate, &unique],
        };
        let hits = tiers.iter().map(|tier| ids.iter().copied().filter(|t| tier(t)).collect());
        hits.into_iter().find(|v: &Vec<FnId>| !v.is_empty()).unwrap_or_default()
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

/// `crates/foo/src/...` -> `crates/foo` (the crate key of same-crate
/// resolution).
fn crate_of(rel: &str) -> &str {
    match rel.strip_prefix("crates/").and_then(|rest| rest.find('/')) {
        Some(i) => &rel[..7 + i],
        None => rel,
    }
}

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
    fn is_int_or_bool(&self) -> bool {
        matches!(self, Ty::Int | Ty::Bool)
    }
}

/// Local types: name -> type.
pub type Env = BTreeMap<String, Ty>;

pub struct Typer<'i, 'a> {
    pub index: &'i Index<'a>,
}

impl<'i, 'a> Typer<'i, 'a> {
    pub fn new(index: &'i Index<'a>) -> Self {
        Typer { index }
    }

    /// A syntactic type as a `Ty`.
    pub fn resolve(&self, tr: &TypeRef) -> Ty {
        let cur = tr.deref();
        let first = cur.args.first();
        match cur.base.as_str() {
            "f64" | "f32" => Ty::Float,
            "usize" | "isize" | "u8" | "u16" | "u32" | "u64" | "u128" | "i8" | "i16" | "i32"
            | "i64" | "i128" | "char" => Ty::Int,
            "bool" => Ty::Bool,
            "[array]" | "Vec" | "VecDeque" => {
                first.map_or(Ty::Unknown, |e| Ty::Array(Box::new(self.resolve(e))))
            }
            "Box" | "Rc" | "Arc" => first.map_or(Ty::Unknown, |e| self.resolve(e)),
            "(tuple)" => Ty::Tuple(cur.args.iter().map(|a| self.resolve(a)).collect()),
            "?" => Ty::Unknown,
            name => Ty::Struct(name.to_string()),
        }
    }

    /// The parameter types of `def`, `self` typed as `self_ty`.
    pub fn params(&self, def: &FnDef, self_ty: Option<&str>) -> Env {
        let self_ty = || self_ty.map_or(Ty::Unknown, |t| Ty::Struct(t.to_string()));
        let ty = |p: &ast::Param| if p.name == "self" { self_ty() } else { self.resolve(&p.ty) };
        def.params.iter().map(|p| (p.name.clone(), ty(p))).collect()
    }

    /// Bind the names of `let <names>: <ann> = <init>`: the annotation,
    /// else the initializer's type; tuple patterns element by element.
    pub fn bind(&self, env: &mut Env, names: &[String], ann: Option<&TypeRef>, init: Option<&Expr>) {
        let ty = match (ann, init) {
            (Some(a), _) => self.resolve(a),
            (None, Some(e)) => self.ty_of(e, env),
            _ => Ty::Unknown,
        };
        match (ty, names) {
            (ty, [name]) => {
                env.insert(name.clone(), ty);
            }
            (Ty::Tuple(ts), _) if ts.len() == names.len() => {
                env.extend(names.iter().cloned().zip(ts));
            }
            _ => env.extend(names.iter().map(|n| (n.clone(), Ty::Unknown))),
        }
    }

    /// The type of `e` under `env`.
    pub fn ty_of(&self, e: &Expr, env: &Env) -> Ty {
        match &e.kind {
            ExprKind::Num { is_float, .. } => if *is_float { Ty::Float } else { Ty::Int },
            ExprKind::Path(segs) if segs.len() == 1 => env.get(&segs[0]).cloned().unwrap_or(Ty::Unknown),
            ExprKind::Unary { op: '!', .. } => Ty::Bool,
            ExprKind::Unary { expr, .. } => self.ty_of(expr, env),
            // Integer arithmetic only on integer or bool operands: a
            // generic scalar `T` (a struct here) or an untracked operand
            // makes float arithmetic.
            ExprKind::Binary { op, lhs, rhs } if op.is_arith() => {
                let int = |e| self.ty_of(e, env).is_int_or_bool();
                if int(lhs) && int(rhs) { Ty::Int } else { Ty::Float }
            }
            ExprKind::Binary {
                op: BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr,
                ..
            } => Ty::Int,
            ExprKind::Binary { .. } => Ty::Bool,
            ExprKind::Cast { ty, .. } => self.resolve(ty),
            ExprKind::Field { recv, name } => match self.ty_of(recv, env) {
                Ty::Struct(s) => self.index.structs.get(s.as_str()).map_or(Ty::Unknown, |sd| {
                    let field = sd.fields.iter().find(|(f, _)| f == name);
                    field.map_or(Ty::Unknown, |(_, tr)| self.resolve(tr))
                }),
                Ty::Tuple(ts) => {
                    name.parse().ok().and_then(|i: usize| ts.get(i).cloned()).unwrap_or(Ty::Unknown)
                }
                _ => Ty::Unknown,
            },
            ExprKind::Index { recv, .. } => match self.ty_of(recv, env) {
                Ty::Array(t) => *t,
                _ => Ty::Unknown,
            },
            ExprKind::StructLit { path, .. } => Ty::Struct(path.last().cloned().unwrap_or_default()),
            // `Type::new(..)` / `Type::with_capacity(..)` constructors.
            ExprKind::Call { callee, .. } => match &callee.kind {
                ExprKind::Path(segs) if segs.len() >= 2 && starts_upper(&segs[segs.len() - 2]) => {
                    Ty::Struct(segs[segs.len() - 2].clone())
                }
                _ => Ty::Unknown,
            },
            ExprKind::MethodCall { recv, method, .. } => self.method_ty(self.ty_of(recv, env), method),
            _ => Ty::Unknown,
        }
    }

    /// The type of `recv.method(..)`: `len` and `to_bits` are integers,
    /// an integer's `min`/`max`/`abs`/... stays one, a struct's method
    /// has its declared return; anything else is untracked.
    fn method_ty(&self, recv: Ty, method: &str) -> Ty {
        match (method, &recv) {
            ("len" | "to_bits", _) => Ty::Int,
            ("min" | "max" | "abs" | "signum" | "clamp", Ty::Int) => Ty::Int,
            (_, Ty::Struct(s)) => {
                let targets = self.index.resolve_method(s, method);
                let ret = targets.iter().find_map(|&t| self.index.fns[t].def.ret.as_ref());
                ret.map_or(Ty::Unknown, |r| self.resolve(r))
            }
            _ => Ty::Unknown,
        }
    }
}
