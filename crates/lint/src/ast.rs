//! Minimal recursive-descent parser over the `lexer` token stream.
//!
//! This is *not* a Rust front-end. It parses exactly the structure the
//! rules need — items, fn signatures, blocks, statements, and an
//! expression grammar rich enough to cost kernel arithmetic and follow
//! rank guards — and degrades gracefully on everything else: an
//! unparseable top-level construct is recorded in `File::skipped`
//! (token indices) and parsing resumes at the next item. The parser
//! never panics; malformed input yields `Other` items and skipped
//! tokens, never an abort. What it steps over rather than parses (item
//! tails, patterns, `where` clauses, generic lists, closure parameters)
//! goes through one depth-0 scanner, [`Parser::scan`], and every parse
//! loop keeps moving through [`Parser::advancing`].
//!
//! Coverage contract (checked by `check_coverage` and the rt::prop
//! round-trip test): every non-comment token index belongs to exactly
//! one top-level item range or to `skipped` — nothing is silently
//! dropped, nothing is claimed twice.
//!
//! Explicit non-goals (documented in DESIGN.md): no macro expansion
//! (macro bodies are opaque), no lifetimes/bounds resolution, no
//! pattern exhaustiveness, no operator disambiguation requiring
//! whitespace (the lexer emits single-char `Punct`s; compound
//! operators are re-joined positionally).

use crate::lexer::{Kind, Token};

// ---------------------------------------------------------------------------
// AST types
// ---------------------------------------------------------------------------

/// A parsed source file: top-level items plus recovery bookkeeping.
#[derive(Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
    /// Raw indices of significant tokens skipped by top-level recovery.
    pub skipped: Vec<usize>,
}

#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Raw token range `[lo, hi)` this item covers.
    pub lo: usize,
    pub hi: usize,
    pub in_test: bool,
}

#[derive(Debug)]
pub enum ItemKind {
    Fn(FnDef),
    Impl(ImplDef),
    Struct(StructDef),
    Trait(TraitDef),
    Mod(Vec<Item>),
    /// use / extern / enum / const / static / type / macro / anything else.
    Other,
}

#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    pub params: Vec<Param>,
    pub ret: Option<TypeRef>,
    /// `None` for bodyless trait-method declarations.
    pub body: Option<Block>,
    pub line: u32,
    /// True when the definition carries `#[inline]` / `#[inline(..)]`
    /// (the V1 rule's cheap "will the optimizer see through this call
    /// from a lane loop" signal).
    pub inline: bool,
}

#[derive(Debug)]
pub struct Param {
    pub name: String,
    pub ty: TypeRef,
}

#[derive(Debug)]
pub struct ImplDef {
    /// `Some(trait_name)` for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Base name of the implementing type (generics stripped).
    pub type_name: String,
    pub fns: Vec<FnDef>,
}

#[derive(Debug)]
pub struct StructDef {
    pub name: String,
    /// Named fields only; tuple structs parse with an empty list.
    pub fields: Vec<(String, TypeRef)>,
}

#[derive(Debug)]
pub struct TraitDef {
    pub name: String,
    pub fns: Vec<FnDef>,
}

/// A simplified type: base path segment plus generic arguments.
/// Special bases: `"&"` (reference, one arg), `"[array]"` (element in
/// `args[0]`), `"(tuple)"` (elements).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeRef {
    pub base: String,
    pub args: Vec<TypeRef>,
}

impl TypeRef {
    pub fn simple(base: &str) -> Self {
        TypeRef::new(base, Vec::new())
    }
    fn new(base: &str, args: Vec<TypeRef>) -> Self {
        TypeRef { base: base.to_string(), args }
    }
    /// Strip reference layers: `&mut T` -> `T`.
    pub fn deref(&self) -> &TypeRef {
        let mut t = self;
        while let ("&", Some(inner)) = (t.base.as_str(), t.args.first()) {
            t = inner;
        }
        t
    }
}

#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

#[derive(Debug)]
pub enum Stmt {
    Let {
        /// Binder names (one for `let x`, several for tuple patterns).
        names: Vec<String>,
        ty: Option<TypeRef>,
        init: Option<Expr>,
        /// The diverging `else { ... }` block of a `let ... else`.
        els: Option<Block>,
    },
    Expr(Expr),
    /// A `fn` item nested in a block: its own call-graph node, not part
    /// of the enclosing body.
    Fn(FnDef),
    /// Another nested item, or a statement the parser skipped over.
    Opaque,
}

#[derive(Debug)]
pub struct Expr {
    pub line: u32,
    pub kind: ExprKind,
}

#[derive(Debug)]
pub enum ExprKind {
    /// Numeric literal; `is_float` from the token text.
    Num { text: String, is_float: bool },
    /// `a::b::c` path (single idents included).
    Path(Vec<String>),
    Unary { op: char, expr: Box<Expr> },
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// `lhs = rhs` or `lhs op= rhs`.
    Assign { op: Option<BinOp>, lhs: Box<Expr>, rhs: Box<Expr> },
    Call { callee: Box<Expr>, args: Vec<Expr> },
    MethodCall { recv: Box<Expr>, method: String, args: Vec<Expr> },
    Field { recv: Box<Expr>, name: String },
    Index { recv: Box<Expr>, index: Box<Expr> },
    Cast { expr: Box<Expr>, ty: TypeRef },
    /// `[a, b, c]` or `[x; n]`.
    Array(Vec<Expr>),
    Tuple(Vec<Expr>),
    /// `P { a: x, b, ..base }`; the `..base` expression is not kept.
    StructLit { path: Vec<String>, fields: Vec<(String, Expr)> },
    Range { lo: Option<Box<Expr>>, hi: Option<Box<Expr>> },
    /// `if`; the condition of an `if let P = e` is `e`.
    If { cond: Box<Expr>, then: Block, els: Option<Box<Expr>> },
    Match { scrutinee: Box<Expr>, arms: Vec<Arm> },
    For { var: Option<String>, iter: Box<Expr>, body: Block },
    /// `while`; the condition of a `while let P = e` is `e`.
    While { cond: Box<Expr>, body: Block },
    Loop { body: Block },
    Block(Block),
    /// `'name: loop { ... }` / `'name: { ... }` — a labeled loop or
    /// block; `body` is the underlying loop/block expression.
    Labeled { label: String, body: Box<Expr> },
    Closure { body: Box<Expr> },
    Macro { name: String, args: Vec<Expr> },
    Return(Option<Box<Expr>>),
    Break { label: Option<String> },
    Continue { label: Option<String> },
    /// A string, char or bool literal, or something the expression
    /// parser could not model.
    Opaque,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

#[derive(Debug)]
pub struct Arm {
    /// The `if` guard between the pattern and `=>`.
    pub guard: Option<Expr>,
    pub body: Expr,
}

impl Expr {
    fn new(line: u32, kind: ExprKind) -> Self {
        Expr { line, kind }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Maximum expression/type nesting before the parser bails out of a
/// construct (recovery, not panic) — bounds stack depth on adversarial
/// input from the property tests.
const MAX_DEPTH: u32 = 120;

/// Precedence of the comparison operators in [`BINOPS`].
const CMP_PREC: u8 = 3;

/// Every binary operator with its spelling and precedence (`||` = 1 ...
/// `* / %` = 9); two-char spellings first, so the first match is the
/// longest.
const BINOPS: [(BinOp, &str, u8); 18] = [
    (BinOp::Or, "||", 1),
    (BinOp::And, "&&", 2),
    (BinOp::Eq, "==", CMP_PREC),
    (BinOp::Ne, "!=", CMP_PREC),
    (BinOp::Le, "<=", CMP_PREC),
    (BinOp::Ge, ">=", CMP_PREC),
    (BinOp::Shl, "<<", 7),
    (BinOp::Shr, ">>", 7),
    (BinOp::Lt, "<", CMP_PREC),
    (BinOp::Gt, ">", CMP_PREC),
    (BinOp::BitOr, "|", 4),
    (BinOp::BitXor, "^", 5),
    (BinOp::BitAnd, "&", 6),
    (BinOp::Add, "+", 8),
    (BinOp::Sub, "-", 8),
    (BinOp::Mul, "*", 9),
    (BinOp::Div, "/", 9),
    (BinOp::Rem, "%", 9),
];

impl BinOp {
    /// `+ - * / %`.
    pub fn is_arith(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)
    }
    /// Source spelling.
    pub fn symbol(self) -> &'static str {
        BINOPS.iter().find(|b| b.0 == self).map_or("?", |b| b.1)
    }
}

pub fn parse(toks: &[Token]) -> File {
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].kind != Kind::Comment).collect();
    let mut p = Parser { toks, sig: &sig, pos: 0, depth: 0, pending_inline: false };
    let mut skipped = Vec::new();
    let items = p.items(Some(&mut skipped));
    File { items, skipped }
}

/// Verify the coverage contract: every significant (non-comment) token
/// index lies in exactly one top-level item range or in `skipped`.
pub fn check_coverage(toks: &[Token], file: &File) -> Result<(), String> {
    let mut owner = vec![0u8; toks.len()];
    for it in &file.items {
        if it.lo > it.hi || it.hi > toks.len() {
            return Err(format!("item range {}..{} out of bounds", it.lo, it.hi));
        }
        for slot in &mut owner[it.lo..it.hi] {
            if *slot != 0 {
                return Err(format!("overlapping item ranges near {}..{}", it.lo, it.hi));
            }
            *slot = 1;
        }
    }
    for &i in &file.skipped {
        if i >= toks.len() {
            return Err(format!("skipped index {i} out of bounds"));
        }
        if owner[i] != 0 {
            return Err(format!("token {i} both skipped and covered"));
        }
        owner[i] = 2;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Comment && owner[i] == 0 {
            return Err(format!("token {i} ({:?} {:?}) uncovered", t.kind, t.text));
        }
    }
    Ok(())
}

struct Parser<'a> {
    toks: &'a [Token],
    /// Indices of non-comment tokens.
    sig: &'a [usize],
    /// Cursor into `sig`.
    pos: usize,
    depth: u32,
    /// Set while skipping `#[inline]`-family attributes; consumed by the
    /// next `fn_def`.
    pending_inline: bool,
}

impl<'a> Parser<'a> {
    // -- token access -------------------------------------------------------

    fn tok(&self, n: usize) -> Option<&'a Token> {
        self.sig.get(self.pos + n).map(|&i| &self.toks[i])
    }
    fn peek(&self) -> Option<&'a Token> {
        self.tok(0)
    }
    /// The punctuation character at the cursor, if any.
    fn punct(&self) -> Option<char> {
        self.peek().filter(|t| t.kind == Kind::Punct).and_then(|t| t.text.chars().next())
    }
    fn raw_idx(&self) -> usize {
        // Raw index of the current significant token (or end of stream).
        self.sig.get(self.pos).copied().unwrap_or(self.toks.len())
    }
    fn line(&self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }
    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.tok(0);
        self.pos += usize::from(t.is_some());
        t
    }
    fn punct_at(&self, n: usize, c: char) -> bool {
        matches!(self.tok(n), Some(t) if t.kind == Kind::Punct && t.text.starts_with(c))
    }
    fn at_punct(&self, c: char) -> bool {
        self.punct_at(0, c)
    }
    fn ident_at(&self, n: usize) -> Option<&'a str> {
        self.tok(n).filter(|t| t.kind == Kind::Ident).map(|t| t.text.as_str())
    }
    fn at_ident(&self, s: &str) -> bool {
        self.ident_at(0) == Some(s)
    }
    fn at_kind(&self, kind: Kind) -> bool {
        self.peek().is_some_and(|t| t.kind == kind)
    }
    fn eat_punct(&mut self, c: char) -> bool {
        let hit = self.at_punct(c);
        self.pos += usize::from(hit);
        hit
    }
    fn eat_ident(&mut self, s: &str) -> bool {
        let hit = self.at_ident(s);
        self.pos += usize::from(hit);
        hit
    }
    fn eat_kind(&mut self, kind: Kind) -> bool {
        let hit = self.at_kind(kind);
        self.pos += usize::from(hit);
        hit
    }
    /// An identifier, consuming the token either way.
    fn name(&mut self) -> Option<String> {
        self.bump().filter(|t| t.kind == Kind::Ident).map(|t| t.text.clone())
    }
    /// `::` — two adjacent ':' puncts.
    fn at_coloncolon(&self) -> bool {
        self.at_punct(':') && self.punct_at(1, ':')
    }
    /// A lone `:` (type ascription), not `::`.
    fn eat_colon(&mut self) -> bool {
        !self.at_coloncolon() && self.eat_punct(':')
    }
    /// `->`
    fn at_arrow(&self) -> bool {
        self.at_punct('-') && self.punct_at(1, '>')
    }

    /// The one skipping primitive: step over tokens until one at bracket
    /// depth 0 satisfies `stop` (left in place), an unmatched closer, or
    /// the end. `::` and `->` are stepped over whole and never stop (the
    /// `>` of `Fn(A) -> B` closes no generic list); `<`/`>` nest too when
    /// `angles` (in types, patterns and generic lists).
    fn scan(&mut self, angles: bool, stop: &dyn Fn(&Self) -> bool) {
        let (mut depth, mut angle) = (0usize, 0usize);
        while self.peek().is_some() {
            if self.at_coloncolon() || self.at_arrow() {
                self.pos += 2;
                continue;
            }
            if depth == 0 && angle == 0 && stop(self) {
                return;
            }
            match self.punct() {
                Some('(' | '[' | '{') => depth += 1,
                Some(')' | ']' | '}') if depth == 0 => return,
                Some(')' | ']' | '}') => depth -= 1,
                Some('<') if angles => angle += 1,
                Some('>') if angles => angle = angle.saturating_sub(1),
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// [`Parser::scan`] to the first of the `stops` puncts.
    fn scan_to(&mut self, angles: bool, stops: &str) {
        self.scan(angles, &|p| p.punct().is_some_and(|c| stops.contains(c)));
    }

    /// Run one step of a parse loop; when it consumed nothing, step over
    /// one token and yield nothing — the progress guarantee of every
    /// loop.
    fn advancing<T>(&mut self, step: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let start = self.pos;
        let r = step(self);
        if self.pos == start {
            self.pos += 1;
            return None;
        }
        r
    }

    /// The items of a `,`-separated list whose opener is consumed,
    /// through its `close`, and whether a `,` followed an item. `item`
    /// parses one; what it leaves before the next `,` (or `;`, as in
    /// `[x; n]`) is scanned over, so every round ends on a separator,
    /// a closer or the end.
    fn list<T>(
        &mut self,
        close: char,
        angles: bool,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> (Vec<T>, bool) {
        let (mut items, mut comma) = (Vec::new(), false);
        // A closer of another group ends the list unconsumed.
        let other_closer = |p: &Self| p.punct().is_some_and(|c| ")]}".contains(c));
        while !self.eat_punct(close) && !other_closer(self) && self.peek().is_some() {
            items.extend(item(self));
            self.scan(angles, &|p| p.punct().is_some_and(|c| c == ',' || c == ';' || c == close));
            comma |= self.eat_punct(',');
            self.eat_punct(';');
        }
        (items, comma)
    }

    /// Skip a balanced delimiter group starting at the current token
    /// (which must be an opener). Returns false when it does not close.
    fn skip_group(&mut self) -> bool {
        let close = match self.punct() {
            Some('(') => ')',
            Some('[') => ']',
            Some('{') => '}',
            _ => return false,
        };
        self.pos += 1;
        self.scan(false, &|_| false);
        self.eat_punct(close)
    }

    /// Skip any run of `#[...]` / `#![...]` attributes, remembering an
    /// `inline` among them for the next `fn_def` (`inline` can only be
    /// the first ident of an attribute path).
    fn skip_attrs(&mut self) {
        while self.eat_punct('#') {
            self.eat_punct('!');
            self.pending_inline |= self.at_punct('[') && self.ident_at(1) == Some("inline");
            self.skip_group();
        }
    }

    /// Skip `pub` / `pub(...)`.
    fn skip_vis(&mut self) {
        if self.eat_ident("pub") && self.at_punct('(') {
            self.skip_group();
        }
    }

    /// Skip to (and past) the next `;` at depth 0, or past a brace group,
    /// whichever comes first: the tail of an item the parser does not
    /// model.
    fn skip_to_item_end(&mut self) {
        self.scan_to(false, ";{");
        if !self.eat_punct(';') {
            self.skip_group();
        }
    }

    /// Skip a `where` clause, if one starts here: advance to (not past)
    /// the `{` or `;` that ends the header.
    fn skip_where(&mut self) {
        if self.at_ident("where") {
            self.scan_to(false, "{;");
        }
    }

    /// Skip a `<...>` generic parameter or argument list, if one starts
    /// here.
    fn skip_generic_args(&mut self) {
        if self.eat_punct('<') {
            self.scan_to(true, ">;");
            self.eat_punct('>');
        }
    }

    // -- items --------------------------------------------------------------

    /// The items up to the `}` that closes the enclosing body (consumed)
    /// or, at the top level (`skipped` given), to the end of the file,
    /// recording every token no item could start at as skipped.
    fn items(&mut self, mut skipped: Option<&mut Vec<usize>>) -> Vec<Item> {
        let mut items = Vec::new();
        while self.peek().is_some() && (skipped.is_some() || !self.eat_punct('}')) {
            let start = self.pos;
            match self.advancing(Self::item) {
                Some(item) => items.push(item),
                None => skipped.iter_mut().for_each(|s| s.push(self.sig[start])),
            }
        }
        items
    }

    fn item(&mut self) -> Option<Item> {
        let lo = self.raw_idx();
        let in_test = self.peek()?.in_test;
        self.skip_attrs();
        self.skip_vis();
        // Qualifiers; `const` only when followed by `fn` (else it is a
        // const item).
        loop {
            if self.eat_ident("extern") {
                self.eat_kind(Kind::Str);
            } else if !(self.eat_ident("unsafe")
                || self.eat_ident("async")
                || (self.ident_at(1) == Some("fn") && self.eat_ident("const")))
            {
                break;
            }
        }
        let kind = match self.ident_at(0) {
            Some("fn") => self.fn_def().map(ItemKind::Fn),
            Some("impl") => self.impl_def().map(ItemKind::Impl),
            Some("struct") => self.struct_def().map(ItemKind::Struct),
            Some("trait") => self.trait_def().map(ItemKind::Trait),
            Some("mod") => self.mod_def(),
            _ => {
                self.skip_to_item_end();
                None
            }
        };
        self.pending_inline = false;
        Some(Item { kind: kind.unwrap_or(ItemKind::Other), lo, hi: self.raw_idx(), in_test })
    }

    fn fn_def(&mut self) -> Option<FnDef> {
        let inline = std::mem::take(&mut self.pending_inline);
        self.eat_ident("fn");
        let line = self.line();
        let name = self.name()?;
        self.skip_generic_args();
        let params = if self.eat_punct('(') { self.list(')', true, Self::param).0 } else { Vec::new() };
        let ret = if self.at_arrow() {
            self.pos += 2;
            self.type_ref()
        } else {
            None
        };
        self.skip_where();
        let body = if self.at_punct('{') {
            Some(self.block().unwrap_or_default())
        } else {
            self.eat_punct(';');
            None
        };
        Some(FnDef { name, params, ret, body, line, inline })
    }

    /// One parameter: pattern `:` type, or a `self` form.
    fn param(&mut self) -> Option<Param> {
        while self.eat_punct('&')
            || self.eat_ident("mut")
            || self.eat_ident("ref")
            || self.eat_kind(Kind::Lifetime)
        {}
        let name = self.ident_at(0)?.to_string();
        self.pos += 1;
        let ty = match self.eat_colon() {
            true => self.type_ref(),
            false => (name == "self").then(|| TypeRef::simple("Self")),
        };
        Some(Param { name, ty: ty.unwrap_or_else(|| TypeRef::simple("?")) })
    }

    fn impl_def(&mut self) -> Option<ImplDef> {
        self.eat_ident("impl");
        self.skip_generic_args();
        let first = self.type_ref()?;
        let (trait_name, type_name) = match self.eat_ident("for") {
            true => (Some(first.base), self.type_ref()?.base),
            false => (None, first.base),
        };
        self.skip_where();
        let fns = self.members()?;
        Some(ImplDef { trait_name, type_name, fns })
    }

    /// The fns of an `impl` / `trait` body, through its closing `}`;
    /// `None` when there is no body.
    fn members(&mut self) -> Option<Vec<FnDef>> {
        if !self.eat_punct('{') {
            self.eat_punct(';');
            return None;
        }
        let fns = self.items(None).into_iter().filter_map(|it| match it.kind {
            ItemKind::Fn(fd) => Some(fd),
            _ => None,
        });
        Some(fns.collect())
    }

    fn struct_def(&mut self) -> Option<StructDef> {
        self.eat_ident("struct");
        let name = self.name()?;
        self.skip_generic_args();
        if !self.eat_punct('{') {
            // Tuple struct or unit struct.
            self.skip_to_item_end();
            return Some(StructDef { name, fields: Vec::new() });
        }
        let (fields, _) = self.list('}', false, |p| {
            p.skip_attrs();
            p.skip_vis();
            let field = p.ident_at(0)?.to_string();
            p.pos += 1;
            p.eat_colon().then(|| p.type_ref().map(|ty| (field, ty))).flatten()
        });
        Some(StructDef { name, fields })
    }

    fn trait_def(&mut self) -> Option<TraitDef> {
        self.eat_ident("trait");
        let name = self.name()?;
        self.skip_generic_args();
        // Supertraits / where clause; `trait A = B;` has no body.
        self.scan_to(false, "{;");
        let fns = self.members().unwrap_or_default();
        Some(TraitDef { name, fns })
    }

    fn mod_def(&mut self) -> Option<ItemKind> {
        self.eat_ident("mod");
        self.name()?;
        if !self.eat_punct('{') {
            self.eat_punct(';');
            return None;
        }
        Some(ItemKind::Mod(self.items(None)))
    }

    // -- types --------------------------------------------------------------

    fn type_ref(&mut self) -> Option<TypeRef> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let r = self.type_ref_inner();
        self.depth -= 1;
        r
    }

    fn type_ref_inner(&mut self) -> Option<TypeRef> {
        // References and raw pointers.
        if self.eat_punct('&') || self.eat_punct('*') {
            self.eat_kind(Kind::Lifetime);
            let _ = self.eat_ident("mut") || self.eat_ident("const");
            return Some(TypeRef::new("&", vec![self.type_ref()?]));
        }
        // dyn / impl prefixes.
        let _ = self.eat_ident("dyn") || self.eat_ident("impl");
        // Slices and arrays.
        if self.eat_punct('[') {
            let ty = TypeRef::new("[array]", vec![self.type_ref()?]);
            if self.eat_punct(';') {
                // The length expression, up to its ']'.
                self.scan(false, &|_| false);
            }
            self.eat_punct(']');
            return Some(ty);
        }
        // Tuples / unit / fn-pointer parens.
        if self.eat_punct('(') {
            let (mut args, _) = self.list(')', true, Self::type_ref);
            return Some(match args.len() {
                1 => args.remove(0),
                _ => TypeRef::new("(tuple)", args),
            });
        }
        // Path type: seg::seg::Last<...>
        let mut last = self.name()?;
        while self.at_coloncolon() && self.ident_at(2).is_some() {
            self.pos += 2;
            last = self.name()?;
        }
        let mut args = Vec::new();
        // `<` opens generic arguments unless it is `<=` (`x as u32 <= n`).
        if !self.punct_at(1, '=') && self.eat_punct('<') {
            let arg = |p: &mut Self| if p.eat_kind(Kind::Lifetime) { None } else { p.type_ref() };
            (args, _) = self.list('>', true, arg);
        }
        Some(TypeRef::new(&last, args))
    }

    // -- blocks and statements ---------------------------------------------

    fn block(&mut self) -> Option<Block> {
        if self.depth >= MAX_DEPTH {
            // Consume the group to keep coverage contiguous.
            self.skip_group();
            return Some(Block::default());
        }
        if !self.eat_punct('{') {
            return None;
        }
        self.depth += 1;
        let mut stmts = Vec::new();
        while !self.eat_punct('}') && self.peek().is_some() {
            stmts.extend(self.advancing(Self::stmt));
        }
        self.depth -= 1;
        Some(Block { stmts })
    }

    fn stmt(&mut self) -> Option<Stmt> {
        if self.eat_punct(';') {
            return Some(Stmt::Opaque);
        }
        // Attributes on statements.
        self.skip_attrs();
        match self.ident_at(0) {
            Some("let") => return self.let_stmt(),
            Some(
                "use" | "mod" | "struct" | "enum" | "type" | "trait" | "impl" | "static" | "fn"
                | "const",
            ) => {
                return match self.item()?.kind {
                    ItemKind::Fn(def) => Some(Stmt::Fn(def)),
                    _ => Some(Stmt::Opaque),
                };
            }
            _ => {}
        }
        // Rust's expression-statement rule: a statement that *starts*
        // with a block-headed expression ends at that expression's
        // closing brace — `if c { return; } *out += x;` is two
        // statements, never `(if ..) * out`. Parse the atom alone and
        // do not continue into binary/postfix position.
        let block_headed = match self.ident_at(0) {
            Some("if" | "match" | "for" | "while" | "loop") => true,
            Some("unsafe") => self.punct_at(1, '{'),
            Some(_) => false,
            // `{ ... }` or a labeled loop/block: `'outer: loop { ... }`.
            None => self.at_punct('{') || (self.at_kind(Kind::Lifetime) && self.punct_at(1, ':')),
        };
        let e = if block_headed { self.atom_expr(true) } else { self.expr(true) }?;
        self.eat_punct(';');
        Some(Stmt::Expr(e))
    }

    fn let_stmt(&mut self) -> Option<Stmt> {
        self.eat_ident("let");
        let names = self.pattern(&|p| p.punct().is_some_and(|c| "=:;".contains(c)));
        let ty = if self.eat_colon() { self.type_ref() } else { None };
        let init = if self.at_punct('=') && !self.punct_at(1, '>') && !self.punct_at(1, '=') {
            self.pos += 1;
            self.expr(true)
        } else {
            None
        };
        // `let ... else { ... }` — the else block is a real (diverging)
        // block: the rules see its `return`/`continue`.
        let els = if self.eat_ident("else") { self.block() } else { None };
        self.eat_punct(';');
        Some(Stmt::Let { names, ty, init, els })
    }

    /// Step over a pattern up to `stop` or an `if` guard at depth 0,
    /// returning its likely binder names: lowercase idents that are
    /// neither path segments nor keywords.
    fn pattern(&mut self, stop: &dyn Fn(&Self) -> bool) -> Vec<String> {
        let start = self.pos;
        self.scan(true, &|p| stop(p) || p.at_ident("if"));
        let tok = |i: usize| self.sig.get(i).map(|&j| &self.toks[j]);
        let binder = |i: usize| {
            let t = tok(i)?;
            let path = [1, 2].iter().all(|n| tok(i + n).is_some_and(|t| t.is_punct(':')));
            let kw = matches!(t.text.as_str(), "mut" | "ref" | "in" | "if" | "else" | "box" | "_");
            let lower = t.text.starts_with(|c: char| c.is_lowercase() || c == '_');
            (t.kind == Kind::Ident && !kw && !path && lower).then(|| t.text.clone())
        };
        (start..self.pos).filter_map(binder).collect()
    }

    // -- expressions --------------------------------------------------------

    /// Full expression, lowest precedence (assignment + ranges).
    /// `allow_struct` is false in `if`/`while`/`match`-header positions.
    fn expr(&mut self, allow_struct: bool) -> Option<Expr> {
        if self.depth >= MAX_DEPTH {
            // Consume one token so callers make progress.
            self.bump();
            return Some(Expr::new(0, ExprKind::Opaque));
        }
        self.depth += 1;
        let r = self.assign_expr(allow_struct);
        self.depth -= 1;
        r
    }

    fn assign_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let line = self.line();
        let lhs = self.range_expr(allow_struct)?;
        let at = |i, c| self.punct_at(i, c);
        // `lhs op= rhs` — an arithmetic, bit or shift operator followed
        // by `=` — or plain `=` (but not `==`, `=>`).
        let compound = BINOPS.iter().find(|(_, sym, prec)| {
            *prec > CMP_PREC && sym.chars().chain(['=']).enumerate().all(|(i, c)| at(i, c))
        });
        let (op, width) = match compound {
            Some(&(op, sym, _)) => (Some(op), sym.len() + 1),
            None if at(0, '=') && !at(1, '=') && !at(1, '>') => (None, 1),
            None => return Some(lhs),
        };
        self.pos += width;
        let rhs = self.expr(allow_struct)?;
        Some(Expr::new(line, ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }))
    }

    fn range_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let line = self.line();
        // Prefix range (`..hi` / `..=hi` / bare `..`) has no `lo`.
        let prefix = self.at_punct('.') && self.punct_at(1, '.');
        let lo = if prefix { None } else { Some(self.binary_expr(allow_struct, 1)?) };
        let dots = self.at_punct('.') && self.punct_at(1, '.');
        if !dots || (!prefix && self.punct_at(2, '.')) {
            return lo;
        }
        self.pos += 2;
        self.eat_punct('=');
        let hi_starts = match self.peek().map(|t| t.kind) {
            Some(Kind::Punct) => self.punct().is_some_and(|c| "([-!*&".contains(c)),
            kind => matches!(kind, Some(Kind::Ident | Kind::Num | Kind::Str | Kind::Char)),
        };
        let hi = if hi_starts { self.binary_expr(allow_struct, 1).map(Box::new) } else { None };
        Some(Expr::new(line, ExprKind::Range { lo: lo.map(Box::new), hi }))
    }

    /// The binary operator at the cursor as `(op, precedence, token
    /// width)`, re-joining the lexer's single-char puncts. Compound
    /// assignments (`+=`, `<<=`, ...), `->` and `=>` are not binary
    /// operators and yield `None`.
    fn peek_binop(&self) -> Option<(BinOp, u8, usize)> {
        let at = |i, c| self.punct_at(i, c);
        let &(op, sym, prec) =
            BINOPS.iter().find(|(_, sym, _)| sym.chars().enumerate().all(|(i, c)| at(i, c)))?;
        let not_an_operator = at(sym.len(), '=') || (op == BinOp::Sub && at(1, '>'));
        (!not_an_operator).then_some((op, prec, sym.len()))
    }

    /// Precedence climbing over [`Parser::peek_binop`]: every level is
    /// left-associative except comparison, which does not chain (a
    /// second comparison is left for the caller, as in Rust).
    fn binary_expr(&mut self, allow_struct: bool, min_prec: u8) -> Option<Expr> {
        let mut lhs = self.cast_expr(allow_struct)?;
        let mut max_prec = u8::MAX;
        while let Some((op, prec, width)) = self.peek_binop() {
            if prec < min_prec || prec > max_prec {
                break;
            }
            let line = self.line();
            self.pos += width;
            let rhs = self.binary_expr(allow_struct, prec + 1)?;
            lhs = Expr::new(line, ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
            max_prec = if prec == CMP_PREC { CMP_PREC - 1 } else { prec };
        }
        Some(lhs)
    }

    fn cast_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let mut e = self.unary_expr(allow_struct)?;
        while self.at_ident("as") {
            let line = self.line();
            self.pos += 1;
            let ty = self.type_ref().unwrap_or_else(|| TypeRef::simple("?"));
            e = Expr::new(line, ExprKind::Cast { expr: Box::new(e), ty });
        }
        Some(e)
    }

    fn unary_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let line = self.line();
        let unary = |op, inner| Expr::new(line, ExprKind::Unary { op, expr: Box::new(inner) });
        // `-` only when it is not `->`.
        if let Some(op) = ['-', '!', '*'].into_iter().find(|&c| self.at_punct(c) && !self.at_arrow()) {
            self.pos += 1;
            return Some(unary(op, self.unary_expr(allow_struct)?));
        }
        if self.eat_punct('&') {
            // `&&x` in operand position: a double reference.
            let double = self.eat_punct('&');
            self.eat_ident("mut");
            let inner = unary('&', self.unary_expr(allow_struct)?);
            return Some(if double { unary('&', inner) } else { inner });
        }
        self.postfix_expr(allow_struct)
    }

    fn postfix_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let mut e = self.atom_expr(allow_struct)?;
        loop {
            let line = self.line();
            // Method call / field access: `.` not followed by `.` (the
            // lexer merged float literals, so a bare `.` is member
            // access); `.0` is a tuple field.
            if self.at_punct('.') && !self.punct_at(1, '.') {
                let member = self.tok(1).filter(|t| matches!(t.kind, Kind::Ident | Kind::Num));
                let Some(member) = member else {
                    // Stray dot: consume and stop.
                    self.pos += 1;
                    return Some(e);
                };
                let (name, method) = (member.text.clone(), member.kind == Kind::Ident);
                self.pos += 2;
                // Turbofish on a method: `.collect::<Vec<_>>()`
                if method && self.at_coloncolon() && self.punct_at(2, '<') {
                    self.pos += 2;
                    self.skip_generic_args();
                }
                let recv = Box::new(e);
                e = if method && self.at_punct('(') {
                    let args = self.call_args()?;
                    Expr::new(line, ExprKind::MethodCall { recv, method: name, args })
                } else if name == "await" {
                    *recv
                } else {
                    Expr::new(line, ExprKind::Field { recv, name })
                };
            } else if self.at_punct('(') {
                let args = self.call_args()?;
                e = Expr::new(line, ExprKind::Call { callee: Box::new(e), args });
            } else if self.eat_punct('[') {
                let index = Box::new(self.expr(true)?);
                // A malformed index: balance out.
                self.scan(false, &|_| false);
                self.eat_punct(']');
                e = Expr::new(line, ExprKind::Index { recv: Box::new(e), index });
            } else if !self.eat_punct('?') {
                return Some(e);
            }
        }
    }

    fn call_args(&mut self) -> Option<Vec<Expr>> {
        self.eat_punct('(').then(|| self.exprs(')').0)
    }

    /// The expressions of a call / tuple / array / macro argument list
    /// whose opener is consumed, through `close`.
    fn exprs(&mut self, close: char) -> (Vec<Expr>, bool) {
        self.list(close, false, |p| p.expr(true))
    }

    fn atom_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let t = self.peek()?;
        let line = t.line;
        let new = |kind| Some(Expr::new(line, kind));
        match (t.kind, t.text.as_str()) {
            (Kind::Num, text) => {
                let exp = (text.contains('e') || text.contains('E')) && !text.starts_with("0x");
                let is_float = text.contains('.') || exp || text.contains("f32") || text.contains("f64");
                self.pos += 1;
                new(ExprKind::Num { text: text.to_string(), is_float })
            }
            (Kind::Lifetime, label) if self.punct_at(1, ':') => {
                // Labeled loop or block: 'outer: loop { ... }
                self.pos += 2;
                let body = Box::new(self.atom_expr(allow_struct)?);
                new(ExprKind::Labeled { label: label.to_string(), body })
            }
            (Kind::Str | Kind::Char | Kind::Lifetime, _) | (Kind::Ident, "true" | "false") => {
                self.pos += 1;
                new(ExprKind::Opaque)
            }
            (Kind::Punct, "(") => {
                self.pos += 1;
                let (mut items, tuple) = self.exprs(')');
                match items.len() == 1 && !tuple {
                    true => items.pop(),
                    false => new(ExprKind::Tuple(items)),
                }
            }
            (Kind::Punct, "[") => {
                self.pos += 1;
                new(ExprKind::Array(self.exprs(']').0))
            }
            (Kind::Punct, "{") | (Kind::Ident, "unsafe") => {
                self.eat_ident("unsafe");
                new(ExprKind::Block(self.block()?))
            }
            (Kind::Punct, "|") => {
                // Closure: |params| body  or  || body
                self.pos += 1;
                if !self.eat_punct('|') {
                    self.scan_to(true, "|");
                    self.eat_punct('|');
                }
                if self.at_arrow() {
                    self.pos += 2;
                    let _ = self.type_ref();
                }
                new(ExprKind::Closure { body: Box::new(self.expr(true)?) })
            }
            (Kind::Ident, "if") => self.if_expr(),
            (Kind::Ident, "match") => self.match_expr(),
            (Kind::Ident, "for") => {
                self.pos += 1;
                let var = self.pattern(&|p| p.at_ident("in")).into_iter().next();
                self.eat_ident("in");
                let iter = Box::new(self.expr(false)?);
                new(ExprKind::For { var, iter, body: self.block()? })
            }
            (Kind::Ident, "while") => {
                self.pos += 1;
                let cond = Box::new(self.cond_expr()?);
                new(ExprKind::While { cond, body: self.block()? })
            }
            (Kind::Ident, "loop") => {
                self.pos += 1;
                new(ExprKind::Loop { body: self.block()? })
            }
            (Kind::Ident, "return") => {
                self.pos += 1;
                let val = if self.expr_starts() { self.expr(true).map(Box::new) } else { None };
                new(ExprKind::Return(val))
            }
            (Kind::Ident, kw @ ("break" | "continue")) => {
                self.pos += 1;
                let label = self.peek().filter(|l| l.kind == Kind::Lifetime).map(|l| l.text.clone());
                self.pos += usize::from(label.is_some());
                if kw == "continue" {
                    return new(ExprKind::Continue { label });
                }
                if self.expr_starts() {
                    let _ = self.expr(true);
                }
                new(ExprKind::Break { label })
            }
            (Kind::Ident, "move") => {
                self.pos += 1;
                self.atom_expr(allow_struct)
            }
            (Kind::Ident, _) => self.path_expr(allow_struct),
            _ => None,
        }
    }

    /// Path: seg(::seg)*, optional turbofish, then a macro invocation,
    /// a struct literal, or the plain path.
    fn path_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let line = self.line();
        let mut segs = vec![self.name()?];
        while self.at_coloncolon() {
            if let Some(id) = self.ident_at(2) {
                segs.push(id.to_string());
                self.pos += 3;
            } else if self.punct_at(2, '<') {
                // Turbofish in path position.
                self.pos += 2;
                self.skip_generic_args();
            } else {
                break;
            }
        }
        let last = segs.last().cloned().unwrap_or_default();
        // Macro invocation: name!(...), name![...], name!{...}; the
        // arguments best-effort as comma-separated expressions.
        if self.at_punct('!') && "([{".chars().any(|c| self.punct_at(1, c)) {
            self.pos += 1;
            let args = if self.eat_punct('(') {
                self.exprs(')').0
            } else if self.eat_punct('[') {
                self.exprs(']').0
            } else {
                self.skip_group();
                Vec::new()
            };
            return Some(Expr::new(line, ExprKind::Macro { name: last, args }));
        }
        // Struct literal: Path { field: expr, ... } — only when allowed
        // and the path looks like a type.
        if !(allow_struct && self.at_punct('{') && last.starts_with(char::is_uppercase)) {
            return Some(Expr::new(line, ExprKind::Path(segs)));
        }
        self.pos += 1;
        let (fields, _) = self.list('}', false, |p| {
            if p.at_punct('.') && p.punct_at(1, '.') {
                // `..rest`
                p.pos += 2;
                p.expr(true);
                return None;
            }
            let name = p.ident_at(0)?.to_string();
            p.pos += 1;
            let value = match p.eat_colon() {
                true => p.expr(true)?,
                // Shorthand `field,`
                false => Expr::new(line, ExprKind::Path(vec![name.clone()])),
            };
            Some((name, value))
        });
        Some(Expr::new(line, ExprKind::StructLit { path: segs, fields }))
    }

    fn expr_starts(&self) -> bool {
        match self.peek().map(|t| (t.kind, t.text.as_str())) {
            Some((Kind::Punct, _)) => self.punct().is_some_and(|c| "([{-!*&|".contains(c)),
            Some((Kind::Ident, word)) => word != "else",
            kind => matches!(kind, Some((Kind::Num | Kind::Str | Kind::Char, _))),
        }
    }

    /// The condition of an `if` / `while`: an expression, or the
    /// scrutinee of a `let PAT = scrutinee` test.
    fn cond_expr(&mut self) -> Option<Expr> {
        if self.eat_ident("let") {
            self.pattern(&|p| p.at_punct('='));
            self.eat_punct('=');
        }
        self.expr(false)
    }

    fn if_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        self.eat_ident("if");
        let cond = Box::new(self.cond_expr()?);
        let then = self.block()?;
        let els = match (self.eat_ident("else"), self.at_ident("if")) {
            (true, true) => self.if_expr().map(Box::new),
            (true, false) => self.block().map(|b| Box::new(Expr::new(line, ExprKind::Block(b)))),
            (false, _) => None,
        };
        Some(Expr::new(line, ExprKind::If { cond, then, els }))
    }

    fn match_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        self.eat_ident("match");
        let scrutinee = Box::new(self.expr(false)?);
        if !self.eat_punct('{') {
            return Some(Expr::new(line, ExprKind::Opaque));
        }
        let mut arms = Vec::new();
        while !self.eat_punct('}') && self.peek().is_some() {
            let arm = self.advancing(|p| {
                // Pattern up to `if` or `=>` at depth 0.
                p.pattern(&|p| p.at_punct('='));
                let guard = if p.eat_ident("if") { p.expr(false) } else { None };
                if !(p.at_punct('=') && p.punct_at(1, '>')) {
                    // Malformed arm: recover to the next ',' or '}'.
                    p.scan_to(false, ",");
                    p.eat_punct(',');
                    return None;
                }
                p.pos += 2;
                let body = p.advancing(|p| p.expr(true));
                p.eat_punct(',');
                Some(Arm { guard, body: body.unwrap_or(Expr::new(p.line(), ExprKind::Opaque)) })
            });
            arms.extend(arm);
        }
        Some(Expr::new(line, ExprKind::Match { scrutinee, arms }))
    }
}

// ---------------------------------------------------------------------------
// Walk helpers shared by the rules
// ---------------------------------------------------------------------------

/// Visit the expressions a block's statements hold directly: `let`
/// initializers, expression statements, and the statements of a
/// `let`-`else` block (which run in the enclosing block's scope).
pub fn block_exprs<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    f(e);
                }
                if let Some(b) = els {
                    block_exprs(b, f);
                }
            }
            Stmt::Expr(e) => f(e),
            Stmt::Fn(_) | Stmt::Opaque => {}
        }
    }
}

/// Visit the direct sub-expressions of `e` in evaluation order, looking
/// through nested blocks (loop bodies, `if`/`else` arms, closures).
/// Rules that need per-node state on the way down (a guard flag, a
/// held-lock stack) handle the kinds they care about and recurse
/// through this for the rest.
pub fn for_each_child<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    match &e.kind {
        ExprKind::Unary { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Return(Some(expr))
        | ExprKind::Closure { body: expr }
        | ExprKind::Labeled { body: expr, .. }
        | ExprKind::Field { recv: expr, .. } => f(expr),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Index { recv, index } => {
            f(recv);
            f(index);
        }
        ExprKind::Call { callee: head, args } | ExprKind::MethodCall { recv: head, args, .. } => {
            f(head);
            args.iter().for_each(f);
        }
        ExprKind::Array(xs) | ExprKind::Tuple(xs) | ExprKind::Macro { args: xs, .. } => {
            xs.iter().for_each(f)
        }
        ExprKind::StructLit { fields, .. } => fields.iter().for_each(|(_, x)| f(x)),
        ExprKind::Range { lo, hi } => [lo, hi].into_iter().flatten().for_each(|x| f(x)),
        ExprKind::If { cond, then, els } => {
            f(cond);
            block_exprs(then, f);
            if let Some(x) = els {
                f(x);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            f(scrutinee);
            arms.iter().for_each(|a| a.guard.iter().chain([&a.body]).for_each(&mut *f));
        }
        ExprKind::For { iter: head, body, .. } | ExprKind::While { cond: head, body } => {
            f(head);
            block_exprs(body, f);
        }
        ExprKind::Loop { body } | ExprKind::Block(body) => block_exprs(body, f),
        _ => {}
    }
}

/// A literal for const-folding/fusion purposes: numeric literals,
/// negated literals, folded literal⊗literal, and literal casts.
pub fn is_literal(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Num { .. } => true,
        ExprKind::Unary { op: '-', expr } | ExprKind::Cast { expr, .. } => is_literal(expr),
        ExprKind::Binary { lhs, rhs, .. } => is_literal(lhs) && is_literal(rhs),
        _ => false,
    }
}

/// Visit every expression in a block, depth-first, including nested
/// blocks, loop bodies, match arms, and closure bodies.
pub fn walk_block<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    block_exprs(b, &mut |e| walk_expr(e, f));
}

pub fn walk_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    for_each_child(e, &mut |c| walk_expr(c, f));
}

/// Visit every statement in `b` at any block depth (nested `fn` bodies
/// excluded: they are functions of their own).
pub fn walk_stmts<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    fn own<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
        for s in &b.stmts {
            f(s);
            if let Stmt::Let { els: Some(b), .. } = s {
                own(b, f);
            }
        }
    }
    own(b, f);
    walk_block(b, &mut |e| match &e.kind {
        ExprKind::For { body, .. }
        | ExprKind::While { body, .. }
        | ExprKind::Loop { body }
        | ExprKind::Block(body)
        | ExprKind::If { then: body, .. } => own(body, f),
        _ => {}
    });
}

/// Visit every `let` statement in `b` at any block depth as
/// `(binder names, type annotation, initializer)`.
pub fn walk_lets<'a>(
    b: &'a Block,
    f: &mut dyn FnMut(&'a [String], Option<&'a TypeRef>, Option<&'a Expr>),
) {
    walk_stmts(b, &mut |s| {
        if let Stmt::Let { names, ty, init, .. } = s {
            f(names, ty.as_ref(), init.as_ref());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> File {
        parse(&lexer::lex(src))
    }

    /// The statements of the first item, a fn.
    fn body(f: &File) -> &[Stmt] {
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!("not a fn") };
        &fd.body.as_ref().unwrap().stmts
    }

    /// The first statement of the one fn in `src`, an expression.
    fn first_expr(src: &str) -> ExprKind {
        let mut f = parse_src(src);
        let ItemKind::Fn(fd) = f.items.remove(0).kind else { panic!("not a fn") };
        match fd.body.unwrap().stmts.into_iter().next() {
            Some(Stmt::Expr(e)) => e.kind,
            s => panic!("not an expression statement: {s:?}"),
        }
    }

    #[test]
    fn parses_simple_fn() {
        let f = parse_src("pub fn add(a: f64, b: f64) -> f64 { a + b }");
        assert_eq!(f.items.len(), 1);
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!("not a fn") };
        assert_eq!(fd.name, "add");
        assert_eq!(fd.params.len(), 2);
        assert_eq!(fd.params[0].ty.base, "f64");
        assert_eq!(fd.ret.as_ref().unwrap().base, "f64");
        assert!(fd.body.is_some());
        assert!(f.skipped.is_empty());
    }

    #[test]
    fn arrow_in_a_generic_list_keeps_the_fns_parameters_and_body() {
        // `->` inside `<...>` once ended the generic list at its `>`, and
        // the fn kept neither parameters nor body.
        let src = r#"
            pub fn integrate<F: Fn(f64) -> f64>(f: F, lo: f64, n: usize) -> f64 { f(lo) }
            fn field<G: Fn(usize, usize) -> f64 + Sync>(n: usize, g: G) { helper(n); }
        "#;
        let f = parse_src(src);
        assert!(f.skipped.is_empty());
        let fns: Vec<&FnDef> = f
            .items
            .iter()
            .filter_map(|it| match &it.kind {
                ItemKind::Fn(fd) => Some(fd),
                _ => None,
            })
            .collect();
        assert_eq!(
            fns.iter().map(|fd| fd.name.as_str()).collect::<Vec<_>>(),
            ["integrate", "field"]
        );
        assert_eq!(
            fns.iter().map(|fd| fd.params.len()).collect::<Vec<_>>(),
            [3, 2]
        );
        assert_eq!(fns[0].params[1].ty.base, "f64");
        assert_eq!(fns[0].ret.as_ref().unwrap().base, "f64");
        assert!(fns
            .iter()
            .all(|fd| fd.body.as_ref().is_some_and(|b| !b.stmts.is_empty())));
    }

    #[test]
    fn parses_impl_with_assoc_type_and_generic_trait() {
        let src = r#"
            impl<K: SphKernel, T: Real> SplitKernel<T> for ForceKernel<K> {
                type State = ForceState;
                fn state_words(&self) -> usize { 16 }
                fn interact(&self, si: &ForceState, sj: &ForceState, out: &mut ForceAccum) {
                    let dx = sj.pos[0] - si.pos[0];
                    out.mom[0] += dx * 2.0;
                }
            }
        "#;
        let f = parse_src(src);
        assert_eq!(f.items.len(), 1);
        let ItemKind::Impl(im) = &f.items[0].kind else { panic!("not impl") };
        assert_eq!(im.trait_name.as_deref(), Some("SplitKernel"));
        assert_eq!(im.type_name, "ForceKernel");
        assert_eq!(im.fns.len(), 2);
    }

    #[test]
    fn parses_struct_fields() {
        let f = parse_src("pub struct GravState { pub pos: [f64; 3], pub mass: f64 }");
        let ItemKind::Struct(sd) = &f.items[0].kind else { panic!("not struct") };
        assert_eq!(sd.name, "GravState");
        assert_eq!(sd.fields.len(), 2);
        assert_eq!(sd.fields[0].1.base, "[array]");
        assert_eq!(sd.fields[1].1.base, "f64");
    }

    #[test]
    fn left_associative_precedence() {
        let ExprKind::Binary { op: BinOp::Add, rhs, .. } =
            first_expr("fn f(a: f64, b: f64, c: f64) -> f64 { a + b * c }")
        else {
            panic!("expected + at top");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn coverage_holds_on_clean_and_garbage_source() {
        let clean = r#"
            use std::sync::Mutex;
            /// Doc comment.
            pub struct S { x: f64 }
            impl S {
                pub fn get(&self) -> f64 { self.x.sqrt() }
            }
            fn main() {
                let s = S { x: 2.0 };
                for i in 0..3 { let _ = s.get() * i as f64; }
            }
        "#;
        for src in [clean, "@@ %% fn ok() { 1 + 1; } ## struct Bad {"] {
            let toks = lexer::lex(src);
            let f = parse(&toks);
            check_coverage(&toks, &f).unwrap();
            assert!(src != clean || f.skipped.is_empty());
        }
    }

    #[test]
    fn no_struct_literal_in_if_condition() {
        assert!(matches!(first_expr("fn f(x: T) { if x { g(); } }"), ExprKind::If { .. }));
    }

    #[test]
    fn struct_literal_with_rest() {
        let ExprKind::StructLit { fields, .. } =
            first_expr("fn f() -> P { P { muls: 2, ..Default::default() } }")
        else {
            panic!("not structlit");
        };
        assert_eq!(fields.len(), 1);
    }

    #[test]
    fn compound_assign_and_method_chain() {
        let ExprKind::Assign { op: Some(BinOp::Sub), rhs, .. } =
            first_expr("fn f(o: &mut A, s: f64, dx: f64) { o.acc[0] -= s * dx; }")
        else {
            panic!("expected -=");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn tuple_let_and_if_else_init() {
        let f = parse_src(
            "fn f(k: K, r: f64, h: f64) { let (w, dw) = k.w_dw(r, h); \
             let q = if r < h { w } else { dw }; let _ = q; }",
        );
        let Stmt::Let { names, .. } = &body(&f)[0] else { panic!() };
        assert_eq!(names, &["w".to_string(), "dw".to_string()]);
        let Stmt::Let { init: Some(e), .. } = &body(&f)[1] else { panic!() };
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn arm_guards_and_nested_fns_are_kept() {
        let f = parse_src(
            "fn f(x: u32, y: u32) { fn inner() {} \
             match x { n if n == y => one(), _ if x >= 3 => two(), _ => {} } }",
        );
        assert!(matches!(&body(&f)[0], Stmt::Fn(inner) if inner.name == "inner"));
        let Stmt::Expr(e) = &body(&f)[1] else { panic!() };
        let ExprKind::Match { arms, .. } = &e.kind else { panic!("not a match") };
        let guard_ops: Vec<_> = arms
            .iter()
            .map(|a| a.guard.as_ref().map(|g| matches!(g.kind, ExprKind::Binary { .. })))
            .collect();
        assert_eq!(guard_ops, [Some(true), Some(true), None]);
    }

    #[test]
    fn generic_bindings_le_after_a_cast_and_pattern_params_keep_the_items() {
        let f = parse_src(
            "impl C { fn route(s: impl IntoIterator<Item = (usize, Vec<T>)>) {} fn next() {} } \
             fn small(n: u32) -> bool { n as usize <= 3 } \
             fn pair() -> (u32, impl Fn(&u32) -> u64) { todo!() } \
             fn pattern((a, b): (u32, u32), c: u32) {} fn last() {}",
        );
        let ItemKind::Impl(im) = &f.items[0].kind else { panic!("not impl") };
        assert_eq!(im.fns.len(), 2);
        let body = |it: &&Item| matches!(&it.kind, ItemKind::Fn(fd) if fd.body.is_some());
        assert_eq!(f.items[1..].iter().filter(body).count(), 4);
        let ItemKind::Fn(pattern) = &f.items[3].kind else { panic!("not a fn") };
        assert_eq!(pattern.params.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(), ["c"]);
    }

    #[test]
    fn never_panics_on_token_prefixes() {
        // Truncating valid source at every token must never panic and
        // must keep the coverage invariant.
        let src = r#"
            impl Table {
                fn eval_r2(&self, r2: f64) -> f64 {
                    if r2 >= self.r_cut2 { return 0.0; }
                    let x = r2 * self.inv_dr2;
                    let f = x - x as usize as f64;
                    self.frac[(x as usize + 1).min(self.frac.len() - 1)] * f
                }
            }
        "#;
        let toks = lexer::lex(src);
        for n in 0..toks.len() {
            let prefix = &toks[..n];
            check_coverage(prefix, &parse(prefix)).unwrap();
        }
    }
}
