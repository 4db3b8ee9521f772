//! Minimal recursive-descent parser over the `lexer` token stream.
//!
//! This is *not* a Rust front-end. It parses exactly the structure the
//! rules need — items, fn signatures, blocks, statements, and an
//! expression grammar rich enough to cost kernel arithmetic and track
//! lock-guard scopes — and degrades gracefully on everything else:
//! an unparseable top-level construct is recorded in `File::skipped`
//! (token indices) and parsing resumes at the next item. The parser
//! never panics; malformed input yields `Other` items and skipped
//! tokens, never an abort.
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
    /// Count of intra-item recoveries (statements the parser gave up on).
    pub recovered: u32,
}

#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    /// Raw token range `[lo, hi)` this item covers.
    pub lo: usize,
    pub hi: usize,
    pub line: u32,
    pub in_test: bool,
}

#[derive(Debug)]
pub enum ItemKind {
    Fn(FnDef),
    Impl(ImplDef),
    Struct(StructDef),
    Trait(TraitDef),
    Mod(String, Vec<Item>),
    /// use / extern / enum / const / static / macro / type alias /
    /// anything else.
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
    pub assoc_types: Vec<(String, TypeRef)>,
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
/// `args[0]`, literal length in `array_len`), `"(tuple)"` (elements).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeRef {
    pub base: String,
    pub args: Vec<TypeRef>,
    pub array_len: Option<u64>,
}

impl TypeRef {
    pub fn simple(base: &str) -> Self {
        TypeRef { base: base.to_string(), args: Vec::new(), array_len: None }
    }
    /// Strip reference layers: `&mut T` -> `T`.
    pub fn deref(&self) -> &TypeRef {
        let mut t = self;
        while t.base == "&" {
            match t.args.first() {
                Some(inner) => t = inner,
                None => break,
            }
        }
        t
    }
}

#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
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
    /// String/char/bool literal or other atom we do not model.
    Lit,
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
    If { cond: Box<Expr>, then: Block, els: Option<Box<Expr>> },
    /// `if let` / `while let` conditions lower to this marker + scrutinee.
    LetCond { names: Vec<String>, scrutinee: Box<Expr> },
    Match { scrutinee: Box<Expr>, arms: Vec<Arm> },
    For { var: Option<String>, iter: Box<Expr>, body: Block },
    While { cond: Box<Expr>, body: Block },
    Loop { body: Block },
    Block(Block),
    /// `'name: loop { ... }` / `'name: { ... }` — a labeled loop or
    /// block; `body` is the underlying loop/block expression.
    Labeled { label: String, body: Box<Expr> },
    Closure { body: Box<Expr> },
    Macro { name: String, args: Vec<Expr> },
    Return(Option<Box<Expr>>),
    /// `?` — early error propagation out of the enclosing function.
    Try(Box<Expr>),
    Break { label: Option<String> },
    Continue { label: Option<String> },
    /// Something the expression parser could not model.
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
    /// Binder names the pattern introduces (best effort).
    pub names: Vec<String>,
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
    /// Source spelling.
    pub fn symbol(self) -> &'static str {
        BINOPS.iter().find(|b| b.0 == self).map_or("?", |b| b.1)
    }
}

pub fn parse(toks: &[Token]) -> File {
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].kind != Kind::Comment).collect();
    let mut p = Parser { toks, sig: &sig, pos: 0, depth: 0, recovered: 0, pending_inline: false };
    let mut file = File::default();
    while p.pos < p.sig.len() {
        let start = p.pos;
        match p.item() {
            Some(item) => {
                // Progress guarantee: item() always consumes.
                if p.pos == start {
                    file.skipped.push(p.sig[p.pos]);
                    p.pos += 1;
                } else {
                    file.items.push(item);
                }
            }
            None => {
                file.skipped.push(p.sig[p.pos.min(p.sig.len() - 1)]);
                p.pos = start + 1;
            }
        }
    }
    file.recovered = p.recovered;
    file
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
    recovered: u32,
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
    fn raw_idx(&self) -> usize {
        // Raw index of the current significant token (or end of stream).
        self.sig.get(self.pos).copied().unwrap_or(self.toks.len())
    }
    fn line(&self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }
    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.tok(0);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }
    fn at_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(t) if t.kind == Kind::Punct && t.text.starts_with(c))
    }
    fn punct_at(&self, n: usize, c: char) -> bool {
        matches!(self.tok(n), Some(t) if t.kind == Kind::Punct && t.text.starts_with(c))
    }
    fn at_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == Kind::Ident && t.text == s)
    }
    fn ident_at(&self, n: usize) -> Option<&'a str> {
        match self.tok(n) {
            Some(t) if t.kind == Kind::Ident => Some(&t.text),
            _ => None,
        }
    }
    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
    /// `::` — two adjacent ':' puncts.
    fn at_coloncolon(&self) -> bool {
        self.at_punct(':') && self.punct_at(1, ':')
    }
    /// `->`
    fn at_arrow(&self) -> bool {
        self.at_punct('-') && self.punct_at(1, '>')
    }
    /// `=>`
    fn at_fatarrow(&self) -> bool {
        self.at_punct('=') && self.punct_at(1, '>')
    }

    /// Skip a balanced delimiter group starting at the current token
    /// (which must be an opener). Returns false at EOF imbalance.
    fn skip_group(&mut self) -> bool {
        let open = match self.peek() {
            Some(t) if t.kind == Kind::Punct => match t.text.chars().next() {
                Some(c @ ('(' | '[' | '{')) => c,
                _ => return false,
            },
            _ => return false,
        };
        let close = match open {
            '(' => ')',
            '[' => ']',
            _ => '}',
        };
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.kind == Kind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                if c == open {
                    depth += 1;
                } else if c == close {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Skip one attribute's `[...]` group, remembering whether it was an
    /// `inline` attribute (`#[inline]` / `#[inline(always)]`). Callers
    /// sit just past the `#` (and optional `!`).
    fn attr_group(&mut self) {
        let start = self.pos;
        if !self.skip_group() {
            return;
        }
        // `inline` can only be the first ident of the attribute path, so
        // a scan of the skipped window has no false positives in practice
        // (string literals are distinct token kinds).
        if let Some(&i) = self.sig.get(start + 1) {
            if self.toks[i].kind == Kind::Ident && self.toks[i].text == "inline" {
                self.pending_inline = true;
            }
        }
    }

    /// Inside a group whose `open` is already consumed, advance to (not
    /// past) the `close` that ends it, or to the end of the stream.
    fn seek_close(&mut self, open: char, close: char) {
        let mut depth = 1usize;
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct && t.text.starts_with(open) {
                depth += 1;
            } else if t.kind == Kind::Punct && t.text.starts_with(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Skip any run of `#[...]` / `#![...]` attributes, remembering an
    /// `inline` among them for the next `fn_def`.
    fn skip_attrs(&mut self) {
        while self.eat_punct('#') {
            self.eat_punct('!');
            if self.at_punct('[') {
                self.attr_group();
            }
        }
    }

    /// Skip `pub` / `pub(...)`.
    fn skip_vis(&mut self) {
        if self.eat_ident("pub") && self.at_punct('(') {
            self.skip_group();
        }
    }

    /// Skip to (and past) the next `;` at depth 0, or past a top-level
    /// brace group, whichever comes first. Used for `Other` items.
    fn skip_to_item_end(&mut self) {
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct {
                match t.text.chars().next().unwrap_or(' ') {
                    ';' => {
                        self.pos += 1;
                        return;
                    }
                    '(' | '[' | '{' => {
                        let was_brace = t.text.starts_with('{');
                        self.skip_group();
                        if was_brace {
                            return;
                        }
                        continue;
                    }
                    '}' => return, // stray closer: leave for caller
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// Advance past the next `,` at delimiter depth 0, or up to (not
    /// past) the `}` that closes the enclosing list.
    fn skip_past_comma(&mut self) {
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct {
                match t.text.chars().next().unwrap_or(' ') {
                    '(' | '[' | '{' => {
                        self.skip_group();
                        continue;
                    }
                    ',' => {
                        self.pos += 1;
                        return;
                    }
                    '}' => return,
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// Skip a `where` clause / supertrait list: advance to (not past)
    /// the `{` or `;` that ends the header.
    fn skip_to_body(&mut self) {
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct && (t.text.starts_with('{') || t.text.starts_with(';')) {
                break;
            }
            self.pos += 1;
        }
    }

    // -- items --------------------------------------------------------------

    fn item(&mut self) -> Option<Item> {
        let lo = self.raw_idx();
        let first = self.peek()?;
        let line = first.line;
        let in_test = first.in_test;

        // Attributes: #[...] and #![...]
        self.pending_inline = false;
        self.skip_attrs();
        if self.pos >= self.sig.len() {
            return Some(Item { kind: ItemKind::Other, lo, hi: self.raw_idx(), line, in_test });
        }

        // Visibility / qualifiers.
        self.skip_vis();
        for q in ["const", "unsafe", "extern", "async"] {
            // `const` only when followed by `fn` (else it is a const item).
            if q == "const" && self.ident_at(1) != Some("fn") {
                continue;
            }
            self.eat_ident(q);
        }
        if self.at_ident("extern") {
            self.pos += 1;
            if matches!(self.peek(), Some(t) if t.kind == Kind::Str) {
                self.pos += 1;
            }
        }

        let kind = match self.ident_at(0) {
            Some("fn") => self.fn_def().map(ItemKind::Fn).unwrap_or(ItemKind::Other),
            Some("impl") => self.impl_def().map(ItemKind::Impl).unwrap_or(ItemKind::Other),
            Some("struct") => self.struct_def().map(ItemKind::Struct).unwrap_or(ItemKind::Other),
            Some("trait") => self.trait_def().map(ItemKind::Trait).unwrap_or(ItemKind::Other),
            Some("mod") => self.mod_def().unwrap_or(ItemKind::Other),
            Some(_) => {
                self.skip_to_item_end();
                ItemKind::Other
            }
            None => {
                // Punctuation at item position: unparseable.
                self.skip_to_item_end();
                if self.raw_idx() == lo {
                    return None; // no progress: caller records a skip
                }
                ItemKind::Other
            }
        };
        Some(Item { kind, lo, hi: self.raw_idx(), line, in_test })
    }

    fn fn_def(&mut self) -> Option<FnDef> {
        let inline = std::mem::take(&mut self.pending_inline);
        self.eat_ident("fn");
        let line = self.line();
        let name = self.bump().filter(|t| t.kind == Kind::Ident)?.text.clone();
        self.skip_generic_args();
        // Parameters.
        let mut params = Vec::new();
        if self.at_punct('(') {
            self.pos += 1; // past '('
            let mut depth = 1i32;
            loop {
                let Some(t) = self.peek() else { break };
                if t.kind == Kind::Punct {
                    let c = t.text.chars().next().unwrap_or(' ');
                    if c == ')' && depth == 1 {
                        self.pos += 1;
                        break;
                    }
                }
                // One parameter: pattern `:` type, or self forms.
                let mut name = String::new();
                // &, &mut, mut prefixes
                while self.eat_punct('&') || self.eat_ident("mut") || self.eat_ident("ref") {}
                if matches!(self.peek(), Some(t) if t.kind == Kind::Lifetime) {
                    self.pos += 1;
                    self.eat_ident("mut");
                }
                if let Some(id) = self.ident_at(0) {
                    name = id.to_string();
                    self.pos += 1;
                }
                let ty = if self.at_punct(':') && !self.punct_at(1, ':') {
                    self.pos += 1;
                    self.type_ref().unwrap_or_else(|| TypeRef::simple("?"))
                } else if name == "self" {
                    TypeRef::simple("Self")
                } else {
                    // Unnamed/pattern parameter: skip to ',' or ')'.
                    TypeRef::simple("?")
                };
                if !name.is_empty() {
                    params.push(Param { name, ty });
                }
                // Advance to next ',' at depth 1 or closing ')'.
                loop {
                    let Some(t) = self.peek() else { break };
                    if t.kind == Kind::Punct {
                        let c = t.text.chars().next().unwrap_or(' ');
                        match c {
                            '(' | '[' | '{' => {
                                self.skip_group();
                                continue;
                            }
                            '<' => depth += 1,
                            '>' => depth = (depth - 1).max(1),
                            ',' if depth == 1 => {
                                self.pos += 1;
                                break;
                            }
                            ')' if depth == 1 => break,
                            _ => {}
                        }
                    }
                    self.pos += 1;
                }
                if self.at_punct(')') {
                    self.pos += 1;
                    break;
                }
                if self.peek().is_none() {
                    break;
                }
            }
        }
        // Return type.
        let ret = if self.at_arrow() {
            self.pos += 2;
            self.type_ref()
        } else {
            None
        };
        // Where clause.
        if self.at_ident("where") {
            self.skip_to_body();
        }
        let body = if self.at_punct('{') {
            Some(self.block().unwrap_or_default())
        } else {
            self.eat_punct(';');
            None
        };
        Some(FnDef { name, params, ret, body, line, inline })
    }

    fn impl_def(&mut self) -> Option<ImplDef> {
        self.eat_ident("impl");
        self.skip_generic_args();
        let first = self.type_ref()?;
        let (trait_name, type_name) = if self.eat_ident("for") {
            let ty = self.type_ref()?;
            (Some(first.base), ty.base)
        } else {
            (None, first.base)
        };
        if self.at_ident("where") {
            self.skip_to_body();
        }
        if !self.eat_punct('{') {
            return None;
        }
        let (assoc_types, fns) = self.members();
        Some(ImplDef { trait_name, type_name, assoc_types, fns })
    }

    /// The members of an `impl` / `trait` body whose `{` is consumed, up
    /// to and past its `}`: `type X = T;` bindings and fns.
    fn members(&mut self) -> (Vec<(String, TypeRef)>, Vec<FnDef>) {
        let mut assoc_types = Vec::new();
        let mut fns = Vec::new();
        while !self.eat_punct('}') && self.peek().is_some() {
            // Member attributes / visibility.
            self.pending_inline = false;
            self.skip_attrs();
            self.skip_vis();
            self.eat_ident("unsafe");
            if self.at_ident("const") && self.ident_at(1) == Some("fn") {
                self.pos += 1;
            }
            match self.ident_at(0) {
                Some("fn") => {
                    let start = self.pos;
                    if let Some(f) = self.fn_def() {
                        fns.push(f);
                    } else if self.pos == start {
                        self.pos += 1;
                    }
                }
                Some("type") => {
                    self.pos += 1;
                    let name = self.bump().filter(|t| t.kind == Kind::Ident).map(|t| t.text.clone());
                    if self.eat_punct('=') {
                        if let (Some(n), Some(ty)) = (name, self.type_ref()) {
                            assoc_types.push((n, ty));
                        }
                    }
                    self.skip_to_item_end();
                }
                _ => {
                    let start = self.pos;
                    self.skip_to_item_end();
                    if self.pos == start {
                        self.pos += 1;
                    }
                }
            }
        }
        (assoc_types, fns)
    }

    fn struct_def(&mut self) -> Option<StructDef> {
        self.eat_ident("struct");
        let name = self.bump().filter(|t| t.kind == Kind::Ident)?.text.clone();
        self.skip_generic_args();
        let mut fields = Vec::new();
        if self.at_punct('{') {
            self.pos += 1;
            while !self.eat_punct('}') && self.peek().is_some() {
                self.skip_attrs();
                self.skip_vis();
                let fname = self.ident_at(0).map(str::to_string);
                if fname.is_some() {
                    self.pos += 1;
                }
                if self.at_punct(':') && !self.punct_at(1, ':') {
                    self.pos += 1;
                    if let (Some(n), Some(ty)) = (fname, self.type_ref()) {
                        fields.push((n, ty));
                    }
                }
                self.skip_past_comma();
            }
        } else {
            // Tuple struct or unit struct.
            self.skip_to_item_end();
        }
        Some(StructDef { name, fields })
    }

    fn trait_def(&mut self) -> Option<TraitDef> {
        self.eat_ident("trait");
        let name = self.bump().filter(|t| t.kind == Kind::Ident)?.text.clone();
        self.skip_generic_args();
        // Supertraits / where clause; `trait A = B;` has no body.
        self.skip_to_body();
        let fns = if self.eat_punct('{') {
            self.members().1
        } else {
            self.eat_punct(';');
            Vec::new()
        };
        Some(TraitDef { name, fns })
    }

    fn mod_def(&mut self) -> Option<ItemKind> {
        self.eat_ident("mod");
        let name = self.bump().filter(|t| t.kind == Kind::Ident)?.text.clone();
        if !self.eat_punct('{') {
            self.eat_punct(';');
            return Some(ItemKind::Other);
        }
        let mut items = Vec::new();
        while !self.eat_punct('}') && self.peek().is_some() {
            let start = self.pos;
            if let Some(it) = self.item() {
                if self.pos == start {
                    self.pos += 1;
                } else {
                    items.push(it);
                }
            } else if self.pos == start {
                self.pos += 1;
            }
        }
        Some(ItemKind::Mod(name, items))
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
        // References.
        if self.eat_punct('&') {
            if matches!(self.peek(), Some(t) if t.kind == Kind::Lifetime) {
                self.pos += 1;
            }
            self.eat_ident("mut");
            let inner = self.type_ref()?;
            return Some(TypeRef { base: "&".into(), args: vec![inner], array_len: None });
        }
        // Raw pointers.
        if self.at_punct('*') {
            self.pos += 1;
            let _ = self.eat_ident("const") || self.eat_ident("mut");
            let inner = self.type_ref()?;
            return Some(TypeRef { base: "&".into(), args: vec![inner], array_len: None });
        }
        // dyn / impl prefixes.
        let _ = self.eat_ident("dyn") || self.eat_ident("impl");
        // Slices and arrays.
        if self.eat_punct('[') {
            let elem = self.type_ref()?;
            let mut len = None;
            if self.at_punct(';') {
                self.pos += 1;
                if let Some(t) = self.peek() {
                    if t.kind == Kind::Num {
                        len = t.text.parse::<u64>().ok();
                    }
                }
                // Consume the length expression up to its ']'.
                self.seek_close('[', ']');
            }
            self.eat_punct(']');
            return Some(TypeRef { base: "[array]".into(), args: vec![elem], array_len: len });
        }
        // Tuples / unit / fn-pointer parens.
        if self.eat_punct('(') {
            let mut args = Vec::new();
            loop {
                if self.eat_punct(')') {
                    break;
                }
                match self.type_ref() {
                    Some(t) => args.push(t),
                    None => {
                        // Give up: balance out.
                        self.seek_close('(', ')');
                        self.eat_punct(')');
                        return Some(TypeRef::simple("(tuple)"));
                    }
                }
                if !self.eat_punct(',') && !self.at_punct(')') {
                    // Unexpected token inside tuple type.
                    if self.peek().is_none() {
                        break;
                    }
                    self.pos += 1;
                }
            }
            if args.len() == 1 {
                return Some(args.pop().unwrap());
            }
            return Some(TypeRef { base: "(tuple)".into(), args, array_len: None });
        }
        // Path type: seg::seg::Last<...>
        let mut last = self.bump().filter(|t| t.kind == Kind::Ident)?.text.clone();
        loop {
            if self.at_coloncolon() && self.ident_at(2).is_some() {
                self.pos += 2;
                last = self.bump()?.text.clone();
                continue;
            }
            break;
        }
        let mut args = Vec::new();
        if self.at_punct('<') {
            self.pos += 1;
            loop {
                if self.eat_punct('>') {
                    break;
                }
                if self.peek().is_none() {
                    break;
                }
                if matches!(self.peek(), Some(t) if t.kind == Kind::Lifetime) {
                    self.pos += 1;
                    self.eat_punct(',');
                    continue;
                }
                match self.type_ref() {
                    Some(t) => args.push(t),
                    None => {
                        self.pos += 1;
                    }
                }
                self.eat_punct(',');
            }
        }
        Some(TypeRef { base: last, args, array_len: None })
    }

    // -- blocks and statements ---------------------------------------------

    fn block(&mut self) -> Option<Block> {
        if self.depth >= MAX_DEPTH {
            // Consume the group to keep coverage contiguous.
            self.skip_group();
            return Some(Block::default());
        }
        let line = self.line();
        if !self.eat_punct('{') {
            return None;
        }
        self.depth += 1;
        let mut stmts = Vec::new();
        while !self.eat_punct('}') && self.peek().is_some() {
            let start = self.pos;
            if let Some(s) = self.stmt() {
                stmts.push(s);
            }
            if self.pos == start {
                // No progress: recover by consuming one token.
                self.recovered += 1;
                self.pos += 1;
            }
        }
        self.depth -= 1;
        Some(Block { stmts, line })
    }

    fn stmt(&mut self) -> Option<Stmt> {
        let t = self.peek()?;
        if t.kind == Kind::Punct && t.text.starts_with(';') {
            self.pos += 1;
            return Some(Stmt::Opaque);
        }
        // Attributes on statements.
        self.skip_attrs();
        match self.ident_at(0) {
            Some("let") => return self.let_stmt(),
            Some("use") | Some("mod") | Some("struct") | Some("enum") | Some("type")
            | Some("trait") | Some("impl") | Some("static") => {
                self.skip_to_item_end();
                return Some(Stmt::Opaque);
            }
            Some("fn") => {
                let start = self.pos;
                let def = self.fn_def();
                if self.pos == start {
                    self.pos += 1;
                }
                return Some(def.map_or(Stmt::Opaque, Stmt::Fn));
            }
            Some("const") if self.ident_at(1) != Some("fn") => {
                self.skip_to_item_end();
                return Some(Stmt::Opaque);
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
            None => {
                self.at_punct('{')
                    || (matches!(self.peek(), Some(t) if t.kind == Kind::Lifetime)
                        && self.punct_at(1, ':'))
            }
        };
        if block_headed {
            let e = self.atom_expr(true)?;
            self.eat_punct(';');
            return Some(Stmt::Expr(e));
        }
        let e = self.expr(true)?;
        self.eat_punct(';');
        Some(Stmt::Expr(e))
    }

    fn let_stmt(&mut self) -> Option<Stmt> {
        self.eat_ident("let");
        let names = self.pattern_names_until(&['=', ':', ';']);
        let ty = if self.at_punct(':') && !self.punct_at(1, ':') {
            self.pos += 1;
            self.type_ref()
        } else {
            None
        };
        let init = if self.at_punct('=') && !self.at_fatarrow() && !self.punct_at(1, '=') {
            self.pos += 1;
            self.expr(true)
        } else {
            None
        };
        // `let ... else { ... }` — the else block is a real (diverging)
        // block: the rules see its `return`/`continue`.
        let els = if self.at_ident("else") {
            self.pos += 1;
            self.block()
        } else {
            None
        };
        self.eat_punct(';');
        Some(Stmt::Let { names, ty, init, els })
    }

    /// Parse a pattern *loosely*: consume tokens until one of `stops`
    /// appears at delimiter depth 0, collecting likely binder names
    /// (lowercase idents that are not path segments or keywords).
    fn pattern_names_until(&mut self, stops: &[char]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                if depth == 0 && stops.contains(&c) {
                    // `::` is not a stop even when ':' is.
                    if c == ':' && self.punct_at(1, ':') {
                        self.pos += 2;
                        continue;
                    }
                    // `==`/`=>` never appear here in well-formed patterns.
                    break;
                }
                match c {
                    '(' | '[' | '{' | '<' => depth += 1,
                    ')' | ']' | '}' | '>' => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
                self.pos += 1;
                continue;
            }
            if t.kind == Kind::Ident {
                let w = &t.text;
                let is_kw = matches!(
                    w.as_str(),
                    "mut" | "ref" | "in" | "if" | "else" | "box" | "_"
                );
                let followed_by_path = self.punct_at(1, ':') && self.punct_at(2, ':');
                let first = w.chars().next().unwrap_or('_');
                if !is_kw
                    && !followed_by_path
                    && (first.is_lowercase() || first == '_')
                    && w != "_"
                {
                    names.push(w.clone());
                }
                // `in` at depth 0 stops for-loop patterns; `if` (an arm
                // guard) ends any pattern.
                if depth == 0 && (w == "if" || (w == "in" && stops.contains(&'i'))) {
                    break;
                }
            }
            self.pos += 1;
        }
        names
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
        if !dots || !(prefix || !self.punct_at(2, '.')) {
            return lo;
        }
        self.pos += 2;
        self.eat_punct('=');
        let hi = if self.range_rhs_starts() {
            self.binary_expr(allow_struct, 1).map(Box::new)
        } else {
            None
        };
        Some(Expr::new(line, ExprKind::Range { lo: lo.map(Box::new), hi }))
    }

    fn range_rhs_starts(&self) -> bool {
        match self.peek() {
            Some(t) => match t.kind {
                Kind::Ident | Kind::Num | Kind::Str | Kind::Char => true,
                Kind::Punct => matches!(
                    t.text.chars().next().unwrap_or(' '),
                    '(' | '[' | '-' | '!' | '*' | '&'
                ),
                _ => false,
            },
            None => false,
        }
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
        for c in ['-', '!', '*'] {
            if self.at_punct(c) {
                // `-` only when it is not `->`.
                if c == '-' && self.punct_at(1, '>') {
                    break;
                }
                self.pos += 1;
                let inner = self.unary_expr(allow_struct)?;
                return Some(Expr::new(line, ExprKind::Unary { op: c, expr: Box::new(inner) }));
            }
        }
        if self.at_punct('&') && !self.punct_at(1, '&') {
            self.pos += 1;
            self.eat_ident("mut");
            let inner = self.unary_expr(allow_struct)?;
            return Some(Expr::new(line, ExprKind::Unary { op: '&', expr: Box::new(inner) }));
        }
        if self.at_punct('&') && self.punct_at(1, '&') {
            // `&&x` in operand position: double reference.
            self.pos += 2;
            let inner = self.unary_expr(allow_struct)?;
            let r = Expr::new(line, ExprKind::Unary { op: '&', expr: Box::new(inner) });
            return Some(Expr::new(line, ExprKind::Unary { op: '&', expr: Box::new(r) }));
        }
        self.postfix_expr(allow_struct)
    }

    fn postfix_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let mut e = self.atom_expr(allow_struct)?;
        loop {
            let line = self.line();
            // Method call / field access: `.` not followed by `.`.
            if self.at_punct('.') && !self.punct_at(1, '.') {
                // Guard against `1.0`-style cases (lexer already merged
                // float literals, so a bare `.` here is member access).
                if let Some(id) = self.ident_at(1) {
                    let name = id.to_string();
                    self.pos += 2;
                    // Turbofish on method: `.collect::<Vec<_>>()`
                    if self.at_coloncolon() && self.punct_at(2, '<') {
                        self.pos += 2;
                        self.skip_generic_args();
                    }
                    if self.at_punct('(') {
                        let args = self.call_args()?;
                        e = Expr::new(
                            line,
                            ExprKind::MethodCall { recv: Box::new(e), method: name, args },
                        );
                    } else if name == "await" {
                        // postfix await: no-op
                    } else {
                        e = Expr::new(line, ExprKind::Field { recv: Box::new(e), name });
                    }
                    continue;
                }
                // Tuple index: `.0`
                if matches!(self.tok(1), Some(t) if t.kind == Kind::Num) {
                    let name = self.tok(1)?.text.clone();
                    self.pos += 2;
                    e = Expr::new(line, ExprKind::Field { recv: Box::new(e), name });
                    continue;
                }
                // Stray dot: consume and stop.
                self.pos += 1;
                return Some(e);
            }
            if self.at_punct('(') {
                let args = self.call_args()?;
                e = Expr::new(line, ExprKind::Call { callee: Box::new(e), args });
                continue;
            }
            if self.at_punct('[') {
                self.pos += 1;
                let idx = self.expr(true)?;
                if !self.eat_punct(']') {
                    // Malformed index: balance out.
                    self.seek_close('[', ']');
                    self.eat_punct(']');
                }
                e = Expr::new(line, ExprKind::Index { recv: Box::new(e), index: Box::new(idx) });
                continue;
            }
            if self.at_punct('?') {
                self.pos += 1;
                e = Expr::new(line, ExprKind::Try(Box::new(e)));
                continue;
            }
            return Some(e);
        }
    }

    fn call_args(&mut self) -> Option<Vec<Expr>> {
        self.eat_punct('(').then(|| self.expr_list(')').0)
    }

    /// The expressions of a call / tuple / array / macro argument list
    /// whose opener is already consumed, up to and past `close`, plus
    /// whether a `,` separated them. `;` separates too (`[x; n]`).
    fn expr_list(&mut self, close: char) -> (Vec<Expr>, bool) {
        let (mut items, mut comma) = (Vec::new(), false);
        while !self.eat_punct(close) && self.peek().is_some() {
            let start = self.pos;
            items.extend(self.expr(true));
            if self.pos == start {
                self.pos += 1; // progress guarantee
            }
            if self.eat_punct(',') {
                comma = true;
            } else {
                self.eat_punct(';');
            }
        }
        (items, comma)
    }

    fn skip_generic_args(&mut self) {
        if !self.eat_punct('<') {
            return;
        }
        let mut depth = 1i32;
        while let Some(t) = self.peek() {
            if t.kind == Kind::Punct {
                match t.text.chars().next().unwrap_or(' ') {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            self.pos += 1;
                            return;
                        }
                    }
                    '(' | '[' | '{' => {
                        self.skip_group();
                        continue;
                    }
                    ';' => return,
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    fn atom_expr(&mut self, allow_struct: bool) -> Option<Expr> {
        let t = self.peek()?;
        let line = t.line;
        match t.kind {
            Kind::Num => {
                let text = t.text.clone();
                let is_float = text.contains('.')
                    || ((text.contains('e') || text.contains('E'))
                        && !text.starts_with("0x")
                        && !text.starts_with("0X"))
                    || text.contains("f32")
                    || text.contains("f64");
                self.pos += 1;
                Some(Expr::new(line, ExprKind::Num { text, is_float }))
            }
            Kind::Str | Kind::Char | Kind::Lifetime => {
                self.pos += 1;
                if t.kind == Kind::Lifetime && self.at_punct(':') {
                    // Labeled loop or block: 'outer: loop { ... }
                    self.pos += 1;
                    let body = self.atom_expr(allow_struct)?;
                    return Some(Expr::new(
                        line,
                        ExprKind::Labeled { label: t.text.clone(), body: Box::new(body) },
                    ));
                }
                Some(Expr::new(line, ExprKind::Lit))
            }
            Kind::Punct => {
                let c = t.text.chars().next().unwrap_or(' ');
                match c {
                    '(' => {
                        self.pos += 1;
                        let (mut items, tuple) = self.expr_list(')');
                        if items.len() == 1 && !tuple {
                            items.pop()
                        } else {
                            Some(Expr::new(line, ExprKind::Tuple(items)))
                        }
                    }
                    '[' => {
                        self.pos += 1;
                        Some(Expr::new(line, ExprKind::Array(self.expr_list(']').0)))
                    }
                    '{' => {
                        let b = self.block()?;
                        Some(Expr::new(line, ExprKind::Block(b)))
                    }
                    '|' => {
                        // Closure: |params| body  or  || body
                        self.pos += 1;
                        if !self.eat_punct('|') {
                            // Parameters until the closing '|' at depth 0.
                            let mut depth = 0i32;
                            while let Some(t) = self.peek() {
                                if t.kind == Kind::Punct {
                                    match t.text.chars().next().unwrap_or(' ') {
                                        '(' | '[' | '<' => depth += 1,
                                        ')' | ']' | '>' => depth -= 1,
                                        '|' if depth <= 0 => {
                                            self.pos += 1;
                                            break;
                                        }
                                        _ => {}
                                    }
                                }
                                self.pos += 1;
                            }
                        }
                        if self.at_arrow() {
                            self.pos += 2;
                            let _ = self.type_ref();
                        }
                        let body = self.expr(true)?;
                        Some(Expr::new(line, ExprKind::Closure { body: Box::new(body) }))
                    }
                    _ => None,
                }
            }
            Kind::Ident => {
                match t.text.as_str() {
                    "if" => return self.if_expr(),
                    "match" => return self.match_expr(),
                    "for" => return self.for_expr(),
                    "while" => return self.while_expr(),
                    "loop" => {
                        self.pos += 1;
                        let body = self.block()?;
                        return Some(Expr::new(line, ExprKind::Loop { body }));
                    }
                    "unsafe" => {
                        self.pos += 1;
                        let b = self.block()?;
                        return Some(Expr::new(line, ExprKind::Block(b)));
                    }
                    "return" => {
                        self.pos += 1;
                        let val = if self.expr_starts() {
                            self.expr(true).map(Box::new)
                        } else {
                            None
                        };
                        return Some(Expr::new(line, ExprKind::Return(val)));
                    }
                    "break" | "continue" => {
                        self.pos += 1;
                        let label = self.peek().filter(|l| l.kind == Kind::Lifetime);
                        let label = label.map(|l| l.text.clone());
                        self.pos += usize::from(label.is_some());
                        if t.text == "continue" {
                            return Some(Expr::new(line, ExprKind::Continue { label }));
                        }
                        if self.expr_starts() {
                            let _ = self.expr(true);
                        }
                        return Some(Expr::new(line, ExprKind::Break { label }));
                    }
                    "move" => {
                        self.pos += 1;
                        return self.atom_expr(allow_struct);
                    }
                    "true" | "false" => {
                        self.pos += 1;
                        return Some(Expr::new(line, ExprKind::Lit));
                    }
                    _ => {}
                }
                // Path: seg(::seg)*, optional turbofish, optional macro
                // bang, optional struct literal.
                let mut segs = vec![t.text.clone()];
                self.pos += 1;
                loop {
                    if self.at_coloncolon() {
                        if let Some(id) = self.ident_at(2) {
                            segs.push(id.to_string());
                            self.pos += 3;
                            continue;
                        }
                        if self.punct_at(2, '<') {
                            // Turbofish in path position.
                            self.pos += 2;
                            self.skip_generic_args();
                            continue;
                        }
                    }
                    break;
                }
                // Macro invocation: name!(...), name![...], name!{...}
                if self.at_punct('!') && !self.punct_at(1, '=') {
                    if self.punct_at(1, '(') || self.punct_at(1, '[') || self.punct_at(1, '{') {
                        self.pos += 1;
                        let name = segs.last().cloned().unwrap_or_default();
                        // Best-effort: parse comma-separated exprs.
                        let args = if self.eat_punct('(') {
                            self.expr_list(')').0
                        } else if self.eat_punct('[') {
                            self.expr_list(']').0
                        } else {
                            self.skip_group();
                            Vec::new()
                        };
                        return Some(Expr::new(line, ExprKind::Macro { name, args }));
                    }
                }
                // Struct literal: Path { field: expr, ... } — only when
                // allowed and the path looks like a type.
                if allow_struct && self.at_punct('{') {
                    let looks_type = segs
                        .last()
                        .and_then(|s| s.chars().next())
                        .map(|c| c.is_uppercase())
                        .unwrap_or(false)
                        || segs.last().map(|s| s == "Self").unwrap_or(false);
                    if looks_type {
                        self.pos += 1;
                        let mut fields = Vec::new();
                        loop {
                            if self.eat_punct('}') {
                                break;
                            }
                            if self.peek().is_none() {
                                break;
                            }
                            // `..rest`
                            if self.at_punct('.') && self.punct_at(1, '.') {
                                self.pos += 2;
                                let _ = self.expr(true);
                                self.eat_punct(',');
                                continue;
                            }
                            let fname = match self.ident_at(0) {
                                Some(id) => id.to_string(),
                                None => {
                                    self.pos += 1;
                                    continue;
                                }
                            };
                            self.pos += 1;
                            if self.at_punct(':') && !self.punct_at(1, ':') {
                                self.pos += 1;
                                if let Some(e) = self.expr(true) {
                                    fields.push((fname, e));
                                }
                            } else {
                                // Shorthand `field,`
                                let fe = Expr::new(line, ExprKind::Path(vec![fname.clone()]));
                                fields.push((fname, fe));
                            }
                            self.eat_punct(',');
                        }
                        return Some(Expr::new(line, ExprKind::StructLit { path: segs, fields }));
                    }
                }
                Some(Expr::new(line, ExprKind::Path(segs)))
            }
            Kind::Comment => None, // unreachable: sig excludes comments
        }
    }

    fn expr_starts(&self) -> bool {
        match self.peek() {
            Some(t) => match t.kind {
                Kind::Ident => !matches!(t.text.as_str(), "else"),
                Kind::Num | Kind::Str | Kind::Char => true,
                Kind::Punct => matches!(
                    t.text.chars().next().unwrap_or(' '),
                    '(' | '[' | '{' | '-' | '!' | '*' | '&' | '|'
                ),
                _ => false,
            },
            None => false,
        }
    }

    /// The condition of an `if` / `while`: an expression, or a
    /// `let PAT = scrutinee` test.
    fn cond_expr(&mut self, line: u32) -> Option<Expr> {
        if !self.eat_ident("let") {
            return self.expr(false);
        }
        let names = self.pattern_names_until(&['=']);
        self.eat_punct('=');
        let scrutinee = self.expr(false)?;
        Some(Expr::new(line, ExprKind::LetCond { names, scrutinee: Box::new(scrutinee) }))
    }

    fn if_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        self.eat_ident("if");
        let cond = self.cond_expr(line)?;
        let then = self.block()?;
        let els = if self.at_ident("else") {
            self.pos += 1;
            if self.at_ident("if") {
                self.if_expr().map(Box::new)
            } else {
                self.block().map(|b| Box::new(Expr::new(line, ExprKind::Block(b))))
            }
        } else {
            None
        };
        Some(Expr::new(line, ExprKind::If { cond: Box::new(cond), then, els }))
    }

    fn match_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        self.eat_ident("match");
        let scrutinee = self.expr(false)?;
        if !self.eat_punct('{') {
            return Some(Expr::new(line, ExprKind::Opaque));
        }
        let mut arms = Vec::new();
        while !self.eat_punct('}') && self.peek().is_some() {
            // Pattern up to `if` or `=>` at depth 0.
            let names = self.pattern_names_until(&['=']);
            let guard = if self.eat_ident("if") { self.expr(false) } else { None };
            if !(self.at_punct('=') && self.punct_at(1, '>')) {
                // Malformed arm: recover to next ',' or '}'.
                self.recovered += 1;
                let start = self.pos;
                self.skip_past_comma();
                if self.pos == start {
                    self.pos += 1;
                }
                continue;
            }
            self.pos += 2; // past =>
            let start = self.pos;
            let body = self.expr(true).unwrap_or(Expr::new(self.line(), ExprKind::Opaque));
            if self.pos == start {
                self.pos += 1;
            }
            arms.push(Arm { names, guard, body });
            self.eat_punct(',');
        }
        Some(Expr::new(line, ExprKind::Match { scrutinee: Box::new(scrutinee), arms }))
    }

    fn for_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        self.eat_ident("for");
        // Pattern until `in` at depth 0 (pattern_names_until treats a
        // stop char of 'i' as "stop on the `in` keyword").
        let names = self.pattern_names_until(&['i']);
        self.eat_ident("in");
        let iter = self.expr(false)?;
        let body = self.block()?;
        Some(Expr::new(
            line,
            ExprKind::For { var: names.into_iter().next(), iter: Box::new(iter), body },
        ))
    }

    fn while_expr(&mut self) -> Option<Expr> {
        let line = self.line();
        self.eat_ident("while");
        let cond = self.cond_expr(line)?;
        let body = self.block()?;
        Some(Expr::new(line, ExprKind::While { cond: Box::new(cond), body }))
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
        | ExprKind::Try(expr)
        | ExprKind::Return(Some(expr))
        | ExprKind::Closure { body: expr }
        | ExprKind::Labeled { body: expr, .. }
        | ExprKind::LetCond { scrutinee: expr, .. }
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
        let toks = lexer::lex(src);
        parse(&toks)
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
        assert_eq!(f.recovered, 0);
    }

    #[test]
    fn parses_impl_with_assoc_type() {
        let src = r#"
            impl<K: SphKernel> SplitKernel for ForceKernel<K> {
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
        assert_eq!(im.assoc_types[0].0, "State");
        assert_eq!(im.assoc_types[0].1.base, "ForceState");
        assert_eq!(im.fns.len(), 2);
    }

    #[test]
    fn parses_struct_fields() {
        let f = parse_src("pub struct GravState { pub pos: [f64; 3], pub mass: f64 }");
        let ItemKind::Struct(sd) = &f.items[0].kind else { panic!("not struct") };
        assert_eq!(sd.name, "GravState");
        assert_eq!(sd.fields.len(), 2);
        assert_eq!(sd.fields[0].1.base, "[array]");
        assert_eq!(sd.fields[0].1.array_len, Some(3));
        assert_eq!(sd.fields[1].1.base, "f64");
    }

    #[test]
    fn left_associative_precedence() {
        let f = parse_src("fn f(a: f64, b: f64, c: f64) -> f64 { a + b * c }");
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!() };
        let body = fd.body.as_ref().unwrap();
        let Stmt::Expr(e) = &body.stmts[0] else { panic!() };
        let ExprKind::Binary { op: BinOp::Add, rhs, .. } = &e.kind else {
            panic!("expected + at top");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn coverage_holds_on_clean_source() {
        let src = r#"
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
        let toks = lexer::lex(src);
        let f = parse(&toks);
        check_coverage(&toks, &f).unwrap();
        assert!(f.skipped.is_empty());
    }

    #[test]
    fn coverage_holds_with_garbage() {
        let src = "@@ %% fn ok() { 1 + 1; } ## struct Bad {";
        let toks = lexer::lex(src);
        let f = parse(&toks);
        check_coverage(&toks, &f).unwrap();
    }

    #[test]
    fn no_struct_literal_in_if_condition() {
        let f = parse_src("fn f(x: T) { if x { g(); } }");
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!() };
        let Stmt::Expr(e) = &fd.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn struct_literal_with_rest() {
        let f = parse_src("fn f() -> P { P { muls: 2, ..Default::default() } }");
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!() };
        let Stmt::Expr(e) = &fd.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::StructLit { fields, .. } = &e.kind else { panic!("not structlit") };
        assert_eq!(fields.len(), 1);
    }

    #[test]
    fn compound_assign_and_method_chain() {
        let f = parse_src("fn f(o: &mut A, s: f64, dx: f64) { o.acc[0] -= s * dx; }");
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!() };
        let Stmt::Expr(e) = &fd.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::Assign { op: Some(BinOp::Sub), rhs, .. } = &e.kind else {
            panic!("expected -=");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn tuple_let_and_if_else_init() {
        let src = "fn f(k: K, r: f64, h: f64) { let (w, dw) = k.w_dw(r, h); \
                   let q = if r < h { w } else { dw }; let _ = q; }";
        let f = parse_src(src);
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!() };
        let Stmt::Let { names, .. } = &fd.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert_eq!(names, &["w".to_string(), "dw".to_string()]);
        let Stmt::Let { init: Some(e), .. } = &fd.body.as_ref().unwrap().stmts[1] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn arm_guards_and_nested_fns_are_kept() {
        let src = "fn f(x: u32, y: u32) { fn inner() {} \
                   match x { n if n == y => one(), _ if x >= 3 => two(), _ => {} } }";
        let f = parse_src(src);
        let ItemKind::Fn(fd) = &f.items[0].kind else { panic!() };
        let stmts = &fd.body.as_ref().unwrap().stmts;
        assert!(matches!(&stmts[0], Stmt::Fn(inner) if inner.name == "inner"));
        let Stmt::Expr(e) = &stmts[1] else { panic!() };
        let ExprKind::Match { arms, .. } = &e.kind else { panic!("not a match") };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].names, ["n".to_string()]);
        let guard_ops: Vec<_> = arms
            .iter()
            .map(|a| a.guard.as_ref().map(|g| matches!(g.kind, ExprKind::Binary { .. })))
            .collect();
        assert_eq!(guard_ops, [Some(true), Some(true), None]);
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
            let f = parse(prefix);
            check_coverage(prefix, &f).unwrap();
        }
    }
}
