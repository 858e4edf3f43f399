//! A lightweight item parser on top of the [`crate::lexer`] token
//! stream: just enough structure for whole-workspace symbol resolution.
//!
//! The parser extracts, per file:
//!
//! * function definitions — free functions, inherent methods, trait
//!   methods (including defaulted bodies) — with their parameter types,
//!   generic trait bounds and every call site in the body;
//! * struct definitions with field → type-head mappings, so a method
//!   receiver like `self.rm` can be typed;
//! * `impl Trait for Type` relations, so calls through a generic
//!   `S: Substrate` bound resolve to every implementation;
//! * inline `mod` nesting (walked transparently — symbol resolution in
//!   SimDC is by bare name within crate/workspace scope, which matches
//!   how the sim crates actually import things).
//!
//! Like the lexer this is deliberately *not* a full Rust parser: no
//! expressions, no patterns beyond `ident: Type` parameters, no macro
//! expansion. Types are reduced to their *head* — the last path segment
//! before any generic arguments, with references, `mut`, `dyn` and
//! `impl` stripped — because the rules only need nominal identity
//! (`Vec`, `PhoneMgr`, `ResourceManager`), never full type checking.
//! Test-gated tokens (`in_test`) are skipped wholesale: the purity rules
//! police simulation code, not its tests.

use crate::dataflow::{extract_body, ArgInfo, Flow, LoopSpan, Sources};
use crate::lexer::{lex, TokKind, Token};

/// Everything the symbol table needs from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Every non-test function with a body (plus bodiless trait-method
    /// declarations, which carry no calls).
    pub fns: Vec<FnDef>,
    /// Struct definitions with named fields.
    pub structs: Vec<StructDef>,
    /// Trait definitions (name + method names).
    pub traits: Vec<TraitDef>,
    /// `impl Trait for Type` relations found in this file.
    pub trait_impls: Vec<TraitImpl>,
}

/// One function definition.
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The inherent-impl or trait type this is a method of, if any.
    /// For `impl Trait for Type` methods this is `Type`; for defaulted
    /// trait methods it is the trait's name.
    pub owner: Option<String>,
    /// The trait implemented by the enclosing `impl`, if any.
    pub trait_impl: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// `(name, type-head)` for simple `ident: Type` parameters.
    pub params: Vec<(String, String)>,
    /// Generic parameter → trait-bound heads, from `<S: Trait>` lists
    /// and simple `where S: Trait` clauses.
    pub bounds: Vec<(String, Vec<String>)>,
    /// Local binding name → type head: the params plus every `let`
    /// whose annotation, `Type::ctor(..)` initialiser, float literal or
    /// `as f32/f64` cast reveals a type.
    pub locals: std::collections::BTreeMap<String, String>,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
    /// The return type's head, if annotated.
    pub ret_type: Option<String>,
    /// Every `let` initialiser and assignment, in source order.
    pub flows: Vec<Flow>,
    /// The sources of every `return` statement plus the tail expression.
    pub rets: Vec<Sources>,
    /// Every `for` loop, in source order.
    pub loops: Vec<LoopSpan>,
}

impl FnDef {
    /// Display name for diagnostics: `Owner::name` or bare `name`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A struct definition with named fields.
#[derive(Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// `(field, type-head)` pairs.
    pub fields: Vec<(String, String)>,
}

/// A trait definition.
#[derive(Debug)]
pub struct TraitDef {
    /// The trait's name.
    pub name: String,
    /// Its method names (defaulted or declared).
    pub methods: Vec<String>,
}

/// One `impl Trait for Type` relation.
#[derive(Debug)]
pub struct TraitImpl {
    /// The trait implemented.
    pub trait_name: String,
    /// The implementing type's head.
    pub type_name: String,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
    /// What is being called, and how.
    pub callee: Callee,
    /// Token index of the callee name (for span-containment tests).
    pub tok: usize,
    /// Per-argument sources and constant-string shapes.
    pub args: Vec<ArgInfo>,
    /// The `::<T>` turbofish type head, if present (`f64` in
    /// `.sum::<f64>()`).
    pub turbofish: Option<String>,
    /// For method calls: the base of the dot-chain (`weights` in
    /// `self.weights.values().sum()`), as far as tokens reveal it.
    pub base: Option<Receiver>,
}

impl CallSite {
    /// The simple (last-segment) name of the callee.
    pub fn name(&self) -> &str {
        match &self.callee {
            Callee::Free(n) => n,
            Callee::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
            Callee::Method { name, .. } => name,
        }
    }

    /// The identifier immediately before the final `.` for method calls
    /// (`rm` in both `rm.release(..)` and `self.rm.release(..)`), used
    /// by receiver-name sink specs.
    pub fn prev_ident(&self) -> Option<&str> {
        match &self.callee {
            Callee::Method { recv, .. } => recv.last_ident(),
            _ => None,
        }
    }
}

/// The shape of a call site.
#[derive(Debug)]
pub enum Callee {
    /// `foo(..)` — a free-function call (or tuple-struct construction).
    Free(String),
    /// `a::b::foo(..)` — a path call; segments include the final name.
    Path(Vec<String>),
    /// `recv.foo(..)` — a method call.
    Method {
        /// The method name.
        name: String,
        /// What it is called on.
        recv: Receiver,
    },
}

/// A method call's receiver, as much as the token stream reveals.
#[derive(Debug, Clone)]
pub enum Receiver {
    /// `self.method(..)`.
    SelfValue,
    /// `self.field.method(..)` — typed through the owner's field.
    SelfField(String),
    /// `ident.method(..)` — typed through params or local `let`s.
    Ident(String),
    /// Anything else (call results, indexing, long chains). Retains the
    /// identifier just before the dot, if any, for receiver-name specs.
    Opaque(Option<String>),
}

impl Receiver {
    /// The identifier just before the dot, if any.
    pub fn last_ident(&self) -> Option<&str> {
        match self {
            Receiver::SelfValue => Some("self"),
            Receiver::SelfField(f) => Some(f),
            Receiver::Ident(i) => Some(i),
            Receiver::Opaque(last) => last.as_deref(),
        }
    }
}

/// Rust keywords that look like call names when followed by `(`.
pub(crate) const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "move",
    "ref", "mut", "let", "fn", "impl", "dyn", "as", "where", "pub", "use", "mod", "struct", "enum",
    "trait", "const", "static", "type", "unsafe", "extern", "crate", "super", "self", "Self",
];

/// Parses one file into its item skeleton.
pub fn parse_file(path: &str, source: &str) -> ParsedFile {
    let tokens = lex(source);
    let mut out = ParsedFile {
        path: path.to_string(),
        ..ParsedFile::default()
    };
    parse_items(&tokens, 0, tokens.len(), None, &mut out);
    out
}

/// The impl/trait context a `fn` is parsed under.
#[derive(Clone)]
struct OwnerCtx {
    owner: String,
    trait_impl: Option<String>,
}

/// Walks `tokens[start..end]` for item definitions, recursing into
/// `mod`/`impl`/`trait` bodies.
fn parse_items(
    tokens: &[Token],
    start: usize,
    end: usize,
    owner: Option<&OwnerCtx>,
    out: &mut ParsedFile,
) {
    let mut i = start;
    while i < end {
        let t = &tokens[i];
        if t.in_test {
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            i = parse_impl(tokens, i, end, out);
        } else if t.is_ident("trait") {
            i = parse_trait(tokens, i, end, out);
        } else if t.is_ident("mod") {
            // `mod name { … }` recurses; `mod name;` is a file module
            // (its items are parsed when that file is scanned).
            if let Some(open) = tokens.get(i + 2).filter(|t| t.is_punct("{")) {
                let _ = open;
                let close = match_brace(tokens, i + 2, end);
                parse_items(tokens, i + 3, close, owner, out);
                i = close + 1;
            } else {
                i += 2;
            }
        } else if t.is_ident("struct") {
            i = parse_struct(tokens, i, end, out);
        } else if t.is_ident("fn") {
            i = parse_fn(tokens, i, end, owner, out);
        } else {
            i += 1;
        }
    }
}

/// Finds the index of the `}` matching the `{` at `open`.
pub(crate) fn match_brace(tokens: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < end {
        if tokens[i].is_punct("{") {
            depth += 1;
        } else if tokens[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Skips a balanced `<…>` generic-argument list starting at `i` (which
/// must point at `<`); returns the index just past the closing `>`.
pub(crate) fn skip_angles(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut j = i;
    while j < end {
        if tokens[j].is_punct("<") {
            depth += 1;
        } else if tokens[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if tokens[j].is_punct("{") || tokens[j].is_punct(";") {
            // Malformed input guard: never scan past an item boundary.
            return j;
        }
        j += 1;
    }
    end
}

/// Reads a type path starting at `i`, returning `(head, next_index)`.
/// The head is the last path segment before any `<…>` arguments;
/// references, `mut`, `dyn`, `impl` and slice brackets are skipped.
pub(crate) fn read_type_head(
    tokens: &[Token],
    mut i: usize,
    end: usize,
) -> (Option<String>, usize) {
    while i < end
        && (tokens[i].is_punct("&")
            || tokens[i].is_punct("*")
            || tokens[i].is_ident("mut")
            || tokens[i].is_ident("const")
            || tokens[i].is_ident("dyn")
            || tokens[i].is_ident("impl")
            || tokens[i].is_punct("["))
    {
        i += 1;
    }
    let mut head: Option<String> = None;
    while i < end {
        let t = &tokens[i];
        if t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            head = Some(t.text.clone());
            i += 1;
            if i < end && tokens[i].is_punct("::") {
                i += 1;
                continue;
            }
            if i < end && tokens[i].is_punct("<") {
                i = skip_angles(tokens, i, end);
            }
            break;
        }
        break;
    }
    (head, i)
}

/// Parses an `impl` block header + body; returns the index past the body.
fn parse_impl(tokens: &[Token], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let mut i = at + 1;
    if i < end && tokens[i].is_punct("<") {
        i = skip_angles(tokens, i, end);
    }
    let (first, after_first) = read_type_head(tokens, i, end);
    i = after_first;
    // Skip any residual generic punctuation up to `for` / `where` / `{`.
    while i < end
        && !tokens[i].is_ident("for")
        && !tokens[i].is_ident("where")
        && !tokens[i].is_punct("{")
        && !tokens[i].is_punct(";")
    {
        i += 1;
    }
    let (trait_name, type_name) = if i < end && tokens[i].is_ident("for") {
        let (second, after_second) = read_type_head(tokens, i + 1, end);
        i = after_second;
        (first, second)
    } else {
        (None, first)
    };
    // Skip `where` clauses to the body.
    while i < end && !tokens[i].is_punct("{") && !tokens[i].is_punct(";") {
        i += 1;
    }
    if i >= end || tokens[i].is_punct(";") {
        return i + 1;
    }
    let close = match_brace(tokens, i, end);
    if let Some(type_name) = type_name {
        if let Some(trait_name) = trait_name.clone() {
            out.trait_impls.push(TraitImpl {
                trait_name,
                type_name: type_name.clone(),
            });
        }
        let ctx = OwnerCtx {
            owner: type_name,
            trait_impl: trait_name,
        };
        parse_items(tokens, i + 1, close, Some(&ctx), out);
    }
    close + 1
}

/// Parses a `trait` definition; returns the index past the body.
fn parse_trait(tokens: &[Token], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let Some(name_tok) = tokens.get(at + 1).filter(|t| t.kind == TokKind::Ident) else {
        return at + 1;
    };
    let name = name_tok.text.clone();
    let mut i = at + 2;
    while i < end && !tokens[i].is_punct("{") && !tokens[i].is_punct(";") {
        i += 1;
    }
    if i >= end || tokens[i].is_punct(";") {
        return i + 1;
    }
    let close = match_brace(tokens, i, end);
    let before = out.fns.len();
    let ctx = OwnerCtx {
        owner: name.clone(),
        trait_impl: None,
    };
    parse_items(tokens, i + 1, close, Some(&ctx), out);
    let methods = out.fns[before..].iter().map(|f| f.name.clone()).collect();
    out.traits.push(TraitDef { name, methods });
    close + 1
}

/// Parses a `struct` definition; returns the index past it.
fn parse_struct(tokens: &[Token], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let Some(name_tok) = tokens.get(at + 1).filter(|t| t.kind == TokKind::Ident) else {
        return at + 1;
    };
    let name = name_tok.text.clone();
    let mut i = at + 2;
    if i < end && tokens[i].is_punct("<") {
        i = skip_angles(tokens, i, end);
    }
    while i < end
        && !tokens[i].is_punct("{")
        && !tokens[i].is_punct(";")
        && !tokens[i].is_punct("(")
    {
        i += 1;
    }
    if i >= end {
        return end;
    }
    if tokens[i].is_punct(";") {
        return i + 1;
    }
    if tokens[i].is_punct("(") {
        // Tuple struct: skip to the terminating `;`.
        while i < end && !tokens[i].is_punct(";") {
            i += 1;
        }
        return i + 1;
    }
    let close = match_brace(tokens, i, end);
    let mut fields = Vec::new();
    let mut j = i + 1;
    while j < close {
        // Field: `[pub[(..)]] name : Type [,]` at struct-body depth.
        if tokens[j].is_ident("pub") {
            j += 1;
            if j < close && tokens[j].is_punct("(") {
                while j < close && !tokens[j].is_punct(")") {
                    j += 1;
                }
                j += 1;
            }
            continue;
        }
        if tokens[j].is_punct("#") {
            // Field attribute `#[…]`: skip.
            j += 1;
            if j < close && tokens[j].is_punct("[") {
                let mut depth = 0isize;
                while j < close {
                    if tokens[j].is_punct("[") {
                        depth += 1;
                    } else if tokens[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            continue;
        }
        if tokens[j].kind == TokKind::Ident
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
            && !tokens[j].in_test
        {
            let field = tokens[j].text.clone();
            let (head, after) = read_type_head(tokens, j + 2, close);
            if let Some(head) = head {
                fields.push((field, head));
            }
            // Advance to the field-separating comma at field depth.
            j = after;
            let mut depth = 0isize;
            while j < close {
                let t = &tokens[j];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") || t.is_punct(">") {
                    depth -= 1;
                } else if t.is_punct(",") && depth <= 0 {
                    j += 1;
                    break;
                }
                j += 1;
            }
            continue;
        }
        j += 1;
    }
    out.structs.push(StructDef { name, fields });
    close + 1
}

/// Parses a `fn` item (signature + body calls); returns the index past it.
fn parse_fn(
    tokens: &[Token],
    at: usize,
    end: usize,
    owner: Option<&OwnerCtx>,
    out: &mut ParsedFile,
) -> usize {
    let Some(name_tok) = tokens.get(at + 1).filter(|t| t.kind == TokKind::Ident) else {
        return at + 1;
    };
    if name_tok.in_test {
        // Test-gated function: skip its whole extent.
        let mut j = at;
        while j < end && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
            j += 1;
        }
        if j < end && tokens[j].is_punct("{") {
            return match_brace(tokens, j, end) + 1;
        }
        return j + 1;
    }
    let name = name_tok.text.clone();
    let mut def = FnDef {
        name,
        owner: owner.map(|c| c.owner.clone()),
        trait_impl: owner.and_then(|c| c.trait_impl.clone()),
        line: tokens[at].line,
        col: tokens[at].col,
        params: Vec::new(),
        bounds: Vec::new(),
        locals: std::collections::BTreeMap::new(),
        calls: Vec::new(),
        ret_type: None,
        flows: Vec::new(),
        rets: Vec::new(),
        loops: Vec::new(),
    };
    let mut i = at + 2;
    if i < end && tokens[i].is_punct("<") {
        let generics_end = skip_angles(tokens, i, end);
        parse_bounds(tokens, i + 1, generics_end.saturating_sub(1), &mut def);
        i = generics_end;
    }
    // Parameter list.
    if i < end && tokens[i].is_punct("(") {
        let params_end = match_paren(tokens, i, end);
        parse_params(tokens, i + 1, params_end, &mut def);
        i = params_end + 1;
    }
    // Return type and where clause: scan to the body `{` or `;`,
    // picking up the `-> Type` head and simple `where S: Trait` bounds
    // on the way.
    let mut j = i;
    while j < end && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
        if tokens[j].is_ident("where") {
            parse_bounds(tokens, j + 1, body_or_semi(tokens, j + 1, end), &mut def);
        }
        if def.ret_type.is_none()
            && tokens[j].is_punct("-")
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(">"))
        {
            let (head, _) = read_type_head(tokens, j + 2, body_or_semi(tokens, j + 2, end));
            def.ret_type = head;
        }
        j += 1;
    }
    if j >= end {
        out.fns.push(def);
        return end;
    }
    if tokens[j].is_punct(";") {
        // Bodiless trait-method declaration.
        out.fns.push(def);
        return j + 1;
    }
    let close = match_brace(tokens, j, end);
    extract_body(tokens, j + 1, close, &mut def);
    out.fns.push(def);
    close + 1
}

/// Index of the first `{` or `;` at or after `i`.
fn body_or_semi(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut j = i;
    while j < end && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
        j += 1;
    }
    j
}

/// Finds the index of the `)` matching the `(` at `open`.
pub(crate) fn match_paren(tokens: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < end {
        if tokens[i].is_punct("(") {
            depth += 1;
        } else if tokens[i].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Collects `Ident : Bound (+ Bound)*` pairs from a generics list or a
/// where clause (`tokens[start..end]`). Only single-ident subjects are
/// recorded — `Vec<T>: …` projections are beyond nominal resolution.
fn parse_bounds(tokens: &[Token], start: usize, end: usize, def: &mut FnDef) {
    let mut i = start;
    let mut depth = 0isize;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("<") || t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(">") || t.is_punct(")") {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokKind::Ident
            && !KEYWORDS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(":"))
        {
            let subject = t.text.clone();
            let mut bounds = Vec::new();
            let mut j = i + 2;
            loop {
                let (head, after) = read_type_head(tokens, j, end);
                match head {
                    Some(h) => bounds.push(h),
                    None => break,
                }
                j = after;
                if j < end && tokens[j].is_punct("+") {
                    j += 1;
                    continue;
                }
                break;
            }
            if !bounds.is_empty() {
                // A `where` clause can re-bound a parameter from the
                // angle list; merge instead of shadowing.
                match def.bounds.iter_mut().find(|(p, _)| *p == subject) {
                    Some((_, existing)) => existing.extend(bounds),
                    None => def.bounds.push((subject, bounds)),
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Parses `ident: Type` parameters from `tokens[start..end]` (the
/// contents of the signature parens). Splits at top-level commas; `self`
/// receivers and destructuring patterns are skipped.
fn parse_params(tokens: &[Token], start: usize, end: usize, def: &mut FnDef) {
    let mut param_start = start;
    let mut depth = 0isize;
    let mut i = start;
    while i <= end {
        let at_end = i == end;
        let is_split = at_end || (depth == 0 && tokens[i].is_punct(","));
        if !at_end {
            let t = &tokens[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct(">") && depth > 0 {
                // `->` in an `impl Fn() -> R` param lexes as `-` `>`;
                // only close an angle that is actually open.
                depth -= 1;
            }
        }
        if is_split {
            parse_one_param(tokens, param_start, i, def);
            param_start = i + 1;
            if at_end {
                break;
            }
        }
        i += 1;
    }
}

/// Parses one `pattern: Type` parameter into a `(name, type)` entry.
/// Parameters that resist parsing (destructuring patterns, untyped
/// heads) get an anonymous placeholder so the parameter *indices* stay
/// aligned with call-site argument positions — the taint summaries
/// depend on that alignment. `self` receivers are skipped outright,
/// since argument lists do not carry them.
fn parse_one_param(tokens: &[Token], start: usize, end: usize, def: &mut FnDef) {
    let mut i = start;
    while i < end && (tokens[i].is_punct("&") || tokens[i].is_ident("mut")) {
        i += 1;
    }
    if i >= end {
        return;
    }
    if tokens[i].is_ident("self") {
        return;
    }
    if tokens[i].kind == TokKind::Ident
        && !KEYWORDS.contains(&tokens[i].text.as_str())
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(":"))
    {
        let name = tokens[i].text.clone();
        let (head, _) = read_type_head(tokens, i + 2, end);
        if let Some(head) = head {
            def.params.push((name, head));
            return;
        }
    }
    def.params.push(("_".to_string(), String::new()));
}

/// For `let x = Vec::with_capacity(..)`-style initialisers: the type
/// head (`Vec`) if the RHS starts with an uppercase path.
pub(crate) fn ctor_type_head(tokens: &[Token], i: usize, end: usize) -> Option<String> {
    let t = tokens.get(i).filter(|t| t.kind == TokKind::Ident)?;
    if i >= end || !t.text.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    // Walk the path; the type is the segment *before* the final
    // lowercase constructor name, or the first segment for `Type { … }`.
    let mut segs: Vec<String> = vec![t.text.clone()];
    let mut j = i + 1;
    while j + 1 < end && tokens[j].is_punct("::") && tokens[j + 1].kind == TokKind::Ident {
        segs.push(tokens[j + 1].text.clone());
        j += 2;
    }
    let last_is_fn = segs
        .last()
        .is_some_and(|s| s.chars().next().is_some_and(char::is_lowercase));
    if last_is_fn && segs.len() >= 2 {
        return Some(segs[segs.len() - 2].clone());
    }
    if !last_is_fn {
        return Some(segs[segs.len() - 1].clone());
    }
    None
}

/// Builds a `Callee::Method` for the name token at `i` (preceded by `.`).
pub(crate) fn method_callee(tokens: &[Token], i: usize) -> Callee {
    let name = tokens[i].text.clone();
    // Walk the receiver chain left of the dot: `ident (. ident)*`.
    let dot = i - 1;
    let mut chain: Vec<String> = Vec::new();
    let mut j = dot;
    while let Some(prev) = j.checked_sub(1).map(|p| &tokens[p]) {
        if (prev.kind == TokKind::Ident && !KEYWORDS.contains(&prev.text.as_str()))
            || prev.is_ident("self")
        {
            chain.push(prev.text.clone());
            // Continue only through `ident .` links.
            match j.checked_sub(2).map(|p| &tokens[p]) {
                Some(p2) if p2.is_punct(".") => {
                    j -= 2;
                    continue;
                }
                _ => break,
            }
        }
        break;
    }
    chain.reverse();
    let recv = match chain.as_slice() {
        [one] if one == "self" => Receiver::SelfValue,
        [first, field] if first == "self" => Receiver::SelfField(field.clone()),
        [one] => Receiver::Ident(one.clone()),
        [] => Receiver::Opaque(None),
        rest => Receiver::Opaque(rest.last().cloned()),
    };
    Callee::Method { name, recv }
}

/// Builds a `Callee::Path` for the name token at `i` (preceded by `::`).
pub(crate) fn path_callee(tokens: &[Token], i: usize) -> Callee {
    let mut segs: Vec<String> = vec![tokens[i].text.clone()];
    let mut j = i - 1; // at `::`
    while tokens[j].is_punct("::") {
        let Some(prev) = j.checked_sub(1).map(|p| &tokens[p]) else {
            break;
        };
        if prev.kind == TokKind::Ident {
            segs.push(prev.text.clone());
            match j.checked_sub(2) {
                Some(p) if tokens[p].is_punct("::") => j = p,
                _ => break,
            }
        } else if prev.is_punct(">") {
            // Turbofish or qualified path: give up on deeper segments.
            break;
        } else {
            break;
        }
    }
    segs.reverse();
    Callee::Path(segs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", src)
    }

    fn fn_named<'a>(file: &'a ParsedFile, display: &str) -> &'a FnDef {
        file.fns
            .iter()
            .find(|f| f.display() == display)
            .unwrap_or_else(|| panic!("no fn `{display}` in {:?}", file.fns))
    }

    #[test]
    fn walks_nested_mods_transparently() {
        let file = parse(
            "mod outer {\n    pub mod inner {\n        pub fn deep() { helper(); }\n    }\n}\nfn helper() {}\n",
        );
        let names: Vec<String> = file.fns.iter().map(FnDef::display).collect();
        assert_eq!(names, vec!["deep", "helper"]);
        let deep = fn_named(&file, "deep");
        assert_eq!(deep.calls.len(), 1);
        assert!(matches!(&deep.calls[0].callee, Callee::Free(n) if n == "helper"));
        // Position is the `fn` keyword of the nested item.
        assert_eq!((deep.line, deep.col), (3, 13));
    }

    #[test]
    fn trait_impls_and_defaulted_methods() {
        let file = parse(
            "trait Plan {\n    fn go(&self);\n    fn both(&self) { self.go(); }\n}\nstruct A {}\nimpl Plan for A {\n    fn go(&self) { step(); }\n}\nfn step() {}\n",
        );
        let plan = &file.traits[0];
        assert_eq!(plan.name, "Plan");
        assert_eq!(plan.methods, vec!["go", "both"]);
        // Defaulted trait method is owned by the trait; the impl method
        // by the implementing type, with the trait recorded.
        let both = fn_named(&file, "Plan::both");
        assert!(both.trait_impl.is_none());
        let go = fn_named(&file, "A::go");
        assert_eq!(go.trait_impl.as_deref(), Some("Plan"));
        assert_eq!(file.trait_impls.len(), 1);
        assert_eq!(file.trait_impls[0].trait_name, "Plan");
        assert_eq!(file.trait_impls[0].type_name, "A");
    }

    #[test]
    fn generic_bounds_from_angle_list_and_where_clause() {
        let file = parse(
            "fn drive<S: Plan + Send>(s: &mut S, n: u64) -> u64\nwhere\n    S: Clone,\n{\n    s.go();\n    n\n}\n",
        );
        let drive = fn_named(&file, "drive");
        assert_eq!(
            drive.params,
            vec![
                ("s".to_string(), "S".to_string()),
                ("n".to_string(), "u64".to_string())
            ]
        );
        let s_bounds = drive
            .bounds
            .iter()
            .find(|(p, _)| p == "S")
            .map(|(_, b)| b.clone())
            .expect("S has bounds");
        assert!(s_bounds.contains(&"Plan".to_string()), "{s_bounds:?}");
        assert!(s_bounds.contains(&"Clone".to_string()), "{s_bounds:?}");
        assert!(matches!(
            &drive.calls[0].callee,
            Callee::Method { name, recv: Receiver::Ident(r) } if name == "go" && r == "s"
        ));
    }

    #[test]
    fn method_receivers_and_let_typed_locals() {
        let file = parse(
            "struct W { rm: R }\nimpl W {\n    fn f(&mut self, id: u64) {\n        let q = Queue::new();\n        q.append(id);\n        self.rm.release(id);\n        self.tick();\n        mystery().run();\n    }\n}\n",
        );
        let f = fn_named(&file, "W::f");
        assert_eq!(f.locals.get("q").map(String::as_str), Some("Queue"));
        assert_eq!(f.locals.get("id").map(String::as_str), Some("u64"));
        assert_eq!(
            file.structs[0].fields,
            vec![("rm".to_string(), "R".to_string())]
        );

        let shapes: Vec<String> = f.calls.iter().map(|c| format!("{:?}", c.callee)).collect();
        assert!(matches!(&f.calls[0].callee, Callee::Path(segs) if segs == &["Queue", "new"]));
        assert!(matches!(
            &f.calls[1].callee,
            Callee::Method { name, recv: Receiver::Ident(r) } if name == "append" && r == "q"
        ));
        assert!(
            matches!(
                &f.calls[2].callee,
                Callee::Method { name, recv: Receiver::SelfField(fld) } if name == "release" && fld == "rm"
            ),
            "{shapes:?}"
        );
        assert_eq!(f.calls[2].prev_ident(), Some("rm"));
        assert!(matches!(
            &f.calls[3].callee,
            Callee::Method { name, recv: Receiver::SelfValue } if name == "tick"
        ));
        // `mystery()` is itself a call; its `.run()` receiver is opaque.
        assert!(matches!(&f.calls[4].callee, Callee::Free(n) if n == "mystery"));
        assert!(matches!(
            &f.calls[5].callee,
            Callee::Method { name, recv: Receiver::Opaque(None) } if name == "run"
        ));
    }

    #[test]
    fn test_gated_code_is_invisible() {
        let file = parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n    #[test]\n    fn t() { helper(); }\n}\n",
        );
        let names: Vec<String> = file.fns.iter().map(FnDef::display).collect();
        assert_eq!(names, vec!["live"]);
    }

    #[test]
    fn macro_invocations_and_keywords_are_not_calls() {
        let file = parse(
            "fn f(x: u64) -> u64 {\n    assert!(x > 0);\n    if x > 1 { return x; }\n    let v = vec![x];\n    v.len() as u64\n}\n",
        );
        let f = fn_named(&file, "f");
        let names: Vec<&str> = f.calls.iter().map(CallSite::name).collect();
        assert_eq!(names, vec!["len"], "macros/keywords must not register");
    }
}
