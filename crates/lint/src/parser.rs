//! Recursive-descent item-level parser over the lexer's token stream.
//!
//! Where the v1 rules matched raw token shapes, the v2 semantic rules
//! need to know *what item* a token belongs to: which `fn` a lock is
//! acquired in, which type an `impl` block is for, whether a `const`
//! is the generated counter vocabulary, which functions carry
//! `#[test]`. This parser recovers exactly that structure — items with
//! names, attributes, fields, parameters, and body token ranges — and
//! deliberately nothing more: expressions stay a flat token slice that
//! rules scan with the same window techniques as v1.
//!
//! Like the lexer, the parser must never panic or loop on malformed
//! input; unparseable constructs are skipped token by token until the
//! next plausible item start.

use crate::lexer::{Token, TokenKind};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Struct,
    Enum,
    Union,
    Trait,
    Impl,
    Mod,
    Const,
    Static,
    Use,
    TypeAlias,
    MacroDef,
}

/// One outer attribute, flattened.
#[derive(Debug, Clone)]
pub struct Attr {
    /// The attribute body text with tokens space-joined
    /// (`cfg ( test )`, `test`, `derive ( Debug , Clone )`).
    pub text: String,
    /// True when an identifier `test` or `bench` appears anywhere in
    /// the attribute (string literals do not count).
    pub has_test: bool,
    pub line: u32,
}

/// A named struct field, enum variant, or fn parameter.
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    /// First identifier of the declared type (`Mutex` for
    /// `Mutex<Option<T>>`, `Vec` for `Vec<Mutex<T>>`), empty when the
    /// type has no leading identifier. For fields the *full* head chain
    /// is kept in [`Field::type_path`].
    pub type_head: String,
    /// Leading identifier path of the type with generics stripped
    /// (`Vec`, `std::sync::Mutex` → `Mutex` is still the last segment).
    pub type_path: Vec<String>,
    pub line: u32,
}

/// One parsed item. `children` holds nested items for `mod`, `impl`,
/// and `trait` bodies.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name: the fn/struct/enum/mod/const name; for an `impl`,
    /// the implemented *type* name (last path segment).
    pub name: String,
    pub attrs: Vec<Attr>,
    /// First line of the item (its first attribute if any).
    pub start_line: u32,
    pub end_line: u32,
    /// Token range (half-open, indices into the comment-free stream)
    /// covering the whole item including attributes and body.
    pub tokens: (usize, usize),
    /// Token range strictly inside the `{ … }` body (fn body, mod body,
    /// const initialiser from `=` to `;`), when the item has one.
    pub body: Option<(usize, usize)>,
    /// Nested items (`mod`/`impl`/`trait` members).
    pub children: Vec<Item>,
    /// Struct fields or enum variants.
    pub fields: Vec<Field>,
    /// Fn parameter names (excluding `self`).
    pub params: Vec<Field>,
}

impl Item {
    /// True when any outer attribute marks this item as test/bench code
    /// (`#[test]`, `#[bench]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`).
    pub fn is_test_item(&self) -> bool {
        self.attrs.iter().any(|a| a.has_test)
    }

    /// Depth-first walk over this item and all nested children.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Item)) {
        visit(self);
        for c in &self.children {
            c.walk(visit);
        }
    }
}

/// Parses a whole file's comment-free token stream into top-level items.
pub fn parse_items(tokens: &[Token]) -> Vec<Item> {
    let mut p = Parser { tokens, pos: 0 };
    p.items(tokens.len())
}

/// Depth-first iteration over a parsed item forest.
pub fn walk_items<'a>(items: &'a [Item], visit: &mut impl FnMut(&'a Item)) {
    for item in items {
        item.walk(visit);
    }
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

/// Keywords that introduce an item (after attributes/visibility).
const ITEM_KEYWORDS: &[(&str, ItemKind)] = &[
    ("fn", ItemKind::Fn),
    ("struct", ItemKind::Struct),
    ("enum", ItemKind::Enum),
    ("union", ItemKind::Union),
    ("trait", ItemKind::Trait),
    ("impl", ItemKind::Impl),
    ("mod", ItemKind::Mod),
    ("const", ItemKind::Const),
    ("static", ItemKind::Static),
    ("use", ItemKind::Use),
    ("type", ItemKind::TypeAlias),
    ("macro_rules", ItemKind::MacroDef),
];

impl<'a> Parser<'a> {
    fn at(&self, i: usize) -> Option<&'a Token> {
        self.tokens.get(i)
    }

    fn is_punct(&self, i: usize, text: &str) -> bool {
        self.at(i).is_some_and(|t| t.is_punct(text))
    }

    fn is_ident(&self, i: usize, text: &str) -> bool {
        self.at(i).is_some_and(|t| t.is_ident(text))
    }

    fn line(&self, i: usize) -> u32 {
        self.at(i).map_or(0, |t| t.line)
    }

    /// Parses items until `end` (token index, exclusive).
    fn items(&mut self, end: usize) -> Vec<Item> {
        let mut out = Vec::new();
        while self.pos < end {
            let before = self.pos;
            if let Some(item) = self.item(end) {
                out.push(item);
            }
            if self.pos <= before {
                // Error recovery: always make progress.
                self.pos = before + 1;
            }
        }
        out
    }

    /// Tries to parse one item starting at `self.pos`; on failure the
    /// caller skips a token and retries.
    fn item(&mut self, end: usize) -> Option<Item> {
        let start = self.pos;
        let attrs = self.outer_attrs(end);
        self.skip_visibility(end);
        // `unsafe fn`, `async fn`, `extern "C" fn`, `default fn`.
        while self
            .at(self.pos)
            .is_some_and(|t| matches!(t.text.as_str(), "unsafe" | "async" | "default" | "extern"))
            && self.pos < end
        {
            self.pos += 1;
            if self
                .at(self.pos)
                .is_some_and(|t| t.kind == TokenKind::Literal)
            {
                self.pos += 1; // the ABI string of `extern "C"`
            }
        }
        let kw = self.at(self.pos)?;
        let kind = ITEM_KEYWORDS
            .iter()
            .find(|(k, _)| kw.is_ident(k))
            .map(|&(_, kind)| kind)?;
        if self.pos >= end {
            return None;
        }
        self.pos += 1;
        let start_line = attrs.first().map_or(kw.line, |a| a.line);
        let mut item = Item {
            kind,
            name: String::new(),
            attrs,
            start_line,
            end_line: kw.line,
            tokens: (start, self.pos),
            body: None,
            children: Vec::new(),
            fields: Vec::new(),
            params: Vec::new(),
        };
        match kind {
            ItemKind::Fn => self.finish_fn(&mut item, end),
            ItemKind::Struct | ItemKind::Union => self.finish_struct(&mut item, end),
            ItemKind::Enum => self.finish_enum(&mut item, end),
            ItemKind::Trait | ItemKind::Mod => self.finish_mod_like(&mut item, end),
            ItemKind::Impl => self.finish_impl(&mut item, end),
            ItemKind::Const | ItemKind::Static | ItemKind::Use | ItemKind::TypeAlias => {
                self.finish_statement_like(&mut item, end)
            }
            ItemKind::MacroDef => self.finish_macro_def(&mut item, end),
        }
        item.tokens = (start, self.pos.min(end));
        item.end_line = self.line(self.pos.saturating_sub(1)).max(item.end_line);
        Some(item)
    }

    /// Collects consecutive outer attributes (`#[…]`); inner attributes
    /// (`#![…]`) are skipped without being attached.
    fn outer_attrs(&mut self, end: usize) -> Vec<Attr> {
        let mut attrs = Vec::new();
        loop {
            // Skip inner attributes entirely.
            if self.is_punct(self.pos, "#")
                && self.is_punct(self.pos + 1, "!")
                && self.is_punct(self.pos + 2, "[")
            {
                let close = self.matching_bracket(self.pos + 2, end);
                self.pos = close + 1;
                continue;
            }
            if !(self.is_punct(self.pos, "#") && self.is_punct(self.pos + 1, "[")) {
                return attrs;
            }
            let line = self.line(self.pos);
            let open = self.pos + 1;
            let close = self.matching_bracket(open, end);
            let body = &self.tokens[(open + 1).min(close)..close];
            let text = body
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            let has_test = body
                .iter()
                .any(|t| t.kind == TokenKind::Ident && (t.text == "test" || t.text == "bench"));
            attrs.push(Attr {
                text,
                has_test,
                line,
            });
            self.pos = close + 1;
        }
    }

    fn skip_visibility(&mut self, end: usize) {
        if self.is_ident(self.pos, "pub") && self.pos < end {
            self.pos += 1;
            if self.is_punct(self.pos, "(") {
                let close = self.matching(self.pos, "(", ")", end);
                self.pos = close + 1;
            }
        }
    }

    /// Index of the bracket matching the opener at `open` (which must
    /// hold `[`); clamped to `end - 1` when unbalanced.
    fn matching_bracket(&self, open: usize, end: usize) -> usize {
        self.matching(open, "[", "]", end)
    }

    fn matching(&self, open: usize, open_text: &str, close_text: &str, end: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < end {
            let Some(t) = self.at(i) else { break };
            if t.is_punct(open_text) {
                depth += 1;
            } else if t.is_punct(close_text) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    /// Scans forward for the item's `{` body opener or terminating `;`,
    /// tracking `(`/`[` nesting so a `;` inside an array type or a `{`
    /// inside a const-generic default does not end the scan early.
    /// Returns `(index, opened_brace)`.
    fn body_or_semi(&self, from: usize, end: usize) -> (usize, bool) {
        let mut paren = 0i64;
        let mut bracket = 0i64;
        let mut i = from;
        while i < end {
            let Some(t) = self.at(i) else { break };
            match t.text.as_str() {
                "(" if t.kind == TokenKind::Punct => paren += 1,
                ")" if t.kind == TokenKind::Punct => paren -= 1,
                "[" if t.kind == TokenKind::Punct => bracket += 1,
                "]" if t.kind == TokenKind::Punct => bracket -= 1,
                "{" if t.kind == TokenKind::Punct && paren <= 0 && bracket <= 0 => {
                    return (i, true)
                }
                ";" if t.kind == TokenKind::Punct && paren <= 0 && bracket <= 0 => {
                    return (i, false)
                }
                _ => {}
            }
            i += 1;
        }
        (end.saturating_sub(1), false)
    }

    /// `fn name <generics> ( params ) -> Ret where … { body }` or `;`.
    fn finish_fn(&mut self, item: &mut Item, end: usize) {
        if let Some(t) = self.at(self.pos) {
            if t.kind == TokenKind::Ident {
                item.name = t.text.clone();
                self.pos += 1;
            }
        }
        // Parameters: the first `(` after the name (generics cannot
        // contain a bare `(` before the parameter list in this
        // workspace's code).
        let mut i = self.pos;
        while i < end && !self.is_punct(i, "(") && !self.is_punct(i, "{") && !self.is_punct(i, ";")
        {
            i += 1;
        }
        if self.is_punct(i, "(") {
            let close = self.matching(i, "(", ")", end);
            item.params = self.fields_in(i + 1, close, true);
            self.pos = close + 1;
        }
        let (stop, has_body) = self.body_or_semi(self.pos, end);
        if has_body {
            let close = self.matching(stop, "{", "}", end);
            item.body = Some((stop + 1, close));
            self.pos = close + 1;
        } else {
            self.pos = stop + 1;
        }
    }

    /// `struct Name { fields }`, `struct Name(tuple);`, `struct Name;`.
    fn finish_struct(&mut self, item: &mut Item, end: usize) {
        if let Some(t) = self.at(self.pos) {
            if t.kind == TokenKind::Ident {
                item.name = t.text.clone();
                self.pos += 1;
            }
        }
        let (stop, has_body) = self.body_or_semi(self.pos, end);
        if has_body {
            let close = self.matching(stop, "{", "}", end);
            item.fields = self.fields_in(stop + 1, close, false);
            item.body = Some((stop + 1, close));
            self.pos = close + 1;
        } else {
            self.pos = stop + 1;
        }
    }

    /// `enum Name { Variant, Variant(T), Variant { .. } }`.
    fn finish_enum(&mut self, item: &mut Item, end: usize) {
        if let Some(t) = self.at(self.pos) {
            if t.kind == TokenKind::Ident {
                item.name = t.text.clone();
                self.pos += 1;
            }
        }
        let (stop, has_body) = self.body_or_semi(self.pos, end);
        if !has_body {
            self.pos = stop + 1;
            return;
        }
        let close = self.matching(stop, "{", "}", end);
        item.body = Some((stop + 1, close));
        // Variants: identifiers at nesting depth 0 inside the body that
        // open a variant (start of body or directly after a top-level
        // comma).
        let mut expect_variant = true;
        let mut depth = 0i64;
        let mut i = stop + 1;
        while i < close {
            let Some(t) = self.at(i) else { break };
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
                "," if t.kind == TokenKind::Punct && depth == 0 => expect_variant = true,
                "#" if t.kind == TokenKind::Punct && depth == 0 => {
                    // Variant attribute: skip `[...]`.
                    if self.is_punct(i + 1, "[") {
                        i = self.matching_bracket(i + 1, close);
                    }
                }
                _ => {
                    if expect_variant && t.kind == TokenKind::Ident && depth == 0 {
                        item.fields.push(Field {
                            name: t.text.clone(),
                            type_head: String::new(),
                            type_path: Vec::new(),
                            line: t.line,
                        });
                        expect_variant = false;
                    }
                }
            }
            i += 1;
        }
        self.pos = close + 1;
    }

    /// `mod name { items }` / `trait Name { items }` (or `;`).
    fn finish_mod_like(&mut self, item: &mut Item, end: usize) {
        if let Some(t) = self.at(self.pos) {
            if t.kind == TokenKind::Ident {
                item.name = t.text.clone();
                self.pos += 1;
            }
        }
        let (stop, has_body) = self.body_or_semi(self.pos, end);
        if has_body {
            let close = self.matching(stop, "{", "}", end);
            item.body = Some((stop + 1, close));
            self.pos = stop + 1;
            item.children = self.items(close);
            self.pos = close + 1;
        } else {
            self.pos = stop + 1;
        }
    }

    /// `impl<G> Path for Path where … { items }` — `name` is the target
    /// type's last path segment.
    fn finish_impl(&mut self, item: &mut Item, end: usize) {
        // Skip generic parameters `<…>` by angle counting.
        if self.is_punct(self.pos, "<") {
            let mut depth = 0i64;
            while self.pos < end {
                match self.at(self.pos).map(|t| t.text.as_str()) {
                    Some("<") => depth += 1,
                    Some(">") => {
                        depth -= 1;
                        if depth <= 0 {
                            self.pos += 1;
                            break;
                        }
                    }
                    Some("<<") => depth += 2,
                    Some(">>") => depth -= 2,
                    None => break,
                    _ => {}
                }
                self.pos += 1;
            }
        }
        item.name = self.path_last_segment(end);
        if self.is_ident(self.pos, "for") {
            self.pos += 1;
            item.name = self.path_last_segment(end);
        }
        let (stop, has_body) = self.body_or_semi(self.pos, end);
        if has_body {
            let close = self.matching(stop, "{", "}", end);
            item.body = Some((stop + 1, close));
            self.pos = stop + 1;
            item.children = self.items(close);
            self.pos = close + 1;
        } else {
            self.pos = stop + 1;
        }
    }

    /// Consumes a type path (`a::b::C<T>`, `&mut C`, `dyn T`) up to
    /// `for`/`where`/`{`/`;`, returning the last identifier segment.
    fn path_last_segment(&mut self, end: usize) -> String {
        let mut last = String::new();
        let mut angle = 0i64;
        while self.pos < end {
            let Some(t) = self.at(self.pos) else { break };
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "<<" => angle += 2,
                ">>" => angle = (angle - 2).max(0),
                "for" | "where" if t.kind == TokenKind::Ident && angle == 0 => break,
                "{" | ";" if t.kind == TokenKind::Punct && angle == 0 => break,
                _ => {
                    if t.kind == TokenKind::Ident
                        && angle == 0
                        && !matches!(t.text.as_str(), "dyn" | "mut" | "const")
                    {
                        last = t.text.clone();
                    }
                }
            }
            self.pos += 1;
        }
        last
    }

    /// `const NAME: Type = init;` / `static NAME: …;` / `use path;` /
    /// `type Alias = …;` — body is the token range after `=` (when
    /// present) so rules can scan initialisers.
    fn finish_statement_like(&mut self, item: &mut Item, end: usize) {
        if self.is_ident(self.pos, "mut") {
            self.pos += 1;
        }
        if let Some(t) = self.at(self.pos) {
            if t.kind == TokenKind::Ident {
                item.name = t.text.clone();
                self.pos += 1;
            }
        }
        // For statics/consts, record the declared type's head path
        // (`Mutex` in `static X: Mutex<…>`), reusing the Field shape.
        if (item.kind == ItemKind::Const || item.kind == ItemKind::Static)
            && self.is_punct(self.pos, ":")
        {
            let (path, _) = self.type_path_at(self.pos + 1, end);
            item.fields.push(Field {
                name: item.name.clone(),
                type_head: path.last().cloned().unwrap_or_default(),
                type_path: path,
                line: self.line(self.pos),
            });
        }
        // Scan to the terminating `;` at zero bracket depth; `{`/`}` of
        // initialiser blocks nest.
        let mut depth = 0i64;
        let mut eq_at: Option<usize> = None;
        let mut i = self.pos;
        while i < end {
            let Some(t) = self.at(i) else { break };
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
                "=" if t.kind == TokenKind::Punct && depth == 0 && eq_at.is_none() => {
                    eq_at = Some(i)
                }
                ";" if t.kind == TokenKind::Punct && depth <= 0 => {
                    if let Some(eq) = eq_at {
                        item.body = Some((eq + 1, i));
                    }
                    self.pos = i + 1;
                    return;
                }
                _ => {}
            }
            i += 1;
        }
        self.pos = end;
    }

    /// `macro_rules! name { … }`.
    fn finish_macro_def(&mut self, item: &mut Item, end: usize) {
        if self.is_punct(self.pos, "!") {
            self.pos += 1;
        }
        if let Some(t) = self.at(self.pos) {
            if t.kind == TokenKind::Ident {
                item.name = t.text.clone();
                self.pos += 1;
            }
        }
        let (stop, has_body) = self.body_or_semi(self.pos, end);
        if has_body {
            let close = self.matching(stop, "{", "}", end);
            item.body = Some((stop + 1, close));
            self.pos = close + 1;
        } else {
            self.pos = stop + 1;
        }
    }

    /// Parses `name: Type` pairs between `from` and `to` (exclusive) at
    /// nesting depth zero — struct fields or fn parameters. With
    /// `params`, `self` receivers and pattern params are skipped.
    fn fields_in(&self, from: usize, to: usize, params: bool) -> Vec<Field> {
        let mut out = Vec::new();
        let mut depth = 0i64;
        let mut i = from;
        while i < to {
            let Some(t) = self.at(i) else { break };
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
                "<" if t.kind == TokenKind::Punct => depth += 1,
                ">" if t.kind == TokenKind::Punct => depth -= 1,
                // Nested generics close with a single `>>` token.
                "<<" if t.kind == TokenKind::Punct => depth += 2,
                ">>" if t.kind == TokenKind::Punct => depth -= 2,
                _ => {
                    if depth == 0
                        && t.kind == TokenKind::Ident
                        && t.text != "self"
                        && t.text != "mut"
                        && self.is_punct(i + 1, ":")
                        && !self.is_punct(i + 2, ":")
                    {
                        let (path, _) = self.type_path_at(i + 1, to);
                        out.push(Field {
                            name: t.text.clone(),
                            type_head: path.last().cloned().unwrap_or_default(),
                            type_path: path,
                            line: t.line,
                        });
                    }
                }
            }
            i += 1;
        }
        let _ = params;
        out
    }

    /// Reads the identifier path heading a type after a `:` at `colon`
    /// (skipping `&`, lifetimes, `mut`, `dyn`), with generics stripped:
    /// `: &'a mut std::sync::Mutex<T>` → `["std","sync","Mutex"]`.
    /// Returns `(path, index after the path)`.
    fn type_path_at(&self, colon: usize, end: usize) -> (Vec<String>, usize) {
        let mut i = colon;
        if self.is_punct(i, ":") {
            i += 1;
        }
        while i < end {
            let Some(t) = self.at(i) else { break };
            let skip = t.is_punct("&")
                || t.kind == TokenKind::Lifetime
                || t.is_ident("mut")
                || t.is_ident("dyn");
            if !skip {
                break;
            }
            i += 1;
        }
        let mut path = Vec::new();
        while i < end {
            let Some(t) = self.at(i) else { break };
            if t.kind == TokenKind::Ident {
                path.push(t.text.clone());
                i += 1;
                if self.is_punct(i, "::") {
                    i += 1;
                    continue;
                }
            }
            break;
        }
        (path, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        let tokens: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .collect();
        parse_items(&tokens)
    }

    #[test]
    fn fns_structs_and_consts_get_names_and_spans() {
        let src = "pub fn go(a: usize, b: &Mutex<u8>) -> usize { a + 1 }\n\
                   struct S { field: Mutex<Option<u8>>, n: usize }\n\
                   static CACHE: Mutex<Option<u8>> = Mutex::new(None);\n\
                   const K: &[&str] = &[\"a\", \"b\"];\n";
        let items = parse(src);
        assert_eq!(items.len(), 4, "{items:?}");
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name, "go");
        assert_eq!(items[0].params.len(), 2);
        assert_eq!(items[0].params[1].type_head, "Mutex");
        assert!(items[0].body.is_some());
        assert_eq!(items[1].kind, ItemKind::Struct);
        assert_eq!(items[1].fields.len(), 2);
        assert_eq!(items[1].fields[0].name, "field");
        assert_eq!(items[1].fields[0].type_head, "Mutex");
        assert_eq!(items[2].kind, ItemKind::Static);
        assert_eq!(items[2].name, "CACHE");
        assert_eq!(items[2].fields[0].type_head, "Mutex");
        assert!(items[2].body.is_some(), "initialiser range recorded");
        assert_eq!(items[3].kind, ItemKind::Const);
        assert_eq!(items[3].name, "K");
    }

    #[test]
    fn impls_are_named_after_their_type() {
        let src = "impl fmt::Display for Report { fn fmt(&self) {} }\n\
                   impl<T> Plain<T> { fn m(&self) {} }\n";
        let items = parse(src);
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "Report");
        assert_eq!(items[0].children.len(), 1);
        assert_eq!(items[0].children[0].name, "fmt");
        assert_eq!(items[1].name, "Plain");
        assert_eq!(items[1].children[0].name, "m");
    }

    #[test]
    fn mods_nest_and_test_attrs_are_recognised() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(true); }\n    fn helper() {}\n}\nfn lib() {}\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        let m = &items[0];
        assert_eq!(m.kind, ItemKind::Mod);
        assert!(m.is_test_item());
        assert_eq!(m.start_line, 1);
        assert_eq!(m.end_line, 6);
        assert_eq!(m.children.len(), 2);
        assert!(m.children[0].is_test_item());
        assert!(!m.children[1].is_test_item());
        assert!(!items[1].is_test_item());
    }

    #[test]
    fn enum_variants_are_fields() {
        let src = "pub enum HarnessError {\n    InvalidConfig(String),\n    NotApplicable { algorithm: String },\n    EmptyStream,\n}\n";
        let items = parse(src);
        let names: Vec<&str> = items[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["InvalidConfig", "NotApplicable", "EmptyStream"]);
    }

    #[test]
    fn doc_strings_and_derives_do_not_mark_tests() {
        let src = "#[derive(Debug, Clone)]\n#[doc = \"contains test in a string\"]\nstruct S;\n";
        let items = parse(src);
        assert!(!items[0].is_test_item());
        assert_eq!(items[0].attrs.len(), 2);
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let src = "#[cfg(all(test, unix))]\nmod helpers {}\n";
        let items = parse(src);
        assert!(items[0].is_test_item());
    }

    #[test]
    fn malformed_input_never_loops_or_panics() {
        for src in [
            "fn",
            "impl {",
            "struct ) ] }",
            "const X",
            "mod m { fn broken(",
            "#[attr fn x() {}",
            "enum E { A(",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn const_initialiser_body_covers_literals() {
        let src = "pub const KNOWN: &[&str] = &[\n    \"a.b\",\n    \"c.d\",\n];\n";
        let items = parse(src);
        let (b0, b1) = items[0].body.expect("const body");
        let tokens: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .collect();
        let lits: Vec<&str> = tokens[b0..b1]
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, ["\"a.b\"", "\"c.d\""]);
    }
}
