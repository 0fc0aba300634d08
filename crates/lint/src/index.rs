//! Workspace index: one pass over every parsed file distils the facts
//! the semantic rules consume — counter construction sites, the
//! `HarnessError` exit-code/kind tables, and a static lock-order
//! graph. The index is serializable (`oeb-lint index --json`) so other
//! tooling can consume the same facts the rules do, and it is the
//! source of truth for the generated counter vocabulary
//! (`oeb-lint index --emit-vocab`).

use std::collections::BTreeMap;

use crate::engine::SourceFile;
use crate::lexer::{Token, TokenKind};
use crate::parser::{Item, ItemKind};

/// Counters that the trace snapshot synthesises itself rather than
/// constructing through `Counter::new`, so no construction site exists
/// for them; they belong to the vocabulary regardless.
pub const SYNTHESIZED_COUNTERS: &[&str] = &["trace.events.dropped"];

/// One `Counter::new("…")` / `Gauge::new("…")` construction site.
#[derive(Debug, Clone)]
pub struct MetricSite {
    pub name: String,
    pub file: String,
    pub line: u32,
    /// True when the site is in test/bench/example code — such metrics
    /// never reach production snapshots and stay out of the vocabulary.
    pub in_test: bool,
}

/// One `HarnessError` variant's row in the exit-code registry, merged
/// from the `exit_code()` and `kind()` match arms.
#[derive(Debug, Clone)]
pub struct ExitArm {
    pub variant: String,
    pub code: Option<i64>,
    pub kind: Option<String>,
    /// Line of the `exit_code()` arm (fallback: the `kind()` arm).
    pub line: u32,
}

/// One static lock acquisition site, attributed to a function.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Fully-qualified lock identity (`oebench::Type::field` for a
    /// struct field, `trace::REGISTRY`, or `file::fn::name` for locals).
    pub lock: String,
    /// `file::fn` of the acquiring function.
    pub func: String,
    pub file: String,
    pub line: u32,
}

/// One edge of the lock-order graph: `to` is acquired while `from` is
/// held. `via` names the callee when the edge came from one-level
/// call propagation rather than a direct nested acquisition.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub via: Option<String>,
}

/// Everything the semantic rules need, from one pass over the files.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    pub counters: Vec<MetricSite>,
    pub gauges: Vec<MetricSite>,
    pub exit_arms: Vec<ExitArm>,
    /// File declaring `impl HarnessError` (workspace-relative).
    pub exit_file: Option<String>,
    pub lock_sites: Vec<LockSite>,
    pub lock_edges: Vec<LockEdge>,
    pub file_count: usize,
}

impl WorkspaceIndex {
    /// Builds the index over already-parsed files.
    pub fn build(files: &[SourceFile]) -> WorkspaceIndex {
        let mut idx = WorkspaceIndex {
            file_count: files.len(),
            ..WorkspaceIndex::default()
        };
        let mut fns: Vec<FnInfo> = Vec::new();
        let mut statics: Vec<StaticLock> = Vec::new();

        for (fi, file) in files.iter().enumerate() {
            collect_metrics(file, &mut idx);
            let mut ctx = CollectCtx {
                file,
                file_idx: fi,
                impl_type: None,
                idx: &mut idx,
                fns: &mut fns,
                statics: &mut statics,
            };
            for item in &file.items {
                collect_item(item, &mut ctx);
            }
        }

        detect_wrappers(files, &mut fns);
        let acquisitions: Vec<FnLocks> = fns
            .iter()
            .map(|f| scan_fn_locks(files, f, &fns, &statics))
            .collect();
        build_edges(files, &fns, &acquisitions, &mut idx);

        idx.counters
            .sort_by(|a, b| (&a.name, &a.file, a.line).cmp(&(&b.name, &b.file, b.line)));
        idx.gauges
            .sort_by(|a, b| (&a.name, &a.file, a.line).cmp(&(&b.name, &b.file, b.line)));
        idx.lock_sites
            .sort_by(|a, b| (&a.file, a.line, &a.lock).cmp(&(&b.file, b.line, &b.lock)));
        idx.lock_edges.sort_by(|a, b| {
            (&a.from, &a.to, &a.file, a.line).cmp(&(&b.from, &b.to, &b.file, b.line))
        });
        idx.lock_edges
            .dedup_by(|a, b| a.from == b.from && a.to == b.to && a.file == b.file);
        idx
    }

    /// The counter vocabulary: sorted, deduplicated names of every
    /// counter constructed in library (non-test) code, plus the
    /// synthesised counters that have no construction site.
    pub fn counter_vocabulary(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .iter()
            .filter(|c| !c.in_test)
            .map(|c| c.name.clone())
            .chain(SYNTHESIZED_COUNTERS.iter().map(|s| s.to_string()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Renders the generated vocabulary module consumed by
    /// `trace_check --counters` (stable output: byte-identical for an
    /// unchanged workspace, so CI can diff it).
    pub fn render_vocab(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "//! @generated by `oeb-lint index --emit-vocab` — do not edit.\n\
             //!\n\
             //! Every counter name constructed in library code, plus counters the\n\
             //! trace snapshot synthesises itself. `trace_check --counters` loads\n\
             //! this table; the `counter-vocab-sync` lint fails when it drifts\n\
             //! from the construction sites. Regenerate with:\n\
             //!\n\
             //! ```text\n\
             //! cargo run -p oeb-lint -- index --emit-vocab\n\
             //! ```\n\n\
             /// Every counter name a production snapshot may contain.\n\
             pub const KNOWN_COUNTERS: &[&str] = &[\n",
        );
        for name in self.counter_vocabulary() {
            out.push_str(&format!("    \"{name}\",\n"));
        }
        out.push_str("];\n");
        out
    }

    /// Serialises the index (stable field order, sorted entries).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "files": self.file_count,
            "counters": self.counters.iter().map(|c| serde_json::json!({
                "name": c.name, "file": c.file, "line": c.line, "in_test": c.in_test,
            })).collect::<Vec<_>>(),
            "gauges": self.gauges.iter().map(|c| serde_json::json!({
                "name": c.name, "file": c.file, "line": c.line, "in_test": c.in_test,
            })).collect::<Vec<_>>(),
            "exit_codes": self.exit_arms.iter().map(|a| serde_json::json!({
                "variant": a.variant, "code": a.code, "kind": a.kind, "line": a.line,
            })).collect::<Vec<_>>(),
            "lock_sites": self.lock_sites.iter().map(|s| serde_json::json!({
                "lock": s.lock, "func": s.func, "file": s.file, "line": s.line,
            })).collect::<Vec<_>>(),
            "lock_edges": self.lock_edges.iter().map(|e| serde_json::json!({
                "from": e.from, "to": e.to, "file": e.file, "line": e.line, "via": e.via,
            })).collect::<Vec<_>>(),
        })
    }
}

// ---------------------------------------------------------------------------
// Collection pass: metrics, exit arms, fns, statics
// ---------------------------------------------------------------------------

/// A function the lock analysis will scan, with enough context to
/// resolve `self.field` receivers and attribute acquisitions.
struct FnInfo {
    file_idx: usize,
    crate_name: Option<String>,
    name: String,
    impl_type: Option<String>,
    body: (usize, usize),
    params: Vec<String>,
    /// `Some(param)` when the fn is a lock wrapper: its only `.lock()`
    /// receiver is this parameter, so call sites are the real
    /// acquisition points and the internal `.lock()` is skipped.
    wrapper_param: Option<String>,
}

impl FnInfo {
    fn qualified(&self, files: &[SourceFile]) -> String {
        format!("{}::{}", files[self.file_idx].path, self.name)
    }
}

/// A `static NAME: Mutex<…>` declaration (any item nesting level).
struct StaticLock {
    name: String,
    file_idx: usize,
    crate_name: Option<String>,
    id: String,
}

struct CollectCtx<'a> {
    file: &'a SourceFile,
    file_idx: usize,
    impl_type: Option<String>,
    idx: &'a mut WorkspaceIndex,
    fns: &'a mut Vec<FnInfo>,
    statics: &'a mut Vec<StaticLock>,
}

fn collect_item(item: &Item, ctx: &mut CollectCtx) {
    match item.kind {
        ItemKind::Fn => {
            if let Some(body) = item.body {
                ctx.fns.push(FnInfo {
                    file_idx: ctx.file_idx,
                    crate_name: ctx.file.crate_name.clone(),
                    name: item.name.clone(),
                    impl_type: ctx.impl_type.clone(),
                    body,
                    params: item.params.iter().map(|p| p.name.clone()).collect(),
                    wrapper_param: None,
                });
                collect_exit_arms(item, body, ctx);
            }
        }
        ItemKind::Static
            if item
                .fields
                .iter()
                .any(|f| f.type_path.iter().any(|s| s == "Mutex")) =>
        {
            let id = match &ctx.file.crate_name {
                Some(c) => format!("{c}::{}", item.name),
                None => format!("{}::{}", ctx.file.path, item.name),
            };
            ctx.statics.push(StaticLock {
                name: item.name.clone(),
                file_idx: ctx.file_idx,
                crate_name: ctx.file.crate_name.clone(),
                id,
            });
        }
        _ => {}
    }
    let saved = ctx.impl_type.clone();
    if item.kind == ItemKind::Impl {
        ctx.impl_type = Some(item.name.clone());
    }
    for child in &item.children {
        collect_item(child, ctx);
    }
    ctx.impl_type = saved;
}

/// Inside `impl HarnessError`, the `exit_code()` / `kind()` bodies are
/// single `match` expressions whose arms map variants to integer codes
/// and kebab-case kind strings; read them off the token stream.
fn collect_exit_arms(item: &Item, body: (usize, usize), ctx: &mut CollectCtx) {
    if ctx.impl_type.as_deref() != Some("HarnessError") {
        return;
    }
    let is_code = item.name == "exit_code";
    let is_kind = item.name == "kind";
    if !is_code && !is_kind {
        return;
    }
    ctx.idx.exit_file = Some(ctx.file.path.clone());
    let tokens = &ctx.file.tokens;
    let mut i = body.0;
    let end = body.1.min(tokens.len());
    while i < end {
        if tokens[i].is_ident("HarnessError")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && tokens
                .get(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let variant = tokens[i + 2].text.clone();
            let line = tokens[i + 2].line;
            // Scan this arm for `=>` then its value token.
            let mut j = i + 3;
            while j < end && !tokens[j].is_punct("=>") {
                j += 1;
            }
            if let Some(value) = tokens.get(j + 1) {
                let arm = match ctx.idx.exit_arms.iter_mut().find(|a| a.variant == variant) {
                    Some(existing) => existing,
                    None => {
                        ctx.idx.exit_arms.push(ExitArm {
                            variant: variant.clone(),
                            code: None,
                            kind: None,
                            line,
                        });
                        ctx.idx.exit_arms.last_mut().expect("just pushed")
                    }
                };
                if is_code && value.kind == TokenKind::Int {
                    arm.code = value.text.replace('_', "").parse::<i64>().ok();
                    arm.line = line;
                } else if is_kind && value.kind == TokenKind::Literal {
                    arm.kind = Some(value.text.trim_matches('"').to_string());
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// `Counter::new("…")` / `Gauge::new("…")` sites across a file.
fn collect_metrics(file: &SourceFile, idx: &mut WorkspaceIndex) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        let ctor = &tokens[i];
        if !(ctor.is_ident("Counter") || ctor.is_ident("Gauge")) {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("new"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("(")))
        {
            continue;
        }
        let Some(lit) = tokens.get(i + 4).filter(|t| t.kind == TokenKind::Literal) else {
            continue;
        };
        let site = MetricSite {
            name: lit.text.trim_matches('"').to_string(),
            file: file.path.clone(),
            line: lit.line,
            in_test: file.is_test_code(ctor.line),
        };
        if ctor.is_ident("Counter") {
            idx.counters.push(site);
        } else {
            idx.gauges.push(site);
        }
    }
}

// ---------------------------------------------------------------------------
// Lock analysis
// ---------------------------------------------------------------------------

/// Marks functions whose only `.lock()` receiver is one of their own
/// parameters — lock wrappers like `fn lock_recover<T>(m: &Mutex<T>)`.
/// Their internal acquisition is attributed to call sites instead, so
/// the wrapper itself never becomes a (false) shared node in the graph.
fn detect_wrappers(files: &[SourceFile], fns: &mut [FnInfo]) {
    for f in fns.iter_mut() {
        let tokens = &files[f.file_idx].tokens;
        let end = f.body.1.min(tokens.len());
        let mut receivers: Vec<&str> = Vec::new();
        for i in f.body.0..end {
            if tokens[i].is_ident("lock")
                && i >= 2
                && tokens[i - 1].is_punct(".")
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
                && tokens[i - 2].kind == TokenKind::Ident
            {
                receivers.push(tokens[i - 2].text.as_str());
            }
        }
        if let [single] = receivers.as_slice() {
            if f.params.iter().any(|p| p == single) {
                f.wrapper_param = Some(single.to_string());
            }
        }
    }
}

/// One acquisition inside a fn body: the lock, where it happens, and
/// how long the guard lives (token index of the scope end).
struct Acq {
    lock: String,
    at: usize,
    scope_end: usize,
    line: u32,
}

/// A call to another workspace fn, for one-level edge propagation.
struct Call {
    callee: usize,
    at: usize,
    line: u32,
}

struct FnLocks {
    acqs: Vec<Acq>,
    calls: Vec<Call>,
}

fn scan_fn_locks(
    files: &[SourceFile],
    f: &FnInfo,
    fns: &[FnInfo],
    statics: &[StaticLock],
) -> FnLocks {
    let file = &files[f.file_idx];
    let tokens = &file.tokens;
    let end = f.body.1.min(tokens.len());
    let mut acqs = Vec::new();
    let mut calls = Vec::new();
    let mut i = f.body.0;
    while i < end {
        let t = &tokens[i];
        // Method-style acquisition: `<receiver>.lock()`.
        if t.is_ident("lock")
            && i > f.body.0
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|p| p.is_punct("("))
        {
            let path = receiver_path(tokens, i - 1, f.body.0);
            let skip = f
                .wrapper_param
                .as_deref()
                .is_some_and(|p| path.first().map(String::as_str) == Some(p));
            if !skip && !path.is_empty() {
                let lock = resolve_lock(&path, f, files, statics);
                acqs.push(make_acq(lock, i, tokens, f.body, t.line));
            }
            i += 2;
            continue;
        }
        // Wrapper-style acquisition: `lock(&X)` / `lock_recover(&X)` —
        // a plain call to a detected wrapper fn.
        if t.kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|p| p.is_punct("("))
            && (i == 0 || !tokens[i - 1].is_punct(".") && !tokens[i - 1].is_ident("fn"))
        {
            if let Some(callee) = resolve_callee(&t.text, f, fns, files) {
                if fns[callee].wrapper_param.is_some() {
                    if let Some(path) = arg_path(tokens, i + 2, end) {
                        let lock = resolve_lock(&path, f, files, statics);
                        acqs.push(make_acq(lock, i, tokens, f.body, t.line));
                        i += 2;
                        continue;
                    }
                } else {
                    calls.push(Call {
                        callee,
                        at: i,
                        line: t.line,
                    });
                }
            }
        }
        // Method call on self: `self.g(…)` → same-impl callee.
        if t.kind == TokenKind::Ident
            && i >= 2
            && tokens[i - 1].is_punct(".")
            && tokens[i - 2].is_ident("self")
            && tokens.get(i + 1).is_some_and(|p| p.is_punct("("))
            && t.text != "lock"
        {
            if let Some(callee) = resolve_callee(&t.text, f, fns, files) {
                calls.push(Call {
                    callee,
                    at: i,
                    line: t.line,
                });
            }
        }
        i += 1;
    }
    FnLocks { acqs, calls }
}

/// Guard liveness: a `let`-bound guard lives to the end of its
/// enclosing block; a temporary dies at the end of the statement.
fn make_acq(lock: String, at: usize, tokens: &[Token], body: (usize, usize), line: u32) -> Acq {
    let end = body.1.min(tokens.len());
    let stmt_start = statement_start(tokens, at, body.0);
    let let_bound = tokens.get(stmt_start).is_some_and(|t| t.is_ident("let"));
    let scope_end = if let_bound {
        enclosing_block_end(tokens, at, end)
    } else {
        statement_end(tokens, at, end)
    };
    Acq {
        lock,
        at,
        scope_end,
        line,
    }
}

/// Walks back to the first token of the statement containing `at`: just
/// after the previous `;` / `{` / `}` at this nesting level.
fn statement_start(tokens: &[Token], at: usize, lo: usize) -> usize {
    let mut bal = 0i64;
    let mut j = at;
    while j > lo {
        j -= 1;
        let t = &tokens[j];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" | "}" => bal += 1,
            "(" | "[" => bal -= 1,
            "{" => {
                if bal == 0 {
                    return j + 1;
                }
                bal -= 1;
            }
            ";" if bal == 0 => return j + 1,
            _ => {}
        }
        if bal < 0 {
            return j + 1;
        }
    }
    lo
}

/// Forward to the `;` ending the statement at this nesting level (or
/// the end of the enclosing block, whichever comes first).
fn statement_end(tokens: &[Token], at: usize, hi: usize) -> usize {
    let mut bal = 0i64;
    for (j, t) in tokens.iter().enumerate().take(hi).skip(at) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => bal += 1,
            ")" | "]" => bal -= 1,
            "}" => {
                bal -= 1;
                if bal < 0 {
                    return j;
                }
            }
            ";" if bal == 0 => return j,
            _ => {}
        }
    }
    hi
}

/// Forward to the `}` closing the block that contains `at`.
fn enclosing_block_end(tokens: &[Token], at: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().take(hi).skip(at) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    hi
}

/// Reads the dotted identifier path ending at the `.` token index `dot`
/// (`self.active.lock()` → `["self", "active"]`; `slots[i].lock()` →
/// `["slots"]`). Returns an empty path for expression receivers.
fn receiver_path(tokens: &[Token], dot: usize, lo: usize) -> Vec<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == lo {
            break;
        }
        let prev = &tokens[j - 1];
        if prev.is_punct("]") {
            // Skip an index expression `[…]`.
            let mut bal = 0i64;
            let mut k = j - 1;
            loop {
                if tokens[k].is_punct("]") {
                    bal += 1;
                } else if tokens[k].is_punct("[") {
                    bal -= 1;
                    if bal == 0 {
                        break;
                    }
                }
                if k == lo {
                    break;
                }
                k -= 1;
            }
            j = k;
            continue;
        }
        if prev.kind == TokenKind::Ident {
            parts.push(prev.text.clone());
            if j >= 2 && tokens[j - 2].is_punct(".") {
                j -= 2;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    parts
}

/// Reads the lock argument of a wrapper call starting after its `(`:
/// `&self.active` → `["self","active"]`, `&slots[i]` → `["slots"]`,
/// `slot` → `["slot"]`. `None` for expression arguments.
fn arg_path(tokens: &[Token], mut i: usize, hi: usize) -> Option<Vec<String>> {
    while i < hi && (tokens[i].is_punct("&") || tokens[i].is_ident("mut")) {
        i += 1;
    }
    let mut parts = Vec::new();
    while i < hi && tokens[i].kind == TokenKind::Ident {
        parts.push(tokens[i].text.clone());
        i += 1;
        if i < hi && tokens[i].is_punct(".") {
            i += 1;
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return None;
    }
    // Anything but `)`, `,`, or an index next means a complex
    // expression we do not model.
    match tokens.get(i) {
        Some(t) if t.is_punct(")") || t.is_punct(",") || t.is_punct("[") => Some(parts),
        _ => None,
    }
}

/// Fully-qualified lock identity for a receiver path, in order of
/// preference: `self.field` via the enclosing impl; a `static Mutex`
/// declared in the same file, same crate, or (if globally unique) any
/// crate; otherwise a function-local lock.
fn resolve_lock(
    path: &[String],
    f: &FnInfo,
    files: &[SourceFile],
    statics: &[StaticLock],
) -> String {
    let file = &files[f.file_idx];
    if path[0] == "self" {
        let owner = f.impl_type.clone().unwrap_or_else(|| "Self".to_string());
        let scope = f.crate_name.clone().unwrap_or_else(|| file.path.clone());
        return format!("{scope}::{owner}::{}", path[1..].join("."));
    }
    let name = &path[0];
    // A fn-local `static NAME` shadows workspace statics.
    let tokens = &file.tokens;
    let end = f.body.1.min(tokens.len());
    let local_static = (f.body.0..end.saturating_sub(1))
        .any(|i| tokens[i].is_ident("static") && tokens[i + 1].is_ident(name));
    if !local_static {
        let same_file: Vec<&StaticLock> = statics
            .iter()
            .filter(|s| s.name == *name && s.file_idx == f.file_idx)
            .collect();
        if let [s] = same_file.as_slice() {
            return s.id.clone();
        }
        let same_crate: Vec<&StaticLock> = statics
            .iter()
            .filter(|s| s.name == *name && s.crate_name == f.crate_name)
            .collect();
        if let [s] = same_crate.as_slice() {
            return s.id.clone();
        }
        let anywhere: Vec<&StaticLock> = statics.iter().filter(|s| s.name == *name).collect();
        if let [s] = anywhere.as_slice() {
            return s.id.clone();
        }
    }
    format!("{}::{}::{}", file.path, f.name, path.join("."))
}

/// Resolves a call target by name: same file first, then unique within
/// the same crate. Ambiguous or foreign names stay unresolved — the
/// propagation is deliberately one level and workspace-local.
fn resolve_callee(name: &str, f: &FnInfo, fns: &[FnInfo], files: &[SourceFile]) -> Option<usize> {
    let same_file: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, g)| g.name == name && g.file_idx == f.file_idx)
        .map(|(i, _)| i)
        .collect();
    if let [i] = same_file.as_slice() {
        return Some(*i);
    }
    let same_crate: Vec<usize> = fns
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            g.name == name && g.crate_name == f.crate_name && files[g.file_idx].crate_name.is_some()
        })
        .map(|(i, _)| i)
        .collect();
    if let [i] = same_crate.as_slice() {
        return Some(*i);
    }
    None
}

/// Edges: `A → B` when `B` is acquired (directly, or inside a callee,
/// one level deep) while `A`'s guard is live.
fn build_edges(files: &[SourceFile], fns: &[FnInfo], locks: &[FnLocks], idx: &mut WorkspaceIndex) {
    for (fi, fl) in locks.iter().enumerate() {
        let f = &fns[fi];
        let file_path = files[f.file_idx].path.clone();
        let func = f.qualified(files);
        for a in &fl.acqs {
            idx.lock_sites.push(LockSite {
                lock: a.lock.clone(),
                func: func.clone(),
                file: file_path.clone(),
                line: a.line,
            });
            for b in &fl.acqs {
                if b.at > a.at && b.at < a.scope_end {
                    idx.lock_edges.push(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        file: file_path.clone(),
                        line: b.line,
                        via: None,
                    });
                }
            }
            for call in &fl.calls {
                if call.at > a.at && call.at < a.scope_end {
                    for inner in &locks[call.callee].acqs {
                        idx.lock_edges.push(LockEdge {
                            from: a.lock.clone(),
                            to: inner.lock.clone(),
                            file: file_path.clone(),
                            line: call.line,
                            via: Some(fns[call.callee].name.clone()),
                        });
                    }
                }
            }
        }
    }
}

/// Deterministic adjacency list over the edge set, for cycle detection.
pub fn lock_graph(edges: &[LockEdge]) -> BTreeMap<&str, Vec<&LockEdge>> {
    let mut g: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        g.entry(e.from.as_str()).or_default().push(e);
    }
    for targets in g.values_mut() {
        targets.sort_by(|a, b| a.to.cmp(&b.to));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> (Vec<SourceFile>, WorkspaceIndex) {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let idx = WorkspaceIndex::build(&parsed);
        (parsed, idx)
    }

    #[test]
    fn counters_are_collected_with_test_flags() {
        let (_, idx) = ws(&[
            (
                "crates/a/src/lib.rs",
                "static HIT: Counter = Counter::new(\"a.hit\");\n\
                 #[cfg(test)]\nmod tests {\n    static T: Counter = Counter::new(\"a.test\");\n}\n",
            ),
            (
                "crates/a/tests/t.rs",
                "static X: Counter = Counter::new(\"a.integration\");\n",
            ),
        ]);
        let names: Vec<(&str, bool)> = idx
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.in_test))
            .collect();
        assert_eq!(
            names,
            [("a.hit", false), ("a.integration", true), ("a.test", true)]
        );
        let vocab = idx.counter_vocabulary();
        assert!(vocab.contains(&"a.hit".to_string()));
        assert!(!vocab.contains(&"a.test".to_string()));
        assert!(vocab.contains(&"trace.events.dropped".to_string()));
    }

    #[test]
    fn exit_arms_merge_code_and_kind() {
        let src = "pub enum HarnessError { A(String), B }\n\
                   impl HarnessError {\n\
                     pub fn exit_code(&self) -> i32 {\n\
                       match self { HarnessError::A(_) => 3, HarnessError::B => 4 }\n\
                     }\n\
                     pub fn kind(&self) -> &'static str {\n\
                       match self { HarnessError::A(_) => \"a\", HarnessError::B => \"b\" }\n\
                     }\n\
                   }\n";
        let (_, idx) = ws(&[("crates/oebench/src/error.rs", src)]);
        assert_eq!(
            idx.exit_file.as_deref(),
            Some("crates/oebench/src/error.rs")
        );
        assert_eq!(idx.exit_arms.len(), 2);
        assert_eq!(idx.exit_arms[0].variant, "A");
        assert_eq!(idx.exit_arms[0].code, Some(3));
        assert_eq!(idx.exit_arms[0].kind.as_deref(), Some("a"));
        assert_eq!(idx.exit_arms[1].code, Some(4));
    }

    #[test]
    fn nested_direct_acquisitions_make_an_edge() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             fn both() {\n    let g = A.lock();\n    let h = B.lock();\n}\n",
        )]);
        assert_eq!(idx.lock_sites.len(), 2);
        assert_eq!(idx.lock_edges.len(), 1);
        assert_eq!(idx.lock_edges[0].from, "a::A");
        assert_eq!(idx.lock_edges[0].to, "a::B");
    }

    #[test]
    fn scoped_guard_makes_no_edge() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             fn seq() {\n    {\n        let g = A.lock();\n    }\n    let h = B.lock();\n}\n",
        )]);
        assert!(idx.lock_edges.is_empty(), "{:?}", idx.lock_edges);
    }

    #[test]
    fn temporary_guard_is_statement_scoped() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "static A: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             fn seq() {\n    A.lock().push(1);\n    let h = B.lock();\n}\n",
        )]);
        assert!(idx.lock_edges.is_empty(), "{:?}", idx.lock_edges);
    }

    #[test]
    fn wrapper_calls_are_acquisitions_of_the_argument() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             fn lock_recover(m: &Mutex<u32>) -> u32 { *m.lock() }\n\
             fn both() {\n    let g = lock_recover(&A);\n    let h = lock_recover(&B);\n}\n",
        )]);
        // The wrapper's own `m.lock()` is not a site; the call sites are.
        assert_eq!(idx.lock_sites.len(), 2, "{:?}", idx.lock_sites);
        assert_eq!(idx.lock_edges.len(), 1);
        assert_eq!(idx.lock_edges[0].from, "a::A");
        assert_eq!(idx.lock_edges[0].to, "a::B");
    }

    #[test]
    fn call_edges_propagate_one_level() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "static A: Mutex<u32> = Mutex::new(0);\n\
             static B: Mutex<u32> = Mutex::new(0);\n\
             fn inner() {\n    let g = B.lock();\n}\n\
             fn outer() {\n    let g = A.lock();\n    inner();\n}\n",
        )]);
        let via: Vec<_> = idx.lock_edges.iter().filter(|e| e.via.is_some()).collect();
        assert_eq!(via.len(), 1, "{:?}", idx.lock_edges);
        assert_eq!(via[0].from, "a::A");
        assert_eq!(via[0].to, "a::B");
        assert_eq!(via[0].via.as_deref(), Some("inner"));
    }

    #[test]
    fn self_field_locks_resolve_via_the_impl() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct Slot { active: Mutex<u32> }\n\
             impl Slot {\n    fn read(&self) -> u32 {\n        *self.active.lock()\n    }\n}\n",
        )]);
        assert_eq!(idx.lock_sites.len(), 1);
        assert_eq!(idx.lock_sites[0].lock, "a::Slot::active");
    }

    #[test]
    fn vocab_rendering_is_stable_and_marked_generated() {
        let (_, idx) = ws(&[(
            "crates/a/src/lib.rs",
            "static H: Counter = Counter::new(\"b.z\");\nstatic I: Counter = Counter::new(\"a.a\");\n",
        )]);
        let text = idx.render_vocab();
        assert!(text.starts_with("//! @generated"));
        let a = text.find("\"a.a\"").unwrap();
        let b = text.find("\"b.z\"").unwrap();
        assert!(a < b, "vocabulary must be sorted");
    }
}
