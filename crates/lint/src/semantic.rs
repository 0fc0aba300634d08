//! Workspace-level semantic rules, consuming the [`WorkspaceIndex`].
//!
//! Where the token rules judge one file at a time, these four rules
//! check contracts that span the workspace: the counter vocabulary
//! must match the construction sites, the exit-code registry must
//! match the documented table, the static lock graph must be acyclic,
//! and every suppression must still have something to suppress.
//!
//! Suppression works exactly as for token rules: each diagnostic is
//! anchored to a source line, and an `// oeb-lint: allow(<rule>)` on
//! that line (or the line above) silences it. Diagnostics anchored in
//! Markdown files (a stale `EXIT_CODES.md` row) cannot be suppressed —
//! the fix is editing the table.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::engine::{check_file_raw, Diagnostic, Severity, SourceFile};
use crate::index::{lock_graph, WorkspaceIndex, SYNTHESIZED_COUNTERS};
use crate::lexer::TokenKind;
use crate::parser::{walk_items, ItemKind};
use crate::{rules, workspace_files};

/// Name, invariant, and hint of each semantic rule, mirroring the shape
/// of [`crate::rules::Rule`] for `oeb-lint rules` output.
pub const SEMANTIC_RULES: &[(&str, &str, &str)] = &[
    (
        "counter-vocab-sync",
        "every counter constructed in library code appears in the generated vocabulary \
         (crates/bench/src/counter_vocab.rs), and every vocabulary entry has a construction site",
        "regenerate with `cargo run -p oeb-lint -- index --emit-vocab`",
    ),
    (
        "exit-code-registry",
        "HarnessError exit codes are dense and unique from 3, every variant has a kind, and \
         the checked-in EXIT_CODES.md table matches the source (README links the table)",
        "update crates/oebench/src/error.rs and EXIT_CODES.md together so codes, kinds, \
         and rows agree",
    ),
    (
        "lock-order",
        "the static lock-acquisition graph (Mutex fields and statics, with one-level \
         call-edge propagation) is free of cycles",
        "acquire locks in one global order, or scope the outer guard so it is dropped \
         before the inner lock is taken",
    ),
    (
        "stale-suppression",
        "every `allow(<rule>)` still has a diagnostic to silence on its line or the \
         line below, and names a rule that exists",
        "delete the stale allow comment (the violation it covered is gone), or fix the \
         rule name",
    ),
];

/// True when `name` is a rule this binary knows — token or semantic.
pub fn is_known_rule(name: &str) -> bool {
    rules::by_name(name).is_some() || SEMANTIC_RULES.iter().any(|(n, _, _)| *n == name)
}

/// A loaded workspace: all files parsed once, the index built once.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    pub index: WorkspaceIndex,
}

impl Workspace {
    /// Walks `root`, parses every workspace file, and builds the index.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for rel in workspace_files(root)? {
            files.push(SourceFile::load(root, &rel)?);
        }
        let index = WorkspaceIndex::build(&files);
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            index,
        })
    }

    /// The full check: token rules per file, semantic rules over the
    /// index, stale-suppression over both — then suppressions applied
    /// and `warn_rules` demoted, sorted by (file, line, col, rule).
    pub fn check(&self, warn_rules: &[String]) -> Vec<Diagnostic> {
        let mut raw: Vec<Diagnostic> = Vec::new();
        for file in &self.files {
            raw.extend(check_file_raw(file));
        }
        raw.extend(self.semantic_raw());
        let stale = self.stale_suppressions(&raw);
        raw.extend(stale);

        let by_path: BTreeMap<&str, &SourceFile> =
            self.files.iter().map(|f| (f.path.as_str(), f)).collect();
        let mut out: Vec<Diagnostic> = raw
            .into_iter()
            .filter(|d| {
                !by_path
                    .get(d.file.as_str())
                    .is_some_and(|f| f.suppressed(d.rule, d.line))
            })
            .map(|mut d| {
                if warn_rules.iter().any(|r| *r == d.rule) {
                    d.severity = Severity::Warn;
                }
                d
            })
            .collect();
        out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
        out
    }

    /// The three index-driven rules, unsuppressed.
    pub fn semantic_raw(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.counter_vocab_sync(&mut out);
        self.exit_code_registry(&mut out);
        self.lock_order(&mut out);
        out
    }

    fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    fn semantic_diag(
        &self,
        rule: &'static str,
        hint: &'static str,
        file: &str,
        line: u32,
        message: String,
    ) -> Diagnostic {
        let snippet = self.file(file).map(|f| f.snippet(line)).unwrap_or_default();
        Diagnostic {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            col: 1,
            message,
            snippet,
            hint,
        }
    }

    // -- counter-vocab-sync -------------------------------------------------

    /// The generated vocabulary and the construction sites must agree
    /// in both directions. Inert until a `counter_vocab.rs` exists —
    /// the contract starts when the generated file is checked in
    /// (deleting it altogether breaks the `trace_check` build instead).
    fn counter_vocab_sync(&self, out: &mut Vec<Diagnostic>) {
        const RULE: &str = "counter-vocab-sync";
        const HINT: &str = "regenerate with `cargo run -p oeb-lint -- index --emit-vocab`";
        let Some(vocab_file) = self
            .files
            .iter()
            .find(|f| f.path.ends_with("/counter_vocab.rs"))
        else {
            return;
        };
        // Entries of `KNOWN_COUNTERS`: the string literals of the const
        // initialiser, each with its line for anchoring orphan reports.
        let mut entries: Vec<(String, u32)> = Vec::new();
        let mut const_line = 1;
        walk_items(&vocab_file.items, &mut |item| {
            if item.kind == ItemKind::Const && item.name == "KNOWN_COUNTERS" {
                const_line = item.start_line;
                if let Some((b0, b1)) = item.body {
                    for t in &vocab_file.tokens[b0..b1.min(vocab_file.tokens.len())] {
                        if t.kind == TokenKind::Literal {
                            entries.push((t.text.trim_matches('"').to_string(), t.line));
                        }
                    }
                }
            }
        });
        let entry_names: BTreeSet<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        let constructed: BTreeSet<String> = self.index.counter_vocabulary().into_iter().collect();

        // Direction 1: constructed but missing from the vocabulary —
        // anchored at the first construction site of each name.
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for site in self.index.counters.iter().filter(|c| !c.in_test) {
            if !entry_names.contains(site.name.as_str()) && reported.insert(&site.name) {
                out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &site.file,
                    site.line,
                    format!(
                        "counter `{}` is constructed here but missing from the generated \
                         vocabulary ({})",
                        site.name, vocab_file.path
                    ),
                ));
            }
        }
        for name in SYNTHESIZED_COUNTERS {
            if !entry_names.contains(name) {
                out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &vocab_file.path,
                    const_line,
                    format!("synthesised counter `{name}` is missing from the vocabulary"),
                ));
            }
        }
        // Direction 2: vocabulary entries with no construction site.
        for (name, line) in &entries {
            if !constructed.contains(name) {
                out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &vocab_file.path,
                    *line,
                    format!("vocabulary entry `{name}` has no construction site in library code"),
                ));
            }
        }
    }

    // -- exit-code-registry -------------------------------------------------

    /// Exit codes must be dense and unique from 3, every variant must
    /// map to a kind, and the checked-in `EXIT_CODES.md` table must
    /// match the source bijectively; the README must link the table.
    /// Inert when no `impl HarnessError` exists in the workspace.
    fn exit_code_registry(&self, out: &mut Vec<Diagnostic>) {
        const RULE: &str = "exit-code-registry";
        const HINT: &str = "update crates/oebench/src/error.rs and EXIT_CODES.md together \
                            so codes, kinds, and rows agree";
        let Some(exit_file) = self.index.exit_file.clone() else {
            return;
        };
        let arms = &self.index.exit_arms;
        let first_line = arms.first().map_or(1, |a| a.line);

        // Source-side: every variant has both a code and a kind.
        for arm in arms {
            if arm.code.is_none() {
                out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &exit_file,
                    arm.line,
                    format!("variant `{}` has no exit_code() arm", arm.variant),
                ));
            }
            if arm.kind.is_none() {
                out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &exit_file,
                    arm.line,
                    format!("variant `{}` has no kind() arm", arm.variant),
                ));
            }
        }
        // Dense and unique from 3.
        let mut codes: Vec<i64> = arms.iter().filter_map(|a| a.code).collect();
        codes.sort_unstable();
        let expect: Vec<i64> = (3..3 + codes.len() as i64).collect();
        if codes != expect {
            out.push(self.semantic_diag(
                RULE,
                HINT,
                &exit_file,
                first_line,
                format!(
                    "exit codes must be dense and unique starting at 3: found {codes:?}, \
                     expected {expect:?}"
                ),
            ));
        }

        // Table-side: EXIT_CODES.md rows `| code | kind | meaning |`.
        let table_path = self.root.join("EXIT_CODES.md");
        let table = match std::fs::read_to_string(&table_path) {
            Ok(t) => t,
            Err(_) => {
                out.push(
                    self.semantic_diag(
                        RULE,
                        HINT,
                        &exit_file,
                        first_line,
                        "EXIT_CODES.md is missing: the exit-code registry must be checked in \
                     next to the source"
                            .to_string(),
                    ),
                );
                return;
            }
        };
        let mut rows: Vec<(i64, String, u32, String)> = Vec::new();
        for (i, line) in table.lines().enumerate() {
            let cells: Vec<&str> = line.trim().trim_matches('|').split('|').collect();
            if cells.len() < 2 {
                continue;
            }
            let Ok(code) = cells[0].trim().parse::<i64>() else {
                continue;
            };
            rows.push((
                code,
                cells[1].trim().to_string(),
                i as u32 + 1,
                line.to_string(),
            ));
        }
        for arm in arms {
            let (Some(code), Some(kind)) = (arm.code, arm.kind.as_deref()) else {
                continue;
            };
            match rows.iter().find(|(c, _, _, _)| *c == code) {
                None => out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &exit_file,
                    arm.line,
                    format!(
                        "exit code {code} (`{kind}`, variant `{}`) has no row in EXIT_CODES.md",
                        arm.variant
                    ),
                )),
                Some((_, row_kind, row_line, row_text)) if row_kind != kind => {
                    out.push(Diagnostic {
                        rule: RULE,
                        severity: Severity::Error,
                        file: "EXIT_CODES.md".to_string(),
                        line: *row_line,
                        col: 1,
                        message: format!(
                            "row for exit code {code} says kind `{row_kind}`, source says \
                             `{kind}`"
                        ),
                        snippet: row_text.trim().to_string(),
                        hint: HINT,
                    });
                }
                Some(_) => {}
            }
        }
        // Typed rows (code >= 3) that no longer exist in the source.
        for (code, kind, line, text) in &rows {
            if *code >= 3 && !arms.iter().any(|a| a.code == Some(*code)) {
                out.push(Diagnostic {
                    rule: RULE,
                    severity: Severity::Error,
                    file: "EXIT_CODES.md".to_string(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "row for exit code {code} (`{kind}`) matches no HarnessError variant"
                    ),
                    snippet: text.trim().to_string(),
                    hint: HINT,
                });
            }
        }
        // The README must point readers at the registry.
        match std::fs::read_to_string(self.root.join("README.md")) {
            Ok(readme) if readme.contains("EXIT_CODES.md") => {}
            Ok(_) => out.push(Diagnostic {
                rule: RULE,
                severity: Severity::Error,
                file: "README.md".to_string(),
                line: 1,
                col: 1,
                message: "README.md never references EXIT_CODES.md".to_string(),
                snippet: String::new(),
                hint: HINT,
            }),
            Err(_) => {}
        }
    }

    // -- lock-order ---------------------------------------------------------

    /// The acquisition graph must be acyclic. Each cycle is reported
    /// once, canonicalised to start at its smallest lock id, and the
    /// diagnostic is anchored at the acquisition that closes the cycle.
    fn lock_order(&self, out: &mut Vec<Diagnostic>) {
        const RULE: &str = "lock-order";
        const HINT: &str = "acquire locks in one global order, or scope the outer guard so it \
                            is dropped before the inner lock is taken";
        let graph = lock_graph(&self.index.lock_edges);
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        for &start in graph.keys() {
            // DFS from each node; a path returning to `start` is a cycle.
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            let mut path: Vec<&str> = vec![start];
            let mut on_path: BTreeSet<&str> = [start].into();
            while let Some(&(node, next)) = stack.last() {
                let edges = graph.get(node).map(Vec::as_slice).unwrap_or_default();
                if next >= edges.len() {
                    on_path.remove(node);
                    path.pop();
                    stack.pop();
                    continue;
                }
                let edge = edges[next];
                if let Some(frame) = stack.last_mut() {
                    frame.1 += 1;
                }
                let to = edge.to.as_str();
                if to == start {
                    // Canonical form: the cycle's node list, rotated so
                    // the smallest id leads; dedup across start nodes.
                    let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    if seen.insert(cycle.clone()) {
                        let mut display = cycle.clone();
                        display.push(cycle[0].clone());
                        out.push(self.semantic_diag(
                            RULE,
                            HINT,
                            &edge.file,
                            edge.line,
                            format!(
                                "lock-order cycle: {}{}",
                                display.join(" -> "),
                                edge.via
                                    .as_deref()
                                    .map(|v| format!(" (closed via call to `{v}`)"))
                                    .unwrap_or_default()
                            ),
                        ));
                    }
                    continue;
                }
                if !on_path.contains(to) {
                    on_path.insert(to);
                    path.push(to);
                    stack.push((to, 0));
                }
            }
        }
    }

    // -- stale-suppression --------------------------------------------------

    /// An `allow` that silences nothing is itself a defect: it hides
    /// the next real violation at that site. `raw` must hold the
    /// unsuppressed token + semantic diagnostics for the workspace.
    pub fn stale_suppressions(&self, raw: &[Diagnostic]) -> Vec<Diagnostic> {
        const RULE: &str = "stale-suppression";
        const HINT: &str = "delete the stale allow comment (the violation it covered is \
                            gone), or fix the rule name";
        let mut out = Vec::new();
        // Pass A: every suppression except allow(stale-suppression),
        // judged against the raw token + semantic diagnostics.
        for file in &self.files {
            for (line, rule) in file.allow_sites() {
                if rule == RULE {
                    continue;
                }
                if !is_known_rule(rule) {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("suppression names unknown rule `{rule}`"),
                    ));
                    continue;
                }
                let covers = raw.iter().any(|d| {
                    d.rule == rule
                        && d.file == file.path
                        && (d.line == *line || d.line == *line + 1)
                });
                if !covers {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("allow({rule}) no longer suppresses anything here"),
                    ));
                }
            }
            for (line, rule) in file.file_allow_sites() {
                if rule == RULE {
                    continue;
                }
                if !is_known_rule(rule) {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("suppression names unknown rule `{rule}`"),
                    ));
                    continue;
                }
                if !raw.iter().any(|d| d.rule == rule && d.file == file.path) {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("allow-file({rule}) no longer suppresses anything in this file"),
                    ));
                }
            }
        }
        // Pass B: allow(stale-suppression) sites are judged against the
        // stale diagnostics pass A just produced — an allow covering a
        // migration-in-progress stays valid exactly while the stale
        // report it silences exists.
        for file in &self.files {
            for (line, rule) in file.allow_sites() {
                if rule != RULE {
                    continue;
                }
                let covers = out
                    .iter()
                    .any(|d| d.file == file.path && (d.line == *line || d.line == *line + 1));
                if !covers {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        "allow(stale-suppression) no longer suppresses anything here".to_string(),
                    ));
                }
            }
        }
        out
    }
}
