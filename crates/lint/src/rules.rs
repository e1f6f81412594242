//! The lint rules: atomics-ordering audit, naming discipline, and
//! vendored-dependency hygiene.

use crate::config::Config;
use crate::source::Workspace;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint unconditionally.
    Error,
    /// Fails only under `--deny-warnings`.
    Warning,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that produced the finding.
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Workspace-relative path (empty for workspace-level findings).
    pub path: String,
    /// 1-based line (0 for file- or workspace-level findings).
    pub line: usize,
    /// 1-based column (0 when not meaningful).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn render(&self) -> String {
        let severity = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        if self.path.is_empty() {
            format!("{severity}[{}]: {}", self.rule, self.message)
        } else if self.line == 0 {
            format!("{}: {severity}[{}]: {}", self.path, self.rule, self.message)
        } else {
            format!(
                "{}:{}:{} {severity}[{}]: {}",
                self.path, self.line, self.col, self.rule, self.message
            )
        }
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in rule order then source order.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Number of error findings.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Number of warning findings.
    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warning).count()
    }

    /// Whether the run should fail.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// Renders findings and a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&finding.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "gobo-lint: {} error(s), {} warning(s); {} file(s) scanned",
            self.errors(),
            self.warnings(),
            self.files_scanned,
        ));
        out
    }

    pub(crate) fn error(
        &mut self,
        rule: &'static str,
        path: &str,
        line: usize,
        col: usize,
        message: String,
    ) {
        self.findings.push(Finding {
            rule,
            severity: Severity::Error,
            path: path.to_owned(),
            line,
            col,
            message,
        });
    }

    pub(crate) fn warning(
        &mut self,
        rule: &'static str,
        path: &str,
        line: usize,
        col: usize,
        message: String,
    ) {
        self.findings.push(Finding {
            rule,
            severity: Severity::Warning,
            path: path.to_owned(),
            line,
            col,
            message,
        });
    }
}

/// A per-rule allowlist from `lint.toml`. Entries are either a bare
/// workspace-relative path (waives the whole file) or `path @ needle`
/// (waives findings on lines containing `needle`). Entries that never
/// match anything are reported as warnings — dead waivers hide drift.
pub(crate) struct Allow {
    entries: Vec<(String, Option<String>)>,
    used: Vec<bool>,
}

impl Allow {
    pub(crate) fn new(entries: &[String]) -> Allow {
        let entries: Vec<(String, Option<String>)> = entries
            .iter()
            .map(|e| match e.split_once('@') {
                Some((path, needle)) => (path.trim().to_owned(), Some(needle.trim().to_owned())),
                None => (e.trim().to_owned(), None),
            })
            .collect();
        let used = vec![false; entries.len()];
        Allow { entries, used }
    }

    pub(crate) fn matches(&mut self, path: &str, line_text: &str) -> bool {
        let mut hit = false;
        for (i, (entry_path, needle)) in self.entries.iter().enumerate() {
            if entry_path != path {
                continue;
            }
            match needle {
                None => {
                    self.used[i] = true;
                    hit = true;
                }
                Some(needle) if line_text.contains(needle.as_str()) => {
                    self.used[i] = true;
                    hit = true;
                }
                Some(_) => {}
            }
        }
        hit
    }

    pub(crate) fn warn_dead_entries(&self, rule: &'static str, report: &mut Report) {
        for (i, (path, needle)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                let entry = match needle {
                    Some(n) => format!("{path} @ {n}"),
                    None => path.clone(),
                };
                report.warning(
                    rule,
                    "lint.toml",
                    0,
                    0,
                    format!("allowlist entry `{entry}` matched nothing; remove it"),
                );
            }
        }
    }
}

/// Identifiers that make a following `[` a type, pattern, or attribute
/// rather than an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "union", "unsafe", "use", "where", "while",
    "yield",
];

pub(crate) fn is_index_base(prev: &crate::lexer::Token) -> bool {
    use crate::lexer::TokenKind;
    match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => prev.is_punct(']') || prev.is_punct(')'),
        _ => false,
    }
}

/// Rule 1 — **ordering audit**: every `Ordering::…` use in the
/// configured `ordering_paths` needs an adjacent `// ORDERING:`
/// justification. (`// SAFETY:` on `unsafe` is clippy's
/// `undocumented_unsafe_blocks`, denied workspace-wide.)
pub fn ordering_audit(ws: &Workspace, config: &Config, report: &mut Report) {
    let rule = "ordering_audit";
    let ordering_paths = config.get_list(rule, "ordering_paths").to_vec();
    let mut allow = Allow::new(config.get_list(rule, "allow"));
    const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

    for file in ws.files_under(&ordering_paths) {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in code.iter().enumerate() {
            if file.in_test_region(t.line) {
                continue;
            }
            if t.is_ident("Ordering")
                && code.get(i + 1).is_some_and(|c| c.is_punct(':'))
                && code.get(i + 2).is_some_and(|c| c.is_punct(':'))
                && code.get(i + 3).is_some_and(|o| ORDERINGS.iter().any(|n| o.is_ident(n)))
                && !file.has_adjacent_comment(t.line, "ORDERING:")
                && !allow.matches(&file.rel_path, file.line_text(t.line))
            {
                let which = &code[i + 3].text;
                report.error(
                    rule,
                    &file.rel_path,
                    t.line,
                    t.col,
                    format!("`Ordering::{which}` without an adjacent `// ORDERING:` justification"),
                );
            }
        }
    }
    allow.warn_dead_entries(rule, report);
}

/// Rule 2 — **naming discipline**: the Prometheus metrics schema
/// (checked against the committed golden file) must use `gobo_`-prefixed
/// names, `_total` counters, and `_us` histograms; span and failpoint
/// names must be lowercase dotted identifiers. Catalog staleness is
/// checked separately by [`crate::catalog`].
pub fn naming(ws: &Workspace, config: &Config, report: &mut Report) {
    let rule = "naming";
    // The golden check only runs when the config points at a schema —
    // fixture workspaces without a /metrics endpoint omit the key.
    // `metrics_golden` names one schema; `metrics_goldens` adds more
    // (each tier — serve node, cluster router — pins its own).
    if let Some(golden_rel) = config.get_str(rule, "metrics_golden") {
        check_metrics_golden(ws, golden_rel, report);
    }
    for golden_rel in config.get_list(rule, "metrics_goldens") {
        check_metrics_golden(ws, golden_rel, report);
    }

    // Histogram names at their definition sites.
    for file in &ws.files {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in code.iter().enumerate() {
            if file.in_test_region(t.line) || !t.is_ident("render_prometheus") {
                continue;
            }
            let Some(name) = code.get(i + 2).filter(|n| n.kind == crate::lexer::TokenKind::Str)
            else {
                continue;
            };
            if !(name.text.starts_with("gobo_") && name.text.ends_with("_us")) {
                report.error(
                    rule,
                    &file.rel_path,
                    name.line,
                    name.col,
                    format!("histogram `{}` must match `gobo_*_us`", name.text),
                );
            }
        }
    }

    // Span and failpoint name shape.
    for (name, path, line, col, kind) in collect_names(ws) {
        if !well_formed_name(&name) {
            report.error(
                rule,
                &path,
                line,
                col,
                format!("{kind} name `{name}` must be lowercase dotted (`[a-z0-9_.]`)"),
            );
        }
    }
}

fn check_metrics_golden(ws: &Workspace, golden_rel: &str, report: &mut Report) {
    let rule = "naming";
    match std::fs::read_to_string(ws.root.join(golden_rel)) {
        Err(e) => {
            report.error(rule, golden_rel, 0, 0, format!("cannot read metrics golden: {e}"));
        }
        Ok(golden) => {
            for (idx, line) in golden.lines().enumerate() {
                let Some(rest) = line.strip_prefix("# TYPE ") else {
                    continue;
                };
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    report.error(rule, golden_rel, idx + 1, 1, "malformed # TYPE line".to_owned());
                    continue;
                };
                if !name.starts_with("gobo_") {
                    report.error(
                        rule,
                        golden_rel,
                        idx + 1,
                        1,
                        format!("metric `{name}` is not `gobo_`-prefixed"),
                    );
                }
                if kind == "counter" && !name.ends_with("_total") {
                    report.error(
                        rule,
                        golden_rel,
                        idx + 1,
                        1,
                        format!(
                            "counter `{name}` must end in `_total` (or be re-typed as a gauge)"
                        ),
                    );
                }
                if kind == "histogram" && !name.ends_with("_us") {
                    report.error(
                        rule,
                        golden_rel,
                        idx + 1,
                        1,
                        format!("histogram `{name}` must end in `_us` (microsecond unit suffix)"),
                    );
                }
            }
        }
    }
}

/// Shape rule for span, failpoint, and lock names.
pub(crate) fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        && !name.contains("..")
        && !name.ends_with('.')
}

/// Every `span!("…")` and `fail_point!("…")` literal outside tests:
/// `(name, path, line, col, "span" | "failpoint")`.
pub fn collect_names(ws: &Workspace) -> Vec<(String, String, usize, usize, &'static str)> {
    let mut out = Vec::new();
    for file in &ws.files {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in code.iter().enumerate() {
            let kind = if t.is_ident("span") {
                "span"
            } else if t.is_ident("fail_point") {
                "failpoint"
            } else {
                continue;
            };
            if file.in_test_region(t.line)
                || !code.get(i + 1).is_some_and(|n| n.is_punct('!'))
                || !code.get(i + 2).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            let Some(name) = code.get(i + 3).filter(|n| n.kind == crate::lexer::TokenKind::Str)
            else {
                continue;
            };
            out.push((name.text.clone(), file.rel_path.clone(), name.line, name.col, kind));
        }
    }
    out
}

/// Rule 3 — **vendored-dependency hygiene**: every `use` / `extern
/// crate` root must be the standard library, a workspace crate, or a
/// crate vendored under `vendor/` — the build must never reach for the
/// network.
pub fn deps(ws: &Workspace, config: &Config, report: &mut Report) {
    let rule = "deps";
    let mut allowed: Vec<&str> = ws.local_crates.iter().map(String::as_str).collect();
    let extra = config.get_list(rule, "allow").to_vec();
    allowed.extend(extra.iter().map(String::as_str));
    allowed.extend(["crate", "self", "super", "test"]);

    for file in &ws.files {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        // Edition-2018 uniform paths resolve `use foo::…` to a local
        // `mod foo` in scope; collect this file's module declarations.
        let local_mods: Vec<&str> = code
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_ident("mod")
                    && code.get(i + 1).is_some_and(|n| n.kind == crate::lexer::TokenKind::Ident)
            })
            .map(|(i, _)| code[i + 1].text.as_str())
            .collect();
        for (i, t) in code.iter().enumerate() {
            let root = if t.is_ident("use") {
                // Skip the leading `::` of `use ::foo::…`.
                let mut j = i + 1;
                while code.get(j).is_some_and(|c| c.is_punct(':')) {
                    j += 1;
                }
                code.get(j)
            } else if t.is_ident("extern") && code.get(i + 1).is_some_and(|c| c.is_ident("crate")) {
                code.get(i + 2)
            } else {
                None
            };
            let Some(root) = root.filter(|r| r.kind == crate::lexer::TokenKind::Ident) else {
                continue;
            };
            // `use` inside macro definitions can reference `$metavars`;
            // the ident filter above already skipped those.
            if !allowed.contains(&root.text.as_str()) && !local_mods.contains(&root.text.as_str()) {
                report.error(
                    rule,
                    &file.rel_path,
                    root.line,
                    root.col,
                    format!(
                        "`use {}::…` is not a workspace or vendored crate; vendor it under \
                         vendor/ or drop the dependency",
                        root.text
                    ),
                );
            }
        }
    }
}
