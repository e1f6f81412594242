//! Static lock-order rule: every `SanMutex`/`SanRwLock` declaration
//! carries a name and a literal rank; `// ACQUIRES-AFTER:` annotations
//! next to declarations document nesting edges that must agree with
//! the ranks. The declared graph is what `gobo-sanitize` enforces
//! dynamically — this rule keeps it well-formed, consistent, and
//! acyclic *before* anything runs, and feeds the generated `LOCKS.md`
//! catalog.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::rules::{well_formed_name, Allow, Report};
use crate::source::Workspace;

/// One instrumented synchronization primitive declaration.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// The lock's registered name (first `new` argument).
    pub name: String,
    /// The declared rank (second argument); `None` for condvars,
    /// which do not participate in the order.
    pub rank: Option<u64>,
    /// `"mutex"`, `"rwlock"`, or `"condvar"`.
    pub kind: &'static str,
    /// Workspace-relative defining file.
    pub path: String,
    /// 1-based declaration line/column (of the name literal).
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Lock names this one is documented to nest under, from adjacent
    /// `// ACQUIRES-AFTER: <name>` comments.
    pub acquires_after: Vec<String>,
}

/// Collects every `SanMutex::new("…", rank, …)` /
/// `SanRwLock::new("…", rank, …)` / `SanCondvar::new("…")` in
/// production code, with any adjacent `ACQUIRES-AFTER` annotations.
pub fn collect_locks(ws: &Workspace) -> Vec<LockDecl> {
    let mut out = Vec::new();
    for file in &ws.files {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in code.iter().enumerate() {
            let kind = if t.is_ident("SanMutex") {
                "mutex"
            } else if t.is_ident("SanRwLock") {
                "rwlock"
            } else if t.is_ident("SanCondvar") {
                "condvar"
            } else {
                continue;
            };
            // Match `<Type> :: new ( "<name>"` — anything else (the
            // wrapper definitions themselves, generic uses) is not a
            // declaration site.
            if file.in_test_region(t.line)
                || !code.get(i + 1).is_some_and(|c| c.is_punct(':'))
                || !code.get(i + 2).is_some_and(|c| c.is_punct(':'))
                || !code.get(i + 3).is_some_and(|c| c.is_ident("new"))
                || !code.get(i + 4).is_some_and(|c| c.is_punct('('))
            {
                continue;
            }
            let Some(name) = code.get(i + 5).filter(|n| n.kind == TokenKind::Str) else {
                continue;
            };
            // `, <integer rank>` for the lock types.
            let rank = if kind == "condvar" {
                None
            } else {
                code.get(i + 6)
                    .filter(|c| c.is_punct(','))
                    .and_then(|_| code.get(i + 7))
                    .filter(|r| r.kind == TokenKind::Number)
                    .and_then(|r| r.text.replace('_', "").parse::<u64>().ok())
            };
            out.push(LockDecl {
                name: name.text.clone(),
                rank,
                kind,
                path: file.rel_path.clone(),
                line: name.line,
                col: name.col,
                acquires_after: adjacent_acquires_after(file, t.line),
            });
        }
    }
    out
}

/// `ACQUIRES-AFTER: <name>` entries from the trailing comment on
/// `line` or the contiguous comment block directly above it (blank
/// lines and attributes do not break the block; other code does) —
/// the same adjacency contract as `// SAFETY:`.
fn adjacent_acquires_after(file: &crate::source::SourceFile, line: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut scan = |l: usize| {
        for tok in &file.tokens {
            if tok.kind == TokenKind::Comment && tok.line <= l && last_line_of_comment(tok) >= l {
                for text_line in tok.text.lines() {
                    if let Some(rest) = text_line.split("ACQUIRES-AFTER:").nth(1) {
                        let name = rest.trim().trim_end_matches('.').to_owned();
                        if !name.is_empty() {
                            names.push(name);
                        }
                    }
                }
            }
        }
    };
    scan(line);
    let code_on = |l: usize| {
        file.tokens
            .iter()
            .any(|t| t.kind != TokenKind::Comment && t.line <= l && last_line_of_comment(t) >= l)
    };
    let mut l = line;
    while l > 1 {
        l -= 1;
        let text = file.line_text(l).trim();
        if text.is_empty() {
            continue;
        }
        if code_on(l) {
            if text.starts_with('#') {
                continue; // pure-attribute line
            }
            break;
        }
        scan(l);
    }
    names.sort();
    names.dedup();
    names
}

fn last_line_of_comment(t: &crate::lexer::Token) -> usize {
    t.line + t.text.matches('\n').count()
}

/// Rule 6 — **locks**: declared lock names must be lowercase dotted
/// and carry literal ranks; a name declared twice must keep one rank;
/// every `ACQUIRES-AFTER: a` on lock `b` must satisfy
/// `rank(a) < rank(b)` and reference a declared lock; and the
/// documented nesting graph must be acyclic. `allow` entries
/// (`path @ needle`) waive deliberate rank exceptions.
pub fn locks(ws: &Workspace, config: &Config, report: &mut Report) {
    let rule = "locks";
    let mut allow = Allow::new(config.get_list(rule, "allow"));
    let decls = collect_locks(ws);

    let mut ranks: BTreeMap<&str, (u64, &LockDecl)> = BTreeMap::new();
    for decl in &decls {
        if !well_formed_name(&decl.name) {
            report.error(
                rule,
                &decl.path,
                decl.line,
                decl.col,
                format!("lock name `{}` must be lowercase dotted (`[a-z0-9_.]`)", decl.name),
            );
        }
        let Some(rank) = decl.rank else {
            if decl.kind != "condvar" {
                report.error(
                    rule,
                    &decl.path,
                    decl.line,
                    decl.col,
                    format!(
                        "lock `{}` needs a literal integer rank as the second argument",
                        decl.name
                    ),
                );
            }
            continue;
        };
        match ranks.get(decl.name.as_str()) {
            Some((prior, first)) if *prior != rank => {
                report.error(
                    rule,
                    &decl.path,
                    decl.line,
                    decl.col,
                    format!(
                        "lock `{}` declared with rank {rank} here but rank {prior} at {}:{}; \
                         one name, one rank",
                        decl.name, first.path, first.line
                    ),
                );
            }
            Some(_) => {}
            None => {
                ranks.insert(decl.name.as_str(), (rank, decl));
            }
        }
    }

    // Documented nesting edges must agree with the ranks.
    let mut edges: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for decl in &decls {
        for after in &decl.acquires_after {
            let file_line = ws
                .files
                .iter()
                .find(|f| f.rel_path == decl.path)
                .map_or("", |f| f.line_text(decl.line));
            let Some((after_rank, _)) = ranks.get(after.as_str()) else {
                if !allow.matches(&decl.path, file_line) {
                    report.error(
                        rule,
                        &decl.path,
                        decl.line,
                        decl.col,
                        format!(
                            "`ACQUIRES-AFTER: {after}` on `{}` references an undeclared lock",
                            decl.name
                        ),
                    );
                }
                continue;
            };
            edges.entry(after.as_str()).or_default().push(decl.name.as_str());
            let Some((rank, _)) = ranks.get(decl.name.as_str()) else { continue };
            if after_rank >= rank && !allow.matches(&decl.path, file_line) {
                report.error(
                    rule,
                    &decl.path,
                    decl.line,
                    decl.col,
                    format!(
                        "`{}` (rank {rank}) is documented to be acquired after `{after}` \
                         (rank {after_rank}) — ranks must strictly increase down the \
                         acquisition order",
                        decl.name
                    ),
                );
            }
        }
    }

    // Cycle check over the documented graph. Consistent strict ranks
    // cannot cycle, but rank errors above may coexist with a cycle —
    // report it explicitly so the fix addresses the order, not just
    // the numbers.
    if let Some(cycle) = find_cycle(&edges) {
        report.error(
            rule,
            "",
            0,
            0,
            format!("documented lock-order cycle: {}", cycle.join(" -> ")),
        );
    }

    allow.warn_dead_entries(rule, report);
}

/// DFS cycle detection over the `ACQUIRES-AFTER` edge graph; returns
/// the first cycle found as a name path (closing node repeated).
fn find_cycle(edges: &BTreeMap<&str, Vec<&str>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Visiting,
        Done,
    }
    let mut state: BTreeMap<&str, State> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();

    fn visit<'a>(
        node: &'a str,
        edges: &BTreeMap<&'a str, Vec<&'a str>>,
        state: &mut BTreeMap<&'a str, State>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        match state.get(node) {
            Some(State::Done) => return None,
            Some(State::Visiting) => {
                let start = stack.iter().position(|&n| n == node).unwrap_or(0);
                let mut cycle: Vec<String> = stack
                    .get(start..)
                    .unwrap_or_default()
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect();
                cycle.push(node.to_owned());
                return Some(cycle);
            }
            None => {}
        }
        state.insert(node, State::Visiting);
        stack.push(node);
        for next in edges.get(node).map_or(&[][..], Vec::as_slice) {
            if let Some(cycle) = visit(next, edges, state, stack) {
                return Some(cycle);
            }
        }
        stack.pop();
        state.insert(node, State::Done);
        None
    }

    for node in edges.keys() {
        if let Some(cycle) = visit(node, edges, &mut state, &mut stack) {
            return Some(cycle);
        }
    }
    None
}
