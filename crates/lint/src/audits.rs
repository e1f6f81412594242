//! Widened static-audit ratchets: truncating `as`-casts and unchecked
//! arithmetic on untrusted-input parser paths.
//!
//! Both rules share one ratchet (`ratchet` below): sites are counted
//! against a `budget` in `lint.toml` that may only go down, `baseline`
//! freezes the count at introduction, adjacent justification comments
//! (`// CAST:` / `// ARITH:`) waive individual sites, and `path @ needle`
//! allowlist entries waive deliberate ones centrally.

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::rules::{is_index_base, Allow, Report};
use crate::source::Workspace;

/// Integer/float targets a cast can truncate or lose precision into.
/// `usize`/`isize` are deliberately absent: the workspace builds for
/// 64-bit targets, where widening into them is lossless, and the
/// narrowing *out* of them is caught at the `as u32`-style target.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Rule 4 — **cast audit**: every `as` cast to a narrowing target on
/// the configured paths, outside tests, needs an adjacent `// CAST:`
/// justification (or a checked conversion instead of `as`). The
/// remaining unjustified count ratchets down via `budget`/`baseline`.
pub fn cast_audit(ws: &Workspace, config: &Config, report: &mut Report) {
    let rule = "cast_audit";
    let paths = config.get_list(rule, "paths").to_vec();
    let mut allow = Allow::new(config.get_list(rule, "allow"));
    let mut sites: Vec<(String, usize, usize, String)> = Vec::new();

    for file in ws.files_under(&paths) {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in code.iter().enumerate() {
            if !t.is_ident("as") || file.in_test_region(t.line) {
                continue;
            }
            let Some(target) =
                code.get(i + 1).filter(|n| NARROWING_TARGETS.iter().any(|w| n.is_ident(w)))
            else {
                continue;
            };
            if file.has_adjacent_comment(t.line, "CAST:")
                || allow.matches(&file.rel_path, file.line_text(t.line))
            {
                continue;
            }
            sites.push((
                file.rel_path.clone(),
                t.line,
                t.col,
                format!("truncating `as {}` cast", target.text),
            ));
        }
    }

    ratchet(rule, &sites, config, report, "use a checked conversion or justify with `// CAST:`");
    allow.warn_dead_entries(rule, report);
}

/// Rule 5 — **arithmetic audit**: on untrusted-input parser paths,
/// raw `+`, `*`, and `<<` (including their compound assignments) on
/// length-derived values must become `checked_*`/`saturating_*` or
/// carry an adjacent `// ARITH:` bound argument. `+= 1` is exempt: a
/// byte-position increment cannot overflow off an in-memory buffer.
pub fn arith_audit(ws: &Workspace, config: &Config, report: &mut Report) {
    let rule = "arith_audit";
    let paths = config.get_list(rule, "paths").to_vec();
    let mut allow = Allow::new(config.get_list(rule, "allow"));
    let mut sites: Vec<(String, usize, usize, String)> = Vec::new();

    for file in ws.files_under(&paths) {
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in code.iter().enumerate() {
            if file.in_test_region(t.line) {
                continue;
            }
            let what = match t.text.as_str() {
                "+" if t.is_punct('+') && is_binary_operator(&code, i) => {
                    if is_increment_by_one(&code, i) {
                        continue;
                    }
                    "`+`"
                }
                "*" if t.is_punct('*') && is_binary_operator(&code, i) => "`*`",
                "<" if t.is_punct('<') && is_shift_left(&code, i) => {
                    if !is_binary_operator(&code, i) {
                        // `Foo<<T as Trait>::Out>`-style qualified
                        // paths — not a shift.
                        continue;
                    }
                    "`<<`"
                }
                _ => continue,
            };
            if file.has_adjacent_comment(t.line, "ARITH:")
                || allow.matches(&file.rel_path, file.line_text(t.line))
            {
                continue;
            }
            sites.push((
                file.rel_path.clone(),
                t.line,
                t.col,
                format!("unchecked {what} on a parser path"),
            ));
        }
    }

    ratchet(
        rule,
        &sites,
        config,
        report,
        "use `checked_*`/`saturating_*` or justify with `// ARITH:`",
    );
    allow.warn_dead_entries(rule, report);
}

/// Whether the punct at `code[i]` follows an operand (making it a
/// binary operator rather than a unary prefix, generic bracket, or
/// pattern position).
fn is_binary_operator(code: &[&Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| code.get(p)) else {
        return false;
    };
    match prev.kind {
        TokenKind::Ident | TokenKind::Punct => is_index_base(prev),
        TokenKind::Number => true,
        _ => false,
    }
}

/// `code[i]` is a binary `+`; whether it is the exempt `+= 1` form
/// (compound assign by the literal one, terminated immediately — as a
/// statement `;`, a match arm `,`, or a closing block `}`).
fn is_increment_by_one(code: &[&Token], i: usize) -> bool {
    code.get(i + 1).is_some_and(|t| t.is_punct('='))
        && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Number && t.text == "1")
        && code.get(i + 3).is_some_and(|t| t.is_punct(';') || t.is_punct(',') || t.is_punct('}'))
}

/// Whether the `<` at `code[i]` is the first half of an adjacent `<<`
/// pair (same line, touching columns) — a shift, not nested generics,
/// which always have a token between the brackets.
fn is_shift_left(code: &[&Token], i: usize) -> bool {
    code.get(i + 1)
        .is_some_and(|n| n.is_punct('<') && n.line == code[i].line && n.col == code[i].col + 1)
}

/// Shared ratchet accounting: errors past `budget`, a warning when the
/// budget has slack, an error when `budget` exceeds the frozen
/// `baseline`.
fn ratchet(
    rule: &'static str,
    sites: &[(String, usize, usize, String)],
    config: &Config,
    report: &mut Report,
    fix_hint: &str,
) {
    let count = sites.len() as u64;
    let budget = config.get_int(rule, "budget").unwrap_or(0);
    let baseline = config.get_int(rule, "baseline").unwrap_or(budget);
    if budget > baseline {
        report.error(
            rule,
            "lint.toml",
            0,
            0,
            format!(
                "budget {budget} exceeds the frozen baseline {baseline}; the ratchet only turns down"
            ),
        );
    }
    if count > budget {
        for (path, line, col, what) in sites {
            report.error(rule, path, *line, *col, format!("{what}; {fix_hint}"));
        }
        report.error(
            rule,
            "lint.toml",
            0,
            0,
            format!(
                "{count} site(s) exceed the {rule} ratchet budget of {budget}; \
                 burn sites down (or justify deliberate ones) instead of raising the budget"
            ),
        );
    } else if count < budget {
        report.warning(
            rule,
            "lint.toml",
            0,
            0,
            format!("only {count} site(s) remain; ratchet `budget` down from {budget}"),
        );
    }
}
