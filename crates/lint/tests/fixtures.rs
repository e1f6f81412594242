//! gobo-lint's own test coverage: each rule against a violation
//! fixture, an allowlisted fixture, and a clean fixture (mini
//! workspaces under `tests/fixtures/`), plus a self-check that the
//! live repository passes `--deny-warnings`.

use std::path::{Path, PathBuf};

use gobo_lint::{run, Options, Report, Severity};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint(name: &str) -> Report {
    run(&fixture(name), Options::default())
        .unwrap_or_else(|e| panic!("fixture {name} failed to lint: {e}"))
}

/// Error messages from findings of the given rule.
fn rule_errors(report: &Report, rule: &str) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.severity == Severity::Error)
        .map(|f| f.message.clone())
        .collect()
}

#[test]
fn ratchet_only_turns_down() {
    // The ratchet the cast and arithmetic audits share, on the cast
    // audit with one unjustified cast.
    let report = lint("ratchet_violation");
    // budget 5 > baseline 2: hard error even though the live count (1)
    // is under budget...
    let errors = rule_errors(&report, "cast_audit");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("exceeds the frozen baseline"), "{errors:?}");
    // ...and the slack budget draws a ratchet-down warning.
    assert!(
        report.findings.iter().any(|f| f.severity == Severity::Warning
            && f.message.contains("only 1 site(s) remain; ratchet `budget` down")),
        "{}",
        report.render()
    );
}

#[test]
fn unsafe_violation_fixture_fails() {
    // The rule checks atomic orderings only; `// SAFETY:` on `unsafe`
    // is clippy's `undocumented_unsafe_blocks`.
    let report = lint("ordering_violation");
    let messages = rule_errors(&report, "ordering_audit").join("\n");
    assert!(messages.contains("ORDERING:"), "{messages}");
    assert_eq!(rule_errors(&report, "ordering_audit").len(), 1);
}

#[test]
fn unsafe_allowlisted_fixture_passes() {
    let report = lint("ordering_allowlisted");
    assert!(!report.failed(true), "{}", report.render());
}

#[test]
fn naming_violation_fixture_fails() {
    let report = lint("naming_violation");
    let messages = rule_errors(&report, "naming").join("\n");
    for needle in [
        "`requests` is not `gobo_`-prefixed",
        "must end in `_total`",
        "must end in `_us`",
        "`latency_seconds` must match `gobo_*_us`",
        "span name `serve.Batch`",
        "failpoint name `bad..name`",
    ] {
        assert!(messages.contains(needle), "missing {needle:?} in:\n{messages}");
    }
    assert_eq!(rule_errors(&report, "naming").len(), 7);
}

#[test]
fn deps_violation_fixture_fails() {
    let report = lint("deps_violation");
    let messages = rule_errors(&report, "deps").join("\n");
    assert!(messages.contains("`use leftpad::…`"), "{messages}");
}

#[test]
fn deps_allowlisted_fixture_passes() {
    let report = lint("deps_allowlisted");
    assert!(!report.failed(true), "{}", report.render());
}

#[test]
fn clean_fixture_passes_deny_warnings() {
    let report = lint("clean");
    // Every rule section is configured (including [catalogs] against
    // committed FAILPOINTS.md / SPANS.md) and nothing fires.
    assert!(!report.failed(true), "{}", report.render());
    assert_eq!(report.errors() + report.warnings(), 0);
}

#[test]
fn workspace_self_check_passes_deny_warnings() {
    // The live repository must lint clean under its own lint.toml —
    // ratchet budgets honest, catalogs fresh, every ordering
    // justified. CARGO_MANIFEST_DIR is crates/lint, two up is the root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = run(&root, Options::default())
        .unwrap_or_else(|e| panic!("workspace lint failed to run: {e}"));
    assert!(
        !report.failed(true),
        "the repository does not pass its own lint:\n{}",
        report.render()
    );
    // Sanity: this really was the full workspace, not a stray subdir.
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
}

#[test]
fn audit_violation_fixture_fails_both_ratchets() {
    let report = lint("audit_violation");
    assert!(report.failed(false));
    let casts = rule_errors(&report, "cast_audit").join("\n");
    assert!(casts.contains("truncating `as u8` cast"), "{casts}");
    let ariths = rule_errors(&report, "arith_audit").join("\n");
    for needle in ["unchecked `+`", "unchecked `*`", "unchecked `<<`"] {
        assert!(ariths.contains(needle), "missing {needle:?} in:\n{ariths}");
    }
    // One cast + three arith sites + one over-budget summary each.
    assert_eq!(rule_errors(&report, "cast_audit").len(), 2);
    assert_eq!(rule_errors(&report, "arith_audit").len(), 4);
}

#[test]
fn audit_justified_fixture_passes_deny_warnings() {
    // `// CAST:` / `// ARITH:` justifications, `saturating_add`, and
    // `+= 1` bumps in every terminator position count zero sites.
    let report = lint("audit_justified");
    assert!(!report.failed(true), "{}", report.render());
}

#[test]
fn locks_cycle_fixture_fails() {
    let report = lint("locks_cycle");
    let messages = rule_errors(&report, "locks").join("\n");
    for needle in [
        "documented lock-order cycle: app.first -> app.second -> app.first",
        "ranks must strictly increase",
        "`ACQUIRES-AFTER: app.missing` on `app.orphan` references an undeclared lock",
        "lock `app.no_rank` needs a literal integer rank",
        "lock name `BadName` must be lowercase dotted",
    ] {
        assert!(messages.contains(needle), "missing {needle:?} in:\n{messages}");
    }
}

#[test]
fn locks_annotated_exception_fixture_passes() {
    // The deliberate rank inversion is waived by a live `path @ needle`
    // allow entry, so no error and no dead-waiver warning.
    let report = lint("locks_annotated_exception");
    assert!(!report.failed(true), "{}", report.render());
}

#[test]
fn locks_clean_fixture_passes_deny_warnings() {
    let report = lint("locks_clean");
    assert!(!report.failed(true), "{}", report.render());
}

#[test]
fn findings_are_sorted_by_position() {
    // Deterministic output contract: every report comes back ordered
    // by path:line:col regardless of rule emission order.
    for name in ["audit_violation", "locks_cycle", "naming_violation"] {
        let report = lint(name);
        let positions: Vec<_> =
            report.findings.iter().map(|f| (f.path.clone(), f.line, f.col)).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted, "{name} findings out of order");
    }
}
