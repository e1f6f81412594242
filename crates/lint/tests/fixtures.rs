//! gobo-lint's own test coverage: each rule against a violation
//! fixture, an allowlisted fixture, and a clean fixture (mini
//! workspaces under `tests/fixtures/`), plus a self-check that the
//! live repository passes `--deny-warnings` and that every dependency
//! in its manifests is a path crate.

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

/// The entries of one manifest's dependency tables that are not local.
/// In `[dependencies]`, `[dev-dependencies]` and `[build-dependencies]`,
/// target-specific ones included, an entry must be `{ path = … }` or
/// `{ workspace = true }` (or `name.workspace = true`); in
/// `[workspace.dependencies]` it must be `{ path = … }`. A dotted
/// `[dependencies.name]` table is refused whole.
fn non_local_dependencies(manifest: &str) -> Vec<String> {
    const TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];
    let mut refused = Vec::new();
    // `Some(true)` inside `[workspace.dependencies]`, `Some(false)` in a
    // member's dependency table.
    let mut table = None;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[') {
            let segments: Vec<&str> = header.trim_end_matches(']').split('.').collect();
            let (last, before) = segments.split_last().expect("split yields one segment");
            table = TABLES.contains(last).then(|| before == ["workspace"]);
            if before.iter().any(|s| TABLES.contains(s)) {
                refused.push(line.to_owned());
            }
            continue;
        }
        let (Some(workspace_table), Some((key, value))) = (table, line.split_once('=')) else {
            if table.is_some() && !line.is_empty() {
                refused.push(line.to_owned());
            }
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let fields: Vec<(&str, &str)> = value
            .strip_prefix('{')
            .and_then(|v| v.strip_suffix('}'))
            .map(|v| v.split(',').filter_map(|f| f.split_once('=')).collect())
            .unwrap_or_default();
        let has = |name: &str, want: Option<&str>| {
            fields.iter().any(|(k, v)| k.trim() == name && want.is_none_or(|w| v.trim() == w))
        };
        let inherited =
            key.ends_with(".workspace") && value == "true" || has("workspace", Some("true"));
        if !(has("path", None) || !workspace_table && inherited) {
            refused.push(line.to_owned());
        }
    }
    refused
}

/// Every workspace member's manifest, from the root's `members` list.
fn member_manifests(root: &Path) -> Vec<PathBuf> {
    let text = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = text.lines().find_map(|l| l.trim().strip_prefix("members")).expect("members");
    let mut manifests = Vec::new();
    for member in members.split('"').skip(1).step_by(2) {
        let dirs: Vec<PathBuf> = match member.strip_suffix("/*") {
            Some(parent) => std::fs::read_dir(root.join(parent))
                .expect("member directory")
                .map(|e| e.expect("directory entry").path())
                .collect(),
            None => vec![root.join(member)],
        };
        manifests.extend(dirs.into_iter().map(|d| d.join("Cargo.toml")).filter(|m| m.is_file()));
    }
    manifests.sort();
    manifests
}

/// The workspace builds offline from path crates alone, so a `use` of
/// any crate not in the workspace or under `vendor/` does not compile:
/// the manifests are what is checked.
#[test]
fn every_dependency_is_a_path_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    let manifests = member_manifests(root);
    assert!(manifests.len() >= 20, "only {} member manifests: {manifests:?}", manifests.len());
    for manifest in manifests.iter().chain([&root.join("Cargo.toml")]) {
        let text = std::fs::read_to_string(manifest).expect("manifest");
        let refused = non_local_dependencies(&text);
        assert!(refused.is_empty(), "{}: {refused:?}", manifest.display());
    }
}

/// The manifest check refuses every form of dependency that is not a
/// path crate or inherited from the workspace.
#[test]
fn non_path_dependency_is_refused() {
    for (manifest, line) in [
        ("[dependencies]\nleftpad = \"1\"\n", "leftpad = \"1\""),
        ("[dev-dependencies]\nserde = { version = \"1\" }\n", "serde"),
        ("[build-dependencies]\ncc = { git = \"https://example.invalid/cc\" }\n", "cc"),
        ("[target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n", "libc"),
        ("[workspace.dependencies]\nrand = { workspace = true }\n", "rand"),
        ("[workspace.dependencies]\nrand.workspace = true\n", "rand"),
        ("[dependencies.leftpad]\nversion = \"1\"\n", "[dependencies.leftpad]"),
        ("[dependencies]\nleftpad\n", "leftpad"),
    ] {
        let refused = non_local_dependencies(manifest);
        assert!(refused.iter().any(|r| r.starts_with(line)), "{manifest:?} passed: {refused:?}");
    }
}

/// Path crates and workspace-inherited entries pass the manifest check.
#[test]
fn path_and_workspace_dependencies_pass() {
    let local = "[package]\nname = \"x\"\n[dependencies]\na = { path = \"../a\" }\n\
                 b = { workspace = true }\nc.workspace = true # inherited\n\
                 [workspace.dependencies]\nd = { path = \"d\", features = [\"e\"] }\n";
    assert_eq!(non_local_dependencies(local), Vec::<String>::new());
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
