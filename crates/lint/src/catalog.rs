//! Generated catalogs: `FAILPOINTS.md`, `SPANS.md`, and `LOCKS.md` at
//! the workspace root list every failpoint, span, and instrumented
//! lock defined in production code, with the files that define them.
//! The catalogs are committed; the lint fails when they drift from the
//! source, so the docs can never go stale.

use std::collections::BTreeMap;

use crate::rules::Report;
use crate::source::Workspace;

/// Renders the failpoint catalog from the current sources.
pub fn render_failpoints(ws: &Workspace) -> String {
    render(
        ws,
        "failpoint",
        "# Failpoint catalog",
        "Every `fail_point!` site in production code. Arm failpoints with\n\
         the `GOBO_FAILPOINTS` environment variable or `gobo serve\n\
         --failpoints`; see `crates/fault` for the grammar.",
    )
}

/// Renders the span catalog from the current sources.
pub fn render_spans(ws: &Workspace) -> String {
    render(
        ws,
        "span",
        "# Span catalog",
        "Every `span!` site in production code. `gobo-obs` records spans\n\
         only inside a trace session: `--trace-out trace.json` on `gobo\n\
         quantize` or `gobo serve` writes the session as Chrome trace-event\n\
         JSON, and `gobo trace` quantizes a synthetic model under one; see\n\
         `crates/obs`.",
    )
}

fn render(ws: &Workspace, kind: &str, title: &str, intro: &str) -> String {
    // name -> sorted set of defining files
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, path, _line, _col, k) in crate::rules::collect_names(ws) {
        if k == kind {
            let files = sites.entry(name).or_default();
            if !files.contains(&path) {
                files.push(path);
            }
        }
    }
    let mut out = format!(
        "{title}\n\n\
         <!-- Generated by `gobo lint --write-catalogs`. Do not edit by\n\
         hand: CI regenerates this file and fails if it differs. -->\n\n\
         {intro}\n\n\
         | {kind} | defined in |\n|---|---|\n"
    );
    for (name, mut files) in sites {
        files.sort();
        let files = files.iter().map(|f| format!("`{f}`")).collect::<Vec<_>>().join(", ");
        out.push_str(&format!("| `{name}` | {files} |\n"));
    }
    out
}

/// Renders the lock catalog from the current sources: every
/// instrumented lock, its rank, and its documented nesting, in rank
/// order — the acquisition hierarchy reads top to bottom.
pub fn render_locks(ws: &Workspace) -> String {
    let mut decls = crate::locks::collect_locks(ws);
    decls.sort_by(|a, b| {
        (a.rank.unwrap_or(u64::MAX), a.name.as_str())
            .cmp(&(b.rank.unwrap_or(u64::MAX), b.name.as_str()))
    });
    let mut out = "# Lock catalog\n\n\
         <!-- Generated by `gobo lint --write-catalogs`. Do not edit by\n\
         hand: CI regenerates this file and fails if it differs. -->\n\n\
         Every `SanMutex`/`SanRwLock`/`SanCondvar` in production code,\n\
         in rank order: a thread may only acquire locks of strictly\n\
         increasing rank, so this table top-to-bottom *is* the legal\n\
         acquisition order. `acquires after` lists documented nestings\n\
         (`// ACQUIRES-AFTER:` at the declaration). The order is\n\
         enforced dynamically by `gobo-sanitize` (`GOBO_SANITIZE=1`)\n\
         and statically by `gobo lint` (the `locks` rule).\n\n\
         | lock | kind | rank | acquires after | defined in |\n|---|---|---|---|---|\n"
        .to_owned();
    let mut seen: Vec<&str> = Vec::new();
    for decl in &decls {
        if seen.contains(&decl.name.as_str()) {
            continue;
        }
        seen.push(decl.name.as_str());
        let rank = decl.rank.map_or("—".to_owned(), |r| r.to_string());
        let after = if decl.acquires_after.is_empty() {
            "—".to_owned()
        } else {
            decl.acquires_after.iter().map(|a| format!("`{a}`")).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | `{}` |\n",
            decl.name, decl.kind, rank, after, decl.path
        ));
    }
    out
}

/// Checks all catalogs against the committed files (or rewrites them
/// when `write` is set). Staleness and missing catalogs are errors —
/// the fix is one `gobo lint --write-catalogs` away.
pub fn check_or_write(ws: &Workspace, write: bool, report: &mut Report) {
    for (rel, rendered) in [
        ("FAILPOINTS.md", render_failpoints(ws)),
        ("SPANS.md", render_spans(ws)),
        ("LOCKS.md", render_locks(ws)),
    ] {
        let path = ws.root.join(rel);
        if write {
            if let Err(e) = std::fs::write(&path, &rendered) {
                report.findings.push(crate::rules::Finding {
                    rule: "catalog",
                    severity: crate::rules::Severity::Error,
                    path: rel.to_owned(),
                    line: 0,
                    col: 0,
                    message: format!("cannot write catalog: {e}"),
                });
            }
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(committed) if committed == rendered => {}
            Ok(_) => report.findings.push(crate::rules::Finding {
                rule: "catalog",
                severity: crate::rules::Severity::Error,
                path: rel.to_owned(),
                line: 0,
                col: 0,
                message: "catalog is stale; run `gobo lint --write-catalogs` and commit the result"
                    .to_owned(),
            }),
            Err(e) => report.findings.push(crate::rules::Finding {
                rule: "catalog",
                severity: crate::rules::Severity::Error,
                path: rel.to_owned(),
                line: 0,
                col: 0,
                message: format!(
                    "cannot read catalog ({e}); run `gobo lint --write-catalogs` and commit it"
                ),
            }),
        }
    }
}
