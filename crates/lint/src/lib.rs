//! gobo-lint: workspace invariant checker for the GOBO codebase.
//!
//! A dependency-free static analysis tool that lexes every workspace
//! crate and enforces the invariants clippy has no lint for:
//!
//! 1. **Ordering audit** ([`rules::ordering_audit`]) — every
//!    relaxed-or-stronger atomic `Ordering` in lock-free code needs a
//!    `// ORDERING:` justification.
//! 2. **Naming discipline** ([`rules::naming`]) — Prometheus metrics
//!    are `gobo_`-prefixed with `_total` counters and `_us` histograms;
//!    span and failpoint names are lowercase dotted identifiers,
//!    cataloged in generated `FAILPOINTS.md` / `SPANS.md`.
//! 3. **Cast audit** ([`audits::cast_audit`]) — truncating `as` casts
//!    outside tests need a `// CAST:` justification or a checked
//!    conversion; the unjustified count ratchets down.
//! 4. **Arithmetic audit** ([`audits::arith_audit`]) — raw `+`/`*`/`<<`
//!    on untrusted-input parser paths must become
//!    `checked_*`/`saturating_*` or carry an `// ARITH:` bound.
//! 5. **Lock order** ([`locks::locks`]) — `SanMutex`/`SanRwLock`
//!    declarations carry literal ranks, `ACQUIRES-AFTER` annotations
//!    must agree with them, and the documented graph stays acyclic;
//!    cataloged in the generated `LOCKS.md`.
//!
//! Panic-freedom on the serving and codec paths and `// SAFETY:` on
//! every `unsafe` are clippy's, and dependency hygiene is the compiler's
//! (every dependency is a path crate; `tests/fixtures.rs` checks the
//! manifests): the paths deny clippy's restriction
//! lints outside `cfg(test)`, and the workspace denies
//! `undocumented_unsafe_blocks` (root `Cargo.toml`, `clippy.toml`).
//!
//! All findings are sorted by `path:line:col` so lint output is
//! deterministic and diffable run to run.
//!
//! The crate also ships [`interleave`], a deterministic explorer that
//! closes a modeled protocol over its reachable states, used by the
//! concurrency audits (`crates/serve/tests/interleave.rs`,
//! `crates/cluster/tests/interleave.rs`) to prove small concurrent
//! protocols correct across every schedule.
//!
//! Run it as `gobo lint` (see `crates/cli`); configuration lives in
//! `lint.toml` at the workspace root.

pub mod audits;
pub mod catalog;
pub mod config;
pub mod interleave;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod source;

pub use config::Config;
pub use rules::{Finding, Report, Severity};
pub use source::{SourceFile, Workspace};

use std::path::Path;

/// Lint run options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Rewrite `FAILPOINTS.md` / `SPANS.md` instead of checking them.
    pub write_catalogs: bool,
}

/// Runs every rule against the workspace at `root`, reading the
/// configuration from `<root>/lint.toml`.
///
/// # Errors
///
/// Returns an error string when the config or workspace cannot be
/// loaded; rule findings are *not* errors here — they come back in the
/// [`Report`].
pub fn run(root: &Path, options: Options) -> Result<Report, String> {
    let config_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("{}: {e}", config_path.display()))?;
    let config = Config::parse(&text).map_err(|e| format!("lint.toml: {e}"))?;
    run_with_config(root, &config, options)
}

/// [`run`] with an already-parsed configuration.
///
/// # Errors
///
/// Returns an error string when the workspace cannot be loaded.
pub fn run_with_config(root: &Path, config: &Config, options: Options) -> Result<Report, String> {
    let ws = Workspace::load(root)?;
    let mut report = Report { files_scanned: ws.files.len(), ..Report::default() };
    rules::ordering_audit(&ws, config, &mut report);
    rules::naming(&ws, config, &mut report);
    audits::cast_audit(&ws, config, &mut report);
    audits::arith_audit(&ws, config, &mut report);
    locks::locks(&ws, config, &mut report);
    // Catalog generation/staleness only applies to workspaces that opt
    // in with a `[catalogs]` section (the real one does; most fixtures
    // do not).
    if config.has_section("catalogs") {
        catalog::check_or_write(&ws, options.write_catalogs, &mut report);
    }
    // Deterministic output: findings in path:line:col order (stable, so
    // equal positions keep rule emission order); workspace-level
    // findings (empty path) sort first.
    report
        .findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    Ok(report)
}
