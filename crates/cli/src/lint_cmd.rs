//! `gobo lint` — run the workspace invariant checker (gobo-lint).

use std::path::PathBuf;

use crate::cmd::CliError;

const LINT_USAGE: &str = "\
USAGE:
  gobo lint [--root PATH] [--deny-warnings] [--write-catalogs] [--locks]

  --root PATH         workspace root to lint (default: .)
  --deny-warnings     treat warnings (budget slack, dead allowlist
                      entries) as failures — what CI runs
  --write-catalogs    regenerate FAILPOINTS.md, SPANS.md, and LOCKS.md
                      in place instead of checking them for staleness
  --locks             print the instrumented-lock table (name, kind,
                      rank, documented nesting) before the report";

/// Runs `gobo lint`; returns the rendered report.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for bad flags and [`CliError::Failed`]
/// when the lint fails or the workspace cannot be loaded.
pub fn lint(args: &[String]) -> Result<String, CliError> {
    let mut root = PathBuf::from(".");
    let mut deny_warnings = false;
    let mut options = gobo_lint::Options::default();
    let mut show_locks = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next().ok_or_else(|| CliError::Usage("--root needs a path".into()))?,
                );
            }
            "--deny-warnings" => deny_warnings = true,
            "--write-catalogs" => options.write_catalogs = true,
            "--locks" => show_locks = true,
            "--help" | "-h" => return Ok(LINT_USAGE.to_owned()),
            other => {
                return Err(CliError::Usage(format!("unknown lint flag `{other}`\n\n{LINT_USAGE}")))
            }
        }
    }
    let report = gobo_lint::run(&root, options).map_err(CliError::Failed)?;
    let mut rendered = String::new();
    if show_locks {
        let ws = gobo_lint::Workspace::load(&root).map_err(CliError::Failed)?;
        rendered.push_str(&gobo_lint::catalog::render_locks(&ws));
        rendered.push('\n');
    }
    rendered.push_str(&report.render());
    if report.failed(deny_warnings) {
        Err(CliError::Failed(rendered))
    } else {
        Ok(rendered)
    }
}
