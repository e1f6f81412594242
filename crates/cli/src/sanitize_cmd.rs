//! `gobo sanitize-report`: a built-in serve exercise with the
//! concurrency sanitizer recording, followed by a human-readable dump
//! of what it saw — the observed lock-order graph (with the two
//! acquisition sites of every edge), per-lock acquisition statistics,
//! and any reports. Exits non-zero when a failure-class report
//! (cycle, recursive acquisition, condvar misuse, blocking I/O under
//! a lock) was recorded, so the command doubles as a CI smoke check.

use std::time::Duration;

use gobo::pipeline::QuantizeOptions;
use gobo_serve::SchedulerConfig;

use crate::cmd::{failed, Args, CliError};
use crate::harness::{
    build_model, drive_during, served, start_core, two_workers, Load, Patterns, Verdict, MODEL,
    QUICK_CANARY,
};

/// `gobo sanitize-report`: run the exercise, render the evidence.
pub(crate) fn sanitize_report(args: &Args) -> Result<String, CliError> {
    let requests: usize = args.parse_num("requests", 400)?.max(16);
    let seed: u64 = args.parse_num("seed", 0)?;
    let watchdog_ms: u64 = args.parse_num("watchdog-ms", 0)?;

    gobo_sanitize::enable(gobo_sanitize::Mode::Record);
    if watchdog_ms > 0 {
        gobo_sanitize::set_watchdog(Duration::from_millis(watchdog_ms));
    }
    gobo_sanitize::reset();

    let (sent, publishes) = exercise(requests, seed)?;

    let mut out = format!(
        "gobo-sanitize report — mode record\n\
         exercise: {sent} encode requests across 4 client threads, \
         {publishes} hot republishes, scheduler with 2 workers\n\n"
    );

    let mut edges = gobo_sanitize::lock_order_edges();
    edges.sort_by(|a, b| (&a.held, &a.acquired).cmp(&(&b.held, &b.acquired)));
    out.push_str("lock-order edges (held -> acquired):\n");
    if edges.is_empty() {
        out.push_str("  none recorded\n");
    }
    for e in &edges {
        out.push_str(&format!(
            "  {} -> {}  x{}  [thread {}]\n    held at {}, acquired at {}\n",
            e.held, e.acquired, e.count, e.thread, e.held_site, e.acquired_site
        ));
    }

    let mut stats = gobo_sanitize::lock_stats();
    stats.sort_by(|a, b| (a.rank, &a.name).cmp(&(b.rank, &b.name)));
    out.push_str("\nlock statistics:\n");
    if stats.is_empty() {
        out.push_str("  none recorded\n");
    }
    for s in &stats {
        out.push_str(&format!(
            "  {:<28} rank {:>3}  acq {:>7}  contended {:>5}  \
             hold mean {:>5}us max {:>6}us  wait mean {:>5}us max {:>6}us\n",
            s.name,
            s.rank,
            s.acquisitions,
            s.contended,
            s.hold_us.mean(),
            s.hold_us.max,
            s.wait_us.mean(),
            s.wait_us.max
        ));
    }

    let reports = gobo_sanitize::reports();
    out.push_str("\nreports:");
    if reports.is_empty() {
        out.push_str(" none\n");
    } else {
        out.push('\n');
        for r in &reports {
            out.push_str(&format!("  {r}\n"));
        }
    }

    let failures = reports.iter().filter(|r| r.kind.is_failure()).count();
    if failures > 0 {
        Err(CliError::Failed(format!("{out}{failures} failure-class sanitizer report(s)")))
    } else {
        Ok(out)
    }
}

/// The built-in workload: four client threads hammer one model slot
/// through the real scheduler while new revisions are hot-republished
/// into the registry — together they take every serve-side lock on
/// both the fast path and the publish path. Returns the requests sent
/// and the revisions published.
fn exercise(requests: usize, seed: u64) -> Result<(usize, usize), CliError> {
    let options = QuantizeOptions::gobo(3).map_err(failed)?;
    let model_a = build_model(seed ^ 0xA, &options)?;
    let model_b = build_model(seed ^ 0xB, &options)?;
    let patterns = Patterns::new(&[&model_a, &model_b])?;
    let scheduler = SchedulerConfig { default_deadline: Duration::from_secs(60), ..two_workers() };
    let client = start_core(&model_a, scheduler, QUICK_CANARY)?;

    // Publish alternating canary revisions while the load runs, so the
    // canary verdict path (lifecycle windows, registry promote) runs
    // against the encode fast path. An empty edge list in the output
    // is itself evidence: the serving stack never holds two sanitized
    // locks at once (e.g. the lifecycle drops its window lock before
    // promoting through the registry).
    let mut publishes = 0usize;
    let mut refused = None;
    let tally = drive_during(
        Load::fixed(4, requests),
        &patterns,
        |ids| served(&client, ids),
        || {
            for i in 0..8usize {
                let model = if i.is_multiple_of(2) { &model_b } else { &model_a };
                match client.core().registry().publish(MODEL, model) {
                    Ok(_) => publishes += 1,
                    Err(e) => refused = Some(e),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        },
    );
    let mut verdict = Verdict::default();
    verdict.must("every publish is accepted", refused.is_none(), format!("{refused:?}"));
    verdict.clean_load("exercise", &tally);
    verdict.settle("core", client.core());
    if !verdict.passed() {
        return Err(CliError::Failed(format!("the exercise itself failed:\n{}", verdict.render())));
    }
    Ok((tally.sent(), publishes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_report_runs_clean() {
        let args = Args::parse(&["--requests".to_owned(), "32".to_owned()]).unwrap();
        let out = sanitize_report(&args).unwrap();
        assert!(out.contains("lock-order edges"), "{out}");
        assert!(out.contains("lock statistics"), "{out}");
        assert!(out.contains("reports: none"), "{out}");
        // The exercise really took serve-side locks.
        assert!(out.contains("serve.scheduler.state"), "{out}");
        assert!(out.contains("serve.registry.inner"), "{out}");
    }
}
