//! The concurrency sanitizer's evidence, as `gobo chaos` prints it after
//! its scenarios when the sanitizer records (`GOBO_SANITIZE=1`): the
//! observed lock-order graph (with the two acquisition sites of every
//! edge), per-lock acquisition statistics, and any reports.

/// What the sanitizer saw since its last reset. An empty edge list is
/// evidence too: the serving stack never held two sanitized locks at
/// once.
pub(crate) fn sanitizer_evidence() -> String {
    let mut edges = gobo_sanitize::lock_order_edges();
    edges.sort_by(|a, b| (&a.held, &a.acquired).cmp(&(&b.held, &b.acquired)));
    let mut out = format!(
        "sanitizer ({:?}) over the scenarios above\nlock-order edges (held -> acquired):\n",
        gobo_sanitize::mode()
    );
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
    out.push_str("lock statistics:\n");
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
    out.push_str("reports:");
    if reports.is_empty() {
        out.push_str(" none\n");
    } else {
        out.push('\n');
        for r in &reports {
            out.push_str(&format!("  {r}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use gobo::pipeline::QuantizeOptions;
    use gobo_serve::SchedulerConfig;

    use super::*;
    use crate::harness::{
        build_model, drive_during, served, start_core, two_workers, Load, Patterns, Verdict, MODEL,
        QUICK_CANARY,
    };

    /// Four client threads encode through the real scheduler while new
    /// revisions are hot-published into the registry: together they take
    /// the serve-side locks of both the fast path and the publish path,
    /// and the evidence shows them, with no report. No failpoint is
    /// armed, so this cannot disturb the other tests in this process.
    #[test]
    fn sanitize_report_runs_clean() {
        gobo_sanitize::enable(gobo_sanitize::Mode::Record);
        gobo_sanitize::reset();
        let options = QuantizeOptions::gobo(3).unwrap();
        let model_a = build_model(0xA, &options).unwrap();
        let model_b = build_model(0xB, &options).unwrap();
        let patterns = Patterns::new(&[&model_a, &model_b]).unwrap();
        let scheduler =
            SchedulerConfig { default_deadline: Duration::from_secs(60), ..two_workers() };
        let client = start_core(&model_a, scheduler, QUICK_CANARY).unwrap();
        let mut refused = None;
        let tally = drive_during(
            Load::fixed(4, 32),
            &patterns,
            |ids| served(&client, ids),
            || {
                for model in [&model_b, &model_a, &model_b, &model_a] {
                    if let Err(e) = client.core().registry().publish(MODEL, model.clone()) {
                        refused = Some(e);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            },
        );
        let mut verdict = Verdict::default();
        verdict.must("every publish is accepted", refused.is_none(), format!("{refused:?}"));
        verdict.clean_load("exercise", &tally);
        verdict.settle("core", client.core());
        assert!(verdict.passed(), "{}", verdict.render());

        let out = sanitizer_evidence();
        assert!(out.contains("lock-order edges"), "{out}");
        assert!(out.contains("lock statistics"), "{out}");
        assert!(out.contains("reports: none"), "{out}");
        // The exercise really took serve-side locks.
        assert!(out.contains("serve.scheduler.state"), "{out}");
        assert!(out.contains("serve.registry.inner"), "{out}");
    }
}
