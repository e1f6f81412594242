//! The five fault-arming `gobo chaos` scenarios, through `gobo_cli::run`.
//!
//! They arm process-global failpoints, so they live in their own test
//! binary — alone in its process, where no unit test can be hit by
//! them — and run inside one `#[test]`, one after the other.
//! (`corrupt-model` arms nothing and runs with the unit tests.)

use std::collections::BTreeMap;

/// Every `must` of every scenario, sorted. A check that is dropped,
/// renamed or added shows up here as a diff.
const MUSTS: [(&str, &[&str]); 5] = [
    (
        "worker-panic",
        &[
            "every failure is worker_panic",
            "fault-free core counters obey the conservation laws",
            "fault-free core draining list is empty",
            "fault-free run has no failures",
            "faulted core counters obey the conservation laws",
            "faulted core draining list is empty",
            "faulted run still answers",
            "faulted run within 2x fault-free + 500ms",
            "no byte-mismatches in either run",
            "no failure-class sanitizer report",
            "the fault fails some requests",
            "workers respawned",
        ],
    ),
    (
        "queue-overload",
        &[
            "core counters obey the conservation laws",
            "core draining list is empty",
            "every failure is queue_full or deadline_exceeded",
            "no byte-mismatches",
            "no failure-class sanitizer report",
            "no request hung past its deadline",
            "serves normally once the fault is cleared",
            "some requests are served",
        ],
    ),
    (
        "node-kill",
        &[
            "/metrics says gobo_cluster_node_down 1",
            "a failover or a hedge met the dead node",
            "every routed encode is ok",
            "mark_dead_total counted it",
            "n1 counters obey the conservation laws",
            "n1 draining list is empty",
            "n2 counters obey the conservation laws",
            "n2 draining list is empty",
            "n3 counters obey the conservation laws",
            "n3 draining list is empty",
            "no byte-mismatches",
            "no failure-class sanitizer report",
            "no routed encode fails",
            "the heartbeat marked the victim dead",
            "the victim left the replica set",
            "the whole nominal load was sent",
        ],
    ),
    (
        "network-partition",
        &[
            "a hedge won against the silent primary",
            "mark_alive_total counted it",
            "mark_dead_total counted it",
            "n1 counters obey the conservation laws",
            "n1 draining list is empty",
            "n2 counters obey the conservation laws",
            "n2 draining list is empty",
            "n3 counters obey the conservation laws",
            "n3 draining list is empty",
            "no byte-mismatches",
            "no failure-class sanitizer report",
            "no routed encode fails after the heal",
            "no routed encode fails while partitioned",
            "routed encodes are answered",
            "the healed node was marked alive again",
            "the heartbeat marked the victim dead",
        ],
    ),
    (
        "reload-under-load",
        &[
            "a publish was rejected",
            "baseline load gets answers",
            "baseline load has no byte-mismatches",
            "baseline load has no errors",
            "clients never see the erroring canary",
            "clients never see the slow canary fail",
            "core counters obey the conservation laws",
            "core draining list is empty",
            "draining list empty after the storm",
            "no canary was stuck without a verdict",
            "no failure-class sanitizer report",
            "post-rollback load gets answers",
            "post-rollback load has no byte-mismatches",
            "post-rollback load has no errors",
            "post-rollback p99 within 2x baseline + 10ms",
            "registry.swap fired",
            "storm load gets answers",
            "storm load has no byte-mismatches",
            "storm load has no errors",
            "the erroring canary rolled back",
            "the slow canary rolled back on p95",
            "the storm made >= 50 attempts",
            "the storm published >= 25 revisions",
        ],
    ),
];

/// The scenarios run with the concurrency sanitizer recording: each
/// must also hold "no failure-class sanitizer report", and the report
/// ends with the lock evidence of the serving locks the load and the
/// publish storm took.
#[test]
fn the_fault_arming_scenarios_pass_and_check_what_they_are_pinned_to_check() {
    gobo_sanitize::enable(gobo_sanitize::Mode::Record);
    let mut line: Vec<String> =
        ["chaos", "--requests", "64", "--seed", "7"].map(String::from).into();
    for (scenario, _) in MUSTS {
        line.extend(["--scenario".to_owned(), scenario.to_owned()]);
    }
    let report = gobo_cli::run(&line).unwrap_or_else(|failed| panic!("{failed}"));
    assert!(report
        .ends_with("all chaos scenarios passed: faults degraded service, nothing hung or lied"));
    let (_, evidence) = report.split_once("lock statistics:\n").expect("the sanitizer evidence");
    for lock in ["serve.scheduler.state", "serve.registry.inner"] {
        assert!(evidence.contains(lock), "no acquisition of {lock} in:\n{report}");
    }

    // scenario → the labels of its `[ok]` lines (a `[FAIL]` would have
    // made `run` fail above).
    let mut musts: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut scenario = "";
    for line in report.lines() {
        if let Some(heading) = line.strip_prefix("scenario ") {
            assert!(heading.ends_with(" PASS (degraded, not failed)"), "{line}");
            scenario = heading.split_whitespace().next().expect("a scenario name");
        } else if let Some(must) = line.strip_prefix("  [ok]   ") {
            let (label, _value) = must.split_once(": ").expect("`label: value`");
            musts.entry(scenario).or_default().push(label);
        }
    }
    for (scenario, pinned) in MUSTS {
        let mut found = musts.remove(scenario).unwrap_or_default();
        found.sort_unstable();
        assert_eq!(found, pinned, "the musts of `{scenario}` in:\n{report}");
    }
    assert!(musts.is_empty(), "unexpected scenarios: {musts:?}");
}
