//! Helpers shared by the grid workloads: outcome fingerprints, the job
//! conservation check, and mapping the grid profiler's event kinds onto
//! ledger layers.

use crate::ledger::{Ledger, SpanId};
use crate::measure::Fnv;
use crate::Outcome;
use gridsim::grid::{Grid, GridReport};
use gridsim::job::JobOutcome;
use simkit::profile::ProfileReport;
use std::collections::BTreeMap;

/// FNV fingerprint of a grid outcome: the `GridReport` JSON without its
/// records (every aggregate, including the subsystem snapshots), then every
/// per-job record's fields in id order. Hashing the records field by field
/// covers the same content as their JSON at a fraction of the cost, which
/// matters at 185k records a round.
pub fn fingerprint(report: &mut GridReport) -> u64 {
    let records = std::mem::take(&mut report.records);
    let mut h = Fnv::default();
    h.write(
        serde_json::to_string(&*report)
            .expect("report serializes")
            .as_bytes(),
    );
    report.records = records;
    for r in &report.records {
        let outcome = match r.outcome {
            JobOutcome::Completed => 0u8,
            JobOutcome::Unfinished => 1,
            JobOutcome::DeadLettered => 2,
        };
        h.write(&r.spec.id.0.to_le_bytes());
        h.write(&[outcome, r.corrupt_result as u8]);
        for t in [Some(r.submitted), r.started, r.finished] {
            let bits = t.map_or(u64::MAX, |t| t.as_secs_f64().to_bits());
            h.write(&bits.to_le_bytes());
        }
        h.write(r.completed_by.as_deref().unwrap_or("-").as_bytes());
        for x in [r.wasted_cpu_seconds, r.useful_cpu_seconds] {
            h.write(&x.to_bits().to_le_bytes());
        }
        h.write(&r.attempts.to_le_bytes());
        h.write(&r.reissues.to_le_bytes());
    }
    h.0
}

/// Tenancy-rejected submissions (they never become job records).
pub fn rejected(grid: &Grid) -> u64 {
    grid.world().tenant_book().map_or(0, |b| b.rejected_total())
}

/// Conservation: every submitted job ends in exactly one of completed,
/// dead-lettered, tenancy-rejected or in flight, and the report's totals
/// agree with its records. `finished` additionally demands that nothing is
/// left in flight.
pub fn conservation(grid: &Grid, report: &GridReport, finished: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let mut by_outcome = [0usize; 3];
    let mut last_id = None;
    for r in &report.records {
        by_outcome[match r.outcome {
            JobOutcome::Completed => 0,
            JobOutcome::DeadLettered => 1,
            JobOutcome::Unfinished => 2,
        }] += 1;
        if last_id.is_some_and(|prev| prev >= r.spec.id) {
            failures.push(format!(
                "job {:?} recorded twice or out of order",
                r.spec.id
            ));
        }
        last_id = Some(r.spec.id);
    }
    let [completed, dead, unfinished] = by_outcome;
    if (completed, dead, unfinished) != (report.completed, report.dead_lettered, report.unfinished)
    {
        failures.push(format!(
            "records say {completed}/{dead}/{unfinished} completed/dead/in flight, \
             report says {}/{}/{}",
            report.completed, report.dead_lettered, report.unfinished
        ));
    }
    let expected = grid.submissions_expected() as u64;
    let accounted = report.records.len() as u64 + rejected(grid);
    if accounted > expected {
        failures.push(format!(
            "{accounted} jobs accounted for, only {expected} submitted"
        ));
    }
    if finished && (accounted != expected || unfinished != 0) {
        failures.push(format!(
            "{expected} submitted but {completed} completed + {dead} dead-lettered + {} rejected \
             ({unfinished} still in flight)",
            rejected(grid)
        ));
    }
    failures
}

/// Ledger layer (a per-layer metric name) and event-count metric of each
/// grid event kind.
fn kind_layer(kind: &str) -> (&'static str, Option<&'static str>) {
    match kind {
        "submit" => ("grid.submit_busy_s", None),
        "schedule_tick" => ("scheduler.busy_s", Some("scheduler.ticks")),
        "provider_report" => ("mds.busy_s", None),
        "lrm_job_done" => ("lrm.busy_s", None),
        "lrm_interrupt" => ("lrm.busy_s", Some("lrm.interrupts")),
        "boinc_flip" => ("churn.busy_s", Some("churn.flips")),
        "boinc_assign" => ("boinc.assign_busy_s", Some("boinc.assign_events")),
        "boinc_client_done" => ("boinc.result_busy_s", Some("boinc.result_events")),
        "boinc_deadline" => ("boinc.deadline_busy_s", Some("boinc.deadline_events")),
        "retry_release" => ("recovery.busy_s", None),
        "tenant_submit" => ("tenancy.busy_s", None),
        "outage_start" | "outage_end" | "fault" => ("fault.busy_s", None),
        _ => ("grid.other_busy_s", None),
    }
}

/// Charge a profiler report's per-kind handling time to the layers inside
/// event-loop span `span`, and add its per-kind event counts to `events`.
pub fn attribute_profile(
    ledger: &mut Ledger,
    span: SpanId,
    profile: &ProfileReport,
    events: &mut BTreeMap<String, u64>,
) {
    for k in &profile.kinds {
        let (layer, count) = kind_layer(&k.kind);
        ledger.attribute(span, layer, k.seconds);
        if let Some(count) = count {
            *events.entry(count.to_string()).or_default() += k.events;
        }
        *events.entry(format!("events.{}", k.kind)).or_default() += k.events;
    }
}

/// Copy the per-layer metrics the ledger and event counts hold into
/// `outcome` (event counts are also exact counts).
pub fn report_layers(outcome: &mut Outcome, ledger: &Ledger, events: &BTreeMap<String, u64>) {
    for (layer, seconds) in ledger.layer_seconds() {
        outcome.set(layer, seconds);
    }
    for (name, &n) in events {
        if let Some(&(metric, _)) = crate::PER_LAYER.iter().find(|(m, _)| m == name) {
            outcome.set(metric, n as f64);
        }
        outcome.count(name.clone(), n);
    }
}
