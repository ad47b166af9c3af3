//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <volunteer-pool|service-grid|portal-stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this (fresh) process. Inputs come
//! from `--seed` only; `--seconds` sizes how much work the run does so it
//! measures for about that long on a 2-core x86-64 host. Every operation is
//! checked (job conservation, portal outcomes, run-to-run determinism) and
//! a failed check counts the operation as failed.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer ledger (and writes a Chrome trace
//! under `.perfbench_run/`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The lines before
//! it print every metric by name and unit, the exact simulated counts, and
//! the outcome fingerprint.

mod gridwork;
mod ledger;
mod measure;
mod portal_stream;
mod service_grid;
mod volunteer_pool;

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name, unit. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wu_per_s", "1/s"),
    ("submit_p50_s", "s"),
    ("submit_tail_s", "s"),
];

/// The `submit_tail_s` percentile. Runs hold 8–12 latency samples (see
/// `README.md`), so p75 is the highest percentile with at least two
/// samples beyond it in every workload.
pub const TAIL: f64 = 0.75;

/// Per-layer metrics (`--trace 1`): name, unit. A workload that bypasses a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("calendar.events", "count"),
    ("calendar.events_per_s", "1/s"),
    ("calendar.busy_s", "s"),
    ("scheduler.busy_s", "s"),
    ("scheduler.ticks", "count"),
    ("grid.dispatches", "count"),
    ("boinc.assign_busy_s", "s"),
    ("boinc.assign_events", "count"),
    ("boinc.result_busy_s", "s"),
    ("boinc.result_events", "count"),
    ("boinc.deadline_busy_s", "s"),
    ("boinc.deadline_events", "count"),
    ("boinc.reissues", "count"),
    ("boinc.useful_cpu_frac", "fraction"),
    ("churn.busy_s", "s"),
    ("churn.flips", "count"),
    ("mds.busy_s", "s"),
    ("lrm.busy_s", "s"),
    ("lrm.interrupts", "count"),
    ("recovery.busy_s", "s"),
    ("fault.busy_s", "s"),
    ("grid.other_busy_s", "s"),
    ("grid.dead_lettered", "count"),
    ("grid.build_s", "s"),
    ("grid.submit_busy_s", "s"),
    ("grid.report_s", "s"),
    ("grid.rss_bytes_per_wu", "B"),
    ("telemetry.cost_s", "s"),
    ("telemetry.export_s", "s"),
    ("tenancy.busy_s", "s"),
    ("tenancy.rejected", "count"),
    ("quorum.replicas_per_result", "ratio"),
    ("flow.deadline_misses", "count"),
    ("data.cache_hit_rate", "fraction"),
    ("service.pump_s", "s"),
    ("snapshot.bytes", "B"),
    ("snapshot.encode_s", "s"),
    ("snapshot.write_s", "s"),
    ("snapshot.read_s", "s"),
    ("snapshot.decode_s", "s"),
    ("checkpoint_s", "s"),
    ("resume_s", "s"),
    ("phylo.cells", "count"),
    ("phylo.cells_per_s.nucleotide", "1/s"),
    ("phylo.cells_per_s.aminoacid", "1/s"),
    ("phylo.cells_per_s.codon", "1/s"),
    ("phylo.pmatrix_s.nucleotide", "s"),
    ("phylo.pmatrix_s.aminoacid", "s"),
    ("phylo.pmatrix_s.codon", "s"),
    ("garli.search_s", "s"),
    ("garli.generations", "count"),
    ("garli.validate_s", "s"),
    ("garli_gens_per_s", "1/s"),
    ("forest.rebuild_s", "s"),
    ("forest.predict_s", "s"),
    ("portal.archive_s", "s"),
    ("pipeline.grid_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Target measurement time; sizes the run's work.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <volunteer-pool|service-grid|portal-stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value for {flag}: {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run (rounds or portal submissions).
    pub attempted: u64,
    /// Operations with at least one failed correctness check.
    pub failed: u64,
    /// Metric values by name (units come from the catalogues).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact simulated counts; identical across runs of one seed.
    pub counts: BTreeMap<String, u64>,
    /// FNV fingerprint of the simulated outcome; identical across runs of
    /// one seed.
    pub fingerprint: u64,
}

impl Outcome {
    /// Record one operation and the checks it failed (empty = passed).
    pub fn operation(&mut self, label: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("perfbench: FAILED {label}: {f}");
            }
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set an exact count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.insert(name.into(), value);
    }
}

/// Render the final JSON line for the metrics in `catalogue`.
fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "volunteer-pool" => volunteer_pool::run,
        "service-grid" => service_grid::run,
        "portal-stream" => portal_stream::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        for &(name, _) in END_TO_END {
            assert!(
                outcome.metrics.contains_key(name),
                "{} did not measure {name}",
                args.workload
            );
        }
    }
    // A non-finite value is a broken measurement, not a number to report.
    for &(name, _) in catalogue {
        if let Some(v) = outcome.metrics.get_mut(name).filter(|v| !v.is_finite()) {
            eprintln!("perfbench: FAILED metric {name} is not finite");
            *v = 0.0;
            outcome.failed = outcome.failed.max(1);
        }
    }

    let mode = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "{} seed={} seconds={} ({mode})",
        args.workload, args.seed, args.seconds
    );
    for &(name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {value:>18.6} {unit}");
    }
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("counts {{{}}}", counts.join(", "));
    println!("fingerprint {:016x}", outcome.fingerprint);
    println!("{}", result_line(&outcome, catalogue));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "service-grid",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "service-grid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.operation("op", vec![]);
        o.set("setup_s", 0.25);
        let line = result_line(&o, END_TO_END);
        let doc: serde::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
