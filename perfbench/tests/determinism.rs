//! The benchmark's own contract test: two runs of one seed repeat every
//! exact count and the outcome fingerprint, every run passes its
//! correctness checks, and the metrics each mode prints are exactly the
//! ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (about two and a half minutes on a 2-core host: every portal-stream run
//! trains a 10⁴-tree forest several times).

use std::process::Command;

struct Run {
    result: serde::Value,
    counts: String,
    fingerprint: String,
}

fn run(workload: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("{workload}: no {prefix:?} line"))
            .to_string()
    };
    let result =
        serde_json::from_str(stdout.lines().last().expect("output")).expect("last line is JSON");
    Run {
        result,
        counts: line("counts "),
        fingerprint: line("fingerprint "),
    }
}

fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

/// Metric names of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the checkout root");
    let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    match field(&doc, list) {
        serde::Value::Seq(items) => items
            .iter()
            .map(|m| match field(m, "name") {
                serde::Value::Str(s) => s.clone(),
                other => panic!("metric name {other:?}"),
            })
            .collect(),
        other => panic!("{list} is {other:?}"),
    }
}

fn reported(run: &Run) -> Vec<String> {
    field(&run.result, "metrics")
        .as_map()
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn assert_correct(workload: &str, run: &Run) {
    assert!(
        matches!(field(&run.result, "correct"), serde::Value::Bool(true)),
        "{workload}: correctness checks failed: {:?}",
        run.result
    );
}

fn assert_repeats(workload: &str, trace: bool) {
    let (a, b) = (run(workload, trace), run(workload, trace));
    for r in [&a, &b] {
        assert_correct(workload, r);
    }
    assert_eq!(
        a.counts, b.counts,
        "{workload}: exact counts differ between runs"
    );
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "{workload}: outcome fingerprint differs"
    );
    let list = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        reported(&a),
        declared(list),
        "{workload}: metrics differ from {list}"
    );
}

#[test]
fn volunteer_pool_repeats_exactly() {
    assert_repeats("volunteer-pool", false);
    assert_repeats("volunteer-pool", true);
}

#[test]
fn service_grid_repeats_exactly() {
    assert_repeats("service-grid", false);
    assert_repeats("service-grid", true);
}

#[test]
fn portal_stream_repeats_exactly() {
    assert_repeats("portal-stream", false);
    let traced = run("portal-stream", true);
    assert_correct("portal-stream", &traced);
    assert_eq!(reported(&traced), declared("per_layer"));
}
