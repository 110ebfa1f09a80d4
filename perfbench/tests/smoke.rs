//! The smoke size of the benchmark command: every workload end to end,
//! checks included, with and without the layer trace, in seconds. Each
//! run must pass its checks, fail no operation and report exactly the
//! metrics `BENCHMARK.json` names for its mode.

use std::path::PathBuf;

use quepa_perfbench::bench::{self, RunArgs};
use quepa_perfbench::plan::{Size, Workload};
use quepa_perfbench::report;

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|part| part.split('"').nth(1).map(str::to_owned))
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{trace}", workload.name()));
    let args = RunArgs { workload, seed: 3, seconds: 1, trace, size: Size::SMOKE, data_dir: dir };
    let outcome = bench::run(&args).expect("the run sets up");
    assert!(outcome.failures.is_empty(), "{}: {:?}", workload.name(), outcome.failures);
    assert!(outcome.ops.iter().all(|o| o.failed == 0 && o.attempted > 0), "{:?}", outcome.ops);
    let mut names: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_owned()).collect();
    let mut expected = declared(if trace { "per_layer" } else { "end_to_end" });
    names.sort();
    expected.sort();
    assert_eq!(names, expected, "{} trace={trace}", workload.name());
    let json = report::json(&outcome);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
    let lines = report::lines(&args, &outcome);
    assert_eq!(report::parse_metrics(&lines.join("\n")).len(), outcome.metrics.len());
}

#[test]
fn cold_mix_runs_end_to_end() {
    smoke(Workload::ColdMix, false);
}

#[test]
fn wire_zipf_runs_end_to_end() {
    smoke(Workload::WireZipf, false);
}

#[test]
fn read_write_runs_end_to_end() {
    smoke(Workload::ReadWrite, false);
}

#[test]
fn cold_mix_trace_reports_every_layer() {
    smoke(Workload::ColdMix, true);
}

#[test]
fn wire_zipf_trace_reports_every_layer() {
    smoke(Workload::WireZipf, true);
}

#[test]
fn read_write_trace_reports_every_layer() {
    smoke(Workload::ReadWrite, true);
}
