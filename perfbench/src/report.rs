//! The run's printed report: human-readable lines, then the one JSON
//! object the benchmark contract reads from the last line.

use std::fmt::Write as _;

use crate::bench::{Outcome, RunArgs};
use crate::sys;

/// Lines that precede the JSON: the run's identity, per operation type
/// accounting, the host's steal over the timed phases, check failures,
/// every metric as `metric <name> <value> <unit>`, and the reference
/// figures as `reference <name> <value> <unit>`.
pub fn lines(args: &RunArgs, outcome: &Outcome) -> Vec<String> {
    let mut out = vec![format!(
        "run workload={} seed={} seconds={} trace={} albums={} nproc={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.albums,
        sys::nproc(),
        sys::commit(),
    )];
    for op in &outcome.ops {
        out.push(format!("ops {} attempted={} failed={}", op.name, op.attempted, op.failed));
    }
    out.push(format!("host steal_ticks={} (all CPUs, timed phases)", outcome.steal_ticks));
    for failure in &outcome.failures {
        out.push(format!("check FAILED: {failure}"));
    }
    for m in &outcome.metrics {
        out.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }
    for m in &outcome.references {
        out.push(format!("reference {} {} {}", m.name, m.value, m.unit));
    }
    out
}

/// The final JSON line.
pub fn json(outcome: &Outcome) -> String {
    let attempted: u64 = outcome.ops.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcome.ops.iter().map(|o| o.failed).sum();
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        outcome.failures.is_empty() && finite
    )
}

/// Parses the `metric` lines of a report back into `(name, value, unit)`.
pub fn parse_metrics(report: &str) -> Vec<(String, f64, String)> {
    parse_lines(report, "metric ")
}

/// Parses the `reference` lines of a report, as `parse_metrics` does.
pub fn parse_references(report: &str) -> Vec<(String, f64, String)> {
    parse_lines(report, "reference ")
}

fn parse_lines(report: &str, prefix: &str) -> Vec<(String, f64, String)> {
    report
        .lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix(prefix)?.split(' ');
            let name = parts.next()?.to_owned();
            let value = parts.next()?.parse().ok()?;
            Some((name, value, parts.next().unwrap_or("").to_owned()))
        })
        .collect()
}
