//! The benchmark command.
//!
//! One run (what the benchmark contract invokes):
//!
//! ```text
//! perfbench --workload <cold-mix|wire-zipf|read-write> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! The steadiness command: every workload `N` times with seeds
//! `first, first+1, …`, each in a fresh process, then each metric's
//! median and quartile spread:
//!
//! ```text
//! perfbench --steady <N> [--seconds <s>] [--seed <first>] [--workloads a,b] [--trace 0|1] [--size full|smoke]
//! ```

use std::process::{Command, ExitCode};

use quepa_perfbench::bench::{self, RunArgs};
use quepa_perfbench::plan::{Size, Workload};
use quepa_perfbench::report;
use quepa_perfbench::stats::quartiles;

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    size_name: String,
    steady: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        size: Size::FULL,
        size_name: "full".into(),
        steady: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" | "--workloads" => {
                for name in value()?.split(',') {
                    cli.workloads.push(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
            }
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.max(1),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--steady" => cli.steady = Some(number(value()?)?.max(1) as usize),
            "--size" => {
                let name = value()?;
                cli.size = match name.as_str() {
                    "full" => Size::FULL,
                    "smoke" => Size::SMOKE,
                    other => return Err(format!("unknown size `{other}`")),
                };
                cli.size_name = name.clone();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workloads.is_empty() {
        if cli.steady.is_none() {
            return Err("--workload is required".into());
        }
        cli.workloads = Workload::ALL.to_vec();
    }
    Ok(cli)
}

fn run_once(cli: &Cli) -> ExitCode {
    let args = RunArgs {
        workload: cli.workloads[0],
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        size: cli.size,
        data_dir: bench::default_data_dir(),
    };
    match bench::run(&args) {
        Ok(outcome) => {
            for line in report::lines(&args, &outcome) {
                println!("{line}");
            }
            println!("{}", report::json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload `n` times in fresh processes and prints, per
/// metric, the median, the quartiles and the quartile spread as a share
/// of the median (the figure the bounds in `BENCHMARK.json` are set from).
fn steady(cli: &Cli, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for &workload in &cli.workloads {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..n {
            let seed = cli.seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &cli.seconds.to_string(),
                    "--trace",
                    if cli.trace { "1" } else { "0" },
                ])
                .args(["--size", &cli.size_name])
                .output();
            let output = match output {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!(
                        "{} seed {seed}: exit {}\n{}",
                        workload.name(),
                        o.status,
                        String::from_utf8_lossy(&o.stderr)
                    );
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", workload.name());
                    ok = false;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            let last = text.lines().last().unwrap_or("");
            if !last.contains("\"correct\": true") {
                eprintln!("{} seed {seed}: {last}", workload.name());
                ok = false;
            }
            let figures =
                report::parse_metrics(&text).into_iter().chain(report::parse_references(&text));
            for (name, value, unit) in figures {
                match series.iter_mut().find(|s| s.0 == name) {
                    Some(s) => s.2.push(value),
                    None => series.push((name, unit, vec![value])),
                }
            }
            let counts: Vec<&str> =
                text.lines().filter(|l| l.starts_with("ops ") || l.starts_with("host ")).collect();
            println!("{} seed {seed}: {}", workload.name(), counts.join("; "));
        }
        println!("== {} ({} runs, --seconds {})", workload.name(), n, cli.seconds);
        println!(
            "{:<28} {:>12} {:>12} {:>12} {:>8}  unit  per run",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, unit, values) in &series {
            let (q1, q2, q3) = quartiles(values);
            let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{name:<28} {q2:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.3}  {unit}  {}",
                runs.join(" ")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match cli.steady {
        Some(n) => steady(&cli, n),
        None => run_once(&cli),
    }
}
