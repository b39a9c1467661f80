//! # snap-benchmark — the repo's benchmark of record
//!
//! ```text
//! snap-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--append FILE]
//! snap-benchmark compare BASE.jsonl CHANGE.jsonl
//! snap-benchmark describe            # prints BENCHMARK.json
//! ```
//!
//! One process runs the named workload (default: all five, one after the
//! other), prints every metric by name and unit, checks the program's
//! outputs against `snap_lang::eval` and its own injection ledger, writes
//! `out/result-<workload>[-traced].json` (and, traced,
//! `out/trace-<workload>.json`), and prints the result object the driver
//! reads as the last line of stdout. It exits non-zero if any operation
//! failed. See README.md for what each workload and metric is for.

mod fleet;
mod gen;
mod layers;
mod metrics;
mod report;
mod run;
mod scenario;
mod stats;
mod trace;

use scenario::{Workload, WORKLOADS};
use std::io::Write as _;
use std::process::ExitCode;

/// Where result and trace files go: `out/` beside this package's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workloads: Vec<&'static Workload>,
    options: run::Options,
    append: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: snap-benchmark [--workload {}|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--append FILE]\n       snap-benchmark compare BASE CHANGE\n       snap-benchmark describe",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        options: run::Options {
            seed: 7,
            seconds: f64::from(report::RUN_SECONDS),
            trace: false,
            smoke: false,
        },
        append: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let workload = Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    parsed.workloads = vec![workload];
                }
            }
            "--seed" => {
                parsed.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                parsed.options.seconds = seconds;
            }
            "--trace" => {
                parsed.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => {
                parsed.options.smoke = true;
                parsed.options.seconds = 1.0;
            }
            "--append" => parsed.append = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(path, contents)
}

fn run_workloads(args: &Args) -> std::io::Result<bool> {
    let mut all_correct = true;
    for workload in &args.workloads {
        let opts = &args.options;
        let result = run::run(workload, opts);
        for (name, unit) in metrics::reported(opts.trace) {
            let value = result.values.get(name).copied().unwrap_or(0.0);
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        println!(
            "  {:<44} {:>16} of {} operations",
            "failed", result.failed, result.attempted
        );
        if let Some(first) = &result.first_failure {
            println!("  first failure: {first}");
        }
        all_correct &= result.failed == 0;

        let line = report::result_line(&result.values, result.attempted, result.failed, opts.trace);
        let record = report::file_record(&line, workload.name, opts.seed, opts.seconds, opts.trace);
        let suffix = if opts.trace { "-traced" } else { "" };
        write_file(
            &format!("{OUT_DIR}/result-{}{suffix}.json", workload.name),
            &format!("{record}\n"),
        )?;
        if opts.trace {
            write_file(
                &format!("{OUT_DIR}/trace-{}.json", workload.name),
                &trace::render_trace(workload.name, opts.seed, result.tracer.spans()),
            )?;
        }
        if let Some(path) = &args.append {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(file, "{record}")?;
        }
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, change] = args.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match report::compare(base, change) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("describe") {
        print!("{}", report::describe());
        return ExitCode::SUCCESS;
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run_workloads(&parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cannot write results: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};
    use report::Json;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args = strings(&[
            "--workload",
            "edit-churn",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        let parsed = parse(&args).unwrap();
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!(parsed.workloads[0].name, "edit-churn");
        assert_eq!(parsed.options.seed, 42);
        assert_eq!(parsed.options.seconds, 10.0);
        assert!(parsed.options.trace && !parsed.options.smoke);
        assert_eq!(parse(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--trace", "2"])).is_err());
        assert!(parse(&strings(&["--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--seed"])).is_err());
    }

    /// The `--smoke` configuration of every workload, traced (which runs a
    /// superset of the untraced path): every leg, the oracle pass, the
    /// single-layer probes and the final-state checks, in a few seconds
    /// each. Every metric of record must come out, the end-to-end ones
    /// non-zero, and nothing may fail.
    #[test]
    fn smoke_run_of_every_workload_is_correct_and_reports_every_metric() {
        let options = run::Options {
            seed: 7,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        for workload in &WORKLOADS {
            let result = run::run(workload, &options);
            assert_eq!(
                result.failed, 0,
                "{}: {:?}",
                workload.name, result.first_failure
            );
            assert!(result.attempted > 1000);
            for metric in &END_TO_END {
                let value = result.values.get(metric.name).copied();
                assert!(
                    value.is_some_and(|v| v > 0.0 && v.is_finite()),
                    "{}: {} = {value:?}",
                    workload.name,
                    metric.name
                );
            }
            for metric in &PER_LAYER {
                assert!(
                    result.values.contains_key(metric.name),
                    "{}: {} was not measured",
                    workload.name,
                    metric.name
                );
            }
            // The layers a workload claims to bypass are bypassed.
            let stateless = workload.family == scenario::Family::StatelessAcl;
            assert_eq!(
                result.values["dataplane.state.writes_per_pkt"] == 0.0,
                stateless
            );
            assert!(result.values["session.cache.version_hit_share"] > 0.0);
            assert!(result.values["ledger.update.unaccounted_share"] < 0.1);
            assert!(result.values["ledger.traffic.unaccounted_share"] < 0.1);
            // Both result lines carry exactly their metric set.
            for traced in [false, true] {
                let line = report::result_line(&result.values, result.attempted, 0, traced);
                let Some(Json::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics object")
                };
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(metrics.len(), expected);
            }
            assert!(!result.tracer.spans().is_empty());
        }
    }
}
