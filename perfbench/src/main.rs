//! `perfbench` — the repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <paper_regen|wer_mc|chserve_mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record <path>
//! ```
//!
//! The first form runs one workload and prints the host/build
//! fingerprint, a human-readable report, and as its last line the
//! result object. It exits 1 when any output check failed and 2 on a
//! usage error or a refused environment. `--record` regenerates the
//! reference outputs into `<path>` (normally `perfbench/reference.json`).

use std::process::ExitCode;

use perfbench::reference::Reference;
use perfbench::{catalog, host, paper_regen, result_line, wer_mc, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <paper_regen|wer_mc|chserve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record <path>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: expected a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn record(path: &str) -> ExitCode {
    let mut reference = Reference::default();
    match paper_regen::record() {
        Ok(observed) => reference.replace(paper_regen::WORKLOAD, &observed),
        Err(e) => {
            eprintln!("error: paper_regen reference run failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    reference.replace(wer_mc::WORKLOAD, &wer_mc::record());
    if let Err(e) = std::fs::write(path, reference.to_json()) {
        eprintln!("error: {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--record") {
        let path = argv
            .nth(1)
            .unwrap_or_else(|| "perfbench/reference.json".into());
        return record(&path);
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let refused = host::forbidden_switches(std::env::vars());
    if !refused.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: these switches change numerics or service \
             sizing process-wide; unset them",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }

    println!(
        "host {}",
        host::fingerprint(&args.workload, args.seed, args.seconds, args.trace).to_json()
    );
    let reference = Reference::embedded();
    let outcome = perfbench::run(
        &args.workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        &reference,
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in outcome.checks.failures.iter().take(20) {
        eprintln!("output check failed: {failure}");
    }
    let metrics = match catalog::finalize(
        &outcome.metrics,
        args.trace,
        perfbench::not_measured(&args.workload),
    ) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in metrics.entries() {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "attempted {}, failed {}, error_rate {}",
        outcome.checks.attempted,
        outcome.checks.failed(),
        outcome.checks.error_rate()
    );
    println!("{}", result_line(&outcome.checks, &metrics));
    if outcome.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_command_line_parses() {
        let a = args(&[
            "--workload",
            "wer_mc",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wer_mc", 7, 10, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "wer_mc", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "wer_mc",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
