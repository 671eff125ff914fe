//! `simdize-benchmark --workload <name> --seed <u64> [--seconds <n>]
//! [--trace <0|1>]`: runs one workload, checks every output, prints
//! every metric by name with its unit, and ends with the one-line
//! JSON result the driver reads. Exit status: 0 when every op checked
//! out, 1 when any failed, 2 on a usage error.

use simdize_benchmark::{run, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "benchmark: {e}\nusage: --workload <{}> --seed <u64> [--seconds <n>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A forced ISA tier would be a different machine as far as every
    // timing is concerned; results must not be comparable by accident.
    if std::env::var_os("SIMDIZE_ISA").is_some() {
        eprintln!(
            "benchmark: SIMDIZE_ISA is set; unset it, the benchmark measures the detected tier"
        );
        return ExitCode::from(2);
    }
    let outcome = match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!("context {}", outcome.context.render());
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.render_result());
    ExitCode::from(outcome.exit_code() as u8)
}
