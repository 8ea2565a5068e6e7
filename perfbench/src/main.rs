//! Runs one benchmark workload and prints its report.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
//! Exits 1 when an output is wrong, 2 on bad arguments.

#![forbid(unsafe_code)]

use iba_perfbench::{run, Options, Scale, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fabric_mtu4096_bg|fabric_mtu256_qos|cac_churn|cac_repair> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::CacChurn,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::PAPER,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload={} seed={} seconds={} trace={} nproc={nproc}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut outcome = run(&opts);
    println!("signature: {}", outcome.signature);
    for line in &outcome.rounds {
        println!("{line}");
    }
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    if !opts.trace {
        for d in END_TO_END {
            if outcome.values.get(d.name) == Some(0.0) {
                outcome
                    .problems
                    .push(format!("{} could not be measured", d.name));
            }
        }
    }
    let metrics = outcome.values.render(catalog).unwrap_or_else(|missing| {
        outcome
            .problems
            .push(format!("metrics not measured: {}", missing.join(", ")));
        "{}".to_string()
    });
    for p in &outcome.problems {
        println!("INCORRECT: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
