//! Wall-clock benchmark of the jigsaw workspace.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last stdout line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.

mod adapter;
mod common;
mod forward;
mod serving;
mod sweep;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["serve-zipf", "router-churn", "forward-wide", "kernel-sweep"];

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds is required, in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // These change what the program executes; a run under any of them
    // would not measure the configuration the bounds were set for.
    let steering: Vec<&str> = adapter::STEERING_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !steering.is_empty() {
        eprintln!("perfbench: refusing to run with {steering:?} set");
        return ExitCode::from(2);
    }
    adapter::set_tracing(false);
    println!(
        "# host: isa kernels {:?}, auto-selected {}, nproc {}, llc {} MiB",
        adapter::available_kernels(),
        adapter::auto_kernel(),
        common::nproc(),
        common::llc_bytes() >> 20
    );
    println!(
        "# run: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = match args.workload.as_str() {
        "serve-zipf" => serving::run(&serving::SERVE_ZIPF, &args),
        "router-churn" => serving::run(&serving::ROUTER_CHURN, &args),
        "forward-wide" => forward::run(&args),
        _ => sweep::run(&args),
    };
    if args.trace {
        outcome.metrics = outcome.metrics.every_layer();
    }
    let _ = std::fs::remove_dir(".perfbench_work");
    println!("{}", common::result_line(&outcome));
    ExitCode::SUCCESS
}
