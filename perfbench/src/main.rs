//! The repository benchmark: one binary, four workloads.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --wx PATH --out DIR
//! perfbench --calibrate --seconds S --wx PATH --out DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and `wx`, then runs it. With
//! `--trace 0` the last line of standard output is the result object with
//! every end-to-end metric; with `--trace 1` it carries the per-layer
//! metrics, and the traced-run artifacts go to `DIR/<workload>-seed<N>/`.
//! `--calibrate` measures the serve mix's capacity (see `serve.rs`).
//! README.md documents the workloads and metrics.

mod batch;
mod layers;
mod report;
mod serve;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub calibrate: bool,
    /// The `wx` binary the serve workload starts.
    pub wx: PathBuf,
    /// Where traced runs write their artifacts.
    pub out: PathBuf,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "spokesman_cold",
    "radio_ensemble",
    "serve_mixed",
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        calibrate: false,
        wx: PathBuf::new(),
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--wx" => args.wx = PathBuf::from(&value),
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".to_string());
    }
    if !args.calibrate && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        return match serve::calibrate(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: calibration failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload.as_str() {
        "serve_mixed" => serve::run(&args),
        name => batch::run(name, &args),
    };
    match result {
        Ok((tally, _)) if tally.attempted == 0 => {
            eprintln!("perfbench: {}: no operation ran", args.workload);
            ExitCode::FAILURE
        }
        Ok((tally, metrics)) => {
            report::print_result(&tally, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
