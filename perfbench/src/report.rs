//! The result line, sample statistics and process probes shared by every
//! workload.

use std::fmt::Write as _;
use std::time::Duration;

/// Named metric values in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`. A later value under the same name
    /// replaces the earlier one.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        // An empty f64 sum is -0.0; report it as 0.
        let value = value + 0.0;
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }
}

/// Operations attempted and failed, plus whether every output check held.
///
/// An operation fails when the program returns an error or when one of its
/// output checks does not hold; `correct` is false only for the second kind
/// (a wrong answer), never for a reported error.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Counts one operation that ran to completion with its checks holding.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation the program failed (an error it reported).
    pub fn error(&mut self, what: &str) {
        eprintln!("perfbench: operation failed: {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Counts one operation whose output check did not hold.
    pub fn wrong(&mut self, what: &str) {
        eprintln!("perfbench: output check failed: {what}");
        self.attempted += 1;
        self.failed += 1;
        self.correct = false;
    }

    /// Records a check that is not an operation of its own (e.g. counter
    /// determinism across a repeat): a failure marks the run incorrect and
    /// counts as one failed operation.
    pub fn check(&mut self, holds: bool, what: &str) {
        if !holds {
            self.wrong(what);
        }
    }

    pub fn ok_share(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.attempted as f64)
    }
}

/// Prints the result object as the last line of standard output.
pub fn print_result(tally: &Tally, metrics: &Metrics) {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct, tally.attempted, tally.failed,
    );
    let mut first = true;
    for (name, value, unit) in &metrics.0 {
        // JSON has no NaN or infinity; a metric that could not be computed
        // is left out rather than printed as a made-up number.
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite; left out");
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` with linear interpolation
/// between closest ranks; NaN for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this process)
/// in MiB, read from `/proc`.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(status) = std::fs::read_to_string(&path) else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Ratio with a zero denominator reading as 0 (used for hit and accept
/// ratios, where "nothing attempted" is reported as 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
