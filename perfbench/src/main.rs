//! The rowfpga benchmark: layout time and quality on four workloads, plus a
//! per-crate ledger by annealing regime in a separate traced run.
//!
//! Usage: `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Each workload is a closed loop: one layout at a time, from this one
//! process. Every layout's output is checked (routing invariants, the
//! reported worst delay re-derived by a standalone timing analysis, full
//! routability); a layout that errors or fails a check counts in `failed`
//! instead of aborting the run. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured without instrumentation;
//! with `--trace 1` they are the per-layer ledger (see `ledger.rs`).

mod ledger;
mod stats;
mod workload;

use std::process::ExitCode;

use rowfpga_obs::Json;

use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (expected one of: {})",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        seed: seed.unwrap_or(workload.default_seed()),
        workload,
        seconds,
        trace,
    })
}

/// Pass/fail bookkeeping shared by every layout a run makes.
#[derive(Debug, Default)]
pub struct Tally {
    /// Layouts attempted.
    pub attempted: usize,
    /// Layouts that errored, failed a check or ended not fully routed.
    pub failed: usize,
    /// Descriptions of every failed output or parity check.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records a broken output or parity check: the run is not correct.
    pub fn error(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.errors.push(what);
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        ledger::run(args.workload, args.seed, &mut tally)
    } else {
        workload::run(args.workload, args.seed, args.seconds, &mut tally)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value} {unit})");
            return ExitCode::from(1);
        }
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(tally.errors.is_empty())),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let m = Json::obj(vec![
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]);
                        (name, m)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}
