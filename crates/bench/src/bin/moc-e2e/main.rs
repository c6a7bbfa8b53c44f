//! `moc-e2e` — the end-to-end benchmark of the live MoC runtime.
//!
//! ```text
//! moc-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--trace-dir <dir>] [--probes <record>]
//! moc-e2e run [--seed <n>] [--seconds <s>] [--workload <name>] [--out <file>] [--trace-dir <dir>]
//! moc-e2e baseline <out.json> <report.json> x 5 or more
//! moc-e2e compare <a.json>[,<a2.json>...] <b.json>[,<b2.json>...]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one pass, one JSON result as the last line of standard output. `run`
//! re-executes this binary once per workload and pass and merges the
//! results into one report; `baseline` folds several such reports into
//! medians and the run-to-run spread (`baseline.json` beside this file);
//! `compare` checks two sets of reports against the bounds in
//! `BENCHMARK.json` and that recorded spread. See `README.md` beside this
//! file.

mod compare;
mod jobs;
mod metrics;
mod probes;
mod stats;
mod suite;
mod timed;
mod traced;
mod workloads;

use jobs::{Gate, Scratch};
use metrics::Reported;
use moc_obs::{Json, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Parsed flags of the single-pass and `run` forms.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    /// Record of an earlier traced pass whose probe values this one
    /// reuses instead of probing again (`run` sets it).
    probes: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                flags.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => flags.seed = Some(number()?),
            "--seconds" => flags.seconds = Some(number()?.clamp(1, 60)),
            "--trace" => {
                flags.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            "--out" => flags.out = Some(PathBuf::from(value)),
            "--trace-dir" => flags.trace_dir = Some(PathBuf::from(value)),
            "--probes" => flags.probes = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

/// One pass of one workload: its metric values and gate, as the driver's
/// result object and as the detailed record `run` merges.
struct PassOutcome {
    values: Vec<Reported>,
    gate: Gate,
}

impl PassOutcome {
    fn result_line(&self) -> Json {
        Report::new()
            .field("correct", self.gate.correct())
            .field("attempted", self.gate.attempted.max(1))
            .field("failed", self.gate.failed)
            .field("metrics", metrics::to_json(&self.values, false))
            .json()
    }

    fn detailed(&self) -> Report {
        let breaches: Vec<Json> = self
            .gate
            .breaches
            .iter()
            .map(|b| b.as_str().into())
            .collect();
        Report::new()
            .field("correct", self.gate.correct())
            .field("attempted", self.gate.attempted)
            .field("failed", self.gate.failed)
            .field("breaches", breaches)
            .field("metrics", metrics::to_json(&self.values, true))
    }
}

/// The form the driver runs.
fn single_pass(flags: Flags) -> Result<ExitCode, String> {
    let workload = flags.workload.ok_or("--workload is required")?;
    let seed = flags.seed.ok_or("--seed is required")?;
    let seconds = flags.seconds.ok_or("--seconds is required")?;
    let trace = flags.trace.ok_or("--trace is required")?;
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let outcome = if trace {
        let trace_dir = flags
            .trace_dir
            .unwrap_or_else(|| scratch.root().join("trace"));
        let probed = flags.probes.as_deref().map(compare::load).transpose()?;
        let (values, gate) = traced::traced_pass(
            workload,
            seed,
            seconds,
            &scratch,
            &trace_dir,
            probed.as_ref(),
        )?;
        PassOutcome { values, gate }
    } else {
        let (values, gate) = timed::timed_pass(workload, seed, seconds, &scratch);
        PassOutcome { values, gate }
    };
    drop(scratch);
    for breach in &outcome.gate.breaches {
        eprintln!("moc-e2e: correctness gate: {breach}");
    }
    if let Some(out) = &flags.out {
        outcome
            .detailed()
            .write(out)
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(suite::run),
        Some("baseline") => compare::baseline(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        _ => parse_flags(&args).and_then(single_pass),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("moc-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
