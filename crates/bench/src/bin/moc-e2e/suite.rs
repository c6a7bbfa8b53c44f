//! `moc-e2e run`: every workload, timed then traced, each pass in its
//! own child process so memory and state are isolated, merged into one
//! printed table and one JSON report.

use crate::jobs::Scratch;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use crate::Flags;
use moc_obs::{Json, Report};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seconds each child pass is sized for unless `--seconds` says
/// otherwise: four timed passes, four traced ones of half the jobs and
/// one round of probes then fit the issue's 2.5 minutes.
const DEFAULT_SECONDS: u64 = 13;
const DEFAULT_SEED: u64 = 17;

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`: the longest mount point
/// in `/proc/mounts` that prefixes it.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// What makes a noisy set of numbers explainable afterwards.
fn provenance(seed: u64, seconds: u64, scratch: &Path) -> Json {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load_1min = load
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<f64>().ok());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Report::new()
        .field("seed", seed)
        .field("seconds_per_pass", seconds)
        .field("nproc", nproc)
        .field(
            "load_1min_at_start",
            load_1min.map_or(Json::Null, Json::Num),
        )
        .field("scratch_filesystem", filesystem_of(scratch))
        .field("rustc", first_line("rustc", &["-V"]))
        .field("git_commit", first_line("git", &["rev-parse", "HEAD"]))
        .json()
}

/// Where a child pass leaves its detailed record.
fn record_path(dir: &Path, workload: Workload, trace: bool) -> PathBuf {
    dir.join(format!("{}.{}.json", workload.name(), u8::from(trace)))
}

/// Runs one pass of one workload in a child and returns its detailed
/// record. `probed` is the record of an earlier traced pass: the probes
/// are the same on every workload, so only the first traced pass runs
/// them.
fn child_pass(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
    trace_dir: &Path,
    probed: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = record_path(dir, workload, trace);
    let mut child = Command::new(exe);
    if let Some(record) = probed {
        child.arg("--probes").arg(record);
    }
    let status = child
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .arg("--trace-dir")
        .arg(trace_dir)
        // The child's result line is for the driver; the record is read
        // from `--out`.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = std::fs::read_to_string(&out).map_err(|_| {
        format!(
            "{} pass of {} left no record ({status})",
            pass_name(trace),
            workload.name()
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", out.display()))
}

fn pass_name(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "timed"
    }
}

/// One table: a row per declared metric, a column per workload.
fn print_table(title: &str, table: &[MetricDef], records: &[(Workload, Json)], with_spread: bool) {
    print!("\n{title:<44}");
    for (w, _) in records {
        print!("{:>24}", w.name());
    }
    println!();
    for def in table {
        print!("{:<44}", format!("{} [{}]", def.name, def.unit));
        for (_, record) in records {
            let metric = record.get("metrics").and_then(|m| m.get(def.name));
            let field = |k| metric.and_then(|m| m.get(k)).and_then(Json::as_f64);
            let cell = match (field("value"), with_spread) {
                (None, _) => "-".to_string(),
                (Some(v), false) => format!("{v:.4}"),
                (Some(v), true) => format!(
                    "{v:.4} ±{:.1}% n={}",
                    100.0 * field("spread").unwrap_or(0.0),
                    field("n").unwrap_or(0.0)
                ),
            };
            print!("{cell:>24}");
        }
        println!();
    }
}

/// The `run` subcommand.
pub fn run(flags: Flags) -> Result<ExitCode, String> {
    if flags.trace.is_some() {
        return Err("run takes no --trace: it always makes both passes".to_string());
    }
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    let workloads: Vec<Workload> = flags.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let trace_dir = flags
        .trace_dir
        .unwrap_or_else(|| scratch.root().join("trace"));
    let provenance = provenance(seed, seconds, scratch.root());
    println!("moc-e2e: seed {seed}, {seconds} s per pass, provenance {provenance}");

    let mut passes: Vec<Vec<(Workload, Json)>> = vec![Vec::new(), Vec::new()];
    let mut breaches = Vec::new();
    for trace in [false, true] {
        for &w in &workloads {
            eprintln!("moc-e2e: {} pass of {} ...", pass_name(trace), w.name());
            let probed = (trace && w != workloads[0])
                .then(|| record_path(scratch.root(), workloads[0], true));
            let record = child_pass(
                w,
                seed,
                seconds,
                trace,
                scratch.root(),
                &trace_dir,
                probed.as_deref(),
            )?;
            if record.get("correct").and_then(Json::as_bool) != Some(true) {
                let why = record
                    .get("breaches")
                    .map_or_else(String::new, Json::to_string);
                breaches.push(format!("{} ({} pass): {why}", w.name(), pass_name(trace)));
            }
            passes[usize::from(trace)].push((w, record));
        }
    }
    drop(scratch);

    print_table(
        "end-to-end (timed; ± the pass's own jobs)",
        END_TO_END,
        &passes[0],
        true,
    );
    print_table(
        "per layer (traced pass + probes)",
        PER_LAYER,
        &passes[1],
        false,
    );

    if let Some(out) = &flags.out {
        let section = |records: &[(Workload, Json)]| {
            Json::Obj(
                records
                    .iter()
                    .map(|(w, r)| (w.name().to_string(), r.clone()))
                    .collect(),
            )
        };
        Report::new()
            .field("schema", "moc-e2e/1")
            .field("provenance", provenance)
            .field("end_to_end", section(&passes[0]))
            .field("per_layer", section(&passes[1]))
            .write(out)
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("\nwrote {}", out.display());
    }
    if breaches.is_empty() {
        println!("\ncorrectness gate: every job of every workload ended bitwise on the fault-free parameters");
        Ok(ExitCode::SUCCESS)
    } else {
        for breach in &breaches {
            eprintln!("moc-e2e: correctness gate FAILED: {breach}");
        }
        Ok(ExitCode::FAILURE)
    }
}
