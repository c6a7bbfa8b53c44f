//! `moc-e2e baseline <out.json> <report.json>...` and
//! `moc-e2e compare <a.json>[,<a2.json>...] <b.json>[,<b2.json>...]`.
//!
//! `compare` holds every end-to-end metric of every workload in two sets
//! of `run` reports (a side's value is the median over its reports: on a
//! shared host one run in six reads a quarter low, and three a side vote
//! it out) against the bound `BENCHMARK.json` fixes (compiled in as
//! [`END_TO_END`]; a unit test keeps the two equal), unless the
//! run-to-run spread recorded in `baseline.json` beside this file is wider
//! than that bound: then the metric is unresolved.
//! `baseline` records that file: medians and quartile distances over five
//! or more `run` reports. Slow periods of a shared host last minutes, so
//! only whole invocations made one after another show how far two runs of
//! the same code differ; the jobs inside one run do not.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread, sorted};
use crate::workloads::Workload;
use moc_obs::{Json, Report};
use std::path::Path;
use std::process::ExitCode;

/// The recorded baseline, compiled in: `compare` needs no path to it.
const BASELINE: &str = include_str!("baseline.json");

/// Reports a baseline needs before its quartiles mean anything.
const MIN_REPORTS: usize = 5;

/// How report `b` stands against report `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The recorded run-to-run spread is wider than the bound: two runs
    /// of the same code differ by more than the bound about as often as
    /// not, so one pair can claim neither a regression nor its absence.
    Unresolved,
    /// `b` is worse than `a` by more than the bound, and the spread is
    /// inside it.
    Regressed,
    /// Within the bound, and the spread is inside it.
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Share of `a` by which `b` is worse (negative when it is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs()
}

/// Judges one metric against its bound and the recorded run-to-run
/// `spread` (infinite when none was recorded).
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening(a, b, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Reads a JSON file.
pub fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// `report.<section>.<workload>.metrics.<name>.value` of a `run` report.
fn reported(report: &Json, section: &str, workload: Workload, name: &str) -> Option<f64> {
    let record = report.get(section)?.get(workload.name())?;
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The median of an end-to-end metric over one side's reports; `None`
/// when any of them lacks it.
fn side_value(side: &[Json], workload: Workload, name: &str) -> Option<f64> {
    let values: Option<Vec<f64>> = side
        .iter()
        .map(|r| reported(r, "end_to_end", workload, name))
        .collect();
    values.map(|v| median(&sorted(v)))
}

/// `<workload>.<name>.<field>` of a baseline's `end_to_end` section.
fn recorded(section: &Json, workload: Workload, name: &str, field: &str) -> Option<f64> {
    section
        .get(workload.name())?
        .get(name)?
        .get(field)?
        .as_f64()
}

/// One section of a baseline: per workload and declared metric, the
/// median over the reports and the distance between their quartiles as
/// a share of it.
fn fold(reports: &[Json], section: &str, table: &[MetricDef]) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut metrics = Vec::new();
        for def in table {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| reported(r, section, workload, def.name))
                .collect();
            if values.len() != reports.len() {
                return Err(format!(
                    "{}.{} is missing from a report",
                    workload.name(),
                    def.name
                ));
            }
            let values = sorted(values);
            let summary = Report::new()
                .field("median", median(&values))
                .field("unit", def.unit)
                .field("spread", quartile_spread(&values));
            metrics.push((def.name.to_string(), summary.json()));
        }
        workloads.push((workload.name().to_string(), Json::Obj(metrics)));
    }
    Ok(Json::Obj(workloads))
}

/// The `baseline` subcommand.
pub fn baseline(args: &[String]) -> Result<ExitCode, String> {
    let [out, paths @ ..] = args else {
        return Err("usage: moc-e2e baseline <out.json> <report.json>...".to_string());
    };
    if paths.len() < MIN_REPORTS {
        return Err(format!(
            "a baseline needs {MIN_REPORTS} or more run reports, got {}",
            paths.len()
        ));
    }
    let reports = paths
        .iter()
        .map(|p| load(Path::new(p)))
        .collect::<Result<Vec<_>, _>>()?;
    let provenance: Vec<Json> = reports
        .iter()
        .map(|r| r.get("provenance").cloned().unwrap_or(Json::Null))
        .collect();
    let end_to_end = fold(&reports, "end_to_end", END_TO_END)?;

    println!(
        "{:<15}{:<24}{:>14}{:>9}{:>8}",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in Workload::ALL {
        for def in END_TO_END {
            let field = |f| recorded(&end_to_end, workload, def.name, f).unwrap_or(f64::NAN);
            println!(
                "{:<15}{:<24}{:>14.4}{:>8.1}%{:>7.1}%",
                workload.name(),
                def.name,
                field("median"),
                100.0 * field("spread"),
                100.0 * def.bound
            );
        }
    }
    Report::new()
        .field("schema", "moc-e2e-baseline/1")
        .field("reports", reports.len())
        .field("provenance", provenance)
        .field("end_to_end", end_to_end)
        .field("per_layer", fold(&reports, "per_layer", PER_LAYER)?)
        .write(Path::new(out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("\nwrote {out} from {} reports", reports.len());
    Ok(ExitCode::SUCCESS)
}

/// The `compare` subcommand.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err(
            "usage: moc-e2e compare <a.json>[,<a2.json>...] <b.json>[,<b2.json>...]".to_string(),
        );
    };
    let side = |paths: &str| -> Result<Vec<Json>, String> {
        paths.split(',').map(|p| load(Path::new(p))).collect()
    };
    let (a, b) = (side(a_path)?, side(b_path)?);
    let baseline = Json::parse(BASELINE).map_err(|e| format!("baseline.json: {e:?}"))?;
    let baseline = baseline.get("end_to_end").unwrap_or(&Json::Null);

    println!(
        "{:<15}{:<24}{:>14}{:>14}{:>9}{:>8}{:>9}  verdict",
        "workload", "metric", "a", "b", "worse", "bound", "spread"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in Workload::ALL {
        let absent = |r: &Json| {
            r.get("end_to_end")
                .and_then(|e| e.get(workload.name()))
                .is_none()
        };
        if a.iter().all(absent) {
            // A report of `run --workload <one>` holds only that one.
            continue;
        }
        for def in END_TO_END {
            let (name, bound) = (def.name, def.bound);
            let higher = def.better == Better::Higher;
            let value = |side| side_value(side, workload, name);
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                return Err(format!(
                    "{}.{name} is missing from a report",
                    workload.name()
                ));
            };
            let spread = recorded(baseline, workload, name, "spread").unwrap_or(f64::INFINITY);
            let verdict = judge(va, vb, higher, bound, spread);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<15}{name:<24}{va:>14.4}{vb:>14.4}{:>8.1}%{:>7.1}%{:>8.1}%  {}",
                workload.name(),
                100.0 * worsening(va, vb, higher),
                100.0 * bound,
                100.0 * spread,
                verdict.label()
            );
        }
    }
    if unresolved > 0 {
        eprintln!("moc-e2e: {unresolved} metric(s) spread wider than their bound from run to run on the recorded host; one pair of runs cannot resolve them");
    }
    if regressed > 0 {
        eprintln!("moc-e2e: {regressed} metric(s) of {b_path} are worse than {a_path} by more than their bound");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, false) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn verdicts_separate_regressed_unresolved_and_unchanged() {
        // 12 % fewer tokens per second against a 10 % bound.
        assert_eq!(judge(100.0, 88.0, true, 0.10, 0.02), Verdict::Regressed);
        // The spread is wider than the bound: neither claim can be made,
        // whichever way the pair differs.
        assert_eq!(judge(100.0, 97.0, true, 0.10, 0.15), Verdict::Unresolved);
        assert_eq!(judge(100.0, 80.0, true, 0.10, 0.15), Verdict::Unresolved);
        assert_eq!(judge(100.0, 97.0, true, 0.10, 0.03), Verdict::Unchanged);
        // No recorded spread: nothing can be called unchanged.
        assert_eq!(
            judge(100.0, 97.0, true, 0.10, f64::INFINITY),
            Verdict::Unresolved
        );
        // An improvement is never a regression, however large.
        assert_eq!(judge(1.0, 0.5, false, 0.10, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_baseline_folds_reports_into_medians_and_quartile_spreads() {
        let report = |tokens: f64| {
            let metrics: Vec<(String, Json)> = END_TO_END
                .iter()
                .map(|d| {
                    let value = if d.name == "tokens_per_s" {
                        tokens
                    } else {
                        2.0
                    };
                    (
                        d.name.to_string(),
                        Report::new().field("value", value).json(),
                    )
                })
                .collect();
            let record = Report::new().field("metrics", Json::Obj(metrics)).json();
            let workloads = Workload::ALL
                .iter()
                .map(|w| (w.name().to_string(), record.clone()))
                .collect();
            Report::new()
                .field("end_to_end", Json::Obj(workloads))
                .json()
        };
        let reports: Vec<Json> = [1.0, 2.0, 3.0, 4.0, 5.0].map(report).to_vec();
        let folded = fold(&reports, "end_to_end", END_TO_END).expect("complete reports");
        let field = |name, f| recorded(&folded, Workload::FaultElastic, name, f);
        assert_eq!(field("tokens_per_s", "median"), Some(3.0));
        assert_eq!(field("tokens_per_s", "spread"), Some(1.0));
        assert_eq!(field("setup_s", "spread"), Some(0.0));
        assert!(fold(&reports, "per_layer", PER_LAYER).is_err());
    }

    #[test]
    fn the_recorded_baseline_covers_every_end_to_end_metric() {
        let baseline = Json::parse(BASELINE).expect("baseline.json parses");
        let reports = baseline.get("reports").and_then(Json::as_u64);
        assert!(reports.is_some_and(|n| n >= MIN_REPORTS as u64));
        let baseline = baseline.get("end_to_end").expect("end_to_end");
        for workload in Workload::ALL {
            for def in END_TO_END {
                let spread = recorded(baseline, workload, def.name, "spread");
                assert!(
                    spread.is_some_and(|s| s >= 0.0),
                    "{}.{}",
                    workload.name(),
                    def.name
                );
            }
        }
    }
}
