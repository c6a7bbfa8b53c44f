//! The traced pass: the same jobs with `moc-obs` tracing on, whose
//! `RunSummary` and blame report give the R layer metrics, followed by
//! the layer probes for the P ones — or, under `run`, by the P values an
//! earlier pass already probed, which do not depend on the workload.

use crate::jobs::{run_job, Gate, Job, Scratch};
use crate::metrics::{MetricSet, Reported, PER_LAYER};
use crate::probes::{run_probes, SpanLog};
use crate::stats::{median, percentile, sorted, summarize, tail_resolved};
use crate::workloads::{Workload, HEARTBEAT, ITERATIONS, NODES};
use moc_obs::{BlameCategory, Json, ObsConfig};
use moc_runtime::{EventKind, Phase, RunSummary};
use std::collections::BTreeMap;
use std::path::Path;

/// The R metrics reported as the median of one sample per traced job.
const PER_JOB: [&str; 29] = [
    "train.compute_share",
    "train.apply_share",
    "coordinator.control_share",
    "coordinator.idle_share",
    "obs.blame_unaccounted_share",
    "obs.audit_violations",
    "obs.spans_per_iter",
    "ckpt.writer_busy_share",
    "ckpt.encode_s",
    "ckpt.persist_s",
    "ckpt.pool_allocs",
    "ckpt.stalls",
    "ckpt.stall_ratio",
    "store.retries",
    "store.write_amplification",
    "collective.allocs",
    "collective.ring_wait_ms",
    "collective.fold_ms",
    "collective.star_reduce_ms",
    "core.recovery_plan_ms",
    "recovery.fetch_ms",
    "recovery.restore_ms",
    "recovery.replayed_iters_per_fault",
    "recovery.memory_hit_ratio",
    "recovery.bytes",
    "elastic.expand_restore_ms",
    "elastic.shrink_rebalance_us",
    "elastic.degraded_iters",
    "elastic.survivor_ring_iters",
];

/// Per-job samples of the R metrics, keyed by metric name.
#[derive(Debug, Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Reports the median of `name`'s samples; 0 when the workload never
    /// exercised that layer (no checkpoint, no fault, no shrink).
    fn report(&self, set: &mut MetricSet, name: &'static str) {
        match self.0.get(name) {
            Some(samples) => set.put(name, summarize(samples)),
            None => set.put_value(name, 0.0),
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Milliseconds per occurrence of a phase, when it occurred.
fn phase_ms(s: &RunSummary, phase: Phase) -> Option<f64> {
    let stats = s.phase(phase);
    (stats.count > 0).then(|| 1e3 * stats.mean_secs())
}

/// Folds one traced job into the per-job samples and the pooled
/// per-event ones.
fn collect(job: &Job, samples: &mut Samples, pooled: &mut Samples) {
    let s = &job.summary;
    let wall = s.loop_secs;
    if let Some(blame) = &s.obs.blame {
        let share = |c: BlameCategory| ratio(blame.aggregate_secs(c), wall);
        samples.push("train.compute_share", share(BlameCategory::Compute));
        samples.push("train.apply_share", share(BlameCategory::Apply));
        samples.push("coordinator.control_share", share(BlameCategory::Control));
        samples.push("coordinator.idle_share", share(BlameCategory::Idle));
        let attributed: f64 = blame.aggregate.iter().sum();
        samples.push(
            "obs.blame_unaccounted_share",
            ratio((attributed - wall).abs(), wall),
        );
        samples.push("clean_iteration_secs", blame.clean_median_secs);
    }
    let violations = s.obs.audit.as_ref().map_or(0, |a| a.violations.len());
    samples.push("obs.audit_violations", violations as f64);
    samples.push(
        "obs.spans_per_iter",
        ratio(s.obs.spans_recorded as f64, s.iterations_executed as f64),
    );
    samples.push("traced_tokens_per_s", job.tokens_per_sec());
    samples.push("traced_setup_secs", job.setup_secs());

    let engine = &s.ckpt_engine;
    samples.push(
        "ckpt.writer_busy_share",
        ratio(
            engine.writer.encode_secs + engine.writer.persist_secs,
            NODES as f64 * wall,
        ),
    );
    samples.push("ckpt.encode_s", engine.writer.encode_secs);
    samples.push("ckpt.persist_s", engine.writer.persist_secs);
    samples.push("ckpt.pool_allocs", engine.pool_allocs as f64);
    samples.push("ckpt.stalls", engine.stalls as f64);
    samples.push(
        "ckpt.stall_ratio",
        ratio(s.stall_count as f64, s.checkpoints_taken as f64),
    );
    samples.push("store.retries", s.store_retries as f64);
    samples.push(
        "store.write_amplification",
        ratio(job.written_bytes() as f64, engine.writer.raw_bytes as f64),
    );

    samples.push("collective.allocs", s.collective_allocs as f64);
    for (name, phases) in [
        ("collective.ring_wait_ms", &[Phase::RingWait][..]),
        (
            "collective.fold_ms",
            &[Phase::ReduceScatter, Phase::AllGather][..],
        ),
        ("collective.star_reduce_ms", &[Phase::Reduce][..]),
        ("core.recovery_plan_ms", &[Phase::RecoveryPlan][..]),
        ("recovery.fetch_ms", &[Phase::RecoveryFetch][..]),
        ("recovery.restore_ms", &[Phase::RecoveryRestore][..]),
        ("elastic.expand_restore_ms", &[Phase::ExpandRestore][..]),
    ] {
        let ms: Vec<f64> = phases.iter().filter_map(|&p| phase_ms(s, p)).collect();
        if !ms.is_empty() {
            samples.push(name, ms.iter().sum());
        }
    }
    if let Some(ms) = phase_ms(s, Phase::ShrinkRebalance) {
        samples.push("elastic.shrink_rebalance_us", 1e3 * ms);
    }
    if s.recoveries > 0 {
        let faults = s.recoveries as f64;
        samples.push(
            "recovery.replayed_iters_per_fault",
            s.iterations_executed.saturating_sub(ITERATIONS) as f64 / faults,
        );
        samples.push(
            "recovery.memory_hit_ratio",
            ratio(
                s.memory_hits as f64,
                (s.memory_hits + s.storage_hits) as f64,
            ),
        );
        samples.push("recovery.bytes", s.recovered_bytes as f64 / faults);
    }
    if s.elastic_shrinks > 0 {
        samples.push("elastic.degraded_iters", s.degraded_iterations as f64);
        samples.push(
            "elastic.survivor_ring_iters",
            s.survivor_ring_iterations as f64,
        );
    }

    // Per-event samples pool across jobs: percentiles need the count.
    let mut injected_at = None;
    for event in &s.timeline {
        match &event.kind {
            EventKind::Checkpoint { overhead_secs, .. } => {
                pooled.push("o_save_ms", 1e3 * overhead_secs)
            }
            EventKind::FaultInjected { .. } => injected_at = Some(event.at_secs),
            EventKind::FaultDetected { detect_secs, .. } => pooled.push("detect_s", *detect_secs),
            EventKind::Recovery { total_secs, .. } => {
                pooled.push("recover_s", *total_secs);
                if let Some(at) = injected_at.take() {
                    pooled.push("fault_to_resume_s", event.at_secs - at);
                }
            }
            EventKind::ElasticExpand { expand_secs, .. } => pooled.push("expand_s", *expand_secs),
            _ => {}
        }
    }
}

/// Runs the traced pass of `workload`: half the jobs a timed pass of
/// `seconds` measures, then the probes, unless `probed` is the record of
/// an earlier traced pass to take the P values from. Traces land under
/// `trace_dir`.
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Scratch,
    trace_dir: &Path,
    probed: Option<&Json>,
) -> Result<(Vec<Reported>, Gate), String> {
    let dir = scratch.root().join(workload.name());
    let job_trace_dir = trace_dir.join(workload.name());
    std::fs::create_dir_all(&job_trace_dir)
        .map_err(|e| format!("create {}: {e}", job_trace_dir.display()))?;
    let mut gate = Gate::default();
    let dark = ObsConfig::default;

    let reference = run_job(Workload::Steady, seed, 0, dark(), &dir.join("reference"));
    gate.admit(Workload::Steady, "reference", reference);
    // One warm dark job of this workload is what the traced jobs'
    // throughput and set-up are compared against.
    let baseline = run_job(workload, seed, 0, dark(), &dir.join("dark"));
    let baseline = gate.admit(workload, "dark job", baseline);

    let mut samples = Samples::default();
    let mut pooled = Samples::default();
    for job in 0..(workload.jobs(seconds) / 2).max(1) {
        let label = format!("traced job {job}");
        // Every job rewrites the same trace file: the last one stays.
        let obs = ObsConfig::with_trace(job_trace_dir.join("trace.json"));
        let result = run_job(workload, seed, job, obs, &dir.join(&label));
        if let Some(done) = gate.admit(workload, &label, result) {
            collect(&done, &mut samples, &mut pooled);
        }
    }

    let mut set = MetricSet::new(PER_LAYER);
    for name in PER_JOB {
        samples.report(&mut set, name);
    }

    // Per-event statistics; 0 when the workload had no such event.
    let pooled_stat = |name: &str, stat: fn(&[f64]) -> f64| match pooled.0.get(name) {
        Some(samples) => stat(&sorted(samples.clone())),
        None => 0.0,
    };
    set.put_value("ckpt.o_save_ms_p50", pooled_stat("o_save_ms", median));
    set.put_value(
        "ckpt.o_save_ms_p90",
        pooled_stat("o_save_ms", |s| percentile(s, 0.9)),
    );
    let checkpoints = pooled.0.get("o_save_ms").map_or(0, Vec::len);
    if checkpoints > 0 && !tail_resolved(checkpoints, 0.9) {
        eprintln!(
            "moc-e2e: {}: ckpt.o_save_ms_p90 rests on {checkpoints} checkpoints, fewer than ten beyond it",
            workload.name(),
        );
    }
    set.put_value(
        "recovery.fault_to_resume_s_p50",
        pooled_stat("fault_to_resume_s", median),
    );
    set.put_value("recovery.recover_s_p50", pooled_stat("recover_s", median));
    set.put_value("elastic.expand_s_p50", pooled_stat("expand_s", median));
    let detect = pooled_stat("detect_s", median);
    set.put_value("detector.detect_s_p50", detect);
    set.put_value(
        "detector.windows_to_declare",
        detect / HEARTBEAT.as_secs_f64(),
    );

    let traced_median = |name: &str| samples.0.get(name).map_or(0.0, |v| summarize(v).value);
    let (dark_tokens, dark_setup) = baseline.as_ref().map_or((f64::NAN, f64::NAN), |b| {
        (b.tokens_per_sec(), b.setup_secs())
    });
    set.put_value("coordinator.setup_ms", 1e3 * dark_setup);
    set.put_value(
        "obs.trace_overhead_ratio",
        traced_median("traced_tokens_per_s") / dark_tokens,
    );
    // Trace export, blame and audit all run after the loop, so they are
    // what a traced job's set-up has over a dark one's.
    set.put_value(
        "obs.finish_ms",
        1e3 * (traced_median("traced_setup_secs") - dark_setup),
    );

    match probed {
        Some(record) => set.fill_probed_from(record)?,
        None => {
            let mut log = SpanLog::new();
            run_probes(seed, &dir.join("probes"), &mut log, &mut set);
            log.write_chrome(&trace_dir.join("probes.trace.json"))
                .map_err(|e| format!("write probe trace: {e}"))?;
        }
    }
    // What the coordinator adds to an iteration beyond the three layers
    // a step is made of: the clean median iteration minus their probes.
    let step_ms = set.value("train.fwd_bwd_ms")
        + set.value("train.adam_step_ms")
        + set.value("collective.ring_allreduce_ms");
    set.put_value(
        "coordinator.iter_overhead_ms",
        1e3 * traced_median("clean_iteration_secs") - step_ms,
    );

    Ok((set.finish(), gate))
}
