//! The timed pass: observability off, a fixed number of jobs
//! ([`Workload::jobs`]) with fixed job indices, so the jobs and kill
//! schedules measured do not depend on how fast the host or the commit
//! is.
//!
//! `setup_s` and `persisted_mb_per_ckpt` are medians over the jobs.
//! `tokens_per_s` is the *best* job's. Every job of a pass does the same
//! work (the kill schedule replays the same number of iterations in each),
//! and on the shared 2-core hosts this runs on co-tenants slow a job by
//! up to 40 % for seconds to minutes at a time and never speed one up.
//! Over ten seeds of 20, 12, 5 and 5 jobs a pass the best job spread
//! 4-7 % (quartile distance over median), the upper quartile of the jobs
//! 4-16 % and their median 7-21 %.

use crate::jobs::{peak_rss_mb, run_job, Gate, Scratch};
use crate::metrics::{MetricSet, Reported, END_TO_END};
use crate::stats::{summarize, Summary};
use crate::workloads::Workload;
use moc_obs::ObsConfig;

/// Runs the timed pass of `workload`, sized for `seconds`.
pub fn timed_pass(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Scratch,
) -> (Vec<Reported>, Gate) {
    let dir = scratch.root().join(workload.name());
    let mut gate = Gate::default();
    // The fault-free reference doubles as the warm-up: page cache,
    // allocator arenas and the store directory are hot afterwards.
    let reference = run_job(
        Workload::Steady,
        seed,
        0,
        ObsConfig::default(),
        &dir.join("reference"),
    );
    gate.admit(Workload::Steady, "reference", reference);

    let mut tokens_per_s = Vec::new();
    let mut mb_per_ckpt = Vec::new();
    let mut setup_s = Vec::new();
    for job in 0..workload.jobs(seconds) {
        let label = format!("job {job}");
        let result = run_job(workload, seed, job, ObsConfig::default(), &dir.join(&label));
        let Some(done) = gate.admit(workload, &label, result) else {
            continue;
        };
        tokens_per_s.push(done.tokens_per_sec());
        // The bootstrap is a checkpoint too: `steady` persists exactly
        // one.
        let checkpoints = done.summary.checkpoints_taken + 1;
        mb_per_ckpt.push(done.written_bytes() as f64 / 1e6 / checkpoints as f64);
        setup_s.push(done.setup_secs());
    }

    let mut set = MetricSet::new(END_TO_END);
    set.put(
        "tokens_per_s",
        Summary {
            value: tokens_per_s.iter().copied().fold(f64::NAN, f64::max),
            ..summarize(&tokens_per_s)
        },
    );
    set.put("persisted_mb_per_ckpt", summarize(&mb_per_ckpt));
    set.put("setup_s", summarize(&setup_s));
    set.put_value("peak_rss_mb", peak_rss_mb());
    (set.finish(), gate)
}
