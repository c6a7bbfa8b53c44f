//! Running one job and gating its result.
//!
//! A job is one `Coordinator::run()` of a workload's generated config
//! against a fresh `FileObjectStore`. The [`Gate`] holds the reference
//! parameters (a fault-free job of the same seed) and counts every
//! breach as failed operations.

use crate::workloads::{Workload, ITERATIONS};
use moc_obs::ObsConfig;
use moc_runtime::{Coordinator, RunSummary};
use moc_store::FileObjectStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's scratch directory, removed when dropped — on success,
/// on a gate breach and on a panic alike.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `moc-e2e-tmp/<pid>` next to the running executable, which
    /// is inside the build directory and so inside the checkout.
    pub fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let dir = exe.parent().unwrap_or(Path::new("."));
        let root = dir.join("moc-e2e-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One completed job.
#[derive(Debug)]
pub struct Job {
    /// The runtime's own summary.
    pub summary: RunSummary,
    /// Wall seconds of `Coordinator::run()`.
    pub wall_secs: f64,
}

impl Job {
    /// `run()` wall outside the iteration loop: spawn, init, bootstrap
    /// checkpoint, final drain and (traced) trace export.
    pub fn setup_secs(&self) -> f64 {
        self.wall_secs - self.summary.loop_secs
    }

    /// Useful tokens per second of loop wall (goodput when faults
    /// replay iterations).
    pub fn tokens_per_sec(&self) -> f64 {
        crate::workloads::TOKENS_PER_JOB as f64 / self.summary.loop_secs
    }

    /// Bytes this job wrote to the persistent store, manifests included.
    pub fn written_bytes(&self) -> u64 {
        let w = &self.summary.ckpt_engine.writer;
        w.stored_bytes + w.manifest_bytes
    }

    /// Operations the job attempted: iterations, checkpoints and kills.
    fn ops(&self, workload: Workload) -> u64 {
        ITERATIONS + self.summary.checkpoints_taken + workload.kills() as u64
    }
}

/// Runs job `job` of `workload` against a fresh store under `dir`, which
/// is removed again afterwards.
pub fn run_job(
    workload: Workload,
    seed: u64,
    job: u64,
    obs: ObsConfig,
    dir: &Path,
) -> Result<Job, String> {
    let result = (|| {
        let store = FileObjectStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        let config = workload.config(seed, job, obs);
        let start = Instant::now();
        let summary = Coordinator::new(config, Arc::new(store))
            .map_err(|e| format!("config: {e}"))?
            .run()
            .map_err(|e| format!("run: {e}"))?;
        Ok(Job {
            summary,
            wall_secs: start.elapsed().as_secs_f64(),
        })
    })();
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// Bitwise equality: `NaN`s must match too, and `0.0` differs from `-0.0`.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The correctness gate: reference parameters plus the failure count.
#[derive(Debug, Default)]
pub struct Gate {
    reference: Option<Vec<f32>>,
    /// Operations attempted across every gated job.
    pub attempted: u64,
    /// Operations counted as failed.
    pub failed: u64,
    /// One line per breach, naming the workload and job.
    pub breaches: Vec<String>,
}

impl Gate {
    /// Whether every gated job passed.
    pub fn correct(&self) -> bool {
        self.breaches.is_empty()
    }

    /// Gates one job. The first job passed in must be the fault-free
    /// reference: its final parameters become what every later job must
    /// equal bit for bit. Returns the job when it ran at all.
    pub fn admit(
        &mut self,
        workload: Workload,
        label: &str,
        job: Result<Job, String>,
    ) -> Option<Job> {
        let who = format!("{} {label}", workload.name());
        let job = match job {
            Ok(job) => job,
            Err(e) => {
                // A run that failed counts every operation it would have
                // attempted.
                let ops = ITERATIONS + workload.kills() as u64;
                self.attempted += ops;
                self.failed += ops;
                self.breaches.push(format!("{who}: {e}"));
                return None;
            }
        };
        let s = &job.summary;
        let ops = job.ops(workload);
        self.attempted += ops;
        let mut why = Vec::new();
        match &self.reference {
            None => self.reference = Some(s.final_params.clone()),
            Some(reference) if !same_bits(reference, &s.final_params) => {
                why.push("final_params differ from the fault-free run".to_string());
            }
            Some(_) => {}
        }
        if !s.replicas_consistent {
            why.push("replicas are not bitwise consistent".to_string());
        }
        // A run off the trajectory fails as a whole; the rest fail one
        // operation each.
        let whole_run = !why.is_empty();
        let kills = workload.kills() as u64;
        if !s.ckpt_engine.errors.is_empty() {
            why.push(format!(
                "checkpoint engine errors {:?}",
                s.ckpt_engine.errors
            ));
        }
        if s.store_retry_exhaustions > 0 {
            why.push(format!(
                "{} store retry exhaustions",
                s.store_retry_exhaustions
            ));
        }
        if s.recoveries != kills {
            why.push(format!("{} recoveries for {kills} kills", s.recoveries));
        }
        let single = s.ckpt_engine.errors.len() as u64
            + s.store_retry_exhaustions
            + s.recoveries.abs_diff(kills);
        self.failed += if whole_run { ops } else { single.min(ops) };
        if !why.is_empty() {
            self.breaches.push(format!("{who}: {}", why.join("; ")));
        }
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_plausible_value() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn a_failed_run_counts_all_its_operations() {
        let mut gate = Gate::default();
        assert!(gate
            .admit(Workload::FaultRespawn, "job 0", Err("boom".into()))
            .is_none());
        assert!(!gate.correct());
        assert_eq!(gate.attempted, ITERATIONS + 2);
        assert_eq!(gate.failed, gate.attempted);
        assert!(gate.breaches[0].starts_with("fault_respawn job 0: boom"));
    }

    #[test]
    fn breaches_are_counted_against_the_job() {
        let job = |params: Vec<f32>, recoveries: u64| Job {
            summary: RunSummary {
                final_params: params,
                replicas_consistent: true,
                recoveries,
                ..RunSummary::default()
            },
            wall_secs: 1.0,
        };
        let mut gate = Gate::default();
        gate.admit(Workload::Steady, "reference", Ok(job(vec![1.0, 2.0], 0)));
        gate.admit(Workload::FaultRespawn, "job 0", Ok(job(vec![1.0, 2.0], 2)));
        assert!(gate.correct(), "{:?}", gate.breaches);
        // One spurious recovery is one failed operation ...
        gate.admit(Workload::Steady, "job 1", Ok(job(vec![1.0, 2.0], 1)));
        assert_eq!(gate.failed, 1);
        // ... a diverged trajectory fails the whole job.
        gate.admit(Workload::Steady, "job 2", Ok(job(vec![1.0, -2.0], 0)));
        assert_eq!(gate.failed, 1 + ITERATIONS);
        assert_eq!(gate.breaches.len(), 2);
        assert!(gate.breaches[1].contains("steady job 2"));
    }
}
