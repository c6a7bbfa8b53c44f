//! The four workloads: one fixed job shape, four checkpoint/fault
//! configurations.
//!
//! Every workload runs *jobs* of the same shape — 2 nodes × 1 rank,
//! `tiny_lm_8e`, 8 × 32 tokens per iteration, [`ITERATIONS`] iterations,
//! ring collective — so the final parameters of every job of every
//! workload are bitwise the fault-free run's. The benchmark seed feeds
//! `RuntimeConfig::seed` and the kill schedule; the runtime sees only
//! the generated config.

use moc_core::ParallelTopology;
use moc_obs::ObsConfig;
use moc_runtime::{CheckpointMode, CollectiveKind, ElasticConfig, RuntimeConfig};
use moc_store::{FaultEvent, FaultPlan};
use moc_train::PecMode;
use std::time::Duration;

/// Iterations per job. The issue's 600-iteration horizon is cut to fit
/// the driver's per-run budget; a run repeats jobs instead.
pub const ITERATIONS: u64 = 100;
/// Sequences per iteration, split over the two ranks.
pub const BATCH: usize = 8;
/// Tokens per sequence.
pub const SEQ_LEN: usize = 32;
/// Useful tokens one job trains on.
pub const TOKENS_PER_JOB: u64 = ITERATIONS * (BATCH * SEQ_LEN) as u64;
/// Node kills per job of a fault workload: one per node, because the
/// detector takes ≈ 0.3 s longer to declare node 1 than node 0 and a
/// job must pay both.
pub const KILLS_PER_JOB: usize = 2;
/// Checkpoint interval of the fault workloads.
pub const FAULT_I_CKPT: u64 = 10;
/// Degraded iterations before `fault_elastic` expands again.
pub const REJOIN_AFTER: u64 = 5;
/// Nodes (one rank and one checkpoint writer each).
pub const NODES: usize = 2;
/// Heartbeat timeout: the unit the detector's windows are counted in.
pub const HEARTBEAT: Duration = Duration::from_millis(300);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free, bootstrap checkpoint only.
    Steady,
    /// Fault-free, the paper's MoC configuration at `i_ckpt 4`.
    CkptAsync,
    /// Full checkpoints every 10 iterations, node kills, respawn.
    FaultRespawn,
    /// As `FaultRespawn` but elastic shrink then expand.
    FaultElastic,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::CkptAsync,
        Workload::FaultRespawn,
        Workload::FaultElastic,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::CkptAsync => "ckpt_async",
            Workload::FaultRespawn => "fault_respawn",
            Workload::FaultElastic => "fault_elastic",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Node kills each job of this workload injects.
    pub fn kills(self) -> usize {
        match self {
            Workload::Steady | Workload::CkptAsync => 0,
            Workload::FaultRespawn | Workload::FaultElastic => KILLS_PER_JOB,
        }
    }

    /// Jobs a timed pass of `seconds` measures: a count fixed by the
    /// workload and the seconds asked for, never by the clock, so every
    /// host and every commit measures the same jobs and the same kill
    /// schedules. A job takes this 2-core box about 1.4 s, 2.4 s and 6 s
    /// in a quiet period, so the fault workloads' pass lasts about the
    /// seconds asked for and the fault-free ones' a fifth longer: their
    /// best job is the noisier one, and it steadies with more jobs.
    pub fn jobs(self, seconds: u64) -> u64 {
        let per_minute = match self {
            Workload::Steady => 48,
            Workload::CkptAsync => 28,
            Workload::FaultRespawn | Workload::FaultElastic => 10,
        };
        (seconds * per_minute / 60).max(2)
    }

    /// The generated runtime config of job `job` under benchmark seed
    /// `seed`.
    pub fn config(self, seed: u64, job: u64, obs: ObsConfig) -> RuntimeConfig {
        let topology =
            ParallelTopology::dp_ep(NODES, 1, NODES, 2).expect("2 nodes x 1 rank is a valid shape");
        let base = RuntimeConfig {
            total_iterations: ITERATIONS,
            batch: BATCH,
            seq_len: SEQ_LEN,
            eval_every: 0,
            seed,
            collective: CollectiveKind::Ring,
            ring_chunk: 4096,
            checkpoint_mode: CheckpointMode::Async,
            two_level: true,
            heartbeat_timeout: HEARTBEAT,
            obs,
            ..RuntimeConfig::tiny(topology)
        };
        let experts = base.model.num_experts();
        let full = RuntimeConfig {
            i_ckpt: FAULT_I_CKPT,
            k_snapshot: experts,
            k_persist: experts,
            pec_mode: PecMode::NONE,
            faults: FaultPlan::At(kill_schedule(seed, job)),
            ..base.clone()
        };
        match self {
            Workload::Steady => RuntimeConfig {
                i_ckpt: ITERATIONS + 1,
                ..base
            },
            Workload::CkptAsync => RuntimeConfig {
                i_ckpt: 4,
                k_snapshot: 4,
                k_persist: 2,
                pec_mode: PecMode::WO,
                ..base
            },
            Workload::FaultRespawn => full,
            Workload::FaultElastic => RuntimeConfig {
                elastic: ElasticConfig {
                    shrink: true,
                    replication: 1,
                    rejoin_after: Some(REJOIN_AFTER),
                },
                ..full
            },
        }
    }
}

/// SplitMix64: the benchmark's only randomness, a pure function of its
/// state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The kill schedule of job `job`: kill `k` falls `r_k` iterations after
/// the last checkpoint at or before slot `k + 1` of `KILLS_PER_JOB + 1`
/// equal slots of the horizon, one kill per node with the order swapped
/// on odd jobs. `r_0` is seeded in `1..FAULT_I_CKPT` and `r_1` is its
/// complement, so every job of every seed replays [`FAULT_I_CKPT`]
/// iterations in all: the seed moves the kills, not what they cost, and
/// no job of a run is cheaper than another.
///
/// Consecutive kills are at least `2 * FAULT_I_CKPT + 2` iterations
/// apart, which exceeds the longest recovery (rollback of at most
/// `FAULT_I_CKPT`, then `REJOIN_AFTER` degraded iterations and the
/// one-iteration star fallback), so a kill never lands inside the
/// previous kill's recovery.
pub fn kill_schedule(seed: u64, job: u64) -> Vec<FaultEvent> {
    let mut state = seed ^ job.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let slot = ITERATIONS / (KILLS_PER_JOB as u64 + 1);
    let first = 1 + splitmix64(&mut state) % (FAULT_I_CKPT - 1);
    [first, FAULT_I_CKPT - first]
        .into_iter()
        .enumerate()
        .map(|(k, replayed)| FaultEvent {
            iteration: (k as u64 + 1) * slot / FAULT_I_CKPT * FAULT_I_CKPT + replayed,
            node: (k + job as usize) % NODES,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_schedule_is_a_pure_function_of_seed_and_job() {
        for seed in [0, 17, u64::MAX] {
            for job in 0..8 {
                assert_eq!(kill_schedule(seed, job), kill_schedule(seed, job));
            }
        }
        let differs = (0..32).any(|job| kill_schedule(17, job) != kill_schedule(18, job));
        assert!(differs, "the seed must reach the schedule");
    }

    #[test]
    fn kills_never_land_inside_a_recovery() {
        // Longest recovery: roll back up to one interval, run degraded
        // until the rejoin, then one star-fallback iteration.
        let recovery = FAULT_I_CKPT + REJOIN_AFTER + 1;
        for seed in 0..200 {
            for job in 0..6 {
                let kills = kill_schedule(seed, job);
                assert_eq!(kills.len(), KILLS_PER_JOB);
                let mut nodes: Vec<usize> = kills.iter().map(|k| k.node).collect();
                nodes.sort_unstable();
                assert_eq!(nodes, [0, 1], "one kill per node");
                // The first kill follows a committed periodic checkpoint
                // and the last leaves room to finish recovering.
                assert!(kills[0].iteration > FAULT_I_CKPT);
                let replayed: u64 = kills.iter().map(|k| k.iteration % FAULT_I_CKPT).sum();
                assert_eq!(replayed, FAULT_I_CKPT, "every job replays the same");
                assert!(kills[KILLS_PER_JOB - 1].iteration + recovery < ITERATIONS);
                for pair in kills.windows(2) {
                    assert!(
                        pair[1].iteration > pair[0].iteration + recovery,
                        "seed {seed} job {job}: {pair:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_workload_generates_a_valid_config() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let cfg = w.config(17, 3, ObsConfig::default());
            cfg.validate().expect("generated config validates");
            assert_eq!(cfg.world_size(), 2);
            assert_eq!(cfg.faults.events(ITERATIONS).len(), w.kills());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
