//! The elastic recovery scenario matrix: node deaths recovered by
//! *shrinking* onto the surviving ranks — no respawn — with the bitwise
//! determinism contract pinned against the fixed-shape baseline:
//!
//! * **Shrink parity** — a run that loses a node and continues degraded
//!   (surviving shard groups adopt the dead groups' batch slices and
//!   experts) produces the same loss trajectory and final parameters,
//!   bitwise, as the unfaulted fixed-shape run — because slice and gate
//!   noise are pure functions of `(iteration, dp)` and the DP-order
//!   gradient fold splices adopted slices in at the dead positions.
//! * **Expand parity** — replacement ranks rejoining mid-run (seeded
//!   bitwise from a survivor) are numerically invisible.
//! * **Composition** — a second kill while degraded (the adopters
//!   themselves can die), and a torn persist during the degraded
//!   window followed by total loss (storage-only full restart), all
//!   land back on the clean trajectory.
//!
//! The default tier runs the capped matrix below; the full sweep across
//! replication factors and collectives runs under `--ignored` in the
//! scheduled exhaustive CI job.

use moc_system::ckpt::testing::{FlakyStore, RecordingStore};
use moc_system::core::ParallelTopology;
use moc_system::runtime::{
    CollectiveKind, Coordinator, ElasticConfig, EventKind, Phase, RunSummary, RuntimeConfig,
};
use moc_system::store::{FaultEvent, FaultPlan, MemoryObjectStore, ObjectStore};
use moc_system::train::PecMode;
use std::sync::Arc;
use std::time::Duration;

/// Two nodes × two GPUs, four shard groups — the smallest world where a
/// node death leaves half the groups alive.
fn two_node_topo() -> ParallelTopology {
    ParallelTopology::dp_ep(2, 2, 4, 4).unwrap()
}

/// Three nodes × two GPUs — room for two successive node deaths with
/// survivors left.
fn three_node_topo() -> ParallelTopology {
    ParallelTopology::dp_ep(3, 2, 6, 2).unwrap()
}

/// Full checkpointing: recovery is lossless, so every faulted run must
/// land bitwise on the clean trajectory.
fn config(topo: ParallelTopology) -> RuntimeConfig {
    RuntimeConfig {
        total_iterations: 12,
        i_ckpt: 4,
        eval_every: 6,
        seq_len: 8,
        k_snapshot: 8,
        k_persist: 8,
        pec_mode: PecMode::NONE,
        collective: CollectiveKind::Ring,
        heartbeat_timeout: Duration::from_millis(800),
        ..RuntimeConfig::tiny(topo)
    }
}

fn run(config: RuntimeConfig) -> RunSummary {
    run_on(config, Arc::new(MemoryObjectStore::new()))
}

fn run_on(config: RuntimeConfig, store: Arc<dyn ObjectStore>) -> RunSummary {
    Coordinator::new(config, store).unwrap().run().unwrap()
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|x| x.to_bits()).collect()
}

fn kill(iteration: u64, node: usize) -> FaultPlan {
    FaultPlan::At(vec![FaultEvent { iteration, node }])
}

fn assert_bitwise_parity(clean: &RunSummary, elastic: &RunSummary, what: &str) {
    assert!(elastic.replicas_consistent, "{what}: replicas diverged");
    assert_eq!(
        bits(&clean.final_params),
        bits(&elastic.final_params),
        "{what}: must land on the clean trajectory bitwise"
    );
    // A rollback re-evaluates replayed iterations, so the faulted curve
    // may carry duplicates — every re-evaluation must be bitwise the
    // clean value (keep-last dedup by iteration).
    let dedup = |curve: &[(u64, f32)]| -> Vec<(u64, u32)> {
        curve
            .iter()
            .map(|&(it, loss)| (it, loss.to_bits()))
            .collect::<std::collections::BTreeMap<u64, u32>>()
            .into_iter()
            .collect()
    };
    assert_eq!(
        dedup(&clean.val_curve),
        dedup(&elastic.val_curve),
        "{what}: loss trajectory must match the fixed-shape run"
    );
    for window in elastic.val_curve.windows(2) {
        if window[0].0 == window[1].0 {
            assert_eq!(
                window[0].1.to_bits(),
                window[1].1.to_bits(),
                "{what}: a replayed eval must reproduce its loss bitwise"
            );
        }
    }
}

/// Scenario 1 (kill-then-shrink): one node dies, the run completes on
/// the survivors — no respawn — bitwise on the clean trajectory, and
/// the summary reports the migration and the degraded-step count.
#[test]
fn kill_then_shrink_matches_fixed_shape_bitwise() {
    let topo = two_node_topo();
    let clean = run(config(topo));
    for replication in [1usize, 2] {
        let shrunk = run(RuntimeConfig {
            faults: kill(7, 1),
            elastic: ElasticConfig::shrink(replication),
            ..config(topo)
        });
        assert_eq!(shrunk.faults_injected, 1, "r={replication}");
        assert_eq!(shrunk.recoveries, 1, "r={replication}");
        assert_eq!(
            shrunk.elastic_shrinks, 1,
            "r={replication}: the recovery must shrink, not respawn"
        );
        assert_eq!(shrunk.elastic_expands, 0, "r={replication}");
        assert!(
            shrunk.experts_migrated > 0,
            "r={replication}: the dead groups' experts must migrate"
        );
        // Kill at 7 rolled back to the checkpoint at 4: iterations 5..=12
        // all ran on the shrunk world.
        assert_eq!(shrunk.degraded_iterations, 8, "r={replication}");
        assert!(shrunk.phase(Phase::ShrinkRebalance).count > 0);
        let shrink_events: Vec<_> = shrunk
            .timeline
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ElasticShrink {
                    dead_groups,
                    adoptions,
                    experts_migrated,
                    ..
                } => Some((dead_groups.clone(), adoptions.clone(), *experts_migrated)),
                _ => None,
            })
            .collect();
        assert_eq!(shrink_events.len(), 1, "r={replication}");
        let (dead_groups, adoptions, migrated) = &shrink_events[0];
        // Node 1 hosted shard groups 2 and 3.
        assert_eq!(dead_groups, &vec![2, 3], "r={replication}");
        assert_eq!(adoptions.len(), 2, "every dead slice is adopted");
        for &(dead, adopter) in adoptions {
            assert!(dead >= 2 && adopter < 2, "r={replication}: {adoptions:?}");
        }
        assert_eq!(*migrated as u64, shrunk.experts_migrated);
        assert_bitwise_parity(&clean, &shrunk, &format!("shrink r={replication}"));
    }
}

/// Scenario 2 (shrink-then-expand): replacement ranks rejoin after the
/// configured horizon, seeded bitwise from a survivor; the expanded run
/// finishes with every rank consistent on the clean trajectory.
#[test]
fn shrink_then_expand_matches_fixed_shape_bitwise() {
    let topo = two_node_topo();
    let clean = run(config(topo));
    let elastic = run(RuntimeConfig {
        faults: kill(5, 1),
        elastic: ElasticConfig {
            shrink: true,
            replication: 1,
            rejoin_after: Some(3),
        },
        ..config(topo)
    });
    assert_eq!(elastic.elastic_shrinks, 1);
    assert_eq!(elastic.elastic_expands, 1);
    // Kill at 5 resumed from 4; the expand fired at iteration 7, so 5
    // and 6 ran degraded.
    assert_eq!(elastic.degraded_iterations, 2);
    assert!(elastic.phase(Phase::ExpandRestore).count > 0);
    let expand: Vec<_> = elastic
        .timeline
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ElasticExpand {
                returning_groups,
                experts_returned,
                degraded_iterations,
                ..
            } => Some((
                returning_groups.clone(),
                *experts_returned,
                *degraded_iterations,
            )),
            _ => None,
        })
        .collect();
    assert_eq!(expand.len(), 1);
    assert_eq!(expand[0].0, vec![2, 3], "node 1's groups return");
    assert_eq!(
        expand[0].1 as u64, elastic.experts_migrated,
        "every migrated expert returns home"
    );
    assert_eq!(expand[0].2, 2);
    // `replicas_consistent` spans the rejoined ranks too: the expand
    // seeding was bitwise.
    assert_bitwise_parity(&clean, &elastic, "shrink-then-expand");
}

/// Scenario 3 (kill during migration): a second node dies while the
/// world is already shrunk — adopters included — and the run composes a
/// second shrink, still bitwise on the clean trajectory.
#[test]
fn second_kill_while_degraded_composes_shrinks() {
    let topo = three_node_topo();
    let clean = run(config(topo));
    let elastic = run(RuntimeConfig {
        faults: FaultPlan::At(vec![
            FaultEvent {
                iteration: 5,
                node: 2,
            },
            FaultEvent {
                iteration: 8,
                node: 1,
            },
        ]),
        elastic: ElasticConfig::shrink(1),
        ..config(topo)
    });
    assert_eq!(elastic.faults_injected, 2);
    assert_eq!(elastic.recoveries, 2);
    assert_eq!(elastic.elastic_shrinks, 2);
    assert!(
        elastic.experts_migrated > 0,
        "both shrinks migrated ownership"
    );
    assert_bitwise_parity(&clean, &elastic, "second kill while degraded");
}

/// Tentpole: the degraded window runs the *ring over the survivors* —
/// every degraded iteration, from the first one after the shrink — and
/// the adopter-driven survivor fold still lands bitwise on the
/// fixed-shape trajectory.
#[test]
fn degraded_window_runs_survivor_ring_not_star() {
    let topo = two_node_topo();
    let clean = run(config(topo));
    let shrunk = run(RuntimeConfig {
        faults: kill(7, 1),
        elastic: ElasticConfig::shrink(1),
        ..config(topo)
    });
    assert_eq!(shrunk.elastic_shrinks, 1);
    // Kill at 7 rolled back to 4: 5..=12 all run the survivor ring.
    assert_eq!(shrunk.degraded_iterations, 8);
    assert_eq!(
        shrunk.survivor_ring_iterations, shrunk.degraded_iterations,
        "every degraded iteration runs the survivor ring"
    );
    assert_eq!(shrunk.phase(Phase::Reduce).count, 0);
    // 15 executed = 12 + 3 replayed; minus the aborted iteration 7,
    // every step ran exactly one ring.
    assert_eq!(
        shrunk.phase(Phase::ReduceScatter).count,
        shrunk.iterations_executed - 1
    );
    assert_bitwise_parity(&clean, &shrunk, "survivor ring");
}

/// Tentpole: a second kill while *on the survivor ring* — the kill at 8
/// strikes degraded ring iterations, adopters included — aborts the
/// survivor ring cleanly, composes a second shrink, and resumes the
/// doubly-shrunk world straight onto the rebuilt survivor ring.
#[test]
fn second_kill_on_survivor_ring_aborts_and_recovers() {
    let topo = three_node_topo();
    let clean = run(config(topo));
    let elastic = run(RuntimeConfig {
        faults: FaultPlan::At(vec![
            FaultEvent {
                iteration: 5,
                node: 2,
            },
            FaultEvent {
                iteration: 8,
                node: 1,
            },
        ]),
        elastic: ElasticConfig::shrink(1),
        ..config(topo)
    });
    assert_eq!(elastic.recoveries, 2);
    assert_eq!(elastic.elastic_shrinks, 2);
    assert!(
        elastic.ring_aborts >= 2,
        "the second abort must come from the survivor ring itself"
    );
    // Window 1: survivor ring 5..=7 (the kill at 8 strikes the survivor
    // ring and is not counted). Window 2: survivor ring 5..=12.
    assert_eq!(elastic.degraded_iterations, 3 + 8);
    assert_eq!(
        elastic.survivor_ring_iterations, elastic.degraded_iterations,
        "every degraded iteration runs the survivor ring"
    );
    // 5 + 4 + 8 = 17 executed; the two struck iterations (5 and 8)
    // aborted, every other one ran exactly one ring.
    assert_eq!(elastic.phase(Phase::Reduce).count, 0);
    assert_eq!(
        elastic.phase(Phase::ReduceScatter).count,
        elastic.iterations_executed - 2
    );
    assert_bitwise_parity(&clean, &elastic, "second kill on the survivor ring");
}

/// Satellite regression: the expand event's degraded-iteration count is
/// the *executed* counter delta, not iteration arithmetic. A second
/// kill inside the degraded window rolls training back without closing
/// the window; deriving the count from `it - degraded_since` would drop
/// the replayed degraded iterations.
#[test]
fn expand_after_second_kill_reports_executed_degraded_count() {
    let topo = three_node_topo();
    let clean = run(config(topo));
    let elastic = run(RuntimeConfig {
        faults: FaultPlan::At(vec![
            FaultEvent {
                iteration: 5,
                node: 2,
            },
            FaultEvent {
                iteration: 8,
                node: 1,
            },
        ]),
        elastic: ElasticConfig {
            shrink: true,
            replication: 1,
            rejoin_after: Some(7),
        },
        ..config(topo)
    });
    assert_eq!(elastic.elastic_shrinks, 2);
    assert_eq!(elastic.elastic_expands, 1);
    // First window executes 5..=7 degraded (the kill at 8 aborts), the
    // rollback resumes at 4 *inside* the still-open window, and 5..=10
    // execute degraded before the expand fires at iteration 11
    // (degraded_since 4 + rejoin_after 7): 3 + 6 = 9 executed degraded
    // iterations. The naive `(it - 1) - degraded_since` says 6.
    let expand_counts: Vec<u64> = elastic
        .timeline
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ElasticExpand {
                degraded_iterations,
                ..
            } => Some(*degraded_iterations),
            _ => None,
        })
        .collect();
    assert_eq!(expand_counts, vec![9]);
    assert_eq!(
        elastic.degraded_iterations, 9,
        "the summary counter and the expand event must agree"
    );
    assert_bitwise_parity(&clean, &elastic, "expand after second kill");
}

/// Tentpole: an elastic run configured for the *hierarchical* collective
/// falls back to the survivor ring while degraded (leader-chain
/// placement assumes the full shape) and returns to the leader chain
/// after the expand — bitwise throughout.
#[test]
fn hierarchical_elastic_falls_back_to_survivor_ring() {
    let topo = two_node_topo();
    let cfg = || RuntimeConfig {
        collective: CollectiveKind::Hierarchical,
        ..config(topo)
    };
    let clean = run(cfg());
    let elastic = run(RuntimeConfig {
        faults: kill(7, 1),
        elastic: ElasticConfig {
            shrink: true,
            replication: 1,
            rejoin_after: Some(3),
        },
        ..cfg()
    });
    assert_eq!(elastic.elastic_shrinks, 1);
    assert_eq!(elastic.elastic_expands, 1);
    assert!(
        elastic.survivor_ring_iterations > 0,
        "the degraded window must run the survivor ring"
    );
    assert!(
        elastic.hierarchical_iterations > 0,
        "the full-shape iterations run the leader chain"
    );
    assert_eq!(
        elastic.survivor_ring_iterations, elastic.degraded_iterations,
        "every degraded iteration runs the survivor ring"
    );
    assert_eq!(
        elastic.hierarchical_iterations + elastic.survivor_ring_iterations,
        elastic.iterations_executed - 1,
        "every non-aborted iteration ran exactly one collective"
    );
    assert_eq!(
        elastic.phase(Phase::ReduceScatter).count,
        elastic.iterations_executed - 1
    );
    assert_bitwise_parity(&clean, &elastic, "hierarchical elastic fallback");
}

/// Scenario 4 (torn persist during shrink + total loss): the store dies
/// mid-checkpoint while the world is shrunk, then the last surviving
/// node is killed. With nobody to shrink onto, the elastic run falls
/// back to a full-shape restart from the last committed pre-tear
/// checkpoint — storage-only — and still lands bitwise.
#[test]
fn torn_persist_during_shrink_recovers_storage_only() {
    let topo = two_node_topo();
    let cfg = || RuntimeConfig {
        two_level: false,
        faults: kill(5, 1),
        elastic: ElasticConfig::shrink(1),
        ..config(topo)
    };
    let clean = run(config(topo));

    // Probe the put order of the shrunk run; cut the write budget three
    // puts into the post-shrink checkpoint at iteration 8.
    let recording = Arc::new(RecordingStore::new());
    let probe = run_on(cfg(), recording.clone());
    assert_eq!(probe.elastic_shrinks, 1);
    let ckpt8_start = recording
        .log()
        .iter()
        .position(|(k, _)| k.version == 8)
        .expect("post-shrink checkpoint persisted");
    let budget = ckpt8_start + 3;

    let flaky: Arc<dyn ObjectStore> = Arc::new(FlakyStore::new(
        Arc::new(MemoryObjectStore::new()),
        budget as i64,
    ));
    let torn = run_on(
        RuntimeConfig {
            faults: FaultPlan::At(vec![
                FaultEvent {
                    iteration: 5,
                    node: 1,
                },
                FaultEvent {
                    iteration: 9,
                    node: 0,
                },
            ]),
            ..cfg()
        },
        flaky,
    );
    assert_eq!(torn.elastic_shrinks, 1, "first kill shrinks");
    assert_eq!(torn.recoveries, 2);
    assert!(
        !torn.ckpt_engine.errors.is_empty(),
        "the injected mid-batch store death must be observed"
    );
    // The torn checkpoint at 8 never committed: the total loss at 9
    // restarted from 4 — iterations 1..5, replay 5..9, replay 5..12.
    assert_eq!(torn.iterations_executed, 18);
    assert_bitwise_parity(&clean, &torn, "torn persist during shrink");
}

/// Chain-aware GC riding a live elastic run: superseded checkpoint
/// groups are dropped from the store while a late kill still recovers
/// bitwise from what remains.
#[test]
fn gc_reclaims_store_bytes_without_breaking_recovery() {
    let topo = two_node_topo();
    let base = RuntimeConfig {
        total_iterations: 16,
        i_ckpt: 2,
        ..config(topo)
    };
    let plain = run(base.clone());
    let gc_cfg = RuntimeConfig {
        ckpt: moc_system::ckpt::EngineConfig {
            rebase_interval: 2,
            gc_interval: 1,
            gc_keep_last: 2,
            ..moc_system::ckpt::EngineConfig::default()
        },
        ..base.clone()
    };
    let gc_clean = run(gc_cfg.clone());
    assert!(gc_clean.ckpt_engine.writer.gc_runs > 0, "GC must run");
    assert!(
        gc_clean.persisted_bytes < plain.persisted_bytes,
        "GC must reclaim store bytes: {} vs {}",
        gc_clean.persisted_bytes,
        plain.persisted_bytes
    );
    assert_eq!(
        bits(&plain.final_params),
        bits(&gc_clean.final_params),
        "GC must not touch the trajectory"
    );
    // A kill after many GC passes recovers bitwise from the pruned
    // store.
    let gc_faulted = run(RuntimeConfig {
        faults: kill(13, 1),
        elastic: ElasticConfig::shrink(1),
        ..gc_cfg
    });
    assert_eq!(gc_faulted.elastic_shrinks, 1);
    assert_bitwise_parity(&plain, &gc_faulted, "kill after GC");
}

/// The GC × expand regression: while the world is shrunk the survivor
/// GCs away every version it once shared with the dead node's frozen
/// chain; a kill striking the very iteration the replacement ranks
/// rejoin must still recover — the rejoin-barrier checkpoint re-commits
/// the current state across all writers, storage-only.
#[test]
fn kill_right_after_expand_recovers_despite_gc() {
    let topo = two_node_topo();
    let cfg = RuntimeConfig {
        two_level: false,
        ckpt: moc_system::ckpt::EngineConfig {
            rebase_interval: 2,
            gc_interval: 1,
            gc_keep_last: 2,
            ..moc_system::ckpt::EngineConfig::default()
        },
        i_ckpt: 2,
        ..config(topo)
    };
    let clean = run(cfg.clone());
    let elastic = run(RuntimeConfig {
        faults: FaultPlan::At(vec![
            FaultEvent {
                iteration: 5,
                node: 1,
            },
            // The expand fires at the top of iteration 9 (resume 4 +
            // rejoin_after 5); the kill strikes the same iteration.
            FaultEvent {
                iteration: 9,
                node: 0,
            },
        ]),
        elastic: ElasticConfig {
            shrink: true,
            replication: 1,
            rejoin_after: Some(5),
        },
        ..cfg
    });
    assert_eq!(
        elastic.elastic_shrinks, 2,
        "kill after expand shrinks again"
    );
    assert_eq!(elastic.elastic_expands, 1);
    assert!(elastic.ckpt_engine.writer.gc_runs > 0, "GC must have run");
    assert_bitwise_parity(&clean, &elastic, "kill right after expand with GC");
}

/// Calibration samples: every checkpoint contributes a snapshot-tier
/// `(bytes, secs)` sample, sync mode contributes persist samples, and
/// the fitted spec feeds back into the analytic projection.
#[test]
fn calibration_samples_feed_the_analytic_loop() {
    use moc_system::cluster::ClusterSpec;
    let topo = two_node_topo();
    // PEC rotation varies the per-checkpoint byte volume, giving the
    // least-squares fit distinct sample sizes.
    let summary = run(RuntimeConfig {
        total_iterations: 16,
        i_ckpt: 2,
        k_snapshot: 2,
        k_persist: 1,
        pec_mode: PecMode::WO,
        checkpoint_mode: moc_system::runtime::CheckpointMode::Sync,
        ..config(topo)
    });
    assert_eq!(
        summary.snapshot_samples.len() as u64,
        summary.checkpoints_taken
    );
    assert_eq!(
        summary.persist_samples.len() as u64,
        summary.checkpoints_taken,
        "sync mode must sample the persist tier"
    );
    assert!(summary
        .snapshot_samples
        .iter()
        .all(|&(b, s)| b > 0 && s >= 0.0));
    let distinct: std::collections::BTreeSet<u64> =
        summary.snapshot_samples.iter().map(|&(b, _)| b).collect();
    assert!(
        distinct.len() >= 2,
        "PEC rotation must vary checkpoint volume: {distinct:?}"
    );
    // Calibration is total: it either adopts a fit or keeps the base
    // constants, and the projection consumes the result.
    let base = ClusterSpec::a800();
    let calibrated = summary.calibrated_cluster(&base);
    assert!(calibrated.gpu.storage.snapshot.bandwidth_bytes_per_sec > 0.0);
    let projected = summary.analytic_projection_with(&calibrated);
    assert!(projected.total_sec > 0.0);
    assert_eq!(
        projected.requested_checkpoints,
        summary.checkpoints_taken.max(1)
    );
}

/// The exhaustive elastic sweep: scenarios × replication × collective.
/// Excluded from the default tier for wall time; CI runs it in the
/// scheduled exhaustive job.
#[test]
#[ignore = "exhaustive sweep: run via cargo test -- --ignored"]
fn exhaustive_elastic_sweep() {
    for topo in [two_node_topo(), three_node_topo()] {
        for collective in [CollectiveKind::Ring, CollectiveKind::Hierarchical] {
            let clean = run(RuntimeConfig {
                collective,
                ..config(topo)
            });
            for replication in [1usize, 2] {
                for rejoin_after in [None, Some(2)] {
                    let elastic = run(RuntimeConfig {
                        faults: kill(7, topo.nodes() - 1),
                        collective,
                        elastic: ElasticConfig {
                            shrink: true,
                            replication,
                            rejoin_after,
                        },
                        ..config(topo)
                    });
                    assert_eq!(elastic.elastic_shrinks, 1);
                    assert_eq!(elastic.elastic_expands, u64::from(rejoin_after.is_some()));
                    assert_bitwise_parity(
                        &clean,
                        &elastic,
                        &format!("{topo}/{collective}/r={replication}/rejoin={rejoin_after:?}"),
                    );
                }
            }
        }
    }
}
