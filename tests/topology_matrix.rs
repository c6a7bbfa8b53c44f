//! The topology scenario matrix: live runs over (dp, tp, pp, ep) grids
//! × fault kind (kill, straggle, torn persist) × collective kind.
//!
//! The contract pinned here is the one every later refactor must keep:
//!
//! * **Baseline equivalence** — the `tp · pp` members of a shard group
//!   step the same DP slice with the same gate noise, so a grid run is
//!   bitwise identical (final parameters *and* loss trajectory) to the
//!   `tp = pp = 1` baseline with the same `dp` and seed.
//! * **Group-aware recovery** — a mid-run rank kill on any shape is
//!   detected through the group collectives, recovers exactly the dead
//!   ranks' shard groups from the committed chain view, and lands back
//!   on the uninterrupted run's bitwise trajectory under full
//!   checkpointing.
//! * **Perturbation isolation** — stragglers and torn persists never
//!   change the numerics, only the measured timeline.
//!
//! The default tier sweeps a capped grid (7 shapes × kill + straggle,
//! plus one torn-persist scenario) to bound tier-1 wall time; the
//! exhaustive shapes × faults × collectives cross-product runs under
//! `cargo test -- --ignored` in its own CI step.

use moc_system::core::ParallelTopology;
use moc_system::runtime::{
    CollectiveKind, Coordinator, EventKind, Phase, RunSummary, RuntimeConfig, SlowEvent,
};
use moc_system::store::{FaultEvent, FaultPlan, MemoryObjectStore, ObjectStore};
use moc_system::train::PecMode;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::assert_digest;

/// One grid shape of the matrix: `(nodes, gpus/node, dp, tp, pp, ep)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape(usize, usize, usize, usize, usize, usize);

impl Shape {
    fn topology(self) -> ParallelTopology {
        let Shape(nodes, gpn, dp, tp, pp, ep) = self;
        ParallelTopology::new(nodes, gpn, dp, tp, pp, ep)
            .unwrap_or_else(|e| panic!("shape {self:?} invalid: {e}"))
    }

    /// The `tp = pp = 1` baseline with the same data parallelism.
    fn flat(self) -> ParallelTopology {
        let Shape(_, _, dp, _, _, ep) = self;
        ParallelTopology::dp_ep(1, dp, dp, ep).unwrap()
    }
}

/// The default-tier shape grid (capped for wall time: worlds ≤ 8). The
/// tiny 8-expert model has 4 layers, so `pp ≤ 4`; `ep` divides `dp`.
const SHAPES: &[Shape] = &[
    Shape(1, 4, 2, 2, 1, 2), // TP pairs
    Shape(1, 4, 2, 1, 2, 2), // PP stages
    Shape(2, 4, 2, 2, 2, 2), // full grid, shard group per node
    Shape(2, 4, 4, 2, 1, 2), // wider DP under TP, 2 EP groups
    Shape(2, 4, 4, 1, 2, 4), // wider DP under PP
    Shape(1, 8, 2, 4, 1, 2), // wide TP ring
    Shape(1, 8, 2, 1, 4, 2), // deep pipeline (one stage per layer)
];

fn config(topo: ParallelTopology, collective: CollectiveKind) -> RuntimeConfig {
    // Full checkpointing: recovery is lossless, so faulted runs must land
    // bitwise on the clean trajectory.
    RuntimeConfig {
        total_iterations: 10,
        i_ckpt: 4,
        eval_every: 5,
        seq_len: 8,
        k_snapshot: 8,
        k_persist: 8,
        pec_mode: PecMode::NONE,
        collective,
        heartbeat_timeout: Duration::from_millis(800),
        ..RuntimeConfig::tiny(topo)
    }
}

fn run(config: RuntimeConfig) -> RunSummary {
    run_on(config, Arc::new(MemoryObjectStore::new()))
}

/// The clean ring-collective run of a shape, computed once and shared
/// across tests (the baseline-equivalence and kill tests both compare
/// against it; runs are deterministic, so caching loses nothing and
/// keeps the default tier's wall time bounded).
fn clean_ring_run(shape: Shape) -> RunSummary {
    use std::collections::HashMap;
    use std::sync::{LazyLock, Mutex};
    static CACHE: LazyLock<Mutex<HashMap<Shape, RunSummary>>> =
        LazyLock::new(|| Mutex::new(HashMap::new()));
    CACHE
        .lock()
        .unwrap()
        .entry(shape)
        .or_insert_with(|| run(config(shape.topology(), CollectiveKind::Ring)))
        .clone()
}

fn run_on(config: RuntimeConfig, store: Arc<dyn ObjectStore>) -> RunSummary {
    Coordinator::new(config, store).unwrap().run().unwrap()
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|x| x.to_bits()).collect()
}

/// The full grid shape: a shard group per node, `dp = tp = pp = 2`.
const FULL_GRID: Shape = Shape(2, 4, 2, 2, 2, 2);

/// Committed digest of [`FULL_GRID`]'s clean final parameters under
/// [`config`]. Recorded from the coordinator-star collective of commit
/// `03e28c9`, where the ring run hashed equal; every collective must
/// keep reproducing it unedited, in the dev and the release profile.
const FULL_GRID_DIGEST: u64 = 0x55ae_8182_de8f_60d8;

fn mid_run_kill(topo: &ParallelTopology) -> FaultPlan {
    // Kill the last node: on multi-node shapes a strict subset of shard
    // groups dies; on single-node shapes the whole cluster blacks out
    // and recovery is storage-only.
    FaultPlan::At(vec![FaultEvent {
        iteration: 7,
        node: topo.nodes() - 1,
    }])
}

/// Asserts a faulted grid run recovered onto the clean run's bitwise
/// trajectory and that the recovery was group-aware.
fn assert_recovered_bitwise(shape: Shape, clean: &RunSummary, faulted: &RunSummary) {
    let topo = shape.topology();
    assert_eq!(faulted.faults_injected, 1, "{shape:?}");
    assert!(faulted.recoveries >= 1, "{shape:?}");
    assert!(faulted.replicas_consistent, "{shape:?}");
    assert!(faulted.tp_groups_consistent, "{shape:?}");
    assert_eq!(
        bits(&clean.final_params),
        bits(&faulted.final_params),
        "{shape:?}: recovery must rejoin the unfaulted trajectory bitwise"
    );
    // The kill took out whole shard groups: every rank of the dead node
    // maps into the groups the recovery reports.
    let dead_node = topo.nodes() - 1;
    let expected_groups: std::collections::BTreeSet<usize> = topo
        .global_ranks_on_node(dead_node)
        .into_iter()
        .map(|r| topo.coords_of(r).dp)
        .collect();
    assert!(
        faulted.shard_groups_recovered >= expected_groups.len() as u64,
        "{shape:?}: {} groups recovered, expected at least {expected_groups:?}",
        faulted.shard_groups_recovered
    );
    let recovery_groups: Vec<Vec<usize>> = faulted
        .timeline
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Recovery { shard_groups, .. } => Some(shard_groups.clone()),
            _ => None,
        })
        .collect();
    assert!(
        recovery_groups
            .iter()
            .any(|g| expected_groups.iter().all(|d| g.contains(d))),
        "{shape:?}: recovery events {recovery_groups:?} must cover the dead node's \
         shard groups {expected_groups:?}"
    );
}

/// Matrix axis 1 (clean runs): every grid shape reproduces its
/// `tp = pp = 1` baseline bitwise — final parameters and the full loss
/// trajectory — on the ring collective, and the full grid shape ends on
/// its committed cross-commit digest.
#[test]
fn grid_runs_match_flat_baseline_bitwise() {
    let mut baselines: std::collections::HashMap<(usize, usize), RunSummary> =
        std::collections::HashMap::new();
    for &shape in SHAPES {
        let Shape(_, _, dp, _, _, ep) = shape;
        let flat = baselines
            .entry((dp, ep))
            .or_insert_with(|| run(config(shape.flat(), CollectiveKind::Ring)));
        let grid = clean_ring_run(shape);
        assert!(grid.replicas_consistent, "{shape:?}");
        assert!(grid.tp_groups_consistent, "{shape:?}");
        assert_eq!(
            bits(&flat.final_params),
            bits(&grid.final_params),
            "{shape:?}: grid must reproduce the flat baseline bitwise"
        );
        assert_eq!(
            flat.val_curve, grid.val_curve,
            "{shape:?}: loss trajectory must match the flat baseline"
        );
        assert_eq!(flat.plt, grid.plt, "{shape:?}: PLT bookkeeping must match");
    }
    // The per-group ring folds of the full grid land on the committed
    // digest.
    let ring = clean_ring_run(FULL_GRID);
    assert_digest("full grid ring", &ring.final_params, FULL_GRID_DIGEST);
    // The group phases only exist in mixed-parallelism worlds.
    assert!(ring.phase(Phase::TpSync).count > 0);
    assert!(ring.phase(Phase::PpBubble).count > 0);
}

/// Matrix axis 2 (kill): a mid-run node kill on every shape is detected
/// through the group collectives and recovers bitwise-identically on
/// the ring collective. Covers the acceptance scenario
/// `dp ≥ 2, tp ≥ 2, pp ≥ 2` via the full grid shape.
#[test]
fn node_kill_recovers_bitwise_on_every_shape() {
    for &shape in SHAPES {
        let topo = shape.topology();
        let clean = clean_ring_run(shape);
        let faulted = run(RuntimeConfig {
            faults: mid_run_kill(&topo),
            ..config(topo, CollectiveKind::Ring)
        });
        assert_recovered_bitwise(shape, &clean, &faulted);
    }
}

/// Matrix axis 3 (straggle): a sustained straggler on the highest
/// global rank (the last TP slice of the last stage of the last DP
/// group) stalls the measured timeline on every shape without
/// perturbing the numerics, under the ring collective.
#[test]
fn straggler_is_numerically_invisible_on_every_shape() {
    for &shape in SHAPES {
        let topo = shape.topology();
        let cfg = RuntimeConfig {
            heartbeat_timeout: Duration::from_secs(4),
            ..config(topo, CollectiveKind::Ring)
        };
        let smooth = run(cfg.clone());
        let slowed = run(RuntimeConfig {
            stragglers: vec![SlowEvent::sustained(topo.world_size() - 1, 3, 2, 2.5)],
            ..cfg
        });
        assert_eq!(slowed.stragglers_injected, 2, "{shape:?}");
        assert_eq!(slowed.recoveries, 0, "{shape:?}: slow is not dead");
        assert!(
            slowed.straggler_stall_secs() > 0.0,
            "{shape:?}: stall must be measured"
        );
        assert_eq!(
            bits(&smooth.final_params),
            bits(&slowed.final_params),
            "{shape:?}: a straggler must not change the trajectory"
        );
    }
}

/// Matrix axis 4 (torn persist): on the full grid shape, the store dies
/// between shard writes of a checkpoint, a later kill forces
/// storage-only recovery, and the run reconstructs from the last
/// complete manifest onto the clean bitwise trajectory.
#[test]
fn torn_persist_recovers_bitwise_on_the_grid() {
    use moc_system::ckpt::testing::{FlakyStore, RecordingStore};
    let topo = FULL_GRID.topology();
    let cfg = || config(topo, CollectiveKind::Ring);

    // Record a clean run's put order, then cut the write budget midway
    // through the checkpoint at iteration 8.
    let recording = Arc::new(RecordingStore::new());
    let clean = run_on(cfg(), recording.clone());
    let ckpt8_start = recording
        .log()
        .iter()
        .position(|(k, _)| k.version == 8)
        .expect("checkpoint at iteration 8 persisted");
    let budget = ckpt8_start + 3;

    let flaky: Arc<dyn ObjectStore> = Arc::new(FlakyStore::new(
        Arc::new(MemoryObjectStore::new()),
        budget as i64,
    ));
    let faulted = run_on(
        RuntimeConfig {
            two_level: false,
            faults: FaultPlan::At(vec![FaultEvent {
                iteration: 9,
                node: 1,
            }]),
            ..cfg()
        },
        flaky,
    );
    assert_eq!(faulted.recoveries, 1);
    assert!(
        !faulted.ckpt_engine.errors.is_empty(),
        "the injected mid-batch crash must be observed"
    );
    // The torn checkpoint at 8 never committed: the kill at 9 resumed
    // from 4, redoing at least 5 iterations.
    assert!(
        faulted.iterations_executed >= 10 + 5,
        "resume must fall back past the torn checkpoint: {}",
        faulted.iterations_executed
    );
    assert!(faulted.replicas_consistent);
    assert_eq!(
        bits(&clean.final_params),
        bits(&faulted.final_params),
        "torn-persist recovery must land on the clean trajectory"
    );
}

/// The exhaustive sweep: shapes × collectives × faults cross-product.
/// Excluded from the default tier for wall time; CI runs it in a
/// dedicated `cargo test -- --ignored` step.
#[test]
#[ignore = "exhaustive sweep: run via cargo test -- --ignored"]
fn exhaustive_shape_fault_collective_sweep() {
    for &shape in SHAPES {
        let topo = shape.topology();
        for collective in [CollectiveKind::Ring, CollectiveKind::Hierarchical] {
            // The clean run doubles as the put-order probe for the
            // torn-persist leg.
            let recording = Arc::new(moc_system::ckpt::testing::RecordingStore::new());
            let clean = run_on(config(topo, collective), recording.clone());
            // Kill.
            let killed = run(RuntimeConfig {
                faults: mid_run_kill(&topo),
                ..config(topo, collective)
            });
            assert_recovered_bitwise(shape, &clean, &killed);
            // Straggle.
            let slowed = run(RuntimeConfig {
                stragglers: vec![SlowEvent::sustained(topo.world_size() - 1, 3, 2, 2.0)],
                heartbeat_timeout: Duration::from_secs(4),
                ..config(topo, collective)
            });
            assert_eq!(
                bits(&clean.final_params),
                bits(&slowed.final_params),
                "{shape:?}/{collective}: straggler must be invisible"
            );
            // Torn persist + kill, storage-only: cut the write budget
            // three puts into the first checkpoint (iteration 4), so
            // the bootstrap commits but v4 tears and recovery falls
            // back to iteration 0.
            let budget = recording
                .log()
                .iter()
                .position(|(k, _)| k.version == 4)
                .expect("checkpoint at iteration 4 persisted")
                + 3;
            let flaky: Arc<dyn ObjectStore> = Arc::new(moc_system::ckpt::testing::FlakyStore::new(
                Arc::new(MemoryObjectStore::new()),
                budget as i64,
            ));
            let torn = run_on(
                RuntimeConfig {
                    two_level: false,
                    faults: mid_run_kill(&topo),
                    ..config(topo, collective)
                },
                flaky,
            );
            assert!(torn.replicas_consistent, "{shape:?}/{collective}");
            assert_eq!(
                bits(&clean.final_params),
                bits(&torn.final_params),
                "{shape:?}/{collective}: torn persist must recover bitwise"
            );
        }
    }
}
