//! All-reduce scaling: flat ring vs hierarchical.
//!
//! The chunked ring all-reduce pipelines the DP-order fold along peer
//! channels, so each rank touches ~`2 · |grad|` elements regardless of
//! world size. The two-level hierarchical reduce folds each node's
//! members on a leader first and chains only the leaders, so the
//! cross-node hop count scales with the node count rather than the
//! world size. This bench sweeps world ∈ {2, 4, 8, 16, 32} under both
//! collectives and reports the per-rank ring and hierarchical times
//! staying ~flat (busy time is reported, not wall time, so the numbers
//! measure the algorithm rather than how many hardware threads the host
//! happens to have). A final degraded-window row kills a node under
//! elastic shrink and reports the survivor-ring trajectory: every
//! degraded iteration runs the ring rebuilt over the survivors. The
//! sweep is emitted as `BENCH_allreduce.json` — including ring-wait
//! p50/p99 from the per-phase log histograms — so the perf trajectory
//! is machine-readable across commits.
//!
//! Run with `cargo bench --bench fig17_allreduce_scaling`.

use moc_bench::{banner, millis};
use moc_obs::{Json, Report};
use moc_runtime::{CollectiveKind, Coordinator, ElasticConfig, Phase, RunSummary, RuntimeConfig};
use moc_store::{FaultEvent, FaultPlan, MemoryObjectStore};
use std::sync::Arc;
use std::time::Duration;

/// (world, nodes, gpus_per_node, ep) sweep points.
const SWEEP: [(usize, usize, usize, usize); 5] = [
    (2, 1, 2, 2),
    (4, 2, 2, 4),
    (8, 2, 4, 8),
    (16, 2, 8, 8),
    (32, 4, 8, 8),
];

fn run(point: (usize, usize, usize, usize), collective: CollectiveKind) -> RunSummary {
    let (world, nodes, gpus, ep) = point;
    let topo = moc_core::ParallelTopology::dp_ep(nodes, gpus, world, ep).expect("topology");
    let config = RuntimeConfig {
        total_iterations: 8,
        i_ckpt: 1000, // bootstrap only: isolate the iteration loop
        eval_every: 0,
        seq_len: 8,
        collective,
        // Generous detection window: 32 compute threads on a small host
        // must not be declared dead by scheduling skew.
        heartbeat_timeout: Duration::from_secs(20),
        ..RuntimeConfig::tiny(topo)
    };
    Coordinator::new(config, Arc::new(MemoryObjectStore::new()))
        .expect("valid config")
        .run()
        .expect("fault-free run")
}

/// Degraded-window row: a node dies mid-run under elastic shrink and the
/// survivors resume on the rebuilt ring, running it to the end of the
/// run.
fn run_degraded(point: (usize, usize, usize, usize)) -> RunSummary {
    let (world, nodes, gpus, ep) = point;
    let topo = moc_core::ParallelTopology::dp_ep(nodes, gpus, world, ep).expect("topology");
    let config = RuntimeConfig {
        total_iterations: 12,
        i_ckpt: 4,
        eval_every: 0,
        seq_len: 8,
        collective: CollectiveKind::Ring,
        heartbeat_timeout: Duration::from_secs(2),
        faults: FaultPlan::At(vec![FaultEvent {
            iteration: 6,
            node: 1,
        }]),
        elastic: ElasticConfig::shrink(1),
        ..RuntimeConfig::tiny(topo)
    };
    Coordinator::new(config, Arc::new(MemoryObjectStore::new()))
        .expect("valid config")
        .run()
        .expect("elastic run")
}

fn main() {
    banner("Fig. 17 — all-reduce scaling: flat ring vs hierarchical");
    println!("tiny 8-expert LM, 8 measured iterations per point, per-phase busy time\n");
    println!(
        "{:>6} {:>15} {:>15} {:>15} {:>12}",
        "world", "ring per-rank", "hier per-rank", "ring wait", "ring allocs"
    );
    let mut ring_rank = Vec::new();
    let mut hier_rank = Vec::new();
    let mut world_entries: Vec<Json> = Vec::new();
    for point in SWEEP {
        let ring = run(point, CollectiveKind::Ring);
        let hier = run(point, CollectiveKind::Hierarchical);
        // Least-disturbed iteration: on an oversubscribed host the mean
        // measures the scheduler, the min measures the algorithm.
        let ring_secs =
            ring.phase(Phase::ReduceScatter).min_secs + ring.phase(Phase::AllGather).min_secs;
        let hier_secs =
            hier.phase(Phase::ReduceScatter).min_secs + hier.phase(Phase::AllGather).min_secs;
        println!(
            "{:>6} {:>15} {:>15} {:>15} {:>12}",
            point.0,
            millis(ring_secs),
            millis(hier_secs),
            millis(ring.phase(Phase::RingWait).mean_secs()),
            ring.collective_allocs,
        );
        let wait = ring.phase(Phase::RingWait);
        world_entries.push(
            Report::new()
                .field("world", point.0)
                .field("ring_rank_min_secs", ring_secs)
                .field("hier_rank_min_secs", hier_secs)
                .field("ring_wait_mean_secs", wait.mean_secs())
                .field("ring_wait_p50_secs", wait.p50_secs())
                .field("ring_wait_p99_secs", wait.p99_secs())
                .field("collective_allocs", ring.collective_allocs)
                .json(),
        );
        ring_rank.push(ring_secs);
        hier_rank.push(hier_secs);
    }

    let ring_growth = ring_rank.last().unwrap() / ring_rank.first().unwrap().max(1e-9);
    let hier_growth = hier_rank.last().unwrap() / hier_rank.first().unwrap().max(1e-9);
    let hier_vs_ring = hier_rank.last().unwrap() / ring_rank.last().unwrap().max(1e-9);
    println!(
        "\nworld 2 → 32: per-rank ring work grew {ring_growth:.1}x, hierarchical \
         grew {hier_growth:.1}x ({hier_vs_ring:.2}x the flat ring at world 32)"
    );
    assert!(
        ring_growth < 2.0,
        "per-rank ring time must stay ~flat (got {ring_growth:.1}x)"
    );
    // The two-level fold must not cost more per rank than the flat ring
    // at the largest world (10% scheduler-noise slack on the min).
    assert!(
        hier_vs_ring <= 1.10,
        "hierarchical per-rank time must not exceed the flat ring at the \
         largest world (got {hier_vs_ring:.2}x)"
    );

    // Degraded-window row: kill at 6 rolls back to the checkpoint at 4,
    // and 5..=12 run the ring rebuilt over the survivors.
    let point = SWEEP[2];
    let degraded = run_degraded(point);
    println!(
        "\ndegraded world {}: {} degraded iteration(s), {} on the survivor \
         ring (survivor per-rank min {})",
        point.0,
        degraded.degraded_iterations,
        degraded.survivor_ring_iterations,
        millis(
            degraded.phase(Phase::ReduceScatter).min_secs
                + degraded.phase(Phase::AllGather).min_secs
        ),
    );
    assert!(
        degraded.degraded_iterations > 0,
        "the kill must shrink the run"
    );
    assert_eq!(
        degraded.survivor_ring_iterations, degraded.degraded_iterations,
        "every degraded iteration must run the survivor ring"
    );
    let degraded_entry = Report::new()
        .field("world", point.0)
        .field("degraded_iterations", degraded.degraded_iterations)
        .field(
            "survivor_ring_iterations",
            degraded.survivor_ring_iterations,
        )
        .field(
            "survivor_ring_rank_min_secs",
            degraded.phase(Phase::ReduceScatter).min_secs
                + degraded.phase(Phase::AllGather).min_secs,
        )
        .json();

    // Machine-readable trajectory, through the shared report schema.
    let json_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_allreduce.json");
    Report::new()
        .field("bench", "fig17_allreduce_scaling")
        .field("worlds", world_entries)
        .field("degraded", degraded_entry)
        .field("ring_rank_growth", ring_growth)
        .field("hier_rank_growth", hier_growth)
        .field("hier_vs_ring_at_max_world", hier_vs_ring)
        .write(&json_path)
        .expect("write BENCH_allreduce.json");
    println!("wrote {}", json_path.display());
}
