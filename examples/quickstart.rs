//! Quickstart: size a PEC checkpoint and plan fully sharded saving. The
//! `runtime_live` example takes it from there: asynchronous two-level
//! checkpoints of a training run, a node kill, and recovery.
//!
//! Run with `cargo run --example quickstart`.

use moc_system::core::sharding::{ShardingPlanner, ShardingStrategy};
use moc_system::core::ParallelTopology;
use moc_system::moe::presets;

fn main() {
    // 1. How much does PEC shrink a GPT-350M-16E checkpoint?
    let model = presets::gpt_350m_16e();
    let full = model.full_checkpoint_bytes();
    println!(
        "model {} — full checkpoint {:.2} GiB",
        model.name(),
        gib(full)
    );
    for k in [16, 8, 4, 2, 1] {
        println!(
            "  K_pec = {k:>2}: {:>6.2} GiB ({:.1}% of full)",
            gib(model.pec_checkpoint_bytes(k)),
            100.0 * model.pec_size_ratio(k)
        );
    }

    // 2. Who writes what under fully sharded checkpointing?
    let topo = ParallelTopology::case3();
    let planner = ShardingPlanner::new(model.clone(), topo).expect("model fits topology");
    let baseline = planner.plan_full(ShardingStrategy::Baseline);
    let sharded = planner.plan_full(ShardingStrategy::FullySharded);
    println!(
        "bottleneck rank: baseline {:.2} GiB -> fully sharded {:.2} GiB",
        gib(baseline.bottleneck().1),
        gib(sharded.bottleneck().1)
    );

    // 3. Asynchronous two-level checkpointing, node faults and recovery
    //    run on the live multi-rank runtime.
    println!(
        "next: `cargo run --release --example runtime_live` checkpoints, kills a node and recovers"
    );
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}
