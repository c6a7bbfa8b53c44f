//! Integration tests of the decentralized collective layer: ring and
//! hierarchical runs end on committed cross-commit final-parameter
//! digests, a node killed mid-all-reduce surfaces as a detected fault
//! with a clean recovery (converging bitwise-identical to an unfaulted
//! run), the steady-state ring allocates no gradient buffers, and
//! injected stragglers stall the pipeline measurably without perturbing
//! the numerics.

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

fn base_config(collective: CollectiveKind) -> RuntimeConfig {
    // 2 nodes × 2 GPUs, DP = EP = 4: two experts of the tiny 8-expert LM
    // per rank, two ranks per node.
    let topo = ParallelTopology::dp_ep(2, 2, 4, 4).unwrap();
    RuntimeConfig {
        total_iterations: 10,
        i_ckpt: 4,
        eval_every: 0,
        seq_len: 8,
        collective,
        heartbeat_timeout: Duration::from_millis(800),
        ..RuntimeConfig::tiny(topo)
    }
}

fn run(config: RuntimeConfig) -> RunSummary {
    Coordinator::new(
        config,
        Arc::new(MemoryObjectStore::new()) as Arc<dyn ObjectStore>,
    )
    .unwrap()
    .run()
    .unwrap()
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|x| x.to_bits()).collect()
}

/// Committed digest of `base_config`'s final parameters. Recorded from
/// the coordinator-star collective of commit `03e28c9`, where the ring
/// run hashed equal; every collective must keep reproducing it
/// unedited, in the dev and the release profile.
const BASE_DIGEST: u64 = 0x9cb8_e6f6_3174_70d7;

/// Committed digests of the three shapes of
/// `hierarchical_is_bitwise_identical_to_ring_across_shapes`, recorded
/// the same way.
const SHAPE_DIGESTS: [u64; 3] = [
    0x9cb8_e6f6_3174_70d7,
    0x539a_37ef_1d2e_acea,
    0x9cb8_e6f6_3174_70d7,
];

/// Cross-commit anchor: the ring run of `base_config` ends on the
/// committed final-parameter digest with consistent replicas, and every
/// iteration ran exactly one ring step — no gradient passes through the
/// coordinator.
#[test]
fn ring_run_matches_committed_digest() {
    let ring = run(base_config(CollectiveKind::Ring));
    assert!(ring.replicas_consistent);
    assert_digest("ring", &ring.final_params, BASE_DIGEST);
    assert_eq!(ring.phase(Phase::Reduce).count, 0);
    assert_eq!(
        ring.phase(Phase::ReduceScatter).count,
        ring.iterations_executed
    );
    assert_eq!(ring.phase(Phase::AllGather).count, ring.iterations_executed);
}

/// Acceptance: a node killed mid-all-reduce makes the surviving ring
/// peers abort instead of hanging; the coordinator detects the death,
/// recovers, resumes straight onto the rebuilt ring, and the run
/// converges bitwise-identical to an unfaulted ring run under full
/// checkpointing.
#[test]
fn node_kill_mid_allreduce_recovers_bitwise_identical() {
    let full = RuntimeConfig {
        k_snapshot: 8,
        k_persist: 8,
        pec_mode: PecMode::NONE,
        ..base_config(CollectiveKind::Ring)
    };
    let faulted_config = RuntimeConfig {
        faults: FaultPlan::At(vec![FaultEvent {
            iteration: 7,
            node: 1,
        }]),
        ..full.clone()
    };
    let clean = run(full);
    let faulted = run(faulted_config);

    assert_eq!(faulted.faults_injected, 1);
    assert_eq!(faulted.recoveries, 1);
    assert!(faulted.ring_aborts >= 1, "survivors must abort the ring");
    assert!(faulted.replicas_consistent);
    assert!(
        faulted
            .timeline
            .iter()
            .any(|e| matches!(e.kind, EventKind::CollectiveAbort { .. })),
        "timeline must record the collective abort"
    );
    assert!(
        faulted
            .timeline
            .iter()
            .any(|e| matches!(e.kind, EventKind::FaultDetected { .. })),
        "the dead peer must surface as a detected fault"
    );
    // Every iteration but the aborted one completed a ring step; no
    // gradient ever reached the coordinator.
    assert_eq!(faulted.phase(Phase::Reduce).count, 0);
    assert_eq!(
        faulted.phase(Phase::ReduceScatter).count,
        faulted.iterations_executed - 1,
        "the recovery must resume straight onto the rebuilt ring"
    );
    assert_eq!(
        bits(&clean.final_params),
        bits(&faulted.final_params),
        "recovery must rejoin the unfaulted trajectory bitwise"
    );
}

/// Tentpole: the two-level hierarchical reduce reproduces the flat ring
/// bitwise, and both end on the committed digest, across world/node
/// shapes — flat DP over two and three nodes, and a mixed-TP world where
/// each DP group's members span nodes in two-slot runs.
#[test]
fn hierarchical_is_bitwise_identical_to_ring_across_shapes() {
    let shapes = [
        ParallelTopology::dp_ep(2, 2, 4, 4).unwrap(),
        ParallelTopology::dp_ep(3, 2, 6, 2).unwrap(),
        ParallelTopology::new(2, 4, 4, 2, 1, 4).unwrap(),
    ];
    for (topo, committed) in shapes.into_iter().zip(SHAPE_DIGESTS) {
        let cfg = |collective| RuntimeConfig {
            total_iterations: 10,
            i_ckpt: 4,
            eval_every: 0,
            seq_len: 8,
            collective,
            heartbeat_timeout: Duration::from_millis(800),
            ..RuntimeConfig::tiny(topo)
        };
        let ring = run(cfg(CollectiveKind::Ring));
        let hier = run(cfg(CollectiveKind::Hierarchical));
        assert_digest(&format!("{topo} ring"), &ring.final_params, committed);
        assert_digest(&format!("{topo} hier"), &hier.final_params, committed);
        assert!(hier.replicas_consistent, "{topo}: replicas diverged");
        assert_eq!(
            bits(&ring.final_params),
            bits(&hier.final_params),
            "{topo}: hierarchical must reproduce the flat ring bitwise"
        );
        // Every iteration ran the leader chain: no coordinator reduce,
        // and the summary counts each step as hierarchical.
        assert_eq!(hier.phase(Phase::Reduce).count, 0, "{topo}");
        assert_eq!(
            hier.hierarchical_iterations, hier.iterations_executed,
            "{topo}"
        );
        assert_eq!(
            hier.phase(Phase::ReduceScatter).count,
            hier.iterations_executed,
            "{topo}"
        );
    }
}

/// Acceptance: the collective layer's gradient-buffer footprint is fixed
/// at mesh build time — running twice as many iterations allocates not
/// one buffer more, i.e. the steady-state hot path is zero-alloc.
#[test]
fn ring_steady_state_allocates_no_gradient_buffers() {
    let topo = ParallelTopology::dp_ep(1, 2, 2, 2).unwrap();
    let config = |iters: u64| RuntimeConfig {
        total_iterations: iters,
        i_ckpt: 4,
        eval_every: 0,
        seq_len: 8,
        heartbeat_timeout: Duration::from_millis(800),
        ..RuntimeConfig::tiny(topo)
    };
    let short = run(config(6));
    let long = run(config(12));
    assert!(short.collective_allocs > 0, "mesh build must preallocate");
    assert_eq!(
        short.collective_allocs, long.collective_allocs,
        "extra iterations must not allocate gradient buffers"
    );
}

/// Satellite: an injected straggler stretches its rank's step, the stall
/// is recorded in the metrics and timeline (so checkpoint stall
/// amplification is measurable), and — because the slowdown is pure wall
/// time — the numerics are untouched: the run stays bitwise identical to
/// an uninjected one, with no spurious fault detection.
#[test]
fn straggler_injection_stalls_without_perturbing_numerics() {
    // Generous heartbeat: the injected stall (2× the measured compute
    // time) must stay comfortably below the ring deadline even when the
    // host is oversubscribed, or the straggler would be declared dead —
    // the documented timeout-detection ambiguity, not what this test is
    // about.
    let config = RuntimeConfig {
        heartbeat_timeout: Duration::from_secs(4),
        ..base_config(CollectiveKind::Ring)
    };
    let smooth = run(config.clone());
    let slowed = run(RuntimeConfig {
        stragglers: vec![SlowEvent::once(3, 1, 3.0)],
        ..config
    });
    assert_eq!(slowed.stragglers_injected, 1);
    assert_eq!(slowed.recoveries, 0, "a straggler is slow, not dead");
    assert_eq!(slowed.ring_aborts, 0);
    let stall = slowed.phase(Phase::StragglerStall);
    assert_eq!(stall.count, 1);
    assert!(stall.total_secs > 0.0, "induced stall must be measured");
    assert!(
        slowed
            .timeline
            .iter()
            .any(|e| matches!(e.kind, EventKind::StragglerInjected { rank: 1, .. })),
        "timeline must record the straggler"
    );
    assert_eq!(
        bits(&smooth.final_params),
        bits(&slowed.final_params),
        "a stall must not change the training trajectory"
    );
}

/// Satellite (model vs measured): the cumulative `StragglerStall` a
/// sustained `SlowEvent` run measures must agree with the
/// `moc_cluster::events` prediction `(factor − 1) · duration · fb_sec`,
/// where `fb_sec` is the run's own measured mean compute window.
///
/// Stated tolerance: agreement within a factor of two in either
/// direction. The injected stall is exact per covered iteration
/// (`(factor − 1) ×` that iteration's measured compute), so the only
/// divergence from the model is scheduler noise between the covered
/// iterations' compute times and the run-wide mean. When the rest of
/// the suite saturates the host that noise can exceed 2× for a single
/// run, so the scenario retries up to three times and passes on the
/// first in-tolerance run — a broken accounting (a lost iteration, a
/// double count, stall in the wrong units) misses the window on every
/// attempt.
#[test]
fn sustained_straggler_stall_matches_cluster_model() {
    let factor = 3.0;
    let duration = 4;
    let mut last = String::new();
    for attempt in 0..3 {
        let slowed = run(RuntimeConfig {
            total_iterations: 12,
            heartbeat_timeout: Duration::from_secs(4),
            stragglers: vec![SlowEvent::sustained(1, 3, duration, factor)],
            ..base_config(CollectiveKind::Ring)
        });
        assert_eq!(slowed.stragglers_injected, duration);
        let measured = slowed.straggler_stall_secs();
        assert!(measured > 0.0, "stall must be measured");
        let fb_sec = slowed.phase(Phase::Compute).mean_secs();
        let predicted = moc_system::cluster::straggler_stall_prediction(factor, duration, fb_sec);
        assert!(predicted > 0.0);
        let ratio = measured / predicted;
        if (0.5..=2.0).contains(&ratio) {
            return;
        }
        last = format!(
            "attempt {attempt}: measured stall {measured:.6}s vs predicted \
             {predicted:.6}s (ratio {ratio:.3})"
        );
    }
    panic!("{last} — outside the 2x tolerance on every attempt");
}

/// Satellite: a sustained degradation profile (`rank, start, duration,
/// factor`) slows every covered iteration, accumulates a cumulative
/// `StragglerStall` roughly `duration ×` a single hiccup's, and still
/// leaves the numerics bitwise untouched.
#[test]
fn sustained_degradation_profile_accumulates_stall() {
    let config = RuntimeConfig {
        heartbeat_timeout: Duration::from_secs(4),
        ..base_config(CollectiveKind::Ring)
    };
    let smooth = run(config.clone());
    let slowed = run(RuntimeConfig {
        stragglers: vec![SlowEvent::sustained(1, 3, 4, 2.5)],
        ..config
    });
    assert_eq!(
        slowed.stragglers_injected, 4,
        "one injection per covered iteration"
    );
    assert_eq!(slowed.recoveries, 0, "degraded, not dead");
    let stall = slowed.phase(Phase::StragglerStall);
    assert_eq!(stall.count, 4);
    assert!(
        (slowed.straggler_stall_secs() - stall.total_secs).abs() < 1e-12,
        "summary must surface the cumulative stall"
    );
    assert!(
        stall.total_secs > 3.0 * stall.max_secs / 2.0,
        "cumulative stall must reflect the sustained window, not one hiccup: {stall:?}"
    );
    let injected: Vec<u64> = slowed
        .timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::StragglerInjected { rank: 1, .. }))
        .map(|e| e.iteration)
        .collect();
    assert_eq!(
        injected,
        vec![3, 4, 5, 6],
        "profile covers start..start+duration"
    );
    assert_eq!(
        bits(&smooth.final_params),
        bits(&slowed.final_params),
        "sustained degradation must not change the training trajectory"
    );
}
