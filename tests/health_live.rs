//! The streaming health plane against the live runtime: a gray
//! straggler schedule drives the slowed ranks into the degraded state
//! *before* any suspicion opens, the degradation lands in the run
//! summary, the timeline, and `health.json`, and when the degraded
//! node later dies the detector's corroboration hook declares it one
//! lease window sooner than an identical run without the health plane
//! — all without perturbing the numerics (the health-on run stays
//! bitwise on the dark run's trajectory).

use moc_system::core::ParallelTopology;
use moc_system::obs::{HealthState, Json};
use moc_system::runtime::{
    Coordinator, DetectorConfig, EventKind, ObsConfig, RunSummary, RuntimeConfig, SlowEvent,
};
use moc_system::store::{FaultEvent, FaultPlan, MemoryObjectStore};
use std::sync::Arc;
use std::time::Duration;

const LEASE: Duration = Duration::from_millis(700);

fn topo() -> ParallelTopology {
    // 2 nodes × 2 GPUs, DP = EP = 4: ranks 0-1 on node 0, 2-3 on node 1.
    ParallelTopology::dp_ep(2, 2, 4, 4).unwrap()
}

/// The acceptance schedule: ranks 2 and 3 (all of node 1) straggle at
/// 3× from iteration 3 through 6 (past the scorer's two-sample
/// baseline warmup), then node 1 is killed at iteration 7. A
/// `k_misses = 3` detector gives corroboration a full lease window to
/// shave off.
fn gray_then_dead() -> RuntimeConfig {
    RuntimeConfig {
        total_iterations: 12,
        i_ckpt: 4,
        eval_every: 6,
        seq_len: 16,
        // The tiny model computes ~300 ms per iteration (debug profile),
        // so a 3× straggler stalls its peers ~600 ms per step: the window
        // must dwarf that or the gray rank trips the ring's abort path
        // (collective_live's straggler tests pick the same margin).
        heartbeat_timeout: Duration::from_secs(4),
        detector: DetectorConfig {
            k_misses: 3,
            lease: Some(LEASE),
        },
        stragglers: vec![
            SlowEvent::sustained(2, 3, 4, 3.0),
            SlowEvent::sustained(3, 3, 4, 3.0),
        ],
        faults: FaultPlan::At(vec![FaultEvent {
            iteration: 7,
            node: 1,
        }]),
        ..RuntimeConfig::tiny(topo())
    }
}

fn run(config: RuntimeConfig) -> RunSummary {
    Coordinator::new(config, Arc::new(MemoryObjectStore::new()))
        .unwrap()
        .run()
        .unwrap()
}

fn detect_secs(summary: &RunSummary) -> f64 {
    summary
        .timeline
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::FaultDetected { detect_secs, .. } => Some(*detect_secs),
            _ => None,
        })
        .expect("the kill must be detected")
}

/// Sustained stragglers walk both of node 1's ranks out of the healthy
/// state before the kill, the degradations surface as timeline events
/// preceding the fault, and the per-rank table lands in `health.json`.
#[test]
fn gray_stragglers_degrade_before_suspicion_declares() {
    let dir = std::env::temp_dir().join(format!("moc-health-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = run(RuntimeConfig {
        obs: ObsConfig::with_trace(dir.join("trace.json")).with_health(),
        ..gray_then_dead()
    });
    assert_eq!(summary.recoveries, 1, "{}", summary.render_text());
    assert_eq!(summary.stragglers_injected, 8, "2 ranks × 4 iterations");

    // Both slowed ranks walked out of the healthy state while they
    // straggled (they may have recovered after the respawn — the
    // post-recovery iterations are not re-slowed, so a few calm samples
    // walk them back).
    let health = summary.health.as_ref().expect("health report");
    for rank in [2usize, 3] {
        let row = health
            .rows
            .iter()
            .find(|r| r.rank == rank)
            .unwrap_or_else(|| panic!("rank {rank} missing from health table"));
        assert!(row.transitions >= 1, "rank {rank} must have transitioned");
        assert!(
            row.worst_z >= 6.0,
            "rank {rank} must have scored a degraded-grade outlier, worst z {:.2}",
            row.worst_z
        );
        assert!(
            health.transitions.iter().any(|t| t.rank == rank
                && t.from == HealthState::Healthy
                && t.to == HealthState::Degraded
                && t.iteration < 7),
            "rank {rank} must have degraded before the kill iteration"
        );
    }
    // The healthy node's ranks are untouched by the straggle next door.
    for rank in [0usize, 1] {
        let row = health.rows.iter().find(|r| r.rank == rank).unwrap();
        assert!(
            matches!(row.state, HealthState::Healthy),
            "rank {rank} must stay healthy"
        );
        assert_eq!(row.transitions, 0, "rank {rank} never transitioned");
    }

    // Degradation precedes the fault on the timeline: the health plane
    // flagged the gray ranks while they were still alive.
    let fault_at = summary
        .timeline
        .iter()
        .find(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .expect("fault event")
        .at_secs;
    let degraded: Vec<&moc_system::runtime::TimelineEvent> = summary
        .timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::HealthDegraded { .. }))
        .collect();
    let degraded_ranks: Vec<usize> = degraded
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HealthDegraded { rank, .. } => Some(rank),
            _ => None,
        })
        .collect();
    assert!(degraded_ranks.contains(&2) && degraded_ranks.contains(&3));
    for event in &degraded {
        assert!(
            event.at_secs < fault_at,
            "degradation at {:.3}s must precede the kill at {fault_at:.3}s",
            event.at_secs
        );
        assert!(event.iteration < 7, "degraded while the rank was alive");
    }

    // health.json landed next to the trace with the same table.
    let doc = Json::parse(
        &std::fs::read_to_string(dir.join("health.json")).expect("health.json written"),
    )
    .expect("health.json is valid JSON");
    let rows = doc
        .get("ranks")
        .and_then(Json::as_array)
        .expect("ranks array");
    assert_eq!(rows.len(), health.rows.len());

    // The trace of a straggled, killed, recovered run still audits
    // clean — gray failure is a performance anomaly, not a causal one.
    let audit = summary.obs.audit.as_ref().expect("audit report");
    assert!(audit.passed(), "{}", audit.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The corroboration hook: on the same schedule, the health-on run
/// declares the silent (already-degraded) ranks dead about one lease
/// window sooner than the health-off run, and the earlier declaration
/// changes nothing about the numerics — the health-on run is bitwise
/// identical to a dark (obs fully off) run.
#[test]
fn corroboration_shortens_live_detection_by_one_lease() {
    let with_health = run(RuntimeConfig {
        obs: ObsConfig::enabled().with_health(),
        ..gray_then_dead()
    });
    let without_health = run(RuntimeConfig {
        obs: ObsConfig::enabled(),
        ..gray_then_dead()
    });
    let dark = run(gray_then_dead());
    assert_eq!(with_health.recoveries, 1);
    assert_eq!(without_health.recoveries, 1);

    let fast = detect_secs(&with_health);
    let slow = detect_secs(&without_health);
    let lease = LEASE.as_secs_f64();
    assert!(
        fast < slow,
        "corroborated detection ({fast:.3}s) must beat uncorroborated ({slow:.3}s)"
    );
    let saved = slow - fast;
    assert!(
        saved > 0.3 * lease && saved < 3.0 * lease,
        "saving ({saved:.3}s) must be about one lease window ({lease:.3}s)"
    );

    // Observability-only: the corroborated run's trajectory is bitwise
    // the dark run's.
    let on_bits: Vec<u32> = with_health
        .final_params
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let dark_bits: Vec<u32> = dark.final_params.iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        on_bits, dark_bits,
        "the health plane must not perturb the numerics"
    );
    assert!(dark.health.is_none(), "dark run carries no health plane");
}
