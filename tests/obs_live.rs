//! Integration tests of the moc-obs tracing subsystem against the live
//! runtime: a fault-injection run produces a Perfetto-loadable
//! `trace.json` whose flow arrows connect the injected fault to the
//! recovery spans and a flight-recorder dump holding the dead node's
//! final spans; the flight recorder survives elastic shrink; and a
//! disabled-obs run records nothing and stays on the enabled run's
//! bitwise trajectory.

use moc_system::core::ParallelTopology;
use moc_system::obs::{BlameCategory, Counter, IncidentKind, Json};
use moc_system::runtime::{
    CollectiveKind, Coordinator, ElasticConfig, ObsConfig, RunSummary, RuntimeConfig,
};
use moc_system::store::{FaultEvent, FaultPlan, MemoryObjectStore};
use moc_system::train::PecMode;
use std::sync::Arc;
use std::time::Duration;

fn topo() -> ParallelTopology {
    // 2 nodes × 2 GPUs, DP = EP = 4: ranks 0-1 on node 0, 2-3 on node 1.
    ParallelTopology::dp_ep(2, 2, 4, 4).unwrap()
}

fn base_config() -> RuntimeConfig {
    RuntimeConfig {
        total_iterations: 12,
        i_ckpt: 4,
        eval_every: 6,
        seq_len: 16,
        heartbeat_timeout: Duration::from_millis(800),
        ..RuntimeConfig::tiny(topo())
    }
}

fn run(config: RuntimeConfig) -> RunSummary {
    Coordinator::new(config, Arc::new(MemoryObjectStore::new()))
        .unwrap()
        .run()
        .unwrap()
}

/// One "X" slice pulled out of the rendered trace document.
struct Slice {
    pid: u64,
    tid: u64,
    name: String,
    iteration: u64,
    ts: f64,
    dur: f64,
}

fn slices(doc: &Json) -> Vec<Slice> {
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| Slice {
            pid: e.get("pid").and_then(Json::as_u64).expect("pid"),
            tid: e.get("tid").and_then(Json::as_u64).expect("tid"),
            name: e.get("name").and_then(Json::as_str).expect("name").into(),
            iteration: e
                .get("args")
                .and_then(|a| a.get("iteration"))
                .and_then(Json::as_u64)
                .expect("iteration arg"),
            ts: e.get("ts").and_then(Json::as_f64).expect("ts"),
            dur: e.get("dur").and_then(Json::as_f64).expect("dur"),
        })
        .collect()
}

/// The acceptance scenario: a node kill mid-run produces a valid
/// Chrome-trace document whose fault flow arrows connect
/// `fault-injected` → `fault-detected` → `recovery`, whose per-thread
/// timestamps are monotonic with properly nested spans, and whose
/// checkpoint-submit flows land on engine persist spans; every rank's
/// `restore-apply` — the respawned ranks' included — is tagged with the
/// iteration of the `recovery-restore` it runs inside; the flight
/// recorder dumps at suspicion and at declaration, the latter holding
/// the dead ranks' final compute spans.
#[test]
fn fault_trace_links_injection_to_recovery() {
    let dir = std::env::temp_dir().join(format!("moc-obs-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace_path = dir.join("trace.json");
    let summary = run(RuntimeConfig {
        faults: FaultPlan::At(vec![FaultEvent {
            iteration: 7,
            node: 1,
        }]),
        obs: ObsConfig::with_trace(trace_path.clone()),
        ..base_config()
    });
    assert_eq!(summary.recoveries, 1);
    assert!(summary.obs.enabled);
    assert!(summary.obs.spans_recorded > 0);
    assert_eq!(
        summary.obs.trace_path.as_deref(),
        Some(trace_path.as_path())
    );

    let text = std::fs::read_to_string(&trace_path).expect("trace.json written");
    let doc = Json::parse(&text).expect("trace.json is valid JSON");
    let slices = slices(&doc);
    assert!(!slices.is_empty());

    // Per-thread timestamps are monotonic and spans nest properly: a
    // span starting inside an open span must also end inside it.
    let mut threads: std::collections::BTreeMap<(u64, u64), Vec<&Slice>> = Default::default();
    for s in &slices {
        threads.entry((s.pid, s.tid)).or_default().push(s);
    }
    for ((pid, tid), spans) in &threads {
        let mut open: Vec<&Slice> = Vec::new();
        for pair in spans.windows(2) {
            assert!(
                pair[1].ts >= pair[0].ts,
                "thread ({pid},{tid}): timestamps must be monotonic"
            );
        }
        for s in spans {
            while let Some(top) = open.last() {
                if s.ts >= top.ts + top.dur {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = open.last() {
                // 1 µs slack: ts/dur are serialized at ns resolution.
                assert!(
                    s.ts + s.dur <= top.ts + top.dur + 1.0,
                    "thread ({pid},{tid}): '{}' must nest inside '{}'",
                    s.name,
                    top.name
                );
            }
            open.push(s);
        }
    }

    // Flow arrows: collect (phase, id, ts) triples from the flow events.
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let flows: Vec<(&str, u64, f64)> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
        .map(|e| {
            (
                e.get("ph").and_then(Json::as_str).unwrap(),
                e.get("id").and_then(Json::as_u64).unwrap(),
                e.get("ts").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();

    // The fault flow (small ids): one start at the injection, a step at
    // detection, and a finish binding inside the recovery slice.
    let fault_ids: Vec<u64> = flows
        .iter()
        .filter(|(ph, id, _)| *ph == "s" && *id < 1_000_000_000)
        .map(|(_, id, _)| *id)
        .collect();
    assert_eq!(fault_ids.len(), 1, "one fault flow start");
    let fid = fault_ids[0];
    assert!(
        flows.iter().any(|(ph, id, _)| *ph == "t" && *id == fid),
        "fault-detected step on the fault flow"
    );
    let (_, _, finish_ts) = *flows
        .iter()
        .find(|(ph, id, _)| *ph == "f" && *id == fid)
        .expect("recovery finish on the fault flow");
    let recovery = slices
        .iter()
        .find(|s| s.name == "recovery")
        .expect("recovery slice");
    assert!(
        finish_ts >= recovery.ts && finish_ts <= recovery.ts + recovery.dur,
        "fault flow must terminate inside the recovery slice"
    );

    // Every rank's restore runs inside the coordinator's
    // `recovery-restore` and carries its iteration — a freshly spawned
    // rank thread has never stepped, so it must take the iteration from
    // the restore command rather than from its own history.
    let restores: Vec<&Slice> = slices
        .iter()
        .filter(|s| s.name == "recovery-restore")
        .collect();
    assert_eq!(restores.len(), 1);
    let applies: Vec<&Slice> = slices
        .iter()
        .filter(|s| s.name == "restore-apply")
        .collect();
    assert_eq!(applies.len(), 4, "every rank restores");
    for apply in applies {
        let parent = restores
            .iter()
            .find(|r| apply.ts + 1.0 >= r.ts && apply.ts + apply.dur <= r.ts + r.dur + 1.0)
            .unwrap_or_else(|| panic!("tid {}: restore-apply outside recovery-restore", apply.tid));
        assert_eq!(
            apply.iteration, parent.iteration,
            "tid {}: restore-apply must carry its recovery's iteration",
            apply.tid
        );
    }

    // Checkpoint flows (large ids): every submit start reaches an engine
    // persist finish.
    for (ph, id, _) in flows.iter().filter(|(_, id, _)| *id >= 1_000_000_000) {
        if *ph == "s" {
            assert!(
                flows.iter().any(|(p, i, _)| *p == "f" && i == id),
                "ckpt-submit flow {id} must end at a persist span"
            );
        }
    }

    // The flight recorder fired twice — once when the silent ranks were
    // first *suspected* (evidence captured while still fresh) and once
    // at declaration — and the declaration dump captured the dead
    // node's ranks (node 1 hosts ranks 2 and 3) with their final
    // compute span at the kill iteration.
    assert_eq!(summary.obs.flight_dumps.len(), 2);
    assert!(
        summary.obs.flight_dumps[0].reason.contains("suspected"),
        "{}",
        summary.obs.flight_dumps[0].reason
    );
    let dump = &summary.obs.flight_dumps[1];
    assert!(dump.reason.contains("iteration 7"), "{}", dump.reason);
    for dead_rank in [2u32, 3u32] {
        let thread = dump
            .threads
            .iter()
            .find(|t| t.pid == 1 && t.tid == dead_rank)
            .unwrap_or_else(|| panic!("dead rank {dead_rank} missing from flight dump"));
        let last_compute = thread
            .events
            .iter()
            .rev()
            .find(|e| e.name == "compute")
            .expect("dead rank's final compute span survived in the ring");
        assert_eq!(last_compute.iteration, 7, "killed mid-iteration 7");
    }
    for path in [dump.json_path.as_ref(), dump.text_path.as_ref()] {
        let path = path.expect("dump written next to trace.json");
        assert!(path.exists(), "{} missing", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elastic runs keep dumping: a shrink (node 1 dies at 5) and a later
/// total-loss respawn (node 0 dies at 9) each produce exactly one
/// flight dump, and the rings survive the retirement and respawn of
/// rank threads in between.
#[test]
fn flight_recorder_survives_elastic_shrink() {
    let summary = run(RuntimeConfig {
        eval_every: 0,
        k_snapshot: 4,
        k_persist: 4,
        pec_mode: PecMode::NONE,
        collective: CollectiveKind::Ring,
        elastic: ElasticConfig::shrink(1),
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
        obs: ObsConfig::enabled(),
        ..base_config()
    });
    assert_eq!(summary.elastic_shrinks, 1);
    assert_eq!(summary.recoveries, 2);
    assert_eq!(
        summary.obs.flight_dumps.len(),
        2 * summary.recoveries as usize,
        "one suspicion dump plus one declaration dump per detected fault"
    );
    let mut seqs: Vec<u64> = summary.obs.flight_dumps.iter().map(|d| d.seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), 4, "dump sequence numbers are unique");
    for dump in &summary.obs.flight_dumps {
        assert!(
            dump.threads.iter().any(|t| !t.events.is_empty()),
            "each dump snapshots recorded spans"
        );
        assert!(dump.json_path.is_none(), "no trace path, no files");
    }
}

/// The disabled hot path: an obs-off run records zero spans, takes no
/// dumps, stays bitwise on the enabled run's trajectory, and its mean
/// iteration time is within noise of the enabled run's.
#[test]
fn disabled_obs_records_nothing_and_preserves_the_run() {
    let enabled = run(RuntimeConfig {
        obs: ObsConfig::enabled(),
        ..base_config()
    });
    let disabled = run(base_config());

    assert!(!disabled.obs.enabled);
    assert_eq!(disabled.obs.spans_recorded, 0);
    assert!(disabled.obs.flight_dumps.is_empty());
    assert!(disabled.obs.trace_path.is_none());
    assert!(enabled.obs.spans_recorded > 0);

    let enabled_bits: Vec<u32> = enabled.final_params.iter().map(|x| x.to_bits()).collect();
    let disabled_bits: Vec<u32> = disabled.final_params.iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        enabled_bits, disabled_bits,
        "observability must not perturb the numerics"
    );

    // Within noise: generous bound so a loaded CI host cannot flake —
    // the real claim (one branch on the hot path) is the bitwise check
    // plus this sanity ceiling.
    let e = enabled.mean_iteration_secs();
    let d = disabled.mean_iteration_secs();
    assert!(
        d < 10.0 * e + 0.05 && e < 10.0 * d + 0.05,
        "mean iteration enabled {e:.6}s vs disabled {d:.6}s out of range"
    );
}

/// The live telemetry plane: a telemetry-enabled run streams samples
/// whose totals agree with the run's own counters, lands
/// `telemetry.prom` + `telemetry.json` in the trace dir, stays bitwise
/// identical to a telemetry-off run (sampling is read-only), and its
/// mean iteration time stays within noise of the disabled run's.
#[test]
fn telemetry_streams_counters_without_perturbing_the_run() {
    let dir = std::env::temp_dir().join(format!("moc-obs-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = run(RuntimeConfig {
        obs: ObsConfig::with_trace(dir.join("trace.json")).with_telemetry(Duration::from_millis(5)),
        ..base_config()
    });
    let off = run(base_config());

    let telemetry = live.obs.telemetry.as_ref().expect("telemetry report");
    assert!(
        !telemetry.samples.is_empty(),
        "sampler must have taken at least the final snapshot"
    );
    let totals = telemetry.totals();
    assert_eq!(
        totals.value(Counter::Iterations),
        live.iterations_executed,
        "telemetry iteration count matches the run"
    );
    assert!(totals.value(Counter::CkptBytes) > 0, "checkpoints counted");
    assert!(
        totals.value(Counter::PersistedBytes) > 0,
        "engine persisted-bytes probe sampled"
    );
    assert!(
        totals.scaled(Counter::ComputeNanos) > 0.0,
        "rank compute time accumulated"
    );
    assert_eq!(totals.value(Counter::Recoveries), 0, "fault-free run");

    // Artifacts land next to the trace.
    let prom_path = telemetry.prom_path.as_ref().expect("prom snapshot path");
    let prom = std::fs::read_to_string(prom_path).expect("telemetry.prom written");
    assert!(prom.contains("# TYPE moc_iterations_total counter"));
    assert!(prom.contains(&format!(
        "moc_iterations_total {}",
        live.iterations_executed
    )));
    let json_path = telemetry.json_path.as_ref().expect("series path");
    let series = Json::parse(&std::fs::read_to_string(json_path).expect("telemetry.json written"))
        .expect("valid JSON");
    let samples = series
        .get("samples")
        .and_then(Json::as_array)
        .expect("samples array");
    assert_eq!(samples.len(), telemetry.samples.len());

    // Read-only sampling: the trajectory is bitwise that of a run with
    // the whole plane off, and the overhead stays within noise.
    let live_bits: Vec<u32> = live.final_params.iter().map(|x| x.to_bits()).collect();
    let off_bits: Vec<u32> = off.final_params.iter().map(|x| x.to_bits()).collect();
    assert_eq!(live_bits, off_bits, "telemetry must not perturb numerics");
    let e = live.mean_iteration_secs();
    let d = off.mean_iteration_secs();
    assert!(
        e < 10.0 * d + 0.05 && d < 10.0 * e + 0.05,
        "mean iteration telemetry-on {e:.6}s vs off {d:.6}s out of range"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The critical-path analyzer's core accounting invariant, pinned
/// against a live fault-free run: every iteration window's attributed
/// time sums to its measured wall time within 5 %, the windows tile the
/// measured training loop within 5 %, and compute dominates a clean
/// run's aggregate blame.
#[test]
fn blame_attribution_sums_to_measured_wall_time() {
    let summary = run(RuntimeConfig {
        total_iterations: 16,
        obs: ObsConfig::enabled(),
        ..base_config()
    });
    let blame = summary.obs.blame.as_ref().expect("blame report");

    for window in &blame.iterations {
        let attributed = window.attributed_total_secs();
        assert!(
            (attributed - window.wall_secs).abs() <= 0.05 * window.wall_secs.max(1e-9),
            "window ({}, {}): attributed {attributed:.6}s vs wall {:.6}s",
            window.epoch,
            window.iteration,
            window.wall_secs
        );
    }

    // Windows at iteration >= 1 tile the measured training loop: the
    // only uncovered time is the channel handoff between iterations.
    let covered: f64 = blame
        .iterations
        .iter()
        .filter(|w| w.iteration >= 1)
        .map(|w| w.wall_secs)
        .sum();
    assert!(
        (covered - summary.loop_secs).abs() <= 0.05 * summary.loop_secs,
        "blame windows cover {covered:.6}s of a {:.6}s loop",
        summary.loop_secs
    );

    assert!(blame.incidents.is_empty(), "no chaos, no incidents");
    let compute = blame.aggregate_secs(BlameCategory::Compute);
    for waity in [
        BlameCategory::RingWait,
        BlameCategory::TpSync,
        BlameCategory::PpWait,
        BlameCategory::Recovery,
    ] {
        assert!(
            compute > blame.aggregate_secs(waity),
            "clean run: compute must dominate {waity:?}"
        );
    }
    assert!(blame.clean_median_secs > 0.0);

    // The per-rank breakdown covers every rank lane plus the
    // coordinator, with compute time on every rank.
    assert_eq!(summary.obs.per_rank.len(), 5, "4 ranks + control plane");
    for lane in summary.obs.per_rank.iter().filter(|l| l.tid < 1_000_000) {
        if lane.label.contains("rank") {
            assert!(lane.compute_secs > 0.0, "{} computed", lane.label);
        }
    }
}

/// Incident correlation: a node kill shows up in the blame report as a
/// recovery incident whose measured disruption and excess latency are
/// positive, and the recovery epoch splits the re-executed iterations
/// into separate windows rather than smearing them together.
#[test]
fn incidents_attribute_fault_latency() {
    let dir = std::env::temp_dir().join(format!("moc-obs-incident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = run(RuntimeConfig {
        faults: FaultPlan::At(vec![FaultEvent {
            iteration: 7,
            node: 1,
        }]),
        obs: ObsConfig::with_trace(dir.join("trace.json")).with_telemetry(Duration::from_millis(5)),
        ..base_config()
    });
    assert_eq!(summary.recoveries, 1);
    let blame = summary.obs.blame.as_ref().expect("blame report");

    let recovery_incident = blame
        .incidents
        .iter()
        .find(|i| i.kind == IncidentKind::Recovery)
        .expect("the kill must surface as a recovery incident");
    assert!(recovery_incident.disruption_secs > 0.0);
    assert!(
        blame.aggregate_secs(BlameCategory::Recovery) > 0.0,
        "recovery time attributed in the aggregate"
    );

    // Epoch splitting: the re-executed iterations appear in both epoch
    // 0 (pre-fault) and epoch 1 (post-recovery) without double counting
    // inside one window.
    assert!(
        blame.iterations.iter().any(|w| w.epoch == 1),
        "post-recovery windows carry the next epoch"
    );
    // ...nor across windows: ranks drift out of phase, so raw window
    // extents overlap, and unclipped they would blame some instants
    // twice.
    assert!(
        blame.total_wall_secs <= 1.05 * summary.loop_secs,
        "blame windows cover {:.6}s of a {:.6}s loop",
        blame.total_wall_secs,
        summary.loop_secs
    );
    let blame_path = summary.obs.blame_path.as_ref().expect("blame.json path");
    let doc = Json::parse(&std::fs::read_to_string(blame_path).expect("blame.json written"))
        .expect("valid JSON");
    assert!(doc.get("categories").is_some());
    assert!(doc.get("incidents").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
