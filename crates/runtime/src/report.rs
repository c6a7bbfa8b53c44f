//! Run reports: the human-readable text dump and the schema'd JSON
//! emitters built on [`moc_obs::report`].
//!
//! A [`RunSummary`] knows how to render itself as the timeline + phase
//! table the `runtime_live` example prints ([`RunSummary::render_text`])
//! and how to emit its checkpoint-cost metrics as the machine-readable
//! object the figure benches persist across commits
//! ([`RunSummary::ckpt_report`]). Both go through `moc-obs` renderers so
//! every consumer shares one schema instead of hand-rolling JSON.

use crate::metrics::{EventKind, Phase, RunSummary};
use moc_obs::{render_phase_table, render_timeline, Json, PhaseRow, Report, TimelineRow};

/// Milliseconds with a unit, for the per-rank phase table.
fn ms(secs: f64) -> String {
    format!("{:.2} ms", 1e3 * secs)
}

/// The timeline label and free-form detail of one event, matching the
/// historical `runtime_live` rendering.
fn describe(kind: &EventKind) -> (String, String) {
    match kind {
        EventKind::Checkpoint {
            stalled_nodes,
            overhead_secs,
        } => {
            let stall = if stalled_nodes.is_empty() {
                String::new()
            } else {
                format!("  [stalled nodes {stalled_nodes:?}]")
            };
            (
                "checkpoint".into(),
                format!("{:.2} ms overhead{stall}", 1e3 * overhead_secs),
            )
        }
        EventKind::FaultInjected { nodes } => ("KILL".into(), format!("nodes {nodes:?}")),
        EventKind::FaultDetected { nodes, detect_secs } => (
            "detected".into(),
            format!("nodes {nodes:?} dead after {:.0} ms", 1e3 * detect_secs),
        ),
        EventKind::FaultSuspected { ranks, misses } => (
            "suspected".into(),
            format!("ranks {ranks:?} silent for {misses} window(s); lease granted"),
        ),
        EventKind::SuspicionCleared { rank } => (
            "cleared".into(),
            format!("rank {rank} replied within its lease; re-admitted"),
        ),
        EventKind::Recovery {
            resume_iteration,
            memory_hits,
            storage_hits,
            total_secs,
            shard_groups,
            ..
        } => (
            "RECOVERED".into(),
            format!(
                "resume at {resume_iteration} ({memory_hits} shards from memory, \
                 {storage_hits} from storage, shard groups {shard_groups:?}, {:.0} ms)",
                1e3 * total_secs
            ),
        ),
        EventKind::Eval { loss } => ("eval".into(), format!("val loss {loss:.4}")),
        EventKind::CollectiveAbort { aborted_ranks } => (
            "RING ABORT".into(),
            format!("ranks {aborted_ranks:?} bailed; resuming on the rebuilt ring"),
        ),
        EventKind::StragglerInjected { rank, factor } => {
            ("SLOW".into(), format!("rank {rank} stretched {factor}x"))
        }
        EventKind::HealthDegraded { rank, z } => (
            "DEGRADED".into(),
            format!("rank {rank} health degraded (z {z:.1}); suspicion corroboration armed"),
        ),
        EventKind::ElasticShrink {
            dead_groups,
            adoptions,
            experts_migrated,
            shrink_secs,
        } => (
            "SHRINK".into(),
            format!(
                "groups {dead_groups:?} adopted as {adoptions:?}, \
                 {experts_migrated} experts migrated ({:.1} ms)",
                1e3 * shrink_secs
            ),
        ),
        EventKind::ElasticExpand {
            returning_groups,
            experts_returned,
            degraded_iterations,
            expand_secs,
        } => (
            "EXPAND".into(),
            format!(
                "groups {returning_groups:?} rejoined after {degraded_iterations} \
                 degraded iteration(s), {experts_returned} experts returned ({:.1} ms)",
                1e3 * expand_secs
            ),
        ),
    }
}

impl RunSummary {
    /// The run's timeline as renderable rows: run-relative timestamps,
    /// iteration numbers, and the historical event labels.
    pub fn timeline_rows(&self) -> Vec<TimelineRow> {
        self.timeline
            .iter()
            .map(|event| {
                let (label, detail) = describe(&event.kind);
                TimelineRow {
                    at_secs: event.at_secs,
                    iteration: event.iteration,
                    label,
                    detail,
                }
            })
            .collect()
    }

    /// Per-phase latency rows (count, mean, p50, p99, max, total) in
    /// [`Phase`] declaration order.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        self.phases
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(phase, s)| PhaseRow {
                label: phase.label().to_string(),
                count: s.count,
                mean_secs: s.mean_secs(),
                p50_secs: s.p50_secs(),
                p99_secs: s.p99_secs(),
                max_secs: s.max_secs,
                total_secs: s.total_secs,
            })
            .collect()
    }

    /// Full text report: headline counters, the event timeline, and the
    /// per-phase latency table with log-histogram percentiles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} iterations executed, {} checkpoints, {} faults, {} recoveries, \
             {} shrinks, {} expands\n",
            self.iterations_executed,
            self.checkpoints_taken,
            self.faults_injected,
            self.recoveries,
            self.elastic_shrinks,
            self.elastic_expands,
        ));
        if self.degraded_iterations > 0 || self.hierarchical_iterations > 0 {
            out.push_str(&format!(
                "{} degraded iteration(s) ({} on the survivor ring), \
                 {} hierarchical iteration(s)\n",
                self.degraded_iterations,
                self.survivor_ring_iterations,
                self.hierarchical_iterations,
            ));
        }
        out.push_str(&format!(
            "final val loss {:.4}  measured PLT {:.3}%  K trace {:?}\n",
            self.final_val_loss,
            100.0 * self.plt,
            self.k_trace,
        ));
        out.push_str(&format!(
            "recovered {:.1} KB ({} memory / {} storage shards), persisted {:.1} MB, \
             {} stalls\n",
            self.recovered_bytes as f64 / 1e3,
            self.memory_hits,
            self.storage_hits,
            self.persisted_bytes as f64 / 1e6,
            self.stall_count,
        ));
        out.push_str(&format!(
            "replicas bitwise consistent: {}  mean iteration {:.2} ms\n",
            self.replicas_consistent,
            1e3 * self.mean_iteration_secs(),
        ));
        if self.obs.enabled {
            out.push_str(&format!(
                "observability: {} spans recorded, {} flight dump(s)",
                self.obs.spans_recorded,
                self.obs.flight_dumps.len(),
            ));
            if let Some(path) = &self.obs.trace_path {
                out.push_str(&format!(", trace at {}", path.display()));
            }
            out.push('\n');
        }
        if let Some(telemetry) = &self.obs.telemetry {
            out.push_str(&format!(
                "telemetry: {} sample(s) at {:.0} ms interval",
                telemetry.samples.len(),
                1e3 * telemetry.interval.as_secs_f64(),
            ));
            if let Some(path) = &telemetry.json_path {
                out.push_str(&format!(", series at {}", path.display()));
            }
            out.push('\n');
        }
        if !self.obs.per_rank.is_empty() {
            out.push_str("\nper-rank phases:\n");
            out.push_str(&format!(
                "  {:<26} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "lane", "spans", "compute", "collect", "stall", "ckpt", "fault", "eval"
            ));
            for lane in &self.obs.per_rank {
                out.push_str(&format!(
                    "  {:<26} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    lane.label,
                    lane.spans,
                    ms(lane.compute_secs),
                    ms(lane.collective_secs),
                    ms(lane.stall_secs),
                    ms(lane.ckpt_secs),
                    ms(lane.fault_secs),
                    ms(lane.eval_secs),
                ));
            }
        }
        if let Some(health) = &self.health {
            out.push_str("\nrank health:\n");
            out.push_str(&format!(
                "  {:<6} {:<10} {:>8} {:>12} {:>8} {:>8} {:>12}\n",
                "rank", "state", "samples", "ewma step", "last z", "worst z", "transitions"
            ));
            for row in &health.rows {
                out.push_str(&format!(
                    "  {:<6} {:<10} {:>8} {:>12} {:>8.1} {:>8.1} {:>12}\n",
                    row.rank,
                    row.state.label(),
                    row.samples,
                    ms(row.ewma_step_secs),
                    row.last_z,
                    row.worst_z,
                    row.transitions,
                ));
            }
        }
        if let Some(audit) = &self.obs.audit {
            out.push_str(&format!("\n{}", audit.render_text()));
            if let Some(path) = &self.obs.audit_path {
                out.push_str(&format!("  audit report at {}\n", path.display()));
            }
        }
        if let Some(blame) = &self.obs.blame {
            out.push_str("\ncritical path:\n");
            out.push_str(&blame.render_text());
            if let Some(path) = &self.obs.blame_path {
                out.push_str(&format!("  blame report at {}\n", path.display()));
            }
        }
        if !self.timeline.is_empty() {
            out.push_str("\ntimeline:\n");
            out.push_str(&render_timeline(&self.timeline_rows()));
        }
        out.push_str("\nphases:\n");
        out.push_str(&render_phase_table(&self.phase_rows()));
        out
    }

    /// The run's checkpoint-cost metrics as a schema'd JSON object — the
    /// per-mode entry persisted by the checkpoint-overhead bench.
    pub fn ckpt_report(&self) -> Json {
        Report::new()
            .field("ckpt_overhead_secs", self.checkpoint_overhead_secs())
            .field("mean_iteration_secs", self.mean_iteration_secs())
            .field("persisted_bytes", self.persisted_bytes)
            .field("raw_bytes", self.ckpt_engine.writer.raw_bytes)
            .field("stored_bytes", self.ckpt_engine.writer.stored_bytes)
            .field("manifest_bytes", self.ckpt_engine.writer.manifest_bytes)
            .field("full_shards", self.ckpt_engine.writer.full_shards)
            .field("delta_shards", self.ckpt_engine.writer.delta_shards)
            .field("pool_allocs", self.ckpt_engine.pool_allocs)
            .field("stall_count", self.stall_count)
            .field("blocking_write_phases", self.phase(Phase::CkptWrite).count)
            .json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TimelineEvent;

    fn summary_with_events() -> RunSummary {
        let mut s = RunSummary::default();
        s.timeline.push(TimelineEvent {
            at_secs: 0.25,
            iteration: 4,
            kind: EventKind::Checkpoint {
                stalled_nodes: vec![],
                overhead_secs: 0.001,
            },
        });
        s.timeline.push(TimelineEvent {
            at_secs: 0.5,
            iteration: 7,
            kind: EventKind::FaultInjected { nodes: vec![1] },
        });
        let mut stats = crate::metrics::PhaseStats::default();
        stats.record(0.002);
        stats.record(0.004);
        s.phases.insert(Phase::Compute, stats);
        s
    }

    #[test]
    fn text_report_carries_timeline_and_phases() {
        let text = summary_with_events().render_text();
        assert!(text.contains("KILL"), "{text}");
        assert!(text.contains("checkpoint"), "{text}");
        assert!(text.contains("compute"), "{text}");
        assert!(text.contains("iter    7"), "{text}");
    }

    #[test]
    fn text_report_renders_per_rank_phase_table() {
        let mut s = summary_with_events();
        s.obs.per_rank.push(moc_obs::RankPhases {
            pid: 0,
            tid: 0,
            label: "node0/rank 0".into(),
            spans: 5,
            compute_secs: 0.01,
            collective_secs: 0.002,
            stall_secs: 0.0,
            ckpt_secs: 0.001,
            fault_secs: 0.0,
            eval_secs: 0.0,
        });
        let text = s.render_text();
        assert!(text.contains("per-rank phases"), "{text}");
        assert!(text.contains("node0/rank 0"), "{text}");
        assert!(text.contains("10.00 ms"), "{text}");
    }

    #[test]
    fn text_report_renders_health_table_and_degraded_events() {
        let mut s = summary_with_events();
        s.timeline.push(TimelineEvent {
            at_secs: 0.6,
            iteration: 5,
            kind: EventKind::HealthDegraded { rank: 2, z: 41.5 },
        });
        s.health = Some(moc_obs::HealthReport {
            rows: vec![moc_obs::HealthRow {
                rank: 2,
                state: moc_obs::HealthState::Degraded,
                samples: 9,
                ewma_step_secs: 0.012,
                last_z: 41.5,
                worst_z: 44.0,
                transitions: 1,
            }],
            transitions: vec![],
        });
        let text = s.render_text();
        assert!(text.contains("rank health"), "{text}");
        assert!(text.contains("degraded"), "{text}");
        assert!(text.contains("DEGRADED"), "{text}");
        assert!(text.contains("41.5"), "{text}");
    }

    #[test]
    fn ckpt_report_has_the_bench_schema() {
        let json = summary_with_events().ckpt_report();
        for key in [
            "ckpt_overhead_secs",
            "mean_iteration_secs",
            "persisted_bytes",
            "raw_bytes",
            "stored_bytes",
            "manifest_bytes",
            "full_shards",
            "delta_shards",
            "pool_allocs",
            "stall_count",
            "blocking_write_phases",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
    }
}
