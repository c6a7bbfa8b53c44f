//! moc-obs: observability for the MoC-System runtime.
//!
//! Zero dependencies beyond the workspace (std only). Nine pieces:
//!
//! - **Span recording** ([`sink`]): every runtime thread (rank,
//!   coordinator, checkpoint-engine writer) holds a [`TraceSink`] and
//!   appends typed spans to a thread-local buffer without any
//!   cross-thread synchronization on the hot path; buffers merge into
//!   the run-wide [`TraceCollector`] when the thread finishes. When
//!   observability is disabled every sink call is a single branch.
//! - **Chrome-trace/Perfetto export** ([`chrome`]): the collector
//!   renders the merged spans to a `trace.json` loadable in
//!   <https://ui.perfetto.dev> — pid = node, tid = global rank, flow
//!   arrows linking fault injection → detection → recovery and
//!   checkpoint submission → background persist.
//! - **Fault flight recorder** ([`flight`]): each thread additionally
//!   mirrors its last N spans into a bounded ring; the moment the
//!   coordinator declares a fault it snapshots every ring into a
//!   [`FlightDump`] (JSON + human-readable text), so every recovery
//!   leaves a post-mortem artifact that includes the dead ranks' final
//!   spans.
//! - **Log-scale latency histograms** ([`hist`]): fixed-footprint
//!   `log2`-bucketed histograms giving p50/p99/max per phase with ~9 %
//!   relative error and no allocation on the record path.
//! - **Live telemetry** ([`telemetry`]): per-thread atomic counter
//!   cells plus read-only probes into existing counters, sampled by a
//!   dedicated thread at [`ObsConfig::telemetry_interval`] into an
//!   in-memory time series, streamed as a Prometheus-text
//!   `telemetry.prom` snapshot during the run and flushed as a
//!   `telemetry.json` series at the end — a degrading run is visible
//!   while it runs, and sampling is read-only so enabled runs stay
//!   bitwise identical to disabled ones.
//! - **Critical-path blame** ([`critical`]): a priority sweep over the
//!   merged spans attributing every slice of each iteration's wall
//!   time to exactly one category (compute, exposed ring/tp/pp wait,
//!   ckpt, straggler stall, recovery, …), per iteration and aggregate,
//!   plus an incident report correlating chaos-plane events with their
//!   measured latency impact.
//! - **Happens-before graph** ([`causal`]): every span carries a
//!   run-wide Lamport stamp assigned at record time (one relaxed atomic
//!   increment — the dark run stays bitwise identical); at finish the
//!   stamps plus flow ids assemble into a [`CausalGraph`] with
//!   program-order and flow edges, rebuildable offline from an exported
//!   `trace.json` via [`parse_chrome_trace`].
//! - **Causal audit** ([`audit`]): structural invariant checks over the
//!   graph — inject → detect → recover chains complete and ordered,
//!   submit → persist chains complete, spans properly nested, step
//!   order monotone outside rollbacks, blame rows sum to wall time —
//!   written as `audit.json` with causal witness paths per violation;
//!   the `moc-audit` binary re-runs the same checks over an exported
//!   trace and gates CI.
//! - **Health scorer** ([`health`]): streaming per-rank EWMA + MAD
//!   z-scores over step time, stall time and store retries, driving a
//!   healthy → degraded → suspect state machine whose verdicts feed
//!   `health.json`, `EventKind::HealthDegraded` run events, and the
//!   suspicion detector's corroboration hook (a degraded rank is
//!   declared one lease window sooner).
//!
//! [`json`] is a minimal JSON value (build/print/parse — the
//! workspace's one serializer) and [`report`]
//! renders human-readable phase/timeline tables plus schema'd JSON
//! reports for the benches.
//!
//! # Span taxonomy
//!
//! Spans are typed by [`SpanKind`] (→ the `cat` field in the exported
//! trace) and named with stable `&'static str` labels:
//!
//! | kind          | names                                                    | thread               |
//! |---------------|----------------------------------------------------------|----------------------|
//! | `Phase`       | `compute`, `straggler-stall`, `reduce`, `apply`          | rank / coordinator   |
//! | `Collective`  | `tp-sync`, `pp-wait`, `pp-relay`, `ring-all-reduce`      | rank                 |
//! | `Ckpt`        | `ckpt-collect`, `ckpt-serialize`, `ckpt-write`, `ckpt-submit` | rank / coordinator |
//! | `Persist`     | `persist` (background batch persist)                     | ckpt-engine writer   |
//! | `Gc`          | `gc` (chain-aware garbage collection)                    | ckpt-engine writer   |
//! | `Fault`       | `fault-injected`, `fault-suspected`, `fault-cleared`, `fault-detected`, `heartbeat-loss`, `mesh-delay`, `mesh-drop`, `recovery`, `recovery-plan`, `recovery-fetch`, `recovery-restore`, `restore-apply` | coordinator / rank |
//! | `Elastic`     | `shrink-rebalance`, `expand-restore`, `export-state`     | coordinator / rank   |
//! | `Control`     | `apply-wait`, `eval`, `health-degraded`                  | coordinator / rank   |
//!
//! Flow arrows (`cat = "flow"`):
//!
//! - **fault flows** — sequential ids from [`TraceCollector::next_flow_id`];
//!   start on `fault-injected`, step on `fault-detected`, finish on the
//!   `recovery` span (which covers the shrink or respawn path taken).
//! - **checkpoint flows** — deterministic ids from [`ckpt_flow_id`];
//!   start on each per-node `ckpt-submit` span on the training path,
//!   finish on the matching background `persist` span in that node's
//!   engine writer thread.
//!
//! Every span additionally carries its run-wide Lamport stamp in
//! `args.lamport` (and its flow binding in `args.flow`/`args.flow_id`),
//! so the happens-before graph survives the round trip through
//! `trace.json`.

#![warn(missing_docs)]

pub mod audit;
pub mod causal;
pub mod chrome;
pub mod critical;
pub mod flight;
pub mod health;
pub mod hist;
pub mod json;
pub mod report;
pub mod sink;
pub mod telemetry;

pub use audit::{audit_blame_json, AuditConfig, AuditReport, AuditViolation};
pub use causal::{parse_chrome_trace, CausalEvent, CausalGraph};
pub use critical::{
    BlameCategory, BlameReport, Incident, IncidentKind, IterationBlame, RankPhases,
};
pub use flight::{FlightDump, FlightThread};
pub use health::{
    HealthConfig, HealthReport, HealthRow, HealthScorer, HealthState, HealthTransition,
};
pub use hist::LogHistogram;
pub use json::Json;
pub use report::{render_phase_table, render_timeline, PhaseRow, Report, TimelineRow};
pub use sink::{
    ckpt_flow_id, Flow, ObsConfig, ObsRunReport, SpanKind, ThreadNames, TraceCollector, TraceEvent,
    TraceSink, BACKGROUND_TID_BASE,
};
pub use telemetry::{Counter, Telemetry, TelemetryCell, TelemetryReport, TelemetrySample};
