//! Structural invariant checks over the happens-before graph.
//!
//! The trace records event chains the system's correctness story leans
//! on — inject → detect → recover, submit → persist — and this module
//! is what *checks* them. Each invariant walks the [`CausalGraph`] and
//! reports violations with a causal witness path (the chain of events
//! proving — or failing to prove — the required edge). The `moc-audit`
//! binary runs the same checks over an exported `trace.json` and exits
//! non-zero on any violation, which is what gates CI.
//!
//! Invariants (stable slugs, the `invariant` field of `audit.json`):
//!
//! * `fault-detection` — every `fault-injected` flow start reaches a
//!   `fault-detected` step with a larger Lamport stamp;
//! * `detection-latency` — injection → detection completes within the
//!   configured detector bound (checked only when the runtime set one);
//! * `fault-recovery` — every fault flow is resolved by a `recovery`
//!   flow end;
//! * `recovery-causality` — no flow-resolved `recovery` precedes its
//!   `fault-detected` step in Lamport order;
//! * `ckpt-persist` — every `ckpt-submit` flow start reaches its
//!   engine-side flow end (the `persist` span) with a larger stamp;
//! * `span-nesting` — per-thread spans are properly nested: a span
//!   starting inside an open span ends inside it (1 µs slack for the
//!   exporter's ns-resolution serialization);
//! * `step-monotonic` — per-thread collective step order is monotone in
//!   the iteration number, except across a recovery or elastic
//!   transition (the legitimate rollbacks);
//! * `blame-accounting` — every blame window's attributed time sums to
//!   its measured wall time within the configured tolerance.

use crate::causal::{CausalEvent, CausalGraph};
use crate::critical::BlameReport;
use crate::json::Json;
use crate::sink::{Flow, SpanKind};

/// Ids below this bound are fault flows; at or above, checkpoint flows
/// (see [`crate::ckpt_flow_id`]).
const CKPT_FLOW_BASE: u64 = 1_000_000_000;

/// Tunables of one audit pass.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Upper bound, in seconds, on injection → detection for every
    /// fault flow. `None` skips the `detection-latency` invariant (the
    /// bound depends on the detector configuration only the runtime
    /// knows).
    pub detect_bound_secs: Option<f64>,
    /// Relative tolerance of the `blame-accounting` invariant (matches
    /// the 5 % window the blame analyzer is pinned to).
    pub blame_tolerance: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            detect_bound_secs: None,
            blame_tolerance: 0.05,
        }
    }
}

/// One invariant violation, with its causal witness.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Stable invariant slug (see the module docs).
    pub invariant: &'static str,
    /// Human-readable account of what failed.
    pub detail: String,
    /// The events proving the violation: the broken chain in Lamport
    /// order (e.g. the flow's start with no matching end, or the two
    /// events recorded out of causal order).
    pub witness: Vec<CausalEvent>,
}

impl AuditViolation {
    /// JSON form used in `audit.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("invariant".to_string(), Json::from(self.invariant)),
            ("detail".to_string(), Json::from(self.detail.as_str())),
            (
                "witness".to_string(),
                Json::Arr(self.witness.iter().map(CausalEvent::to_json).collect()),
            ),
        ])
    }
}

/// The audit verdict over one trace.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events the graph held.
    pub events_checked: u64,
    /// Fault flows examined (injected starts).
    pub fault_flows: u64,
    /// Checkpoint flows examined (submit starts).
    pub ckpt_flows: u64,
    /// Every invariant violation found, in discovery order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the trace passed every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// JSON form written as `audit.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("passed".to_string(), Json::from(self.passed())),
            (
                "events_checked".to_string(),
                Json::from(self.events_checked),
            ),
            ("fault_flows".to_string(), Json::from(self.fault_flows)),
            ("ckpt_flows".to_string(), Json::from(self.ckpt_flows)),
            (
                "violations".to_string(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(AuditViolation::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Terminal rendering used by the `moc-audit` binary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "causal audit: {} event(s), {} fault flow(s), {} ckpt flow(s): {}\n",
            self.events_checked,
            self.fault_flows,
            self.ckpt_flows,
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("{} VIOLATION(S)", self.violations.len())
            }
        );
        for v in &self.violations {
            out.push_str(&format!("  [{}] {}\n", v.invariant, v.detail));
            for e in &v.witness {
                out.push_str(&format!("      {}\n", e.describe()));
            }
        }
        out
    }
}

/// Runs every invariant over `graph` (and, when given, the blame
/// report), returning the combined verdict.
pub fn audit(
    graph: &CausalGraph,
    blame: Option<&BlameReport>,
    config: &AuditConfig,
) -> AuditReport {
    let mut report = AuditReport {
        events_checked: graph.events.len() as u64,
        ..AuditReport::default()
    };
    check_fault_flows(graph, config, &mut report);
    check_ckpt_flows(graph, &mut report);
    check_span_nesting(graph, &mut report);
    check_step_monotonic(graph, &mut report);
    if let Some(blame) = blame {
        check_blame_accounting(blame, config.blame_tolerance, &mut report);
    }
    report
}

/// The witness of a flow: its events in Lamport order.
fn flow_witness(graph: &CausalGraph, id: u64) -> Vec<CausalEvent> {
    graph
        .flows
        .get(&id)
        .map(|chain| chain.iter().map(|&i| graph.events[i].clone()).collect())
        .unwrap_or_default()
}

fn check_fault_flows(graph: &CausalGraph, config: &AuditConfig, report: &mut AuditReport) {
    for (&id, chain) in &graph.flows {
        if id >= CKPT_FLOW_BASE {
            continue;
        }
        let injected = chain
            .iter()
            .map(|&i| &graph.events[i])
            .find(|e| e.name == "fault-injected" && matches!(e.flow, Flow::Start(_)));
        let Some(injected) = injected else {
            continue; // not a fault-injection flow
        };
        report.fault_flows += 1;
        let detected = graph.flow_event(id, "fault-detected");
        match detected {
            None => report.violations.push(AuditViolation {
                invariant: "fault-detection",
                detail: format!(
                    "fault flow {id}: injection at iteration {} never reached a \
                     fault-detected step",
                    injected.iteration
                ),
                witness: flow_witness(graph, id),
            }),
            Some(detected) => {
                if detected.lamport <= injected.lamport {
                    report.violations.push(AuditViolation {
                        invariant: "fault-detection",
                        detail: format!(
                            "fault flow {id}: fault-detected (L{}) does not follow \
                             fault-injected (L{})",
                            detected.lamport, injected.lamport
                        ),
                        witness: flow_witness(graph, id),
                    });
                }
                if let Some(bound) = config.detect_bound_secs {
                    let latency = detected.end_secs() - injected.start_secs;
                    if latency > bound {
                        report.violations.push(AuditViolation {
                            invariant: "detection-latency",
                            detail: format!(
                                "fault flow {id}: detection took {latency:.3}s, \
                                 over the detector bound of {bound:.3}s"
                            ),
                            witness: flow_witness(graph, id),
                        });
                    }
                }
            }
        }
        let recovery = graph.flow_event(id, "recovery");
        match recovery {
            None => report.violations.push(AuditViolation {
                invariant: "fault-recovery",
                detail: format!(
                    "fault flow {id}: injection at iteration {} was never resolved \
                     by a recovery",
                    injected.iteration
                ),
                witness: flow_witness(graph, id),
            }),
            Some(recovery) => {
                if let Some(detected) = detected {
                    if recovery.lamport <= detected.lamport {
                        report.violations.push(AuditViolation {
                            invariant: "recovery-causality",
                            detail: format!(
                                "fault flow {id}: recovery (L{}) does not follow its \
                                 fault-detected step (L{})",
                                recovery.lamport, detected.lamport
                            ),
                            witness: flow_witness(graph, id),
                        });
                    }
                }
            }
        }
    }
}

fn check_ckpt_flows(graph: &CausalGraph, report: &mut AuditReport) {
    for (&id, chain) in &graph.flows {
        if id < CKPT_FLOW_BASE {
            continue;
        }
        let submit = chain
            .iter()
            .map(|&i| &graph.events[i])
            .find(|e| matches!(e.flow, Flow::Start(_)));
        let Some(submit) = submit else {
            continue; // an end with no start is the dump of a dead lane
        };
        report.ckpt_flows += 1;
        let end = chain
            .iter()
            .map(|&i| &graph.events[i])
            .find(|e| matches!(e.flow, Flow::End(_)));
        match end {
            None => report.violations.push(AuditViolation {
                invariant: "ckpt-persist",
                detail: format!(
                    "ckpt flow {id}: '{}' at version {} never reached a persist \
                     (no flow end recorded)",
                    submit.name, submit.iteration
                ),
                witness: flow_witness(graph, id),
            }),
            Some(end) => {
                if end.lamport <= submit.lamport {
                    report.violations.push(AuditViolation {
                        invariant: "ckpt-persist",
                        detail: format!(
                            "ckpt flow {id}: persist '{}' (L{}) does not follow its \
                             submit (L{})",
                            end.name, end.lamport, submit.lamport
                        ),
                        witness: flow_witness(graph, id),
                    });
                }
            }
        }
    }
}

/// Serialization slack: ts/dur are exported at nanosecond resolution
/// and rounded independently, so a re-ingested boundary can sit a
/// nanosecond off either way. It applies to both sides of the check:
/// to a child's end against its parent's, and to deciding whether a
/// span starts inside the span before it at all.
const NESTING_SLACK_SECS: f64 = 1e-6;

fn check_span_nesting(graph: &CausalGraph, report: &mut AuditReport) {
    for (&(pid, tid), lane) in &graph.lanes {
        // Nesting is a property of the wall-clock intervals, so order by
        // start time (Lamport order within a lane is *end* order: an
        // inner span records before the parent that encloses it).
        let mut spans: Vec<&CausalEvent> = lane.iter().map(|&i| &graph.events[i]).collect();
        spans.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs));
        let mut open: Vec<&CausalEvent> = Vec::new();
        for s in spans {
            while let Some(top) = open.last() {
                if s.start_secs >= top.end_secs() - NESTING_SLACK_SECS {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = open.last() {
                if s.end_secs() > top.end_secs() + NESTING_SLACK_SECS {
                    report.violations.push(AuditViolation {
                        invariant: "span-nesting",
                        detail: format!(
                            "lane ({pid},{tid}): '{}' starts inside '{}' but ends \
                             {:.6}s after it",
                            s.name,
                            top.name,
                            s.end_secs() - top.end_secs()
                        ),
                        witness: vec![(*top).clone(), s.clone()],
                    });
                }
            }
            open.push(s);
        }
    }
}

fn check_step_monotonic(graph: &CausalGraph, report: &mut AuditReport) {
    // Rollback points: the Lamport stamps of every recovery or elastic
    // transition. An iteration-number decrease on a lane is legitimate
    // exactly when one of these falls between the two spans.
    let rollbacks: Vec<u64> = graph
        .events
        .iter()
        .filter(|e| {
            (e.kind == SpanKind::Fault && e.name == "recovery") || e.kind == SpanKind::Elastic
        })
        .map(|e| e.lamport)
        .collect();
    for (&(pid, tid), lane) in &graph.lanes {
        let steps: Vec<&CausalEvent> = lane
            .iter()
            .map(|&i| &graph.events[i])
            .filter(|e| e.kind == SpanKind::Collective)
            .collect();
        for pair in steps.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.iteration >= a.iteration {
                continue;
            }
            let excused = rollbacks.iter().any(|&r| r > a.lamport && r < b.lamport);
            if !excused {
                report.violations.push(AuditViolation {
                    invariant: "step-monotonic",
                    detail: format!(
                        "lane ({pid},{tid}): collective step went backwards from \
                         iteration {} (L{}) to {} (L{}) with no recovery between",
                        a.iteration, a.lamport, b.iteration, b.lamport
                    ),
                    witness: vec![a.clone(), b.clone()],
                });
            }
        }
    }
}

fn check_blame_accounting(blame: &BlameReport, tolerance: f64, report: &mut AuditReport) {
    for window in &blame.iterations {
        let attributed = window.attributed_total_secs();
        let slack = tolerance * window.wall_secs.max(1e-9);
        if (attributed - window.wall_secs).abs() > slack {
            report.violations.push(AuditViolation {
                invariant: "blame-accounting",
                detail: format!(
                    "blame window (epoch {}, iteration {}): attributed {attributed:.6}s \
                     vs wall {:.6}s exceeds the {:.0}% tolerance",
                    window.epoch,
                    window.iteration,
                    window.wall_secs,
                    100.0 * tolerance
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// The `blame-accounting` invariant over an on-disk `blame.json` (the
/// `moc-audit` binary has the JSON, not the in-memory report). Returns
/// the violations found.
pub fn audit_blame_json(doc: &Json, tolerance: f64) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    let Some(windows) = doc.get("iterations").and_then(Json::as_array) else {
        return out;
    };
    for w in windows {
        let epoch = w.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        let iteration = w.get("iteration").and_then(Json::as_u64).unwrap_or(0);
        let wall = w.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0);
        let attributed: f64 = w
            .get("attributed")
            .and_then(Json::as_object)
            .map(|fields| fields.iter().filter_map(|(_, v)| v.as_f64()).sum())
            .unwrap_or(0.0);
        let slack = tolerance * wall.max(1e-9);
        if (attributed - wall).abs() > slack {
            out.push(AuditViolation {
                invariant: "blame-accounting",
                detail: format!(
                    "blame window (epoch {epoch}, iteration {iteration}): attributed \
                     {attributed:.6}s vs wall {wall:.6}s exceeds the {:.0}% tolerance",
                    100.0 * tolerance
                ),
                witness: Vec::new(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalEvent;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        tid: u32,
        name: &str,
        kind: SpanKind,
        iteration: u64,
        lamport: u64,
        start: f64,
        dur: f64,
        flow: Flow,
    ) -> CausalEvent {
        CausalEvent {
            pid: 0,
            tid,
            name: name.to_string(),
            kind,
            iteration,
            start_secs: start,
            dur_secs: dur,
            flow,
            lamport,
        }
    }

    fn healthy_fault_chain() -> Vec<CausalEvent> {
        vec![
            ev(
                0,
                "fault-injected",
                SpanKind::Fault,
                3,
                1,
                0.10,
                0.01,
                Flow::Start(1),
            ),
            ev(
                0,
                "fault-detected",
                SpanKind::Fault,
                3,
                2,
                0.50,
                0.40,
                Flow::Step(1),
            ),
            ev(
                0,
                "recovery",
                SpanKind::Fault,
                3,
                3,
                0.90,
                0.20,
                Flow::End(1),
            ),
        ]
    }

    #[test]
    fn healthy_chains_pass() {
        let mut events = healthy_fault_chain();
        events.push(ev(
            1,
            "ckpt-submit",
            SpanKind::Ckpt,
            4,
            4,
            1.2,
            0.001,
            Flow::Start(CKPT_FLOW_BASE + 4 * 4096),
        ));
        events.push(ev(
            1_000_000,
            "persist",
            SpanKind::Persist,
            4,
            5,
            1.21,
            0.01,
            Flow::End(CKPT_FLOW_BASE + 4 * 4096),
        ));
        let graph = CausalGraph::from_causal(events);
        let report = audit(&graph, None, &AuditConfig::default());
        assert!(report.passed(), "{}", report.render_text());
        assert_eq!(report.fault_flows, 1);
        assert_eq!(report.ckpt_flows, 1);
    }

    #[test]
    fn missing_detection_and_recovery_are_flagged() {
        let events = vec![ev(
            0,
            "fault-injected",
            SpanKind::Fault,
            3,
            1,
            0.1,
            0.01,
            Flow::Start(1),
        )];
        let graph = CausalGraph::from_causal(events);
        let report = audit(&graph, None, &AuditConfig::default());
        let slugs: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(slugs, ["fault-detection", "fault-recovery"]);
        assert!(!report.violations[0].witness.is_empty(), "witness carried");
    }

    #[test]
    fn detection_over_bound_is_flagged() {
        let graph = CausalGraph::from_causal(healthy_fault_chain());
        let config = AuditConfig {
            detect_bound_secs: Some(0.5),
            ..AuditConfig::default()
        };
        // end of detection (0.9) - start of injection (0.1) = 0.8 > 0.5.
        let report = audit(&graph, None, &config);
        let slugs: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(slugs, ["detection-latency"]);
        // A generous bound passes.
        let config = AuditConfig {
            detect_bound_secs: Some(2.0),
            ..AuditConfig::default()
        };
        assert!(audit(&graph, None, &config).passed());
    }

    #[test]
    fn reordered_recovery_is_exactly_recovery_causality() {
        let mut events = healthy_fault_chain();
        // Swap the Lamport stamps of detection and recovery: the flow
        // still has all three events, but the recovery now precedes its
        // detection in causal order.
        events[1].lamport = 3;
        events[2].lamport = 2;
        let graph = CausalGraph::from_causal(events);
        let report = audit(&graph, None, &AuditConfig::default());
        let slugs: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(slugs, ["recovery-causality"]);
        let witness = &report.violations[0].witness;
        assert_eq!(witness.len(), 3, "witness is the whole flow chain");
        assert_eq!(witness[1].name, "recovery", "chain shows the inversion");
    }

    #[test]
    fn dropped_persist_is_exactly_ckpt_persist() {
        let id = CKPT_FLOW_BASE + 8 * 4096 + 1;
        let events = vec![ev(
            1,
            "ckpt-submit",
            SpanKind::Ckpt,
            8,
            1,
            2.0,
            0.001,
            Flow::Start(id),
        )];
        let graph = CausalGraph::from_causal(events);
        let report = audit(&graph, None, &AuditConfig::default());
        let slugs: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(slugs, ["ckpt-persist"]);
        assert_eq!(report.violations[0].witness[0].name, "ckpt-submit");
    }

    #[test]
    fn bad_nesting_is_flagged() {
        let events = vec![
            ev(2, "compute", SpanKind::Phase, 1, 1, 0.0, 1.0, Flow::None),
            // Starts inside compute, ends well past it.
            ev(
                2,
                "tp-sync",
                SpanKind::Collective,
                1,
                2,
                0.5,
                1.0,
                Flow::None,
            ),
        ];
        let graph = CausalGraph::from_causal(events);
        let report = audit(&graph, None, &AuditConfig::default());
        let slugs: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(slugs, ["span-nesting"]);
    }

    /// Two siblings whose shared boundary was rounded apart by one
    /// nanosecond (`recovery-plan` → `recovery-fetch` after a Chrome
    /// trace round trip) are siblings, not a child overrunning its
    /// parent.
    #[test]
    fn siblings_overlapping_by_a_rounding_nanosecond_are_not_nested() {
        let events = vec![
            ev(
                0,
                "recovery-plan",
                SpanKind::Fault,
                3,
                1,
                2.303_340,
                0.000_020_001,
                Flow::None,
            ),
            // Starts 1 ns before its sibling ends, ends 38 ms after it.
            ev(
                0,
                "recovery-fetch",
                SpanKind::Fault,
                3,
                2,
                2.303_360,
                0.037_940,
                Flow::None,
            ),
        ];
        assert!(events[1].start_secs < events[0].end_secs());
        assert!(events[0].end_secs() - events[1].start_secs < 2e-9);
        let graph = CausalGraph::from_causal(events);
        let report = audit(&graph, None, &AuditConfig::default());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn rollback_excuses_step_regression() {
        let regression = vec![
            ev(
                2,
                "ring-all-reduce",
                SpanKind::Collective,
                7,
                1,
                0.0,
                0.1,
                Flow::None,
            ),
            ev(
                2,
                "ring-all-reduce",
                SpanKind::Collective,
                5,
                2,
                0.2,
                0.1,
                Flow::None,
            ),
        ];
        let graph = CausalGraph::from_causal(regression.clone());
        let report = audit(&graph, None, &AuditConfig::default());
        let slugs: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(slugs, ["step-monotonic"]);

        // The same regression with a recovery in between is a rollback.
        let mut excused = regression;
        excused[1].lamport = 3;
        excused.push(ev(
            0,
            "recovery",
            SpanKind::Fault,
            7,
            2,
            0.15,
            0.01,
            Flow::None,
        ));
        let graph = CausalGraph::from_causal(excused);
        assert!(audit(&graph, None, &AuditConfig::default()).passed());
    }

    #[test]
    fn blame_json_accounting_catches_mismatched_rows() {
        let doc = Json::parse(
            r#"{"iterations":[
                {"epoch":0,"iteration":1,"wall_secs":1.0,
                 "attributed":{"compute":0.99,"reduce":0.005}},
                {"epoch":0,"iteration":2,"wall_secs":1.0,
                 "attributed":{"compute":0.5}}
            ]}"#,
        )
        .unwrap();
        let violations = audit_blame_json(&doc, 0.05);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("iteration 2"));
    }
}
