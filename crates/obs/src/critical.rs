//! Critical-path blame: who ate the iteration time, and which chaos
//! event cost what.
//!
//! The analyzer consumes the merged span trace ([`TraceEvent`]) after a
//! run and answers the question spans alone leave open: an iteration
//! was slow — was it compute, an exposed collective wait, a checkpoint,
//! a straggler stall, or a recovery? The algorithm is a priority sweep
//! over each iteration's wall-clock window:
//!
//! 1. Foreground spans (rank and coordinator lanes; background engine
//!    writers at tid ≥ [`crate::sink::BACKGROUND_TID_BASE`] and their
//!    `persist`/`gc` spans are excluded — hiding that work *is* the
//!    system under test) are grouped into per-iteration windows. A
//!    recovery rolls iterations back and re-executes them, so windows
//!    are keyed by `(epoch, iteration)` where the epoch increments at
//!    every `recovery` span — re-executed iterations get their own
//!    window instead of smearing across the fault.
//! 2. Each window runs from its earliest span start to its latest span
//!    end, or to the start of the next window in time if that comes
//!    first — windows never overlap, so no instant is blamed twice —
//!    and is cut at every span boundary;
//!    every elementary slice is attributed to exactly one
//!    [`BlameCategory`]: the highest-priority span active during the
//!    slice (ties to the innermost, i.e. latest-started, span), or
//!    `Idle` when nothing foreground is active. Waits rank *below*
//!    compute, so a `ring-all-reduce` slice counts as ring-wait only
//!    while no rank is computing — the sweep measures **exposed** wait,
//!    not issued wait.
//!
//! Because every slice lands in exactly one category, per-window
//! attributed time sums to the window's wall time by construction; the
//! live test pins that the windows in turn tile the measured training
//! loop. The incident report correlates chaos-plane activity
//! (suspicions, gray mesh chaos, recoveries, elastic transitions,
//! straggler stalls) with its measured latency impact: time blamed on
//! the disruption plus the window's excess wall time over the clean
//! iteration median, joined with the store-retry delta from the
//! telemetry series when one is available.

use crate::json::Json;
use crate::sink::{SpanKind, TraceEvent, BACKGROUND_TID_BASE};
use crate::telemetry::{Counter, TelemetrySample};
use std::collections::BTreeMap;

/// Number of blame categories.
pub const CATEGORY_COUNT: usize = 13;

/// Where an elementary slice of iteration wall time is attributed.
/// Declaration order is sweep priority: when several spans cover the
/// same instant the *earliest-declared* category wins, so waits below
/// `Compute` only accumulate when they are exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameCategory {
    /// Fault lifecycle: detection legs, recovery plan/fetch/restore.
    Recovery = 0,
    /// Elastic transitions (shrink rebalance, expand restore).
    Elastic = 1,
    /// Injected straggler stalls.
    StragglerStall = 2,
    /// Training-path checkpoint work (collect/serialize/submit).
    Ckpt = 3,
    /// Evaluation passes.
    Eval = 4,
    /// Forward/backward compute.
    Compute = 5,
    /// A `reduce` span: gradient reduction on the coordinator (the live
    /// runtime no longer records one; ranks reduce among themselves).
    Reduce = 6,
    /// Update apply on the ranks.
    Apply = 7,
    /// Exposed tensor-parallel sync.
    TpSync = 8,
    /// Exposed pipeline wait/relay.
    PpWait = 9,
    /// Exposed ring all-reduce wait.
    RingWait = 10,
    /// Control-plane odds and ends (health transitions, barriers, …).
    Control = 11,
    /// No foreground span active.
    Idle = 12,
}

impl BlameCategory {
    /// Every category, in priority order.
    pub const ALL: [BlameCategory; CATEGORY_COUNT] = [
        BlameCategory::Recovery,
        BlameCategory::Elastic,
        BlameCategory::StragglerStall,
        BlameCategory::Ckpt,
        BlameCategory::Eval,
        BlameCategory::Compute,
        BlameCategory::Reduce,
        BlameCategory::Apply,
        BlameCategory::TpSync,
        BlameCategory::PpWait,
        BlameCategory::RingWait,
        BlameCategory::Control,
        BlameCategory::Idle,
    ];

    /// The category's slot in an attribution array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            BlameCategory::Recovery => "recovery",
            BlameCategory::Elastic => "elastic",
            BlameCategory::StragglerStall => "straggler-stall",
            BlameCategory::Ckpt => "ckpt",
            BlameCategory::Eval => "eval",
            BlameCategory::Compute => "compute",
            BlameCategory::Reduce => "reduce",
            BlameCategory::Apply => "apply",
            BlameCategory::TpSync => "tp-sync",
            BlameCategory::PpWait => "pp-wait",
            BlameCategory::RingWait => "ring-wait",
            BlameCategory::Control => "control",
            BlameCategory::Idle => "idle",
        }
    }
}

/// The blame category of one span; `None` for background work that is
/// off the critical path by design.
pub fn categorize(event: &TraceEvent) -> Option<BlameCategory> {
    if event.tid >= BACKGROUND_TID_BASE {
        return None;
    }
    match event.kind {
        SpanKind::Persist | SpanKind::Gc => None,
        SpanKind::Fault => Some(BlameCategory::Recovery),
        SpanKind::Elastic => Some(BlameCategory::Elastic),
        SpanKind::Ckpt => Some(BlameCategory::Ckpt),
        SpanKind::Phase | SpanKind::Collective | SpanKind::Control => Some(match event.name {
            "straggler-stall" => BlameCategory::StragglerStall,
            "compute" => BlameCategory::Compute,
            "reduce" => BlameCategory::Reduce,
            "apply" => BlameCategory::Apply,
            "tp-sync" => BlameCategory::TpSync,
            "pp-wait" | "pp-relay" => BlameCategory::PpWait,
            "ring-all-reduce" => BlameCategory::RingWait,
            "eval" => BlameCategory::Eval,
            _ => BlameCategory::Control,
        }),
    }
}

/// Blame for one `(epoch, iteration)` execution window.
#[derive(Debug, Clone)]
pub struct IterationBlame {
    /// Recovery epoch: how many `recovery` spans ended before this
    /// window's spans started. Re-executed iterations appear once per
    /// epoch.
    pub epoch: u64,
    /// The training iteration.
    pub iteration: u64,
    /// Window start, seconds from the run anchor.
    pub start_secs: f64,
    /// Window wall time (max span end − min span start).
    pub wall_secs: f64,
    /// Attributed seconds by [`BlameCategory::index`]; sums to
    /// `wall_secs` by construction.
    pub attributed: [f64; CATEGORY_COUNT],
}

impl IterationBlame {
    /// Seconds attributed to one category.
    pub fn attributed_secs(&self, category: BlameCategory) -> f64 {
        self.attributed[category.index()]
    }

    /// Total attributed seconds (equals `wall_secs` up to float error).
    pub fn attributed_total_secs(&self) -> f64 {
        self.attributed.iter().sum()
    }

    /// Seconds blamed on disruptions (recovery + elastic + stalls).
    pub fn disruption_secs(&self) -> f64 {
        self.attributed_secs(BlameCategory::Recovery)
            + self.attributed_secs(BlameCategory::Elastic)
            + self.attributed_secs(BlameCategory::StragglerStall)
    }
}

/// What kind of chaos-plane activity an [`Incident`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A declared fault with a full recovery.
    Recovery,
    /// A heartbeat suspicion; `cleared` is whether it resolved without
    /// a declared fault.
    Suspicion {
        /// Whether the suspicion cleared on its own.
        cleared: bool,
    },
    /// Gray mesh chaos (delays/drops/heartbeat loss) without recovery.
    GrayChaos,
    /// An elastic shrink or expand transition.
    Elastic,
    /// An injected straggler stall.
    Straggler,
}

impl IncidentKind {
    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::Recovery => "recovery",
            IncidentKind::Suspicion { cleared: true } => "suspicion-cleared",
            IncidentKind::Suspicion { cleared: false } => "suspicion",
            IncidentKind::GrayChaos => "gray-chaos",
            IncidentKind::Elastic => "elastic",
            IncidentKind::Straggler => "straggler",
        }
    }
}

/// One chaos-plane event correlated with its measured latency impact.
#[derive(Debug, Clone)]
pub struct Incident {
    /// The iteration the disruption landed in.
    pub iteration: u64,
    /// Recovery epoch of the affected window.
    pub epoch: u64,
    /// What happened.
    pub kind: IncidentKind,
    /// Window start, seconds from the run anchor.
    pub start_secs: f64,
    /// Seconds the sweep blamed on the disruption itself.
    pub disruption_secs: f64,
    /// Window wall time minus the clean-iteration median (signed: a
    /// masked disruption can come out ≈ 0).
    pub excess_secs: f64,
    /// Store retries the telemetry series saw inside the window (0
    /// when no series was recorded).
    pub store_retries: u64,
}

/// The full blame + incident report for one run.
#[derive(Debug, Clone, Default)]
pub struct BlameReport {
    /// Per-window blame, ordered by (epoch, iteration).
    pub iterations: Vec<IterationBlame>,
    /// Attributed seconds summed over all windows, by
    /// [`BlameCategory::index`].
    pub aggregate: [f64; CATEGORY_COUNT],
    /// Sum of all window wall times.
    pub total_wall_secs: f64,
    /// Median wall time of clean (undisrupted, computing) windows.
    pub clean_median_secs: f64,
    /// Chaos-plane events with their measured latency impact.
    pub incidents: Vec<Incident>,
}

impl BlameReport {
    /// Aggregate seconds attributed to one category.
    pub fn aggregate_secs(&self, category: BlameCategory) -> f64 {
        self.aggregate[category.index()]
    }

    /// Renders the aggregate blame table plus the incident list.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("  blame (exposed wall time by category):\n");
        for category in BlameCategory::ALL {
            let secs = self.aggregate_secs(category);
            if secs <= 0.0 {
                continue;
            }
            let share = if self.total_wall_secs > 0.0 {
                100.0 * secs / self.total_wall_secs
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {:<16} {:>12} {:>6.1}%\n",
                category.label(),
                format!("{:.3} ms", 1e3 * secs),
                share
            ));
        }
        out.push_str(&format!(
            "    {:<16} {:>12} over {} window(s)\n",
            "total",
            format!("{:.3} ms", 1e3 * self.total_wall_secs),
            self.iterations.len()
        ));
        if !self.incidents.is_empty() {
            out.push_str("  incidents:\n");
            for incident in &self.incidents {
                out.push_str(&format!(
                    "    iter {:>4} {:<18} disruption {:>10} excess {:>10} store-retries {}\n",
                    incident.iteration,
                    incident.kind.label(),
                    format!("{:.3} ms", 1e3 * incident.disruption_secs),
                    format!("{:+.3} ms", 1e3 * incident.excess_secs),
                    incident.store_retries
                ));
            }
        }
        out
    }

    /// Schema'd JSON form (written as `blame.json` in the trace dir).
    pub fn to_json(&self) -> Json {
        let categories = Json::Obj(
            BlameCategory::ALL
                .iter()
                .map(|&c| (c.label().to_string(), Json::from(self.aggregate_secs(c))))
                .collect(),
        );
        let iterations = Json::Arr(
            self.iterations
                .iter()
                .map(|row| {
                    Json::Obj(vec![
                        ("epoch".to_string(), Json::from(row.epoch)),
                        ("iteration".to_string(), Json::from(row.iteration)),
                        ("start_secs".to_string(), Json::from(row.start_secs)),
                        ("wall_secs".to_string(), Json::from(row.wall_secs)),
                        (
                            "attributed".to_string(),
                            Json::Obj(
                                BlameCategory::ALL
                                    .iter()
                                    .map(|&c| {
                                        (c.label().to_string(), Json::from(row.attributed_secs(c)))
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let incidents = Json::Arr(
            self.incidents
                .iter()
                .map(|incident| {
                    Json::Obj(vec![
                        ("iteration".to_string(), Json::from(incident.iteration)),
                        ("epoch".to_string(), Json::from(incident.epoch)),
                        ("kind".to_string(), Json::from(incident.kind.label())),
                        ("start_secs".to_string(), Json::from(incident.start_secs)),
                        (
                            "disruption_secs".to_string(),
                            Json::from(incident.disruption_secs),
                        ),
                        ("excess_secs".to_string(), Json::from(incident.excess_secs)),
                        (
                            "store_retries".to_string(),
                            Json::from(incident.store_retries),
                        ),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            (
                "total_wall_secs".to_string(),
                Json::from(self.total_wall_secs),
            ),
            (
                "clean_median_secs".to_string(),
                Json::from(self.clean_median_secs),
            ),
            ("categories".to_string(), categories),
            ("iterations".to_string(), iterations),
            ("incidents".to_string(), incidents),
        ])
    }
}

/// Per-lane phase totals derived from the merged trace (the per-rank
/// breakdown rendered in the run summary).
#[derive(Debug, Clone)]
pub struct RankPhases {
    /// Process lane (node id; the control plane sits past the nodes).
    pub pid: u32,
    /// Thread lane (global rank, or 0 for the coordinator).
    pub tid: u32,
    /// Display label (`node0/rank 3`, `control-plane/coordinator`).
    pub label: String,
    /// Spans recorded on the lane.
    pub spans: u64,
    /// Seconds in forward/backward compute.
    pub compute_secs: f64,
    /// Seconds in collective legs (reduce/apply/tp/pp/ring).
    pub collective_secs: f64,
    /// Seconds in injected straggler stalls.
    pub stall_secs: f64,
    /// Seconds in training-path checkpoint work.
    pub ckpt_secs: f64,
    /// Seconds in fault + elastic handling.
    pub fault_secs: f64,
    /// Seconds in evaluation passes.
    pub eval_secs: f64,
}

/// Sums per-lane phase time for every foreground lane, ordered by
/// `(pid, tid)`. `labels` maps `(pid, tid)` to a display name.
pub fn per_rank_breakdown(
    events: &[TraceEvent],
    labels: &dyn Fn(u32, u32) -> String,
) -> Vec<RankPhases> {
    let mut lanes: BTreeMap<(u32, u32), RankPhases> = BTreeMap::new();
    for event in events {
        let Some(category) = categorize(event) else {
            continue;
        };
        let lane = lanes
            .entry((event.pid, event.tid))
            .or_insert_with(|| RankPhases {
                pid: event.pid,
                tid: event.tid,
                label: labels(event.pid, event.tid),
                spans: 0,
                compute_secs: 0.0,
                collective_secs: 0.0,
                stall_secs: 0.0,
                ckpt_secs: 0.0,
                fault_secs: 0.0,
                eval_secs: 0.0,
            });
        lane.spans += 1;
        let secs = event.dur_secs;
        match category {
            BlameCategory::Compute => lane.compute_secs += secs,
            BlameCategory::Reduce
            | BlameCategory::Apply
            | BlameCategory::TpSync
            | BlameCategory::PpWait
            | BlameCategory::RingWait
            | BlameCategory::Control => lane.collective_secs += secs,
            BlameCategory::StragglerStall => lane.stall_secs += secs,
            BlameCategory::Ckpt => lane.ckpt_secs += secs,
            BlameCategory::Recovery | BlameCategory::Elastic => lane.fault_secs += secs,
            BlameCategory::Eval => lane.eval_secs += secs,
            BlameCategory::Idle => {}
        }
    }
    lanes.into_values().collect()
}

struct WindowSpan {
    start: f64,
    end: f64,
    category: BlameCategory,
    name: &'static str,
}

/// Runs the blame + incident analysis over a merged trace. Pass the
/// run's telemetry series (when one was recorded) to join store-retry
/// deltas into the incidents.
pub fn analyze(events: &[TraceEvent], telemetry: Option<&[TelemetrySample]>) -> BlameReport {
    // Epoch boundaries: the end of every `recovery` span.
    let mut recovery_ends: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Fault && e.name == "recovery")
        .map(|e| e.start_secs + e.dur_secs)
        .collect();
    recovery_ends.sort_by(f64::total_cmp);
    let epoch_of = |start: f64| recovery_ends.iter().filter(|&&end| end <= start).count() as u64;

    let mut windows: BTreeMap<(u64, u64), Vec<WindowSpan>> = BTreeMap::new();
    for event in events {
        let Some(category) = categorize(event) else {
            continue;
        };
        windows
            .entry((epoch_of(event.start_secs), event.iteration))
            .or_default()
            .push(WindowSpan {
                start: event.start_secs,
                end: event.start_secs + event.dur_secs,
                category,
                name: event.name,
            });
    }

    // Windows are meant to tile the run, but their raw extents
    // `[min start, max end]` overlap: ranks drift a little out of phase,
    // so a window's late rank is still busy when the next window's
    // early rank starts, and a span tagged with an iteration far from
    // its neighbours' stretches its window across every window in
    // between. An instant belongs to the latest window to have started
    // by then: in start order, each window is cut off where the next
    // one starts, so no instant is blamed twice and the windows' wall
    // times sum to at most the run's.
    let mut extents: Vec<(f64, f64, (u64, u64))> = windows
        .iter()
        .map(|(key, spans)| {
            let start = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
            let end = spans
                .iter()
                .map(|s| s.end)
                .fold(f64::NEG_INFINITY, f64::max);
            (start, end, *key)
        })
        .collect();
    extents.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
    let mut clipped: BTreeMap<(u64, u64), (f64, f64)> = BTreeMap::new();
    for (i, &(start, end, key)) in extents.iter().enumerate() {
        let next_start = extents.get(i + 1).map_or(f64::INFINITY, |next| next.0);
        clipped.insert(key, (start, end.min(next_start)));
    }

    let mut report = BlameReport::default();
    for (key @ (epoch, iteration), spans) in &windows {
        let (window_start, window_end) = clipped[key];
        let mut boundaries: Vec<f64> = spans
            .iter()
            .flat_map(|s| [s.start, s.end])
            .map(|t| t.min(window_end))
            .collect();
        boundaries.sort_by(f64::total_cmp);
        boundaries.dedup();
        let mut attributed = [0.0f64; CATEGORY_COUNT];
        for pair in boundaries.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b <= a {
                continue;
            }
            // Highest priority wins; ties go to the innermost
            // (latest-started) span.
            let best = spans
                .iter()
                .filter(|s| s.start <= a && s.end >= b)
                .min_by(|x, y| {
                    x.category
                        .index()
                        .cmp(&y.category.index())
                        .then(y.start.total_cmp(&x.start))
                })
                .map(|s| s.category)
                .unwrap_or(BlameCategory::Idle);
            attributed[best.index()] += b - a;
        }
        report.iterations.push(IterationBlame {
            epoch: *epoch,
            iteration: *iteration,
            start_secs: window_start,
            wall_secs: window_end - window_start,
            attributed,
        });
    }

    for row in &report.iterations {
        for (aggregate, value) in report.aggregate.iter_mut().zip(row.attributed.iter()) {
            *aggregate += value;
        }
    }
    report.total_wall_secs = report.iterations.iter().map(|r| r.wall_secs).sum();

    // Clean baseline: the median wall time of undisrupted windows that
    // actually computed (screens out the bootstrap-checkpoint window).
    let mut clean: Vec<f64> = report
        .iterations
        .iter()
        .filter(|r| r.disruption_secs() == 0.0 && r.attributed_secs(BlameCategory::Compute) > 0.0)
        .map(|r| r.wall_secs)
        .collect();
    clean.sort_by(f64::total_cmp);
    report.clean_median_secs = if clean.is_empty() {
        0.0
    } else {
        clean[clean.len() / 2]
    };

    for row in &report.iterations {
        if row.disruption_secs() <= 0.0 {
            continue;
        }
        let spans = &windows[&(row.epoch, row.iteration)];
        let has = |name: &str| spans.iter().any(|s| s.name == name);
        let kind = if has("recovery") {
            IncidentKind::Recovery
        } else if has("fault-suspected") {
            IncidentKind::Suspicion {
                cleared: has("fault-cleared"),
            }
        } else if row.attributed_secs(BlameCategory::Recovery) > 0.0 {
            IncidentKind::GrayChaos
        } else if row.attributed_secs(BlameCategory::Elastic) > 0.0 {
            IncidentKind::Elastic
        } else {
            IncidentKind::Straggler
        };
        let window_end = row.start_secs + row.wall_secs;
        report.incidents.push(Incident {
            iteration: row.iteration,
            epoch: row.epoch,
            kind,
            start_secs: row.start_secs,
            disruption_secs: row.disruption_secs(),
            excess_secs: row.wall_secs - report.clean_median_secs,
            store_retries: telemetry
                .map(|samples| retries_between(samples, row.start_secs, window_end))
                .unwrap_or(0),
        });
    }
    report
}

/// The store-retry delta the telemetry series saw across `[a, b]`.
fn retries_between(samples: &[TelemetrySample], a: f64, b: f64) -> u64 {
    let before = samples
        .iter()
        .take_while(|s| s.at_secs <= a)
        .last()
        .map(|s| s.value(Counter::StoreRetries))
        .unwrap_or(0);
    let after = samples
        .iter()
        .filter(|s| s.at_secs >= b)
        .map(|s| s.value(Counter::StoreRetries))
        .next()
        .or_else(|| samples.last().map(|s| s.value(Counter::StoreRetries)))
        .unwrap_or(0);
    after.saturating_sub(before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Flow;

    fn span(
        tid: u32,
        name: &'static str,
        kind: SpanKind,
        iteration: u64,
        start: f64,
        dur: f64,
    ) -> TraceEvent {
        TraceEvent {
            pid: 0,
            tid,
            name,
            kind,
            iteration,
            start_secs: start,
            dur_secs: dur,
            flow: Flow::None,
            lamport: 0,
        }
    }

    #[test]
    fn exposed_wait_only_counts_when_no_rank_computes() {
        // Rank 0 computes [0, 10]; rank 1 computes [0, 4] then rings
        // [4, 12]. Ring wait is exposed only over [10, 12].
        let events = vec![
            span(0, "compute", SpanKind::Phase, 1, 0.0, 10.0),
            span(1, "compute", SpanKind::Phase, 1, 0.0, 4.0),
            span(1, "ring-all-reduce", SpanKind::Collective, 1, 4.0, 8.0),
        ];
        let report = analyze(&events, None);
        assert_eq!(report.iterations.len(), 1);
        let row = &report.iterations[0];
        assert!((row.wall_secs - 12.0).abs() < 1e-9);
        assert!((row.attributed_secs(BlameCategory::Compute) - 10.0).abs() < 1e-9);
        assert!((row.attributed_secs(BlameCategory::RingWait) - 2.0).abs() < 1e-9);
        assert!((row.attributed_total_secs() - row.wall_secs).abs() < 1e-9);
    }

    #[test]
    fn stalls_outrank_compute_and_ckpt_is_attributed() {
        let events = vec![
            span(0, "compute", SpanKind::Phase, 3, 0.0, 6.0),
            span(0, "straggler-stall", SpanKind::Phase, 3, 2.0, 3.0),
            span(1, "ckpt-serialize", SpanKind::Ckpt, 3, 6.0, 2.0),
        ];
        let report = analyze(&events, None);
        let row = &report.iterations[0];
        assert!((row.attributed_secs(BlameCategory::StragglerStall) - 3.0).abs() < 1e-9);
        assert!((row.attributed_secs(BlameCategory::Compute) - 3.0).abs() < 1e-9);
        assert!((row.attributed_secs(BlameCategory::Ckpt) - 2.0).abs() < 1e-9);
        assert!((report.total_wall_secs - 8.0).abs() < 1e-9);
        // One straggler incident, with the stall as its disruption.
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].kind, IncidentKind::Straggler);
        assert!((report.incidents[0].disruption_secs - 3.0).abs() < 1e-9);
    }

    #[test]
    fn recovery_splits_reexecuted_iterations_into_epochs() {
        // Iterations 1–2 run, a fault at 2 recovers, then 1–2 re-run.
        // Without epochs the re-executions would smear iteration 1's
        // window across the whole fault.
        let events = vec![
            span(0, "compute", SpanKind::Phase, 1, 0.0, 1.0),
            span(0, "compute", SpanKind::Phase, 2, 1.0, 1.0),
            span(0, "fault-injected", SpanKind::Fault, 2, 1.5, 0.0),
            span(0, "recovery", SpanKind::Fault, 2, 2.0, 1.0),
            span(0, "compute", SpanKind::Phase, 1, 3.0, 1.0),
            span(0, "compute", SpanKind::Phase, 2, 4.0, 1.0),
        ];
        let report = analyze(&events, None);
        assert_eq!(report.iterations.len(), 4, "{:?}", report.iterations);
        let total: f64 = report.iterations.iter().map(|r| r.wall_secs).sum();
        // Windows tile the run: no double counting across the rollback.
        assert!((total - 5.0).abs() < 1e-9, "total {total}");
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].kind, IncidentKind::Recovery);
        assert_eq!(report.incidents[0].iteration, 2);
        assert!(report.incidents[0].disruption_secs >= 1.0);
    }

    /// A trace with a recovery in which one rank's `restore-apply` is
    /// tagged iteration 0: window (0, 0) would stretch from the bootstrap
    /// to the restore, over every epoch-0 iteration. Clipped, the
    /// windows' wall times sum to no more than the run's, each instant
    /// keeps the blame of the window it falls in, and the compute inside
    /// the stretched window stays compute.
    #[test]
    fn windows_never_overlap_across_a_rollback() {
        let mut events = vec![span(0, "ckpt-serialize", SpanKind::Ckpt, 0, 0.0, 0.5)];
        // Epoch 0: iterations 1–4, one second each, two ranks slightly
        // out of phase (rank 1 starts the next iteration 50 ms early).
        for it in 1..=4u64 {
            let t = it as f64;
            events.push(span(0, "compute", SpanKind::Phase, it, t, 1.0));
            events.push(span(1, "compute", SpanKind::Phase, it, t - 0.05, 1.0));
        }
        // The fault: iteration 4 aborts, detection + recovery take 3 s,
        // and rank 1's restore is tagged iteration 0.
        events.push(span(2, "recovery", SpanKind::Fault, 4, 5.0, 3.0));
        events.push(span(1, "restore-apply", SpanKind::Fault, 0, 7.5, 0.4));
        // Epoch 1 replays 3–4.
        for it in 3..=4u64 {
            let t = 5.0 + it as f64;
            events.push(span(0, "compute", SpanKind::Phase, it, t, 1.0));
            events.push(span(1, "compute", SpanKind::Phase, it, t, 1.0));
        }
        let loop_wall = 10.0;
        let report = analyze(&events, None);
        let sorted = {
            let mut rows: Vec<&IterationBlame> = report.iterations.iter().collect();
            rows.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs));
            rows
        };
        for pair in sorted.windows(2) {
            assert!(
                pair[0].start_secs + pair[0].wall_secs <= pair[1].start_secs + 1e-9,
                "windows overlap: {pair:?}"
            );
        }
        assert!(
            report.total_wall_secs <= loop_wall * 1.05,
            "Σ window wall {} exceeds the run's {loop_wall}",
            report.total_wall_secs
        );
        let attributed: f64 = report.aggregate.iter().sum();
        assert!((attributed - report.total_wall_secs).abs() < 1e-9);
        // 4 + 2 iterations of compute survive the stretched window...
        let compute = report.aggregate_secs(BlameCategory::Compute);
        assert!((compute - 6.0).abs() < 0.11, "compute {compute}");
        // ...and the fault is blamed once, on the recovery.
        let recovery = report.aggregate_secs(BlameCategory::Recovery);
        assert!((recovery - 3.0).abs() < 1e-9, "recovery {recovery}");
        assert!(report.aggregate_secs(BlameCategory::Idle) < 0.6);
    }

    #[test]
    fn background_persist_is_off_the_critical_path() {
        let events = vec![
            span(0, "compute", SpanKind::Phase, 1, 0.0, 2.0),
            // Engine-writer lane: must not extend or pollute the window.
            span(
                BACKGROUND_TID_BASE + 1,
                "persist",
                SpanKind::Persist,
                1,
                1.0,
                50.0,
            ),
        ];
        let report = analyze(&events, None);
        assert_eq!(report.iterations.len(), 1);
        assert!((report.iterations[0].wall_secs - 2.0).abs() < 1e-9);
        assert_eq!(
            report.aggregate_secs(BlameCategory::Ckpt),
            0.0,
            "background persist must not be blamed"
        );
    }

    #[test]
    fn incidents_join_store_retries_from_telemetry() {
        let events = vec![
            span(0, "compute", SpanKind::Phase, 1, 0.0, 1.0),
            span(0, "compute", SpanKind::Phase, 2, 1.0, 1.0),
            span(0, "recovery", SpanKind::Fault, 3, 2.0, 2.0),
            span(0, "compute", SpanKind::Phase, 3, 4.0, 1.0),
        ];
        let sample = |at: f64, retries: u64| {
            let mut values = [0u64; crate::telemetry::COUNTER_COUNT];
            values[Counter::StoreRetries.index()] = retries;
            TelemetrySample {
                at_secs: at,
                values,
            }
        };
        let samples = vec![sample(0.5, 0), sample(1.9, 1), sample(4.5, 6)];
        let report = analyze(&events, Some(&samples));
        let incident = report
            .incidents
            .iter()
            .find(|i| i.kind == IncidentKind::Recovery)
            .unwrap();
        assert_eq!(
            incident.store_retries, 5,
            "retry delta across the recovery window"
        );
    }

    #[test]
    fn per_rank_breakdown_sums_each_lane() {
        let events = vec![
            span(0, "compute", SpanKind::Phase, 1, 0.0, 2.0),
            span(0, "tp-sync", SpanKind::Collective, 1, 2.0, 0.5),
            span(1, "compute", SpanKind::Phase, 1, 0.0, 1.0),
            span(1, "straggler-stall", SpanKind::Phase, 1, 1.0, 1.0),
            span(1, "ckpt-serialize", SpanKind::Ckpt, 1, 2.0, 0.25),
            span(
                BACKGROUND_TID_BASE,
                "persist",
                SpanKind::Persist,
                1,
                0.0,
                9.0,
            ),
        ];
        let rows = per_rank_breakdown(&events, &|pid, tid| format!("n{pid}/r{tid}"));
        assert_eq!(rows.len(), 2, "background lane excluded");
        assert_eq!(rows[0].label, "n0/r0");
        assert!((rows[0].compute_secs - 2.0).abs() < 1e-9);
        assert!((rows[0].collective_secs - 0.5).abs() < 1e-9);
        assert!((rows[1].stall_secs - 1.0).abs() < 1e-9);
        assert!((rows[1].ckpt_secs - 0.25).abs() < 1e-9);
        assert_eq!(rows[1].spans, 3);
    }

    #[test]
    fn render_text_lists_categories_and_incidents() {
        let events = vec![
            span(0, "compute", SpanKind::Phase, 1, 0.0, 1.0),
            span(0, "recovery", SpanKind::Fault, 2, 1.0, 0.5),
        ];
        let report = analyze(&events, None);
        let text = report.render_text();
        assert!(text.contains("compute"), "{text}");
        assert!(text.contains("recovery"), "{text}");
        assert!(text.contains("incidents:"), "{text}");
        let json = report.to_json();
        assert!(json.get("categories").is_some());
        assert_eq!(
            json.get("incidents")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            1
        );
    }
}
