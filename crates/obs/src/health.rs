//! Online per-rank health scoring.
//!
//! The chaos plane injects *gray* degradation — stragglers that slow a
//! rank down without silencing it — which the silence-based suspicion
//! detector cannot see until the rank misses a whole collect window.
//! This module watches the per-rank step samples the coordinator
//! already collects (compute + stall seconds, store retries) and keeps
//! a streaming baseline per rank: an EWMA of the step time plus a MAD
//! (median absolute deviation) estimate of its spread over a sliding
//! window. Each new sample is scored as a z-score against that
//! baseline; sustained high scores walk the rank through a
//! healthy → degraded → suspect state machine, and sustained normal
//! scores walk it back.
//!
//! The scorer is pure bookkeeping over numbers the runtime already
//! produced — it never touches the training math, so a run with health
//! scoring on stays bitwise identical to the dark run. Its output
//! feeds three places: `EventKind::HealthDegraded` run events, the
//! `health.json` report next to the trace, and the suspicion detector's
//! corroboration hook (an already-degraded rank needs one fewer missed
//! lease before the coordinator declares it).

use crate::json::Json;

/// Tunables of the per-rank scorer.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Z-score at or above which a sample counts toward `Degraded`.
    pub z_degraded: f64,
    /// Z-score at or above which a sample counts toward `Suspect`.
    pub z_suspect: f64,
    /// Consecutive degraded-scoring samples before `Healthy → Degraded`.
    pub degrade_after: u32,
    /// Consecutive suspect-scoring samples before `→ Suspect`.
    pub suspect_after: u32,
    /// Consecutive normal-scoring samples before recovery to `Healthy`.
    pub recover_after: u32,
    /// Samples per rank consumed before scoring starts (baseline warmup).
    pub warmup: u32,
    /// EWMA smoothing factor for the step-time baseline.
    pub ewma_alpha: f64,
    /// Sliding-window length for the MAD spread estimate.
    pub window: usize,
    /// Absolute floor of the z-score scale, seconds. Millisecond-class
    /// steps (a release-mode toy model) ride scheduler jitter of the
    /// same magnitude as the step itself; a purely relative floor would
    /// read that jitter as a many-sigma outlier. Degradation below this
    /// absolute excess is invisible — tune it well under the step times
    /// you care about.
    pub scale_floor_secs: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            z_degraded: 6.0,
            z_suspect: 12.0,
            degrade_after: 2,
            suspect_after: 4,
            recover_after: 3,
            warmup: 2,
            ewma_alpha: 0.2,
            window: 32,
            scale_floor_secs: 2e-3,
        }
    }
}

/// The health state machine's states, in increasing severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Scoring within the baseline.
    Healthy,
    /// Sustained z-scores over `z_degraded`: slow but alive.
    Degraded,
    /// Sustained z-scores over `z_suspect`: corroborates suspicion.
    Suspect,
}

impl HealthState {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Suspect => "suspect",
        }
    }
}

/// One state-machine transition, returned from [`HealthScorer::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTransition {
    /// Rank whose state changed.
    pub rank: usize,
    /// Iteration of the sample that tipped it.
    pub iteration: u64,
    /// State before the sample.
    pub from: HealthState,
    /// State after the sample.
    pub to: HealthState,
    /// The z-score of the tipping sample.
    pub z: f64,
}

#[derive(Debug, Clone)]
struct RankHealth {
    rank: usize,
    state: HealthState,
    ewma: f64,
    residuals: Vec<f64>,
    samples: u64,
    hot_streak: u32,
    calm_streak: u32,
    last_z: f64,
    worst_z: f64,
    transitions: u32,
}

impl RankHealth {
    fn new(rank: usize) -> Self {
        Self {
            rank,
            state: HealthState::Healthy,
            ewma: 0.0,
            residuals: Vec::new(),
            samples: 0,
            hot_streak: 0,
            calm_streak: 0,
            last_z: 0.0,
            worst_z: 0.0,
            transitions: 0,
        }
    }
}

/// Streaming per-rank health scorer (EWMA + MAD z-scores).
#[derive(Debug, Clone, Default)]
pub struct HealthScorer {
    config: HealthConfig,
    ranks: Vec<RankHealth>,
    transitions: Vec<HealthTransition>,
}

impl HealthScorer {
    /// A scorer with the given tunables.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            ranks: Vec::new(),
            transitions: Vec::new(),
        }
    }

    fn rank_mut(&mut self, rank: usize) -> &mut RankHealth {
        if let Some(i) = self.ranks.iter().position(|r| r.rank == rank) {
            &mut self.ranks[i]
        } else {
            self.ranks.push(RankHealth::new(rank));
            self.ranks.sort_by_key(|r| r.rank);
            let i = self.ranks.iter().position(|r| r.rank == rank).unwrap();
            &mut self.ranks[i]
        }
    }

    /// Feeds one per-rank step sample; returns the state transition it
    /// caused, if any.
    pub fn observe(
        &mut self,
        rank: usize,
        iteration: u64,
        step_secs: f64,
        stall_secs: f64,
        retries_delta: u64,
    ) -> Option<HealthTransition> {
        let config = self.config.clone();
        let r = self.rank_mut(rank);
        r.samples += 1;

        if r.samples <= config.warmup as u64 {
            // Baseline warmup: adopt, don't score.
            r.ewma = if r.samples == 1 {
                step_secs
            } else {
                config.ewma_alpha * step_secs + (1.0 - config.ewma_alpha) * r.ewma
            };
            r.residuals.push(0.0);
            return None;
        }

        // Robust spread: 1.4826·MAD rescales MAD to a standard deviation
        // for normal data; the floor keeps tiny quiet baselines from
        // turning scheduler jitter into huge z-scores.
        let mad = median_abs(&r.residuals);
        let scale = (1.4826 * mad)
            .max(0.05 * r.ewma)
            .max(config.scale_floor_secs)
            .max(1e-6);
        let z_step = (step_secs - r.ewma).max(0.0) / scale;
        // Stall is near-zero on a healthy rank, so score it against the
        // step baseline rather than its own (degenerate) spread.
        let z_stall = stall_secs / (0.1 * r.ewma).max(config.scale_floor_secs).max(1e-9);
        let z_retries = retries_delta as f64;
        let z = z_step.max(z_stall) + 0.5 * z_retries;
        r.last_z = z;
        r.worst_z = r.worst_z.max(z);

        // Only normal-scoring samples update the baseline, so a
        // straggler cannot drag its own baseline up and score itself
        // healthy again while still slow.
        if z < config.z_degraded {
            r.ewma = config.ewma_alpha * step_secs + (1.0 - config.ewma_alpha) * r.ewma;
            r.residuals.push((step_secs - r.ewma).abs());
            if r.residuals.len() > config.window {
                let excess = r.residuals.len() - config.window;
                r.residuals.drain(..excess);
            }
        }

        let from = r.state;
        if z >= config.z_degraded {
            r.hot_streak += 1;
            r.calm_streak = 0;
        } else {
            r.calm_streak += 1;
            r.hot_streak = 0;
        }

        let to = match from {
            HealthState::Healthy if r.hot_streak >= config.degrade_after => HealthState::Degraded,
            HealthState::Degraded
                if z >= config.z_suspect && r.hot_streak >= config.suspect_after =>
            {
                HealthState::Suspect
            }
            HealthState::Degraded | HealthState::Suspect
                if r.calm_streak >= config.recover_after =>
            {
                HealthState::Healthy
            }
            other => other,
        };
        if to == from {
            return None;
        }
        r.state = to;
        r.transitions += 1;
        let t = HealthTransition {
            rank,
            iteration,
            from,
            to,
            z,
        };
        self.transitions.push(t);
        Some(t)
    }

    /// Current state of a rank (`Healthy` if it was never observed).
    pub fn state(&self, rank: usize) -> HealthState {
        self.ranks
            .iter()
            .find(|r| r.rank == rank)
            .map(|r| r.state)
            .unwrap_or(HealthState::Healthy)
    }

    /// Whether a rank is currently scored worse than healthy.
    pub fn is_degraded(&self, rank: usize) -> bool {
        self.state(rank) != HealthState::Healthy
    }

    /// Freezes the scorer into the run's health report.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            rows: self
                .ranks
                .iter()
                .map(|r| HealthRow {
                    rank: r.rank,
                    state: r.state,
                    samples: r.samples,
                    ewma_step_secs: r.ewma,
                    last_z: r.last_z,
                    worst_z: r.worst_z,
                    transitions: r.transitions,
                })
                .collect(),
            transitions: self.transitions.clone(),
        }
    }
}

fn median_abs(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// One rank's row in the health report.
#[derive(Debug, Clone)]
pub struct HealthRow {
    /// Global rank id.
    pub rank: usize,
    /// Final state at the end of the run.
    pub state: HealthState,
    /// Samples scored (including warmup).
    pub samples: u64,
    /// Final EWMA step-time baseline, seconds.
    pub ewma_step_secs: f64,
    /// Z-score of the last sample.
    pub last_z: f64,
    /// Largest z-score seen.
    pub worst_z: f64,
    /// State transitions over the run.
    pub transitions: u32,
}

/// The run's frozen health verdict (`health.json`).
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Per-rank final rows, sorted by rank.
    pub rows: Vec<HealthRow>,
    /// Every state transition, in observation order.
    pub transitions: Vec<HealthTransition>,
}

impl HealthReport {
    /// Ranks whose final state is worse than healthy.
    pub fn degraded_ranks(&self) -> Vec<usize> {
        self.rows
            .iter()
            .filter(|r| r.state != HealthState::Healthy)
            .map(|r| r.rank)
            .collect()
    }

    /// JSON form written as `health.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "ranks".to_string(),
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("rank".to_string(), Json::from(r.rank as u64)),
                                ("state".to_string(), Json::from(r.state.label())),
                                ("samples".to_string(), Json::from(r.samples)),
                                ("ewma_step_secs".to_string(), Json::from(r.ewma_step_secs)),
                                ("last_z".to_string(), Json::from(r.last_z)),
                                ("worst_z".to_string(), Json::from(r.worst_z)),
                                (
                                    "transitions".to_string(),
                                    Json::from(u64::from(r.transitions)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "transitions".to_string(),
                Json::Arr(
                    self.transitions
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("rank".to_string(), Json::from(t.rank as u64)),
                                ("iteration".to_string(), Json::from(t.iteration)),
                                ("from".to_string(), Json::from(t.from.label())),
                                ("to".to_string(), Json::from(t.to.label())),
                                ("z".to_string(), Json::from(t.z)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_steady(scorer: &mut HealthScorer, rank: usize, n: u64, step: f64) {
        for i in 0..n {
            assert!(scorer.observe(rank, i, step, 0.0, 0).is_none());
        }
    }

    #[test]
    fn steady_rank_stays_healthy() {
        let mut scorer = HealthScorer::new(HealthConfig::default());
        feed_steady(&mut scorer, 0, 50, 0.010);
        assert_eq!(scorer.state(0), HealthState::Healthy);
        assert!(!scorer.is_degraded(0));
        let report = scorer.report();
        assert_eq!(report.rows.len(), 1);
        assert!(report.transitions.is_empty());
        assert!(report.degraded_ranks().is_empty());
    }

    #[test]
    fn jitter_does_not_degrade() {
        // ±20% jitter around the baseline stays under the scale floor's
        // z threshold.
        let mut scorer = HealthScorer::new(HealthConfig::default());
        for i in 0..40u64 {
            let step = 0.010 * (1.0 + 0.2 * if i % 2 == 0 { 1.0 } else { -1.0 });
            scorer.observe(0, i, step, 0.0, 0);
        }
        assert_eq!(scorer.state(0), HealthState::Healthy);
    }

    #[test]
    fn straggler_degrades_then_recovers() {
        let mut scorer = HealthScorer::new(HealthConfig::default());
        feed_steady(&mut scorer, 2, 10, 0.010);
        // Factor-3 straggler: step triples and the stall term lights up.
        let mut transition = None;
        for i in 10..14u64 {
            if let Some(t) = scorer.observe(2, i, 0.030, 0.020, 0) {
                transition = Some(t);
                break;
            }
        }
        let t = transition.expect("straggler must trip the state machine");
        assert_eq!(t.rank, 2);
        assert_eq!(t.from, HealthState::Healthy);
        assert_eq!(t.to, HealthState::Degraded);
        assert!(t.z >= HealthConfig::default().z_degraded);
        assert!(scorer.is_degraded(2));

        // Back to normal: recovers to healthy after the calm streak.
        let mut recovered = None;
        for i in 20..30u64 {
            if let Some(t) = scorer.observe(2, i, 0.010, 0.0, 0) {
                recovered = Some(t);
                break;
            }
        }
        let t = recovered.expect("calm samples must recover the rank");
        assert_eq!(t.to, HealthState::Healthy);
        assert!(!scorer.is_degraded(2));
    }

    #[test]
    fn severe_straggler_escalates_to_suspect() {
        let config = HealthConfig::default();
        let mut scorer = HealthScorer::new(config.clone());
        feed_steady(&mut scorer, 1, 10, 0.010);
        let mut states = Vec::new();
        for i in 10..20u64 {
            if let Some(t) = scorer.observe(1, i, 0.200, 0.190, 0) {
                states.push(t.to);
            }
        }
        assert_eq!(states, [HealthState::Degraded, HealthState::Suspect]);
        assert_eq!(scorer.state(1), HealthState::Suspect);
    }

    /// Samples a factor-3 straggler (step ×3, the excess reported as
    /// stall — what `SlowEvent` injects) needs to leave `Healthy` after a
    /// quiet baseline, within a 50-sample look.
    fn samples_until_unhealthy(baseline: f64) -> Option<u64> {
        let mut scorer = HealthScorer::new(HealthConfig::default());
        feed_steady(&mut scorer, 0, 20, baseline);
        (1..=50u64).find(|&n| {
            scorer.observe(0, 19 + n, 3.0 * baseline, 2.0 * baseline, 0);
            scorer.is_degraded(0)
        })
    }

    #[test]
    fn three_x_straggler_visibility_by_step_time() {
        // Debug-profile steps (~300 ms) and the pre-optimisation release
        // step (~12 ms) clear `z_degraded` on every slow sample, so the
        // rank degrades on the second one (`degrade_after = 2`).
        assert_eq!(samples_until_unhealthy(0.300), Some(2));
        assert_eq!(samples_until_unhealthy(0.012), Some(2));
        // At 4 ms the 8 ms excess is only 4 × `scale_floor_secs`: z = 4
        // stays under `z_degraded = 6`, the slow samples are folded into
        // the baseline as normal, and the scorer never sees the straggler.
        // The floor makes the boundary `excess ≥ 12 ms`, i.e. a 3×
        // straggler is visible from a 6 ms step up — the health plane is
        // blind below the release step time of this lab. Pinned, not
        // fixed, here: moving the floor is a detector change of its own.
        assert_eq!(samples_until_unhealthy(0.004), None);
        assert_eq!(samples_until_unhealthy(0.0059), None);
        assert_eq!(samples_until_unhealthy(0.0061), Some(2));
    }

    #[test]
    fn baseline_is_not_dragged_by_the_straggler() {
        let mut scorer = HealthScorer::new(HealthConfig::default());
        feed_steady(&mut scorer, 0, 10, 0.010);
        let before = scorer.report().rows[0].ewma_step_secs;
        for i in 10..20u64 {
            scorer.observe(0, i, 0.100, 0.0, 0);
        }
        let after = scorer.report().rows[0].ewma_step_secs;
        assert!(
            (after - before).abs() < 1e-9,
            "hot samples must not move the EWMA ({before} -> {after})"
        );
    }

    #[test]
    fn store_retries_raise_the_score() {
        let mut scorer = HealthScorer::new(HealthConfig::default());
        feed_steady(&mut scorer, 0, 10, 0.010);
        scorer.observe(0, 10, 0.010, 0.0, 20);
        let report = scorer.report();
        assert!(
            report.rows[0].last_z >= 10.0,
            "retries alone must score hot"
        );
    }

    #[test]
    fn report_json_round_trips() {
        let mut scorer = HealthScorer::new(HealthConfig::default());
        feed_steady(&mut scorer, 0, 5, 0.010);
        feed_steady(&mut scorer, 3, 5, 0.012);
        for i in 5..7u64 {
            scorer.observe(3, i, 0.100, 0.05, 0);
        }
        let report = scorer.report();
        assert_eq!(report.degraded_ranks(), [3]);
        let doc = Json::parse(&report.to_json().pretty()).unwrap();
        let ranks = doc.get("ranks").unwrap().as_array().unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[1].get("state").unwrap().as_str(), Some("degraded"));
        let transitions = doc.get("transitions").unwrap().as_array().unwrap();
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].get("to").unwrap().as_str(), Some("degraded"));
    }
}
