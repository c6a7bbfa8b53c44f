//! Discrete-event simulation of multi-iteration training with
//! asynchronous, triple-buffered checkpointing — the timeline of Fig. 9.
//!
//! Where [`crate::timeline`] computes single-iteration analytics, this
//! module replays many iterations against the actual [`TripleBuffer`]
//! state machine, modelling snapshot and persist as timed occupations of
//! the PCIe and storage channels. It surfaces emergent effects the
//! closed forms approximate: checkpoint stalls when buffers run dry, and
//! the effective checkpoint cadence when persists are slower than the
//! requested interval.

use moc_core::twolevel::{BufferId, SnapshotOutcome, TripleBuffer};

/// Inputs of the event simulation (all seconds / iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSimConfig {
    /// F&B window per iteration.
    pub fb_sec: f64,
    /// Weight-update time per iteration.
    pub update_sec: f64,
    /// Snapshot duration per checkpoint (bottleneck rank).
    pub snapshot_sec: f64,
    /// Persist duration per checkpoint (bottleneck rank).
    pub persist_sec: f64,
    /// Request a checkpoint every `i_ckpt` iterations.
    pub i_ckpt: u64,
    /// Iterations to simulate.
    pub iterations: u64,
}

/// Output of the event simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSimReport {
    /// Total simulated wall-clock seconds.
    pub total_sec: f64,
    /// Seconds lost to checkpoint stalls (buffer exhaustion or snapshot
    /// overrunning the update fence).
    pub stall_sec: f64,
    /// Checkpoints whose persist completed.
    pub persisted_checkpoints: u64,
    /// Checkpoints requested.
    pub requested_checkpoints: u64,
    /// Mean interval in seconds between persisted checkpoints (the
    /// effective `I_ckpt` the storage tier sustains).
    pub effective_interval_sec: f64,
}

/// Predicted cumulative stall of a sustained straggler profile: a rank
/// whose steps take `factor ×` their normal duration for `duration`
/// consecutive iterations delays every one of those lock-step
/// iterations by `(factor − 1) · fb_sec`, because the synchronous
/// gradient exchange cannot complete before the slowest rank reports —
/// the stall amplification the runtime measures as its
/// `StragglerStall` phase. `fb_sec` is the F&B window of an unslowed
/// iteration (use the measured `Compute` phase mean when validating a
/// live run).
pub fn straggler_stall_prediction(factor: f64, duration: u64, fb_sec: f64) -> f64 {
    assert!(factor >= 1.0, "a factor below 1 would be a speed-up");
    (factor - 1.0) * duration as f64 * fb_sec
}

/// Runs the simulation.
///
/// Model: iteration `i` runs F&B then update. A checkpoint requested at
/// the end of iteration `i` claims a buffer (stalling the next update
/// until one frees), then occupies the PCIe channel for `snapshot_sec` —
/// overlapping the next iteration's F&B, but the *next* update cannot
/// start until the snapshot completes (the Fig. 3 constraint). Persists
/// drain one at a time through the storage channel.
pub fn simulate(config: &EventSimConfig) -> EventSimReport {
    assert!(config.i_ckpt >= 1, "checkpoint interval must be positive");
    let mut buffers = TripleBuffer::new();
    let mut now = 0.0f64;
    let mut stall = 0.0f64;
    // (buffer, time at which its snapshot completes)
    let mut active_snapshot: Option<(BufferId, f64)> = None;
    // (buffer, time at which its persist completes)
    let mut active_persist: Option<(BufferId, f64)> = None;
    let mut queued_ready: Vec<(BufferId, f64)> = Vec::new();
    let mut persist_times: Vec<f64> = Vec::new();
    let mut requested = 0u64;

    for it in 1..=config.iterations {
        // F&B of this iteration (snapshot from the previous checkpoint
        // overlaps it).
        now += config.fb_sec;

        // The update fence: an in-flight snapshot must finish first.
        if let Some((id, done)) = active_snapshot.take() {
            if done > now {
                stall += done - now;
                now = done;
            }
            match buffers.finish_snapshot(id).expect("valid transition") {
                SnapshotOutcome::StartPersist(p) => {
                    // Storage channel: serialise behind any active persist.
                    let free_at = active_persist.map(|(_, t)| t).unwrap_or(now).max(now);
                    active_persist = Some((p, free_at + config.persist_sec));
                }
                SnapshotOutcome::Queued(q) => queued_ready.push((q, now)),
            }
        }

        // Drain persist completions up to `now`.
        while let Some((id, done)) = active_persist {
            if done > now {
                break;
            }
            persist_times.push(done);
            let next = buffers.finish_persist(id).expect("valid transition");
            active_persist = next.map(|n| {
                queued_ready.retain(|(q, _)| *q != n);
                (n, done + config.persist_sec)
            });
        }

        now += config.update_sec;

        // Request a checkpoint?
        if it % config.i_ckpt == 0 {
            requested += 1;
            if !buffers.can_begin_snapshot() {
                // Stall until the storage tier frees a buffer.
                if let Some((id, done)) = active_persist {
                    stall += (done - now).max(0.0);
                    now = now.max(done);
                    persist_times.push(done);
                    let next = buffers.finish_persist(id).expect("valid");
                    active_persist = next.map(|n| {
                        queued_ready.retain(|(q, _)| *q != n);
                        (n, done + config.persist_sec)
                    });
                }
            }
            let id = buffers.begin_snapshot(it).expect("buffer freed");
            active_snapshot = Some((id, now + config.snapshot_sec));
        }
    }

    // Drain the tail: let outstanding work finish.
    if let Some((id, done)) = active_snapshot.take() {
        now = now.max(done);
        if let SnapshotOutcome::StartPersist(p) =
            buffers.finish_snapshot(id).expect("valid transition")
        {
            let free_at = active_persist.map(|(_, t)| t).unwrap_or(now).max(now);
            active_persist = Some((p, free_at + config.persist_sec));
        }
    }
    while let Some((id, done)) = active_persist {
        persist_times.push(done);
        now = now.max(done);
        let next = buffers.finish_persist(id).expect("valid transition");
        active_persist = next.map(|n| (n, done + config.persist_sec));
    }

    let effective_interval_sec = if persist_times.len() >= 2 {
        let span = persist_times.last().unwrap() - persist_times.first().unwrap();
        span / (persist_times.len() - 1) as f64
    } else {
        f64::INFINITY
    };
    EventSimReport {
        total_sec: now,
        stall_sec: stall,
        persisted_checkpoints: persist_times.len() as u64,
        requested_checkpoints: requested,
        effective_interval_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EventSimConfig {
        EventSimConfig {
            fb_sec: 1.0,
            update_sec: 0.1,
            snapshot_sec: 0.5,
            persist_sec: 2.0,
            i_ckpt: 4,
            iterations: 64,
        }
    }

    #[test]
    fn hidden_snapshot_causes_no_stall() {
        // snapshot (0.5) < fb (1.0): fully overlapped.
        let report = simulate(&base());
        assert_eq!(report.stall_sec, 0.0);
        assert_eq!(report.requested_checkpoints, 16);
        assert_eq!(report.persisted_checkpoints, 16);
    }

    #[test]
    fn oversized_snapshot_stalls_each_checkpoint() {
        let cfg = EventSimConfig {
            snapshot_sec: 1.8,
            ..base()
        };
        let report = simulate(&cfg);
        // Each checkpoint overruns the next F&B by 0.8s — except the
        // last one, whose snapshot drains in the tail with no update
        // left to stall.
        let expected = 0.8 * (report.requested_checkpoints - 1) as f64;
        assert!(
            (report.stall_sec - expected).abs() < 1e-6,
            "stall {} vs expected {expected}",
            report.stall_sec
        );
    }

    #[test]
    fn slow_persist_bounds_effective_interval() {
        // Requested every 4 iterations (4.4s of training) but persists
        // take 6s: the effective cadence degrades toward the persist time.
        let cfg = EventSimConfig {
            persist_sec: 6.0,
            ..base()
        };
        let report = simulate(&cfg);
        assert!(report.persisted_checkpoints >= 14);
        assert!(
            report.effective_interval_sec >= 5.9,
            "interval {}",
            report.effective_interval_sec
        );
    }

    #[test]
    fn total_time_is_at_least_pure_training() {
        let report = simulate(&base());
        let training = 64.0 * 1.1;
        assert!(report.total_sec >= training);
    }

    #[test]
    fn faster_persist_gives_smaller_interval() {
        let slow = simulate(&EventSimConfig {
            persist_sec: 6.0,
            ..base()
        });
        let fast = simulate(&EventSimConfig {
            persist_sec: 1.0,
            ..base()
        });
        assert!(fast.effective_interval_sec < slow.effective_interval_sec);
    }

    #[test]
    fn straggler_prediction_scales_linearly() {
        let one = straggler_stall_prediction(2.0, 1, 0.5);
        assert!((one - 0.5).abs() < 1e-12);
        let sustained = straggler_stall_prediction(2.0, 4, 0.5);
        assert!((sustained - 4.0 * one).abs() < 1e-12);
        assert_eq!(straggler_stall_prediction(1.0, 10, 3.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "speed-up")]
    fn straggler_prediction_rejects_speedup() {
        straggler_stall_prediction(0.5, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be positive")]
    fn zero_interval_rejected() {
        simulate(&EventSimConfig {
            i_ckpt: 0,
            ..base()
        });
    }
}
