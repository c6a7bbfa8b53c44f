//! The analytic fault-tolerance overhead model — Eqs. 3–4 and 10–16.
//!
//! Total checkpointing overhead over a training run decomposes into the
//! per-checkpoint saving overhead amortised across `I_total / I_ckpt`
//! checkpoints plus, per fault, a restart cost and the lost progress since
//! the previous checkpoint (≈ `I_ckpt / 2` iterations on average):
//!
//! ```text
//! O_ckpt ≈ O_save · I_total / I_ckpt  +  Σ_faults (O_restart + I_ckpt/2)     (Eq. 4)
//! ```
//!
//! With asynchronous checkpointing, `O_save` collapses to the part of the
//! GPU→CPU snapshot that the next iteration's forward/backward pass cannot
//! hide (Eq. 10). This module provides those closed forms plus the
//! break-even comparison of MoC against full checkpointing (Eq. 14–16),
//! the overhead-minimising checkpoint interval, and the adaptive
//! `(K_snapshot, K_persist)` configuration scheme of Section 5.3.

/// Inputs to the overhead model, all in seconds / iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadInputs {
    /// Per-checkpoint saving overhead `O_save`, in seconds of training
    /// time lost.
    pub o_save_sec: f64,
    /// Restart overhead per fault `O_restart`, in seconds.
    pub o_restart_sec: f64,
    /// Checkpoint interval `I_ckpt` in iterations.
    pub i_ckpt: f64,
    /// Total training iterations `I_total`.
    pub i_total: f64,
    /// Duration of one training iteration in seconds (converts lost
    /// iterations into seconds).
    pub iteration_sec: f64,
    /// Constant failure rate λ (faults per iteration, Eq. 11).
    pub lambda: f64,
}

impl OverheadInputs {
    /// Expected number of faults `N_fault ≈ λ · I_total` (Eq. 11).
    pub fn expected_faults(&self) -> f64 {
        self.lambda * self.i_total
    }

    /// Total fault-tolerance overhead `O_ckpt` in seconds (Eq. 4/12/13).
    pub fn total_overhead_sec(&self) -> f64 {
        assert!(self.i_ckpt > 0.0, "checkpoint interval must be positive");
        let saving = self.o_save_sec * self.i_total / self.i_ckpt;
        let per_fault = self.o_restart_sec + 0.5 * self.i_ckpt * self.iteration_sec;
        saving + self.expected_faults() * per_fault
    }

    /// The `I_ckpt`-dependent part of the overhead divided out per
    /// iteration (the objective minimised by [`optimal_interval`]).
    pub fn overhead_per_iteration_sec(&self) -> f64 {
        self.total_overhead_sec() / self.i_total
    }
}

/// Per-checkpoint saving overhead under asynchronous checkpointing
/// (Eq. 10): only the snapshot time exceeding one iteration's
/// forward+backward window stalls training.
pub fn async_save_overhead(t_snapshot_sec: f64, t_fb_sec: f64) -> f64 {
    (t_snapshot_sec - t_fb_sec).max(0.0)
}

/// Overhead-minimising checkpoint interval in iterations.
///
/// Setting `d/dI [O_save·I_total/I + λ·I_total·I·t_iter/2] = 0` gives
/// `I* = sqrt(2·O_save / (λ·t_iter))` — Young's classic interval. The
/// result is clamped to at least `min_interval` (the persist duration
/// bounds how often checkpoints can complete, Section 5.3).
pub fn optimal_interval(
    o_save_sec: f64,
    lambda: f64,
    iteration_sec: f64,
    min_interval: f64,
) -> f64 {
    assert!(lambda > 0.0, "need a positive failure rate");
    assert!(iteration_sec > 0.0, "need a positive iteration time");
    let unconstrained = (2.0 * o_save_sec.max(0.0) / (lambda * iteration_sec)).sqrt();
    unconstrained.max(min_interval)
}

/// Break-even check of Eq. 16: does MoC beat full checkpointing?
///
/// Both sides drop the common `λ·O_restart` term; the comparison is
/// `O_save/I_ckpt + λ·I_ckpt/2` (in per-iteration seconds) for each method.
pub fn moc_beats_full(
    moc_o_save_sec: f64,
    moc_i_ckpt: f64,
    full_o_save_sec: f64,
    full_i_ckpt: f64,
    lambda: f64,
    iteration_sec: f64,
) -> bool {
    let lhs = moc_o_save_sec / moc_i_ckpt + lambda * moc_i_ckpt * iteration_sec / 2.0;
    let rhs = full_o_save_sec / full_i_ckpt + lambda * full_i_ckpt * iteration_sec / 2.0;
    lhs < rhs
}

/// Inputs for choosing `(K_snapshot, K_persist)` adaptively (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePecInputs {
    /// Experts per MoE layer (`N`).
    pub num_experts: usize,
    /// Seconds to snapshot one expert's states per rank-parallel step
    /// (i.e. snapshot time added per unit of `K`, bottleneck rank).
    pub snapshot_sec_per_k: f64,
    /// Seconds to snapshot the non-expert states (paid regardless of `K`).
    pub snapshot_sec_base: f64,
    /// Seconds to persist one expert's states per unit of `K_persist`.
    pub persist_sec_per_k: f64,
    /// Seconds to persist the non-expert states.
    pub persist_sec_base: f64,
    /// Forward+backward window of one iteration, in seconds (`T_F&B`).
    pub t_fb_sec: f64,
}

/// The adaptive configuration chosen for two-level PEC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePecChoice {
    /// Chosen `K_snapshot`.
    pub k_snapshot: usize,
    /// Chosen `K_persist`.
    pub k_persist: usize,
    /// Predicted snapshot duration at `k_snapshot`.
    pub t_snapshot_sec: f64,
    /// Predicted persist duration at `k_persist` — the lower bound on the
    /// checkpoint interval in seconds.
    pub min_interval_sec: f64,
    /// Predicted `O_save` (Eq. 10) at the chosen configuration.
    pub o_save_sec: f64,
}

/// Chooses `(K_snapshot, K_persist)` per the paper's primary strategy:
/// the largest `K_snapshot` whose snapshot still hides inside the next
/// iteration's F&B window (minimising PLT at zero stall), and the given
/// `k_persist` (small — two-level recovery already curbs its PLT cost),
/// clamped to `K_snapshot`.
pub fn choose_adaptive_pec(inputs: &AdaptivePecInputs, k_persist: usize) -> AdaptivePecChoice {
    assert!(inputs.num_experts >= 1, "need experts");
    let snap_time = |k: usize| inputs.snapshot_sec_base + k as f64 * inputs.snapshot_sec_per_k;
    let mut k_snapshot = 1;
    for k in (1..=inputs.num_experts).rev() {
        if snap_time(k) <= inputs.t_fb_sec {
            k_snapshot = k;
            break;
        }
    }
    // Even K=1 may stall; it is still the minimal-stall choice.
    let t_snapshot_sec = snap_time(k_snapshot);
    let k_persist = k_persist.clamp(1, k_snapshot);
    let min_interval_sec = inputs.persist_sec_base + k_persist as f64 * inputs.persist_sec_per_k;
    AdaptivePecChoice {
        k_snapshot,
        k_persist,
        t_snapshot_sec,
        min_interval_sec,
        o_save_sec: async_save_overhead(t_snapshot_sec, inputs.t_fb_sec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> OverheadInputs {
        OverheadInputs {
            o_save_sec: 2.0,
            o_restart_sec: 60.0,
            i_ckpt: 100.0,
            i_total: 10_000.0,
            iteration_sec: 1.0,
            lambda: 1e-3,
        }
    }

    #[test]
    fn eq4_total_overhead() {
        let i = inputs();
        // saving: 2 * 10000/100 = 200; faults: 10 * (60 + 50) = 1100.
        assert!((i.total_overhead_sec() - 1300.0).abs() < 1e-9);
        assert!((i.expected_faults() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn eq10_async_overhead_clamps_at_zero() {
        assert_eq!(async_save_overhead(3.0, 5.0), 0.0);
        assert!((async_save_overhead(5.0, 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_interval_is_youngs_formula() {
        // sqrt(2*2 / (1e-3*1)) = sqrt(4000) ≈ 63.25.
        let i = optimal_interval(2.0, 1e-3, 1.0, 0.0);
        assert!((i - 4000f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn optimal_interval_clamped_by_persist() {
        let i = optimal_interval(0.0, 1e-3, 1.0, 25.0);
        assert_eq!(i, 25.0);
    }

    #[test]
    fn smaller_o_save_allows_smaller_interval_and_less_overhead() {
        // Strategy (2) of Section 6.2.5: MoC halves I_ckpt at equal
        // O_save/I_ckpt ratio and wins via smaller lost progress.
        let full = OverheadInputs {
            o_save_sec: 4.0,
            i_ckpt: 200.0,
            ..inputs()
        };
        let moc = OverheadInputs {
            o_save_sec: 0.04,
            i_ckpt: 2.0,
            ..inputs()
        };
        assert!(moc.total_overhead_sec() < full.total_overhead_sec());
    }

    #[test]
    fn eq16_break_even() {
        assert!(moc_beats_full(0.05, 10.0, 4.0, 100.0, 1e-3, 1.0));
        // Same O_save/I ratio, same interval: tie broken by nothing -> not "less".
        assert!(!moc_beats_full(4.0, 100.0, 4.0, 100.0, 1e-3, 1.0));
        // MoC with identical ratio but smaller interval wins on lost time.
        assert!(moc_beats_full(0.4, 10.0, 4.0, 100.0, 1e-3, 1.0));
    }

    #[test]
    fn adaptive_picks_largest_hideable_k() {
        let inputs = AdaptivePecInputs {
            num_experts: 16,
            snapshot_sec_per_k: 0.1,
            snapshot_sec_base: 0.2,
            persist_sec_per_k: 0.5,
            persist_sec_base: 1.0,
            t_fb_sec: 1.0,
        };
        let choice = choose_adaptive_pec(&inputs, 1);
        // 0.2 + k*0.1 <= 1.0 -> k = 8.
        assert_eq!(choice.k_snapshot, 8);
        assert_eq!(choice.k_persist, 1);
        assert_eq!(choice.o_save_sec, 0.0);
        assert!((choice.min_interval_sec - 1.5).abs() < 1e-12);
    }

    #[test]
    fn adaptive_falls_back_to_k1_with_stall() {
        let inputs = AdaptivePecInputs {
            num_experts: 8,
            snapshot_sec_per_k: 1.0,
            snapshot_sec_base: 2.0,
            persist_sec_per_k: 0.5,
            persist_sec_base: 0.5,
            t_fb_sec: 1.0,
        };
        let choice = choose_adaptive_pec(&inputs, 4);
        assert_eq!(choice.k_snapshot, 1);
        // k_persist clamped to k_snapshot.
        assert_eq!(choice.k_persist, 1);
        assert!(choice.o_save_sec > 0.0);
    }

    #[test]
    fn full_k_chosen_when_everything_hides() {
        let inputs = AdaptivePecInputs {
            num_experts: 4,
            snapshot_sec_per_k: 0.01,
            snapshot_sec_base: 0.01,
            persist_sec_per_k: 0.1,
            persist_sec_base: 0.1,
            t_fb_sec: 2.0,
        };
        let choice = choose_adaptive_pec(&inputs, 4);
        assert_eq!(choice.k_snapshot, 4);
        assert_eq!(choice.k_persist, 4);
    }
}
