//! Dynamic-K: adapting `K_pec` to fault accumulation (Section 5.3).
//!
//! Each fault under PEC adds PLT. With a fixed small `K_pec`, cumulative
//! PLT grows linearly with the fault count and eventually crosses the
//! accuracy-safe threshold (3.75%, Fig. 5). The Dynamic-K strategy
//! recalibrates `K_pec` after every fault recovery: when the PLT spent at
//! the current `K` exhausts that level's share of the budget, `K` doubles
//! (halving the per-fault PLT increment), repeating until all experts are
//! checkpointed.

/// The accuracy-safe PLT threshold observed in Fig. 5.
pub const DEFAULT_PLT_BUDGET: f64 = 0.0375;

/// Controller implementing the Dynamic-K strategy.
///
/// The budget is spent geometrically: the controller doubles `K` whenever
/// cumulative PLT exceeds `budget · (1 − 2^{−m})`, where `m` counts the
/// doublings so far. Each doubling halves the per-fault PLT increment, so
/// cumulative PLT approaches — but stays below — the budget until `K`
/// saturates at `N` (after which PLT stops growing entirely).
///
/// # Examples
///
/// ```
/// use moc_core::dynamic_k::DynamicK;
/// let mut ctl = DynamicK::new(1, 8, 0.0375);
/// assert_eq!(ctl.k(), 1);
/// // A large fault burst forces K upward.
/// for _ in 0..4 {
///     ctl.on_fault_recovery(0.01);
/// }
/// assert!(ctl.k() > 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicK {
    k: usize,
    num_experts: usize,
    budget: f64,
    cumulative_plt: f64,
    doublings: u32,
    history: Vec<(usize, f64)>,
}

impl DynamicK {
    /// Creates a controller starting at `initial_k` of `num_experts`
    /// experts with the given cumulative PLT budget.
    ///
    /// # Panics
    ///
    /// Panics if `initial_k` is zero or exceeds `num_experts`, or the
    /// budget is not positive.
    pub fn new(initial_k: usize, num_experts: usize, budget: f64) -> Self {
        assert!(
            initial_k >= 1 && initial_k <= num_experts,
            "invalid initial k"
        );
        assert!(budget > 0.0, "budget must be positive");
        Self {
            k: initial_k,
            num_experts,
            budget,
            cumulative_plt: 0.0,
            doublings: 0,
            history: Vec::new(),
        }
    }

    /// Controller with the paper's 3.75% budget.
    pub fn with_default_budget(initial_k: usize, num_experts: usize) -> Self {
        Self::new(initial_k, num_experts, DEFAULT_PLT_BUDGET)
    }

    /// Current `K_pec`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cumulative PLT absorbed so far.
    pub fn cumulative_plt(&self) -> f64 {
        self.cumulative_plt
    }

    /// The PLT budget.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// `(K at fault time, cumulative PLT after fault)` per fault handled.
    pub fn history(&self) -> &[(usize, f64)] {
        &self.history
    }

    /// Cumulative-PLT level at which the next doubling triggers.
    pub fn next_trigger(&self) -> f64 {
        self.budget * (1.0 - 0.5f64.powi(self.doublings as i32 + 1))
    }

    /// Registers the PLT incurred by one fault recovery and recalibrates
    /// `K`. Returns the (possibly doubled) `K` to use from now on.
    pub fn on_fault_recovery(&mut self, plt_incurred: f64) -> usize {
        assert!(plt_incurred >= 0.0, "plt cannot be negative");
        let k_at_fault = self.k;
        self.cumulative_plt += plt_incurred;
        while self.k < self.num_experts && self.cumulative_plt > self.next_trigger() {
            self.k = (self.k * 2).min(self.num_experts);
            self.doublings += 1;
        }
        self.history.push((k_at_fault, self.cumulative_plt));
        self.k
    }

    /// Whether `K` has saturated at full checkpointing.
    pub fn is_saturated(&self) -> bool {
        self.k == self.num_experts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plt::analytic_plt;

    #[test]
    fn starts_at_initial_k() {
        let ctl = DynamicK::with_default_budget(1, 16);
        assert_eq!(ctl.k(), 1);
        assert_eq!(ctl.cumulative_plt(), 0.0);
        assert!(!ctl.is_saturated());
    }

    #[test]
    fn doubles_when_budget_share_spent() {
        let mut ctl = DynamicK::new(1, 16, 0.04);
        // First trigger at 0.02.
        assert!((ctl.next_trigger() - 0.02).abs() < 1e-12);
        assert_eq!(ctl.on_fault_recovery(0.019), 1);
        assert_eq!(ctl.on_fault_recovery(0.002), 2);
        // Exactly hitting a trigger does not double (strict comparison).
        // Next trigger at 0.03.
        assert!((ctl.next_trigger() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn saturates_at_n() {
        let mut ctl = DynamicK::new(4, 8, 0.01);
        ctl.on_fault_recovery(1.0);
        assert_eq!(ctl.k(), 8);
        assert!(ctl.is_saturated());
        // Further faults never push K beyond N.
        ctl.on_fault_recovery(1.0);
        assert_eq!(ctl.k(), 8);
    }

    #[test]
    fn history_records_k_at_fault_time() {
        let mut ctl = DynamicK::new(1, 8, 0.02);
        ctl.on_fault_recovery(0.015);
        ctl.on_fault_recovery(0.001);
        let hist = ctl.history();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].0, 1);
        // The doubling happened during the first fault.
        assert_eq!(hist[1].0, 2);
    }

    #[test]
    fn fig15b_shape_dynamic_k_bounds_plt() {
        // Reproduce the Fig. 15(b) mechanism: per-fault PLT at K is
        // proportional to (N/K - 1); with fixed K=1 cumulative PLT grows
        // linearly and bursts the budget, while Dynamic-K stays below it.
        let n = 16;
        let per_fault = |k: usize| analytic_plt(k, n, 2, 2000, 1);
        let mut fixed_total = 0.0;
        let mut ctl = DynamicK::with_default_budget(1, n);
        for _ in 0..32 {
            fixed_total += per_fault(1);
            let k = ctl.k();
            ctl.on_fault_recovery(per_fault(k));
        }
        assert!(
            fixed_total > DEFAULT_PLT_BUDGET,
            "fixed K=1 must burst the budget: {fixed_total}"
        );
        assert!(
            ctl.cumulative_plt() < fixed_total,
            "dynamic {} must stay below fixed {}",
            ctl.cumulative_plt(),
            fixed_total
        );
        assert!(ctl.k() > 1, "K must have been raised");
    }

    #[test]
    #[should_panic(expected = "invalid initial k")]
    fn zero_k_rejected() {
        DynamicK::new(0, 8, 0.03);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        DynamicK::new(1, 8, 0.0);
    }
}
