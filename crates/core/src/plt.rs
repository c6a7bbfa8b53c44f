//! Proportion of Lost Tokens (PLT) — the accuracy-impact metric of Eq. 7.
//!
//! Recovering from a PEC checkpoint restores `N − K` experts per layer to
//! states *older* than the checkpoint, losing the updates contributed by
//! tokens routed to them since their last save. PLT averages that loss
//! over MoE layers:
//!
//! ```text
//! PLT = (1/N_moe) · Σ_i  [ Σ_j L_{i,j}(I_ckpt, K_pec, F) / (T_i · TopK_i) ]
//! ```
//!
//! Three tools live here: [`PltAccumulator`] (bookkeeping of measured
//! losses), [`analytic_plt`] (closed-form expectation under balanced loads
//! and sequential selection), and [`PltSimulation`] (an event-accurate
//! simulator over a [`LoadModel`] with two-level recovery and node faults,
//! which regenerates Fig. 5 and Fig. 15).

use crate::selection::PecConfig;
use crate::topology::ParallelTopology;
use moc_moe::LoadModel;
use moc_store::FaultEvent;

/// Accumulates measured token losses per MoE layer across faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PltAccumulator {
    lost: Vec<u64>,
    processed: Vec<u64>,
}

impl PltAccumulator {
    /// Creates an accumulator for `num_moe_layers` layers.
    pub fn new(num_moe_layers: usize) -> Self {
        Self {
            lost: vec![0; num_moe_layers],
            processed: vec![0; num_moe_layers],
        }
    }

    /// Records tokens lost in `layer` by one fault (`L_{i,j}`).
    pub fn record_loss(&mut self, layer: usize, lost_tokens: u64) {
        self.lost[layer] += lost_tokens;
    }

    /// Records tokens processed by `layer` (accumulates `T_i · TopK_i`).
    pub fn record_processed(&mut self, layer: usize, tokens: u64) {
        self.processed[layer] += tokens;
    }

    /// Tokens lost so far in a layer.
    pub fn lost(&self, layer: usize) -> u64 {
        self.lost[layer]
    }

    /// Tokens processed so far in a layer.
    pub fn processed(&self, layer: usize) -> u64 {
        self.processed[layer]
    }

    /// The PLT of Eq. 7: mean over layers of `lost / processed`.
    /// Layers that processed no tokens contribute zero.
    pub fn plt(&self) -> f64 {
        if self.lost.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .lost
            .iter()
            .zip(&self.processed)
            .map(|(&l, &p)| if p == 0 { 0.0 } else { l as f64 / p as f64 })
            .sum();
        sum / self.lost.len() as f64
    }
}

/// Closed-form expected PLT under balanced expert loads and sequential
/// selection, storage-only recovery.
///
/// With `K` of `N` experts saved per checkpoint, expert staleness ages at a
/// fault are `{0, I, 2I, …, (⌈N/K⌉−1)·I}` iterations, `K` experts per age
/// bucket. Each expert absorbs `1/N` of a layer's tokens, so one fault
/// loses `I_ckpt · (N/K − 1)/2` iterations' worth of layer tokens:
///
/// `PLT ≈ N_fault · I_ckpt · (N/K − 1) / (2 · I_total)`.
pub fn analytic_plt(
    k: usize,
    num_experts: usize,
    i_ckpt: u64,
    total_iterations: u64,
    num_faults: u64,
) -> f64 {
    assert!(k >= 1 && k <= num_experts, "invalid k");
    assert!(total_iterations > 0, "need a training horizon");
    let buckets = num_experts as f64 / k as f64;
    num_faults as f64 * i_ckpt as f64 * (buckets - 1.0) / (2.0 * total_iterations as f64)
}

/// Configuration of an event-accurate PLT simulation.
#[derive(Debug, Clone)]
pub struct PltSimulation {
    /// Token-load generator (defines layers, experts, tokens/iteration).
    pub load: LoadModel,
    /// Snapshot-level PEC (`K_snapshot` selection).
    pub snapshot_pec: PecConfig,
    /// Experts persisted per layer per checkpoint (`K_persist ≤ K_snapshot`);
    /// persist-PEC takes the first `K_persist` of the snapshot selection.
    pub k_persist: usize,
    /// Iterations between checkpoints (`I_ckpt`).
    pub i_ckpt: u64,
    /// Training horizon in iterations (`I_total`).
    pub total_iterations: u64,
    /// Fault schedule.
    pub faults: Vec<FaultEvent>,
    /// Whether healthy nodes recover experts from in-memory snapshots
    /// (two-level recovery, Section 5.1) instead of persistent storage.
    pub two_level_recovery: bool,
    /// Cluster layout mapping experts to nodes.
    pub topology: ParallelTopology,
}

/// Result of a PLT simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PltReport {
    /// Final PLT (Eq. 7).
    pub plt: f64,
    /// PLT contribution of each fault, in schedule order.
    pub per_fault: Vec<f64>,
    /// Total tokens lost across layers and faults.
    pub total_lost_tokens: u64,
    /// Total tokens processed (summed over layers).
    pub total_processed_tokens: u64,
}

impl PltSimulation {
    /// Runs the simulation and reports PLT.
    ///
    /// Checkpoints fire after iterations `I_ckpt, 2·I_ckpt, …`; a fault at
    /// iteration `f` rolls training back to the latest completed
    /// checkpoint `r ≤ f`. Each expert is restored from the freshest
    /// available source — in-memory snapshot if two-level recovery is on
    /// and every node holding a slice of that expert's snapshot is
    /// healthy, otherwise persistent storage — and the tokens it was
    /// routed between its restored version and `r` are counted as lost.
    ///
    /// # Panics
    ///
    /// Panics if the load model and PEC configuration disagree on layer or
    /// expert counts, or `k_persist` exceeds the snapshot `K`.
    pub fn run(&self) -> PltReport {
        let layers = self.load.num_layers();
        let n = self.load.num_experts();
        assert_eq!(self.snapshot_pec.num_moe_layers, layers, "layer arity");
        assert_eq!(self.snapshot_pec.num_experts, n, "expert arity");
        assert!(
            self.k_persist >= 1 && self.k_persist <= self.snapshot_pec.k,
            "k_persist must be in 1..=k_snapshot"
        );
        assert!(self.i_ckpt >= 1, "checkpoint interval must be positive");

        let mut acc = PltAccumulator::new(layers);
        // Last iteration whose state each source holds, per expert.
        let mut snap_ver = vec![vec![0u64; n]; layers];
        let mut persist_ver = vec![vec![0u64; n]; layers];
        // Whether the snapshot of (layer, expert) is still in some node's
        // memory (false right after its host node faulted).
        let mut snap_alive = vec![vec![true; n]; layers];

        let mut faults = self.faults.clone();
        faults.sort_by_key(|f| f.iteration);
        let mut fault_idx = 0;
        let mut per_fault = Vec::with_capacity(faults.len());
        let mut last_ckpt_iter = 0u64;

        for it in 1..=self.total_iterations {
            // Route this iteration's tokens.
            for layer in 0..layers {
                let loads = self.load.loads(it - 1, layer);
                let total: u64 = loads.iter().sum();
                acc.record_processed(layer, total);
            }

            // Checkpoint at the end of every I_ckpt-th iteration.
            if it % self.i_ckpt == 0 {
                let ckpt_index = it / self.i_ckpt - 1;
                for id in self.snapshot_pec.select(ckpt_index) {
                    snap_ver[id.layer][id.expert] = it;
                    snap_alive[id.layer][id.expert] = true;
                }
                // persist-PEC rotates independently of the snapshot
                // window, persisting each selected expert's *latest
                // in-memory snapshot* (which the CPU tier still holds
                // from earlier checkpoints) — Section 5.1.
                let persist_sel =
                    PecConfig::sequential(self.k_persist, n, layers).select(ckpt_index);
                for id in persist_sel {
                    if snap_alive[id.layer][id.expert] {
                        persist_ver[id.layer][id.expert] =
                            persist_ver[id.layer][id.expert].max(snap_ver[id.layer][id.expert]);
                    }
                }
                last_ckpt_iter = it;
            }

            // Fault?
            while fault_idx < faults.len() && faults[fault_idx].iteration == it {
                let fault = faults[fault_idx];
                fault_idx += 1;
                let r = last_ckpt_iter;
                let mut fault_plt_sum = 0.0;
                for layer in 0..layers {
                    let mut lost_layer = 0u64;
                    for expert in 0..n {
                        let memory_ok = self.two_level_recovery
                            && snap_alive[layer][expert]
                            && self.expert_memory_survives(expert, n, fault.node);
                        let restored = if memory_ok {
                            snap_ver[layer][expert]
                        } else {
                            persist_ver[layer][expert]
                        };
                        // Tokens routed in (restored, r] are lost.
                        for past in restored..r {
                            lost_layer += self.load.loads(past, layer)[expert];
                        }
                        // Memory of experts on the dead node is gone until
                        // their next snapshot.
                        if !self.expert_memory_survives(expert, n, fault.node) {
                            snap_alive[layer][expert] = false;
                            snap_ver[layer][expert] = persist_ver[layer][expert];
                        } else if !memory_ok {
                            // Storage-only recovery rewinds even healthy
                            // snapshots' logical state.
                            snap_ver[layer][expert] =
                                snap_ver[layer][expert].min(persist_ver[layer][expert]);
                        }
                    }
                    acc.record_loss(layer, lost_layer);
                    let denom = acc.processed(layer);
                    if denom > 0 {
                        fault_plt_sum += lost_layer as f64 / denom as f64;
                    }
                }
                per_fault.push(fault_plt_sum / layers as f64);
            }
        }

        PltReport {
            plt: acc.plt(),
            per_fault,
            total_lost_tokens: acc.lost.iter().sum(),
            total_processed_tokens: acc.processed.iter().sum(),
        }
    }

    /// Whether every node holding a snapshot slice of `expert` survives a
    /// fault of `dead_node` (expert snapshots are sharded over its replica
    /// ranks, one per EP group).
    fn expert_memory_survives(&self, expert: usize, n: usize, dead_node: usize) -> bool {
        self.topology
            .ranks_hosting_expert(expert, n)
            .into_iter()
            .all(|r| self.topology.node_of(r) != dead_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moc_moe::LoadProfile;

    fn sim(k: usize, i_ckpt: u64, total: u64, faults: Vec<FaultEvent>) -> PltSimulation {
        PltSimulation {
            load: LoadModel::new(2, 8, 800, 1, LoadProfile::Balanced, 0),
            snapshot_pec: PecConfig::sequential(k, 8, 2),
            k_persist: k,
            i_ckpt,
            total_iterations: total,
            faults,
            two_level_recovery: false,
            topology: ParallelTopology::case1(),
        }
    }

    #[test]
    fn accumulator_plt_is_mean_over_layers() {
        let mut acc = PltAccumulator::new(2);
        acc.record_processed(0, 1000);
        acc.record_processed(1, 1000);
        acc.record_loss(0, 100);
        // layer 1 lost nothing.
        assert!((acc.plt() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn accumulator_empty_is_zero() {
        assert_eq!(PltAccumulator::new(0).plt(), 0.0);
        assert_eq!(PltAccumulator::new(3).plt(), 0.0);
    }

    #[test]
    fn no_faults_no_plt() {
        let report = sim(1, 8, 128, vec![]).run();
        assert_eq!(report.plt, 0.0);
        assert_eq!(report.total_lost_tokens, 0);
        assert_eq!(report.total_processed_tokens, 2 * 128 * 800);
    }

    #[test]
    fn full_checkpointing_loses_nothing() {
        let faults = vec![FaultEvent {
            iteration: 64,
            node: 0,
        }];
        let report = sim(8, 8, 128, faults).run();
        assert_eq!(report.plt, 0.0);
    }

    #[test]
    fn pec_loses_tokens_on_fault() {
        let faults = vec![FaultEvent {
            iteration: 64,
            node: 0,
        }];
        let report = sim(1, 8, 128, faults).run();
        assert!(report.plt > 0.0);
        assert_eq!(report.per_fault.len(), 1);
    }

    #[test]
    fn smaller_k_and_larger_interval_increase_plt() {
        // The Fig. 5(a) monotonicity: PLT grows as K shrinks or I_ckpt grows.
        let fault = vec![FaultEvent {
            iteration: 512,
            node: 0,
        }];
        let p_k1 = sim(1, 16, 1024, fault.clone()).run().plt;
        let p_k2 = sim(2, 16, 1024, fault.clone()).run().plt;
        let p_k4 = sim(4, 16, 1024, fault.clone()).run().plt;
        assert!(p_k1 > p_k2 && p_k2 > p_k4, "{p_k1} {p_k2} {p_k4}");
        let p_i8 = sim(2, 8, 1024, fault.clone()).run().plt;
        let p_i32 = sim(2, 32, 1024, fault).run().plt;
        assert!(p_i32 > p_i8, "{p_i32} vs {p_i8}");
    }

    #[test]
    fn simulation_matches_analytic_model() {
        // Balanced loads + sequential selection + fault right after a
        // checkpoint: the simulation should land near the closed form.
        for (k, i_ckpt) in [(1, 16u64), (2, 16), (4, 8)] {
            let total = 1024;
            let faults = vec![FaultEvent {
                iteration: 512,
                node: 0,
            }];
            let measured = sim(k, i_ckpt, total, faults).run().plt;
            let expected = analytic_plt(k, 8, i_ckpt, total, 1);
            let tol = expected * 0.35 + 1e-4;
            assert!(
                (measured - expected).abs() < tol,
                "k={k} I={i_ckpt}: measured {measured}, analytic {expected}"
            );
        }
    }

    #[test]
    fn two_level_recovery_reduces_plt() {
        // K_snapshot = 4, K_persist = 1 (the Fig. 15(a) setting): memory
        // recovery on healthy nodes must beat storage-only recovery.
        let faults = vec![FaultEvent {
            iteration: 512,
            node: 0,
        }];
        let base = PltSimulation {
            load: LoadModel::new(2, 16, 800, 1, LoadProfile::Balanced, 0),
            snapshot_pec: PecConfig::sequential(4, 16, 2),
            k_persist: 1,
            i_ckpt: 16,
            total_iterations: 1024,
            faults,
            two_level_recovery: false,
            topology: ParallelTopology::case2(),
        };
        let storage_only = base.run().plt;
        let two_level = PltSimulation {
            two_level_recovery: true,
            ..base
        }
        .run()
        .plt;
        assert!(
            two_level < storage_only,
            "two-level {two_level} should beat storage {storage_only}"
        );
        assert!(two_level > 0.0, "node-0 experts still lose updates");
    }

    #[test]
    fn analytic_plt_zero_for_full_saving() {
        assert_eq!(analytic_plt(8, 8, 32, 1000, 5), 0.0);
    }

    #[test]
    fn analytic_plt_matches_fig5_scale() {
        // Fig. 5(a) centre cell: K=2, I_ckpt=32 on an 8-expert model with a
        // single midpoint fault gives PLT = 3.75% at I_total = 1280.
        let plt = analytic_plt(2, 8, 32, 1280, 1);
        assert!((plt - 0.0375).abs() < 1e-12, "plt {plt}");
    }

    #[test]
    fn plt_accumulates_over_faults() {
        let one = sim(
            1,
            16,
            1024,
            vec![FaultEvent {
                iteration: 256,
                node: 0,
            }],
        )
        .run()
        .plt;
        let two = sim(
            1,
            16,
            1024,
            vec![
                FaultEvent {
                    iteration: 256,
                    node: 0,
                },
                FaultEvent {
                    iteration: 768,
                    node: 0,
                },
            ],
        )
        .run()
        .plt;
        assert!(two > one * 1.5, "two faults {two} vs one {one}");
    }
}
