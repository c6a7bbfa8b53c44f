//! Fault schedules and injection.
//!
//! The overhead model (Eq. 3–4, 11) and the accuracy experiments all need a
//! stream of fault events. [`FaultPlan`] produces deterministic fault
//! iteration lists — fixed points (Fig. 14), fixed intervals, or a seeded
//! Poisson process with rate `λ` (Eq. 11's constant failure rate).

use crate::memory::NodeId;
use rand::{RngExt, SeedableRng};

/// A single fault event: at the end of iteration `iteration`, node
/// `node` crashes, losing its GPU and CPU memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Iteration after which the fault strikes.
    pub iteration: u64,
    /// Which node dies (index into the cluster).
    pub node: usize,
}

impl FaultEvent {
    /// The failing node's id.
    pub fn node_id(&self) -> NodeId {
        NodeId(self.node)
    }
}

/// Declarative description of when faults occur during a training run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// Fault-free training.
    None,
    /// Faults at explicit iterations, each killing the given node.
    At(Vec<FaultEvent>),
    /// A fault every `interval` iterations (at `interval`, `2·interval`, …),
    /// cycling the victim node round-robin over `num_nodes`.
    Every {
        /// Iterations between consecutive faults.
        interval: u64,
        /// Number of nodes to cycle victims over.
        num_nodes: usize,
    },
    /// Memoryless faults with per-iteration probability `rate`
    /// (the constant failure rate λ of Eq. 11), seeded for determinism;
    /// victims drawn uniformly over `num_nodes`.
    Poisson {
        /// Per-iteration fault probability λ.
        rate: f64,
        /// Number of nodes to draw victims from.
        num_nodes: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl FaultPlan {
    /// Materialises the fault events occurring in `0..total_iterations`,
    /// sorted by iteration.
    pub fn events(&self, total_iterations: u64) -> Vec<FaultEvent> {
        match self {
            FaultPlan::None => Vec::new(),
            FaultPlan::At(list) => {
                let mut v: Vec<FaultEvent> = list
                    .iter()
                    .copied()
                    .filter(|e| e.iteration < total_iterations)
                    .collect();
                v.sort_by_key(|e| e.iteration);
                v
            }
            FaultPlan::Every {
                interval,
                num_nodes,
            } => {
                assert!(*interval > 0, "fault interval must be positive");
                assert!(*num_nodes > 0, "need at least one node");
                (1..)
                    .map(|i| i * interval)
                    .take_while(|&it| it < total_iterations)
                    .enumerate()
                    .map(|(i, it)| FaultEvent {
                        iteration: it,
                        node: i % num_nodes,
                    })
                    .collect()
            }
            FaultPlan::Poisson {
                rate,
                num_nodes,
                seed,
            } => {
                assert!(*num_nodes > 0, "need at least one node");
                assert!((0.0..=1.0).contains(rate), "rate must be a probability");
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                let mut events = Vec::new();
                for it in 0..total_iterations {
                    if rng.random::<f64>() < *rate {
                        events.push(FaultEvent {
                            iteration: it,
                            node: rng.random_range(0..*num_nodes),
                        });
                    }
                }
                events
            }
        }
    }

    /// Number of faults expected in `0..total_iterations`
    /// (`N_fault ≈ λ · I_total` for the Poisson plan, Eq. 11).
    pub fn expected_faults(&self, total_iterations: u64) -> f64 {
        match self {
            FaultPlan::None => 0.0,
            FaultPlan::At(list) => list
                .iter()
                .filter(|e| e.iteration < total_iterations)
                .count() as f64,
            FaultPlan::Every { interval, .. } => {
                if *interval == 0 {
                    0.0
                } else {
                    ((total_iterations.saturating_sub(1)) / interval) as f64
                }
            }
            FaultPlan::Poisson { rate, .. } => rate * total_iterations as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_has_no_events() {
        assert!(FaultPlan::None.events(1000).is_empty());
        assert_eq!(FaultPlan::None.expected_faults(1000), 0.0);
    }

    #[test]
    fn explicit_events_filtered_and_sorted() {
        let plan = FaultPlan::At(vec![
            FaultEvent {
                iteration: 500,
                node: 1,
            },
            FaultEvent {
                iteration: 100,
                node: 0,
            },
            FaultEvent {
                iteration: 9999,
                node: 0,
            },
        ]);
        let ev = plan.events(1000);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].iteration, 100);
        assert_eq!(ev[1].iteration, 500);
    }

    #[test]
    fn every_interval_round_robins_nodes() {
        let plan = FaultPlan::Every {
            interval: 100,
            num_nodes: 2,
        };
        let ev = plan.events(450);
        assert_eq!(
            ev,
            vec![
                FaultEvent {
                    iteration: 100,
                    node: 0
                },
                FaultEvent {
                    iteration: 200,
                    node: 1
                },
                FaultEvent {
                    iteration: 300,
                    node: 0
                },
                FaultEvent {
                    iteration: 400,
                    node: 1
                },
            ]
        );
    }

    #[test]
    fn every_interval_excludes_endpoint() {
        let plan = FaultPlan::Every {
            interval: 100,
            num_nodes: 1,
        };
        assert_eq!(plan.events(100).len(), 0);
        assert_eq!(plan.events(101).len(), 1);
    }

    #[test]
    fn poisson_is_deterministic_and_near_rate() {
        let plan = FaultPlan::Poisson {
            rate: 0.01,
            num_nodes: 4,
            seed: 7,
        };
        let a = plan.events(10_000);
        let b = plan.events(10_000);
        assert_eq!(a, b);
        let n = a.len() as f64;
        assert!((60.0..140.0).contains(&n), "got {n} faults, expected ~100");
        assert!(a.iter().all(|e| e.node < 4));
    }

    #[test]
    fn expected_faults_formulas() {
        let every = FaultPlan::Every {
            interval: 100,
            num_nodes: 1,
        };
        assert_eq!(every.expected_faults(1000), 9.0);
        let poisson = FaultPlan::Poisson {
            rate: 0.001,
            num_nodes: 1,
            seed: 0,
        };
        assert!((poisson.expected_faults(5000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fault_event_node_id() {
        let e = FaultEvent {
            iteration: 1,
            node: 3,
        };
        assert_eq!(e.node_id(), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "fault interval must be positive")]
    fn zero_interval_panics() {
        FaultPlan::Every {
            interval: 0,
            num_nodes: 1,
        }
        .events(10);
    }
}
