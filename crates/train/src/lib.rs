//! # moc-train — a real pure-Rust MoE training lab
//!
//! The accuracy experiments of the paper (Figs. 5, 14, 15; Tables 3–4)
//! hinge on what happens when training *actually* recovers from a PEC
//! checkpoint. This crate makes that physical:
//!
//! * [`tensor`] / [`params`] / [`adam`] — a compact dense-matrix kernel,
//!   named parameter store and Adam optimizer;
//! * [`model`] — [`TinyMoeLm`], a trainable sparse-MoE language model with
//!   fully manual forward/backward passes (finite-difference-checked),
//!   Switch-style noisy top-1 routing and capacity-based token dropping;
//! * [`data`] — topic-structured Markov corpora with deterministic,
//!   rewindable batches;
//! * [`checkpoint`] — the bridge to `moc-core`: PEC selection over real
//!   serialized tensors, two-level memory/storage saving, and recovery
//!   that genuinely rolls expert states back;
//! * [`harness`] — experiment drivers: fault-injected pre-training with
//!   measured PLT, downstream probes, Dynamic-K, and fine-tuning.
//!
//! # Examples
//!
//! ```no_run
//! use moc_train::harness::{run_experiment, FaultToleranceConfig, TrainConfig};
//!
//! let train = TrainConfig::tiny_8e();
//! let ft = FaultToleranceConfig::baseline(&train.model, 32, vec![]);
//! let report = run_experiment(&train, &ft);
//! println!("final val loss {}", report.final_val_loss);
//! ```

#![warn(missing_docs)]

pub mod adam;
pub mod checkpoint;
pub mod data;
pub mod harness;
pub mod model;
pub mod params;
#[cfg(test)]
mod reference;
pub mod tensor;

pub use adam::{adam_step, AdamConfig};
pub use checkpoint::{CheckpointerConfig, PecMode, RecoverySummary, TrainingCheckpointer};
pub use data::MarkovCorpus;
pub use harness::{
    downstream_suite, finetune_experiment, run_experiment, run_experiment_with_model,
    topic_accuracy, FaultToleranceConfig, FinetuneMethod, RunReport, TrainConfig,
};
pub use model::{BatchStats, TinyMoeLm};
pub use params::{module_of, Param, ParamStore};
pub use tensor::Matrix;
