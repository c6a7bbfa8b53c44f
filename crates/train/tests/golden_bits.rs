//! Committed train-level trajectory digest.
//!
//! Every other bitwise test in the workspace compares run against run
//! inside one build; this one pins the trajectory *across commits*. The
//! digests below were recorded on the kernels of commit `856054a` (serial
//! dot products, three-pass Adam) and must survive any change to the
//! compute path unedited, in both the dev and the release profile.
//!
//! A deliberate change of numerics re-blesses by pasting the digest the
//! failing assertion prints — a one-line diff the PR has to explain.

use moc_moe::presets;
use moc_train::{adam_step, AdamConfig, MarkovCorpus, TinyMoeLm};

const STEPS: u64 = 30;
const BATCH: usize = 4;
const SEQ_LEN: usize = 32;
const TOPICS: usize = 8;

/// `(seed, digest)` after [`STEPS`] single-rank steps of `tiny_lm_8e`.
const GOLDEN: [(u64, u64); 2] = [(17, 0x37a1_6641_d17b_5e05), (23, 0x0679_010c_506c_f316)];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Digest of the per-step loss bits followed by every parameter's value,
/// Adam moments and step count, in registration order.
fn trajectory_digest(seed: u64) -> u64 {
    let cfg = presets::tiny_lm_8e();
    let corpus = MarkovCorpus::new(cfg.vocab_size(), TOPICS, seed);
    let mut model = TinyMoeLm::new(cfg, seed);
    let adam = AdamConfig::default();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for it in 1..=STEPS {
        let batch = corpus.batch(it - 1, BATCH, SEQ_LEN);
        let stats = model.forward_backward(&batch, seed ^ (it << 1));
        fnv1a(&mut hash, &stats.loss.to_bits().to_le_bytes());
        adam_step(model.store_mut(), &adam);
    }
    for p in model.store().params() {
        for m in [&p.value, &p.m, &p.v] {
            for x in m.data() {
                fnv1a(&mut hash, &x.to_bits().to_le_bytes());
            }
        }
        fnv1a(&mut hash, &p.steps.to_le_bytes());
    }
    hash
}

#[test]
fn golden_bits_match_the_committed_trajectory() {
    for (seed, expected) in GOLDEN {
        let observed = trajectory_digest(seed);
        assert_eq!(
            observed, expected,
            "seed {seed}: trajectory digest is {observed:#018x}, committed {expected:#018x} — \
             the compute path changed the numerics; if that is deliberate, paste the observed \
             digest into GOLDEN and explain it in the PR"
        );
    }
}
