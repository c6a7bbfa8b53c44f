//! Adam optimizer with per-tensor bias correction.
//!
//! The optimizer state (`m`, `v`, step counts) lives in the
//! [`ParamStore`], because it is 6× the weight volume in checkpoints
//! (Fig. 2) and is exactly what persist-PEC selectively skips.

use crate::params::ParamStore;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Global-norm gradient clip (0 disables).
    pub clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 1.0,
        }
    }
}

/// Applies one Adam step over every parameter with a non-zero gradient
/// footprint, then zeroes gradients. Returns the pre-clip gradient norm.
pub fn adam_step(store: &mut ParamStore, cfg: &AdamConfig) -> f32 {
    // The global norm is the one reduction whose order *is* the result:
    // per-tensor serial sums, folded in registration order.
    let mut sq = 0.0f32;
    for p in store.params() {
        sq += p.grad.sq_norm();
    }
    let norm = sq.sqrt();
    let scale = if cfg.clip > 0.0 && norm > cfg.clip {
        cfg.clip / norm
    } else {
        1.0
    };
    for p in store.params_mut() {
        p.steps += 1;
        let bc1 = 1.0 - cfg.beta1.powi(p.steps as i32);
        let bc2 = 1.0 - cfg.beta2.powi(p.steps as i32);
        // One pass per tensor: moments, bias-corrected update and gradient
        // zeroing are elementwise, so fusing them changes no value.
        let elems = (p.value.data_mut().iter_mut())
            .zip(p.grad.data_mut().iter_mut())
            .zip(p.m.data_mut().iter_mut())
            .zip(p.v.data_mut().iter_mut());
        for (((x, g), m), v) in elems {
            let gs = *g * scale;
            *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * gs;
            *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * gs * gs;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *x -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
            *g = 0.0;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    fn quadratic_store(x0: f32) -> ParamStore {
        let mut s = ParamStore::new();
        s.add("m/x", Matrix::from_vec(1, 1, vec![x0]));
        s
    }

    #[test]
    fn adam_minimises_a_quadratic() {
        // f(x) = (x-3)^2, grad = 2(x-3).
        let mut store = quadratic_store(0.0);
        let cfg = AdamConfig {
            lr: 0.1,
            clip: 0.0,
            ..AdamConfig::default()
        };
        for _ in 0..400 {
            let x = store.value("m/x").data()[0];
            store.grad_mut("m/x").data_mut()[0] = 2.0 * (x - 3.0);
            adam_step(&mut store, &cfg);
        }
        let x = store.value("m/x").data()[0];
        assert!((x - 3.0).abs() < 0.05, "converged to {x}");
    }

    #[test]
    fn grads_zeroed_after_step() {
        let mut store = quadratic_store(1.0);
        store.grad_mut("m/x").data_mut()[0] = 5.0;
        adam_step(&mut store, &AdamConfig::default());
        assert_eq!(store.grad("m/x").data()[0], 0.0);
    }

    #[test]
    fn clipping_bounds_update() {
        let mut a = quadratic_store(0.0);
        let mut b = quadratic_store(0.0);
        a.grad_mut("m/x").data_mut()[0] = 1000.0;
        b.grad_mut("m/x").data_mut()[0] = 1000.0;
        let clipped = AdamConfig {
            clip: 1.0,
            ..AdamConfig::default()
        };
        let unclipped = AdamConfig {
            clip: 0.0,
            ..AdamConfig::default()
        };
        let n1 = adam_step(&mut a, &clipped);
        let n2 = adam_step(&mut b, &unclipped);
        assert_eq!(n1, n2, "returned norm is pre-clip");
        // Both take a similar first Adam step (sign-dominated), but the
        // clipped moments are 1000x smaller.
        assert!(a.params()[0].m.data()[0].abs() < 0.01 * b.params()[0].m.data()[0].abs());
    }

    #[test]
    fn step_counts_advance_per_tensor() {
        let mut store = quadratic_store(0.0);
        adam_step(&mut store, &AdamConfig::default());
        adam_step(&mut store, &AdamConfig::default());
        assert_eq!(store.params()[0].steps, 2);
    }
}
