//! The pre-optimisation compute path, kept verbatim as a test oracle.
//!
//! `forward_backward`/`evaluate`, `adam_step` and the three `Matrix`
//! products below are the bodies this crate shipped before the
//! order-preserving kernels, the resolved parameter indices and the fused
//! Adam pass replaced them (serial dot products, per-token weight clones,
//! `format!`-keyed lookups and all). The property tests at the bottom
//! assert the shipped path equals this one **bit for bit**; nothing here
//! is compiled outside `cfg(test)`.

use crate::adam::AdamConfig;
use crate::model::{BatchStats, TinyMoeLm};
use crate::params::ParamStore;
use crate::tensor::Matrix;
use moc_moe::MoeModelConfig;
use rand::{RngExt, SeedableRng};

/// The three matrix products as they were (`matmul` renamed so the
/// inherent method cannot shadow it).
trait RefMatmul {
    fn ref_matmul(&self, other: &Matrix) -> Matrix;
    fn matmul_transposed(&self, other: &Matrix) -> Matrix;
    fn transposed_matmul(&self, other: &Matrix) -> Matrix;
}

impl RefMatmul for Matrix {
    /// `self · other` (`[m,k]·[k,n] → [m,n]`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    fn ref_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols(), other.rows(), "matmul inner dims");
        let mut out = Matrix::zeros(self.rows(), other.cols());
        for i in 0..self.rows() {
            for k in 0..self.cols() {
                let a = self.at(i, k);
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` (`[m,k]·[n,k]ᵀ → [m,n]`).
    fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols(), other.cols(), "matmul_t inner dims");
        let mut out = Matrix::zeros(self.rows(), other.rows());
        for i in 0..self.rows() {
            let arow = self.row(i);
            for j in 0..other.rows() {
                let brow = other.row(j);
                let mut acc = 0.0;
                for (a, b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                *out.at_mut(i, j) = acc;
            }
        }
        out
    }

    /// `selfᵀ · other` (`[k,m]ᵀ·[k,n] → [m,n]`), the weight-gradient shape.
    fn transposed_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows(), other.rows(), "t_matmul inner dims");
        let mut out = Matrix::zeros(self.cols(), other.cols());
        for k in 0..self.rows() {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }
}

/// In-place ReLU; returns the activation mask needed by the backward pass.
fn relu_forward(x: &mut Matrix) -> Vec<bool> {
    x.data_mut()
        .iter_mut()
        .map(|v| {
            if *v > 0.0 {
                true
            } else {
                *v = 0.0;
                false
            }
        })
        .collect()
}

/// Backward of ReLU: zeroes gradient where the activation was clamped.
fn relu_backward(grad: &mut Matrix, mask: &[bool]) {
    assert_eq!(grad.len(), mask.len(), "mask shape");
    for (g, &m) in grad.data_mut().iter_mut().zip(mask) {
        if !m {
            *g = 0.0;
        }
    }
}

/// Stable softmax over a slice, in place.
fn softmax_inplace(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Cross-entropy loss and gradient for one position.
///
/// Returns `(loss, grad)` where `grad = softmax(logits) − one_hot(target)`.
fn cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    let mut probs = logits.to_vec();
    softmax_inplace(&mut probs);
    let p = probs[target].max(1e-12);
    let loss = -p.ln();
    probs[target] -= 1.0;
    (loss, probs)
}

/// Applies one Adam step over every parameter with a non-zero gradient
/// footprint, then zeroes gradients. Returns the pre-clip gradient norm.
pub fn ref_adam_step(store: &mut ParamStore, cfg: &AdamConfig) -> f32 {
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
        let g_iter = p.grad.data().iter();
        for ((g, m), v) in g_iter
            .zip(p.m.data_mut().iter_mut())
            .zip(p.v.data_mut().iter_mut())
        {
            let g = g * scale;
            *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
            *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
        }
        // Second pass applies the update (split to appease the borrow
        // checker without cloning the gradient).
        for i in 0..p.value.len() {
            let m_hat = p.m.data()[i] / bc1;
            let v_hat = p.v.data()[i] / bc2;
            p.value.data_mut()[i] -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
        }
        p.grad.fill_zero();
    }
    norm
}

struct MoeTokenTrace {
    expert: usize,
    prob: f32,
    probs: Vec<f32>,
    hidden_in: Vec<f32>,
    act: Vec<f32>,
    mask: Vec<bool>,
    expert_out: Vec<f32>,
    dropped: bool,
}

/// The model as it was: same fields, same bodies.
pub struct RefLm {
    cfg: MoeModelConfig,
    store: ParamStore,
    /// Gate noise std during training (Eq. 2's ε); zero at eval.
    pub gate_noise_std: f32,
}

impl RefLm {
    /// The oracle twin of `model`: same configuration, same state.
    pub fn of(model: &TinyMoeLm) -> Self {
        Self {
            cfg: model.config().clone(),
            store: model.store().clone(),
            gate_noise_std: model.gate_noise_std,
        }
    }

    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Runs forward + backward over a batch, accumulating gradients.
    /// `noise_seed` makes the gate noise deterministic per iteration.
    pub fn forward_backward(&mut self, batch: &[Vec<u16>], noise_seed: u64) -> BatchStats {
        self.run(batch, true, noise_seed)
    }

    /// Evaluation loss (no gradients, no gate noise).
    pub fn evaluate(&mut self, batch: &[Vec<u16>]) -> BatchStats {
        self.run(batch, false, 0)
    }

    fn capacity(&self, tokens: usize) -> u64 {
        let n = self.cfg.num_experts() as f64;
        (self.cfg.capacity_factor() * self.cfg.top_k() as f64 * tokens as f64 / n).ceil() as u64
    }

    /// Forward through the blocks only (no head); returns final hidden
    /// states and per-layer traces when `train` is set.
    #[allow(clippy::type_complexity)]
    fn forward_hidden(
        &mut self,
        tokens: &[u16],
        train: bool,
        noise_seed: u64,
    ) -> (Matrix, Vec<LayerTrace>) {
        let d = self.cfg.hidden_size();
        let t_len = tokens.len();
        assert!(t_len <= self.cfg.max_seq_len(), "sequence too long");
        let mut rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
        let mut x = Matrix::zeros(t_len, d);
        {
            let tok_emb = self.store.value("embedding/tok");
            let pos_emb = self.store.value("embedding/pos");
            for (t, &tok) in tokens.iter().enumerate() {
                let row = tok_emb.row(tok as usize);
                let pos = pos_emb.row(t);
                for ((o, &a), &b) in x.row_mut(t).iter_mut().zip(row).zip(pos) {
                    *o = a + b;
                }
            }
        }
        let mut traces = Vec::with_capacity(self.cfg.num_layers());
        let cap = self.capacity(t_len);
        for layer in 0..self.cfg.num_layers() {
            let (next, trace) = self.forward_layer(layer, &x, cap, train, &mut rng);
            traces.push(trace);
            x = next;
        }
        (x, traces)
    }

    fn forward_layer(
        &mut self,
        layer: usize,
        x: &Matrix,
        capacity: u64,
        train: bool,
        rng: &mut rand::rngs::StdRng,
    ) -> (Matrix, LayerTrace) {
        let t_len = x.rows();
        let d = x.cols();
        // Causal prefix mean.
        let mut mean = Matrix::zeros(t_len, d);
        let mut acc = vec![0.0f32; d];
        for t in 0..t_len {
            for (a, &v) in acc.iter_mut().zip(x.row(t)) {
                *a += v;
            }
            let inv = 1.0 / (t + 1) as f32;
            for (o, &a) in mean.row_mut(t).iter_mut().zip(&acc) {
                *o = a * inv;
            }
        }
        let w_mix = self.store.value(&format!("layer{layer}.mix/w")).clone();
        let b_mix = self.store.value(&format!("layer{layer}.mix/b")).clone();
        let mut h = mean.ref_matmul(&w_mix);
        for t in 0..t_len {
            for ((o, &xi), &b) in h.row_mut(t).iter_mut().zip(x.row(t)).zip(b_mix.row(0)) {
                *o += xi + b;
            }
        }

        if self.cfg.is_moe_layer(layer) {
            let n = self.cfg.num_experts();
            let gate_w = self.store.value(&format!("layer{layer}.gate/w")).clone();
            let gate_b = self.store.value(&format!("layer{layer}.gate/b")).clone();
            let mut out = h.clone();
            let mut counts = vec![0u64; n];
            let mut dropped = 0u64;
            let mut tokens = Vec::with_capacity(t_len);
            for t in 0..t_len {
                let mut logits = vec![0.0f32; n];
                for (j, l) in logits.iter_mut().enumerate() {
                    let mut dot = gate_b.at(0, j);
                    for (k, &hv) in h.row(t).iter().enumerate() {
                        dot += hv * gate_w.at(k, j);
                    }
                    *l = dot;
                }
                let mut noisy = logits.clone();
                if train && self.gate_noise_std > 0.0 {
                    for v in noisy.iter_mut() {
                        *v += gauss(rng) * self.gate_noise_std;
                    }
                }
                let expert = argmax(&noisy);
                let mut probs = logits;
                softmax_inplace(&mut probs);
                let prob = probs[expert];
                if counts[expert] >= capacity {
                    dropped += 1;
                    tokens.push(MoeTokenTrace {
                        expert,
                        prob,
                        probs,
                        hidden_in: h.row(t).to_vec(),
                        act: Vec::new(),
                        mask: Vec::new(),
                        expert_out: Vec::new(),
                        dropped: true,
                    });
                    continue;
                }
                counts[expert] += 1;
                let w1 = self.store.value(&format!("layer{layer}.expert{expert}/w1"));
                let b1 = self.store.value(&format!("layer{layer}.expert{expert}/b1"));
                let f_dim = w1.cols();
                let mut a = Matrix::zeros(1, f_dim);
                for (k, &hv) in h.row(t).iter().enumerate() {
                    if hv == 0.0 {
                        continue;
                    }
                    for (o, &w) in a.row_mut(0).iter_mut().zip(w1.row(k)) {
                        *o += hv * w;
                    }
                }
                for (o, &b) in a.row_mut(0).iter_mut().zip(b1.row(0)) {
                    *o += b;
                }
                let mask = relu_forward(&mut a);
                let w2 = self.store.value(&format!("layer{layer}.expert{expert}/w2"));
                let b2 = self.store.value(&format!("layer{layer}.expert{expert}/b2"));
                let mut f_out = vec![0.0f32; d];
                for (k, &av) in a.row(0).iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &w) in f_out.iter_mut().zip(w2.row(k)) {
                        *o += av * w;
                    }
                }
                for (o, &b) in f_out.iter_mut().zip(b2.row(0)) {
                    *o += b;
                }
                for ((o, &f), _) in out.row_mut(t).iter_mut().zip(&f_out).zip(0..d) {
                    *o += prob * f;
                }
                tokens.push(MoeTokenTrace {
                    expert,
                    prob,
                    probs,
                    hidden_in: h.row(t).to_vec(),
                    act: a.row(0).to_vec(),
                    mask,
                    expert_out: f_out,
                    dropped: false,
                });
            }
            (
                out,
                LayerTrace {
                    x_in: x.clone(),
                    mean,
                    hidden: h,
                    ffn: FfnTrace::Moe {
                        tokens,
                        counts,
                        dropped,
                    },
                },
            )
        } else {
            let w1 = self.store.value(&format!("layer{layer}.ffn/w1")).clone();
            let b1 = self.store.value(&format!("layer{layer}.ffn/b1")).clone();
            let mut a = h.ref_matmul(&w1);
            for t in 0..t_len {
                for (o, &b) in a.row_mut(t).iter_mut().zip(b1.row(0)) {
                    *o += b;
                }
            }
            let mask = relu_forward(&mut a);
            let w2 = self.store.value(&format!("layer{layer}.ffn/w2")).clone();
            let b2 = self.store.value(&format!("layer{layer}.ffn/b2")).clone();
            let mut f = a.ref_matmul(&w2);
            for t in 0..t_len {
                for (o, &b) in f.row_mut(t).iter_mut().zip(b2.row(0)) {
                    *o += b;
                }
            }
            let mut out = h.clone();
            out.add_scaled(&f, 1.0);
            (
                out,
                LayerTrace {
                    x_in: x.clone(),
                    mean,
                    hidden: h,
                    ffn: FfnTrace::Dense { act: a, mask },
                },
            )
        }
    }

    fn run(&mut self, batch: &[Vec<u16>], train: bool, noise_seed: u64) -> BatchStats {
        let mut total_loss = 0.0f64;
        let mut positions = 0u64;
        let mut expert_loads = vec![vec![0u64; self.cfg.num_experts()]; self.cfg.num_moe_layers()];
        let mut dropped_tokens = 0u64;
        for (b, tokens) in batch.iter().enumerate() {
            if tokens.len() < 2 {
                continue;
            }
            let (x_final, traces) =
                self.forward_hidden(tokens, train, noise_seed.wrapping_add((b as u64) << 32));
            // Collect routing stats.
            for trace in &traces {
                if let FfnTrace::Moe {
                    counts, dropped, ..
                } = &trace.ffn
                {
                    let pos = moe_position(&traces, trace);
                    for (slot, &c) in expert_loads[pos].iter_mut().zip(counts) {
                        *slot += c;
                    }
                    dropped_tokens += dropped;
                }
            }
            // Head + loss (+ backward).
            let t_len = tokens.len();
            let preds = t_len - 1;
            positions += preds as u64;
            let mut d_x = Matrix::zeros(t_len, x_final.cols());
            {
                let emb = self.store.value("embedding/tok").clone();
                let scale = 1.0 / (batch.len() * preds) as f32;
                let mut d_emb_out = Matrix::zeros(emb.rows(), emb.cols());
                for t in 0..preds {
                    let mut logits = vec![0.0f32; self.cfg.vocab_size()];
                    for (tok, l) in logits.iter_mut().enumerate() {
                        let mut dot = 0.0;
                        for (a, b) in x_final.row(t).iter().zip(emb.row(tok)) {
                            dot += a * b;
                        }
                        *l = dot;
                    }
                    let (loss, grad) = cross_entropy(&logits, tokens[t + 1] as usize);
                    total_loss += loss as f64;
                    if train {
                        for (tok, &g) in grad.iter().enumerate() {
                            if g == 0.0 {
                                continue;
                            }
                            let gs = g * scale;
                            for (o, &xv) in d_emb_out.row_mut(tok).iter_mut().zip(x_final.row(t)) {
                                *o += gs * xv;
                            }
                            for (o, &ev) in d_x.row_mut(t).iter_mut().zip(emb.row(tok)) {
                                *o += gs * ev;
                            }
                        }
                    }
                }
                if train {
                    self.store
                        .grad_mut("embedding/tok")
                        .add_scaled(&d_emb_out, 1.0);
                }
            }
            if train {
                self.backward_blocks(tokens, traces, d_x);
            }
        }
        BatchStats {
            loss: if positions == 0 {
                0.0
            } else {
                (total_loss / positions as f64) as f32
            },
            positions,
            expert_loads,
            dropped_tokens,
        }
    }

    fn backward_blocks(&mut self, tokens: &[u16], traces: Vec<LayerTrace>, mut d_x: Matrix) {
        for (layer, trace) in traces.into_iter().enumerate().rev() {
            d_x = self.backward_layer(layer, trace, d_x);
        }
        // Embedding input side.
        let t_len = tokens.len();
        {
            let tok_grad = self.store.grad_mut("embedding/tok");
            for (t, &tok) in tokens.iter().enumerate().take(t_len) {
                for (o, &g) in tok_grad.row_mut(tok as usize).iter_mut().zip(d_x.row(t)) {
                    *o += g;
                }
            }
        }
        let pos_grad = self.store.grad_mut("embedding/pos");
        for t in 0..t_len {
            for (o, &g) in pos_grad.row_mut(t).iter_mut().zip(d_x.row(t)) {
                *o += g;
            }
        }
    }

    fn backward_layer(&mut self, layer: usize, trace: LayerTrace, d_out: Matrix) -> Matrix {
        let t_len = d_out.rows();
        let d = d_out.cols();
        // d_out = gradient at block output; residual: dH += d_out plus the
        // FFN path's contribution to dH.
        let mut d_h = d_out.clone();
        match trace.ffn {
            FfnTrace::Dense { act, mask } => {
                let w2 = self.store.value(&format!("layer{layer}.ffn/w2")).clone();
                let w1 = self.store.value(&format!("layer{layer}.ffn/w1")).clone();
                // dF = d_out.
                let mut d_a = d_out.matmul_transposed(&w2);
                // dW2 = actᵀ·dF ; db2 = colsum(dF).
                let d_w2 = act.transposed_matmul(&d_out);
                self.store
                    .grad_mut(&format!("layer{layer}.ffn/w2"))
                    .add_scaled(&d_w2, 1.0);
                add_colsum(self.store.grad_mut(&format!("layer{layer}.ffn/b2")), &d_out);
                relu_backward(&mut d_a, &mask);
                let d_w1 = trace.hidden.transposed_matmul(&d_a);
                self.store
                    .grad_mut(&format!("layer{layer}.ffn/w1"))
                    .add_scaled(&d_w1, 1.0);
                add_colsum(self.store.grad_mut(&format!("layer{layer}.ffn/b1")), &d_a);
                let d_h_ffn = d_a.matmul_transposed(&w1);
                d_h.add_scaled(&d_h_ffn, 1.0);
            }
            FfnTrace::Moe { tokens, .. } => {
                let n = self.cfg.num_experts();
                let gate_w = self.store.value(&format!("layer{layer}.gate/w")).clone();
                for (t, tok) in tokens.iter().enumerate() {
                    if tok.dropped {
                        continue;
                    }
                    let d_out_t = d_out.row(t);
                    // dF = p · d_out ; dp = <d_out, expert_out>.
                    let mut d_p = 0.0f32;
                    for (g, &f) in d_out_t.iter().zip(&tok.expert_out) {
                        d_p += g * f;
                    }
                    // Gate gradient through softmax at the chosen index.
                    let mut d_logits = vec![0.0f32; n];
                    for (j, dl) in d_logits.iter_mut().enumerate() {
                        let delta = if j == tok.expert { 1.0 } else { 0.0 };
                        *dl = d_p * tok.prob * (delta - tok.probs[j]);
                    }
                    {
                        let g_w = self.store.grad_mut(&format!("layer{layer}.gate/w"));
                        for (k, &hv) in tok.hidden_in.iter().enumerate() {
                            if hv == 0.0 {
                                continue;
                            }
                            for (o, &dl) in g_w.row_mut(k).iter_mut().zip(&d_logits) {
                                *o += hv * dl;
                            }
                        }
                    }
                    {
                        let g_b = self.store.grad_mut(&format!("layer{layer}.gate/b"));
                        for (o, &dl) in g_b.row_mut(0).iter_mut().zip(&d_logits) {
                            *o += dl;
                        }
                    }
                    // dH from the gate path: Wg·d_logits.
                    for k in 0..d {
                        let mut acc = 0.0;
                        for (j, &dl) in d_logits.iter().enumerate() {
                            acc += gate_w.at(k, j) * dl;
                        }
                        *d_h.at_mut(t, k) += acc;
                    }
                    // Expert backward (per token).
                    let e = tok.expert;
                    let w2 = self
                        .store
                        .value(&format!("layer{layer}.expert{e}/w2"))
                        .clone();
                    let w1 = self
                        .store
                        .value(&format!("layer{layer}.expert{e}/w1"))
                        .clone();
                    let f_dim = w1.cols();
                    // df = p·d_out.
                    let df: Vec<f32> = d_out_t.iter().map(|&g| g * tok.prob).collect();
                    // da = df·W2ᵀ, relu mask.
                    let mut da = vec![0.0f32; f_dim];
                    for (k, dav) in da.iter_mut().enumerate() {
                        if !tok.mask[k] {
                            continue;
                        }
                        let mut acc = 0.0;
                        for (j, &dfv) in df.iter().enumerate() {
                            acc += w2.at(k, j) * dfv;
                        }
                        *dav = acc;
                    }
                    {
                        let g_w2 = self.store.grad_mut(&format!("layer{layer}.expert{e}/w2"));
                        for (k, &av) in tok.act.iter().enumerate() {
                            if av == 0.0 {
                                continue;
                            }
                            for (o, &dfv) in g_w2.row_mut(k).iter_mut().zip(&df) {
                                *o += av * dfv;
                            }
                        }
                        let g_b2 = self.store.grad_mut(&format!("layer{layer}.expert{e}/b2"));
                        for (o, &dfv) in g_b2.row_mut(0).iter_mut().zip(&df) {
                            *o += dfv;
                        }
                        let g_w1 = self.store.grad_mut(&format!("layer{layer}.expert{e}/w1"));
                        for (k, &hv) in tok.hidden_in.iter().enumerate() {
                            if hv == 0.0 {
                                continue;
                            }
                            for (o, &dav) in g_w1.row_mut(k).iter_mut().zip(&da) {
                                *o += hv * dav;
                            }
                        }
                        let g_b1 = self.store.grad_mut(&format!("layer{layer}.expert{e}/b1"));
                        for (o, &dav) in g_b1.row_mut(0).iter_mut().zip(&da) {
                            *o += dav;
                        }
                    }
                    // dH from the expert input path: da·W1ᵀ.
                    for k in 0..d {
                        let mut acc = 0.0;
                        for (j, &dav) in da.iter().enumerate() {
                            acc += w1.at(k, j) * dav;
                        }
                        *d_h.at_mut(t, k) += acc;
                    }
                }
            }
        }

        // Mixer backward: H = X + M·W_mix + b_mix.
        let w_mix = self.store.value(&format!("layer{layer}.mix/w")).clone();
        let d_w_mix = trace.mean.transposed_matmul(&d_h);
        self.store
            .grad_mut(&format!("layer{layer}.mix/w"))
            .add_scaled(&d_w_mix, 1.0);
        add_colsum(self.store.grad_mut(&format!("layer{layer}.mix/b")), &d_h);
        let d_mean = d_h.matmul_transposed(&w_mix);
        // dX = dH (residual) + prefix-mean transpose of d_mean.
        let mut d_x = d_h;
        let mut suffix = vec![0.0f32; d];
        for t in (0..t_len).rev() {
            let inv = 1.0 / (t + 1) as f32;
            for (s, &g) in suffix.iter_mut().zip(d_mean.row(t)) {
                *s += g * inv;
            }
            for (o, &s) in d_x.row_mut(t).iter_mut().zip(&suffix) {
                *o += s;
            }
        }
        let _ = trace.x_in;
        d_x
    }
}

struct LayerTrace {
    x_in: Matrix,
    mean: Matrix,
    hidden: Matrix,
    ffn: FfnTrace,
}

enum FfnTrace {
    Dense {
        act: Matrix,
        mask: Vec<bool>,
    },
    Moe {
        tokens: Vec<MoeTokenTrace>,
        counts: Vec<u64>,
        dropped: u64,
    },
}

fn moe_position(traces: &[LayerTrace], target: &LayerTrace) -> usize {
    traces
        .iter()
        .filter(|t| matches!(t.ffn, FfnTrace::Moe { .. }))
        .position(|t| std::ptr::eq(t, target))
        .expect("trace belongs to the list")
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

fn add_colsum(grad: &mut Matrix, rows: &Matrix) {
    for t in 0..rows.rows() {
        for (o, &g) in grad.row_mut(0).iter_mut().zip(rows.row(t)) {
            *o += g;
        }
    }
}

fn gauss(rng: &mut rand::rngs::StdRng) -> f32 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::adam_step;
    use crate::data::MarkovCorpus;
    use rand::rngs::StdRng;

    /// A small model whose first layer is MoE (so exactly-zero hidden rows
    /// reach the `hv == 0.0` skips) followed by a dense and a MoE layer.
    fn small_cfg(capacity_factor: f64) -> MoeModelConfig {
        MoeModelConfig::builder("oracle")
            .num_layers(3)
            .hidden_size(8)
            .num_heads(2)
            .ffn_mult(2)
            .vocab_size(16)
            .max_seq_len(64)
            .moe_layer_indices(vec![0, 2])
            .num_experts(4)
            .top_k(1)
            .capacity_factor(capacity_factor)
            .build()
            .unwrap()
    }

    /// The configuration of `model::tests`' finite-difference checks.
    fn grad_check_cfg() -> MoeModelConfig {
        MoeModelConfig::builder("grad-check")
            .num_layers(2)
            .hidden_size(8)
            .num_heads(2)
            .ffn_mult(2)
            .vocab_size(16)
            .max_seq_len(12)
            .moe_layer_indices(vec![1])
            .num_experts(4)
            .top_k(1)
            .capacity_factor(4.0)
            .build()
            .unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    fn assert_stores_bit_equal(new: &ParamStore, old: &ParamStore, what: &str) {
        assert_eq!(new.len(), old.len(), "{what}: tensor count");
        for (n, o) in new.params().iter().zip(old.params()) {
            assert_eq!(n.name, o.name, "{what}");
            assert_eq!(bits(&n.grad), bits(&o.grad), "{what}: grad of {}", n.name);
            assert_eq!(
                bits(&n.value),
                bits(&o.value),
                "{what}: value of {}",
                n.name
            );
            assert_eq!(bits(&n.m), bits(&o.m), "{what}: m of {}", n.name);
            assert_eq!(bits(&n.v), bits(&o.v), "{what}: v of {}", n.name);
            assert_eq!(n.steps, o.steps, "{what}: steps of {}", n.name);
        }
    }

    fn assert_stats_bit_equal(new: &BatchStats, old: &BatchStats, what: &str) {
        assert_eq!(new.loss.to_bits(), old.loss.to_bits(), "{what}: loss bits");
        assert_eq!(new.positions, old.positions, "{what}: positions");
        assert_eq!(new.expert_loads, old.expert_loads, "{what}: expert loads");
        assert_eq!(new.dropped_tokens, old.dropped_tokens, "{what}: dropped");
    }

    /// Kills half the FFN/expert units (`b1 = −10` ⇒ activation exactly
    /// 0.0, mask false) and zeroes the embeddings of token 0 at positions
    /// 0..3 so sequences that start `[0, 0, 0]` carry exactly-zero hidden
    /// rows into the first (MoE) layer.
    fn kill_units(store: &mut ParamStore) {
        for p in store.params_mut() {
            if p.name.ends_with("/b1") {
                for x in p.value.data_mut().iter_mut().step_by(2) {
                    *x = -10.0;
                }
            }
        }
        store.value_mut("embedding/tok").row_mut(0).fill(0.0);
        for t in 0..3 {
            store.value_mut("embedding/pos").row_mut(t).fill(0.0);
        }
    }

    fn random_batch(rng: &mut StdRng, vocab: usize, max_len: usize, dead: bool) -> Vec<Vec<u16>> {
        let seqs = rng.random_range(1..=8usize);
        let mut batch: Vec<Vec<u16>> = (0..seqs)
            .map(|_| {
                let len = rng.random_range(2..=max_len);
                (0..len)
                    .map(|_| rng.random_range(0..vocab) as u16)
                    .collect()
            })
            .collect();
        if dead {
            for t in batch[0].iter_mut().take(3) {
                *t = 0;
            }
        }
        // A sequence too short to bear a loss is skipped, wherever it sits.
        if rng.random_range(0..3u32) == 0 {
            let at = rng.random_range(0..=batch.len());
            let short = if rng.random_range(0..2u32) == 0 {
                vec![]
            } else {
                vec![3]
            };
            batch.insert(at, short);
        }
        batch
    }

    /// One forward/backward (+ optional second accumulating pass), one
    /// evaluation and one Adam step, new against old, compared bitwise.
    fn check_case(mut new: TinyMoeLm, batch: &[Vec<u16>], noise_seed: u64, adam: &AdamConfig) {
        let mut old = RefLm::of(&new);
        let what = format!("batch {:?}", batch.iter().map(Vec::len).collect::<Vec<_>>());
        let (sn, so) = (
            new.forward_backward(batch, noise_seed),
            old.forward_backward(batch, noise_seed),
        );
        assert_stats_bit_equal(&sn, &so, &what);
        assert_stores_bit_equal(new.store(), old.store(), &what);
        // Gradients accumulate across passes: `grad += (Σ…)` must keep its
        // association on a non-zero accumulator too.
        let (sn, so) = (
            new.forward_backward(batch, noise_seed ^ 1),
            old.forward_backward(batch, noise_seed ^ 1),
        );
        assert_stats_bit_equal(&sn, &so, &what);
        assert_stores_bit_equal(new.store(), old.store(), &what);
        assert_stats_bit_equal(&new.evaluate(batch), &old.evaluate(batch), &what);
        let (nn, no) = (
            adam_step(new.store_mut(), adam),
            ref_adam_step(old.store_mut(), adam),
        );
        assert_eq!(nn.to_bits(), no.to_bits(), "{what}: grad norm bits");
        assert_stores_bit_equal(new.store(), old.store(), &what);
        // And the pass after the weights moved.
        let (sn, so) = (
            new.forward_backward(batch, noise_seed),
            old.forward_backward(batch, noise_seed),
        );
        assert_stats_bit_equal(&sn, &so, &what);
        assert_stores_bit_equal(new.store(), old.store(), &what);
    }

    #[test]
    fn the_one_kernel_matches_the_three_old_products_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut random = |rows: usize, cols: usize, zero_every: usize| {
            let data = (0..rows * cols)
                .map(|i| {
                    if zero_every > 0 && i % zero_every == 0 {
                        0.0
                    } else {
                        gauss(&mut rng)
                    }
                })
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (32, 48, 192),
            (31, 192, 48),
            (5, 48, 256),
        ] {
            let a = random(m, k, 3);
            let b = random(k, n, 0);
            assert_eq!(bits(&a.matmul(&b)), bits(&a.ref_matmul(&b)), "a·b");
            let w = random(n, k, 0);
            assert_eq!(
                bits(&a.matmul_dense(&w.transposed())),
                bits(&a.matmul_transposed(&w)),
                "a·wᵀ"
            );
            let g = random(m, n, 0);
            assert_eq!(
                bits(&a.transposed().matmul(&g)),
                bits(&a.transposed_matmul(&g)),
                "aᵀ·g"
            );
        }
    }

    #[test]
    fn forward_backward_and_adam_match_the_old_path_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x0C0F_FEE5);
        for case in 0..48u64 {
            // Capacity factors that drop most tokens, some, and none.
            let capacity = [0.05, 0.5, 1.5, 64.0][(case % 4) as usize];
            let dead = case % 3 == 0;
            let mut model = TinyMoeLm::new(small_cfg(capacity), rng.random::<u64>());
            model.gate_noise_std = if case % 2 == 0 { 0.0 } else { 0.01 };
            if dead {
                kill_units(model.store_mut());
            }
            let batch = random_batch(&mut rng, 16, 64, dead);
            let adam = AdamConfig {
                clip: if case % 5 < 2 { 0.0 } else { 1.0 },
                ..AdamConfig::default()
            };
            check_case(model, &batch, rng.random::<u64>(), &adam);
        }
    }

    #[test]
    fn dead_units_and_zero_rows_are_actually_exercised() {
        // Guards the generator above: the `a == 0.0` / `hv == 0.0` skips and
        // the capacity extremes are only covered if these hold.
        let mut model = TinyMoeLm::new(small_cfg(0.05), 5);
        kill_units(model.store_mut());
        let batch = vec![vec![0, 0, 0, 4, 9, 2, 11, 7, 1, 1, 5, 3]];
        let tight = RefLm::of(&model).evaluate(&batch);
        assert!(tight.dropped_tokens >= 8, "capacity 0.05 drops most tokens");
        let loose = RefLm::of(&TinyMoeLm::new(small_cfg(64.0), 5)).evaluate(&batch);
        assert_eq!(loose.dropped_tokens, 0, "capacity 64 drops none");
        let emb = model.store().value("embedding/tok");
        assert!(emb.row(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn full_size_model_matches_the_old_path_bitwise() {
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = moc_moe::presets::tiny_lm_8e();
        for capacity_case in 0..2 {
            let model = TinyMoeLm::new(cfg.clone(), 40 + capacity_case);
            let batch = random_batch(&mut rng, cfg.vocab_size(), 64, false);
            check_case(model, &batch, rng.random::<u64>(), &AdamConfig::default());
        }
    }

    fn train_loop_matches(cfg: MoeModelConfig, seed: u64, batch: usize, seq_len: usize) {
        let corpus = MarkovCorpus::new(cfg.vocab_size(), 4, seed);
        let mut new = TinyMoeLm::new(cfg, seed);
        let mut old = RefLm::of(&new);
        let adam = AdamConfig::default();
        for it in 1..=30u64 {
            let data = corpus.batch(it - 1, batch, seq_len);
            let noise = seed ^ (it << 1);
            let (sn, so) = (
                new.forward_backward(&data, noise),
                old.forward_backward(&data, noise),
            );
            assert_stats_bit_equal(&sn, &so, &format!("step {it}"));
            let (nn, no) = (
                adam_step(new.store_mut(), &adam),
                ref_adam_step(old.store_mut(), &adam),
            );
            assert_eq!(nn.to_bits(), no.to_bits(), "step {it}: grad norm bits");
        }
        assert_stores_bit_equal(new.store(), old.store(), "after 30 steps");
    }

    #[test]
    fn thirty_step_train_loop_matches_on_tiny_lm_8e() {
        train_loop_matches(moc_moe::presets::tiny_lm_8e(), 17, 4, 32);
    }

    #[test]
    fn thirty_step_train_loop_matches_on_the_grad_check_config() {
        train_loop_matches(grad_check_cfg(), 7, 2, 12);
    }
}
