//! A real, trainable sparse-MoE language model with manual backprop.
//!
//! Architecture (per transformer block, attention replaced by a
//! parameter-free causal prefix-mean mixer to keep backprop compact — see
//! DESIGN.md):
//!
//! ```text
//! X   = Embed(tokens) + Pos
//! M   = CausalMean(X);  H = X + M·W_mix + b_mix
//! F   = FFN(H)                       (dense layers)
//!     | p_e · Expert_e(H)            (MoE layers: noisy top-1 gate,
//!     |  0                            capacity overflow ⇒ token dropped)
//! X'  = H + F
//! ```
//!
//! with a tied-embedding LM head and token-level cross-entropy. Every
//! gradient is derived and applied by hand; `grad_check` tests in this
//! module validate them against finite differences. The MoE path follows
//! Switch-style routing: the chosen expert's output is scaled by its gate
//! probability (which is what gives the gate a gradient), and experts
//! beyond capacity pass tokens through untouched.

use crate::params::ParamStore;
use crate::tensor::{cross_entropy, gemm, relu_backward, relu_forward, softmax_inplace, Matrix};
use moc_moe::MoeModelConfig;
use rand::{RngExt, SeedableRng};

/// Statistics of one forward(+backward) pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Mean cross-entropy loss per predicted token.
    pub loss: f32,
    /// Number of loss-bearing token positions.
    pub positions: u64,
    /// Tokens accepted per expert, per MoE layer (feeds PLT / load-aware
    /// selection).
    pub expert_loads: Vec<Vec<u64>>,
    /// Tokens dropped by expert-capacity overflow.
    pub dropped_tokens: u64,
}

/// The trainable model.
#[derive(Debug, Clone)]
pub struct TinyMoeLm {
    cfg: MoeModelConfig,
    store: ParamStore,
    /// Gate noise std during training (Eq. 2's ε); zero at eval.
    pub gate_noise_std: f32,
    /// Where each layer's tensors sit in the store, resolved once:
    /// registration order is fixed by [`TinyMoeLm::new`].
    layers: Vec<LayerParams>,
    /// Transposed weights by parameter index, built on first use within a
    /// pass and dropped at the start of the next — weights only change
    /// between passes (Adam, restores, reseeds), so nothing has to tell
    /// the cache. See [`crate::tensor`] for why the transposes exist.
    transposed: Vec<Option<Matrix>>,
}

/// Store indices of the two embedding tables (registered first).
const TOK_EMB: usize = 0;
const POS_EMB: usize = 1;

/// Store indices of one layer: `mix/w`, `mix/b`, then either the dense
/// FFN block or `gate/w`, `gate/b` and one block per expert.
#[derive(Debug, Clone, Copy)]
struct LayerParams {
    mix_w: usize,
    /// Index among the MoE layers, `None` for a dense layer.
    moe: Option<usize>,
}

/// Store indices of one `w1, b1, w2, b2` block (dense FFN or expert).
#[derive(Clone, Copy)]
struct FfnParams {
    w1: usize,
    b1: usize,
    w2: usize,
    b2: usize,
}

impl LayerParams {
    fn mix_b(self) -> usize {
        self.mix_w + 1
    }

    fn gate_w(self) -> usize {
        self.mix_w + 2
    }

    fn gate_b(self) -> usize {
        self.mix_w + 3
    }

    fn block(first: usize) -> FfnParams {
        FfnParams {
            w1: first,
            b1: first + 1,
            w2: first + 2,
            b2: first + 3,
        }
    }

    fn dense(self) -> FfnParams {
        Self::block(self.mix_w + 2)
    }

    fn expert(self, e: usize) -> FfnParams {
        Self::block(self.mix_w + 4 + 4 * e)
    }
}

struct MoeTokenTrace {
    expert: usize,
    prob: f32,
    probs: Vec<f32>,
    act: Vec<f32>,
    mask: Vec<bool>,
    expert_out: Vec<f32>,
    dropped: bool,
}

impl TinyMoeLm {
    /// Initialises a model for `cfg` with seeded Gaussian weights.
    pub fn new(cfg: MoeModelConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let d = cfg.hidden_size();
        let f = cfg.ffn_intermediate();
        let v = cfg.vocab_size();
        let tmax = cfg.max_seq_len();
        let n = cfg.num_experts();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = |rows: usize, cols: usize, rng: &mut rand::rngs::StdRng| {
            let mut m = Matrix::zeros(rows, cols);
            for x in m.data_mut() {
                *x = gauss(rng) * 0.02;
            }
            m
        };
        store.add("embedding/tok", init(v, d, &mut rng));
        store.add("embedding/pos", init(tmax, d, &mut rng));
        let mut layers = Vec::with_capacity(cfg.num_layers());
        let mut moe_layers = 0;
        for layer in 0..cfg.num_layers() {
            let moe = cfg.is_moe_layer(layer).then_some(moe_layers);
            moe_layers += usize::from(moe.is_some());
            layers.push(LayerParams {
                mix_w: store.len(),
                moe,
            });
            store.add(format!("layer{layer}.mix/w"), init(d, d, &mut rng));
            store.add(format!("layer{layer}.mix/b"), Matrix::zeros(1, d));
            if moe.is_some() {
                store.add(format!("layer{layer}.gate/w"), init(d, n, &mut rng));
                store.add(format!("layer{layer}.gate/b"), Matrix::zeros(1, n));
                for e in 0..n {
                    store.add(format!("layer{layer}.expert{e}/w1"), init(d, f, &mut rng));
                    store.add(format!("layer{layer}.expert{e}/b1"), Matrix::zeros(1, f));
                    store.add(format!("layer{layer}.expert{e}/w2"), init(f, d, &mut rng));
                    store.add(format!("layer{layer}.expert{e}/b2"), Matrix::zeros(1, d));
                }
            } else {
                store.add(format!("layer{layer}.ffn/w1"), init(d, f, &mut rng));
                store.add(format!("layer{layer}.ffn/b1"), Matrix::zeros(1, f));
                store.add(format!("layer{layer}.ffn/w2"), init(f, d, &mut rng));
                store.add(format!("layer{layer}.ffn/b2"), Matrix::zeros(1, d));
            }
        }
        let transposed = vec![None; store.len()];
        Self {
            cfg,
            store,
            gate_noise_std: 0.01,
            layers,
            transposed,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &MoeModelConfig {
        &self.cfg
    }

    /// The parameter store (weights, gradients, optimizer state).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store.
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

    /// Greedy next-token prediction given a prefix (for probes).
    pub fn predict_next(&mut self, prefix: &[u16]) -> u16 {
        let x = self.forward_hidden(prefix, false, 0).0;
        let last = x.rows() - 1;
        let emb = &self.store.params()[TOK_EMB].value;
        let mut best = (0u16, f32::NEG_INFINITY);
        for tok in 0..self.cfg.vocab_size() {
            let mut dot = 0.0;
            for (a, b) in x.row(last).iter().zip(emb.row(tok)) {
                dot += a * b;
            }
            if dot > best.1 {
                best = (tok as u16, dot);
            }
        }
        best.0
    }

    fn capacity(&self, tokens: usize) -> u64 {
        let n = self.cfg.num_experts() as f64;
        (self.cfg.capacity_factor() * self.cfg.top_k() as f64 * tokens as f64 / n).ceil() as u64
    }

    /// Makes sure the transposes of the given weights are in the per-pass
    /// cache.
    fn ensure_transposed(&mut self, params: &[usize]) {
        for &i in params {
            if self.transposed[i].is_none() {
                self.transposed[i] = Some(self.store.params()[i].value.transposed());
            }
        }
    }

    /// Forward through the blocks only (no head); returns final hidden
    /// states and per-layer traces when `train` is set.
    fn forward_hidden(
        &self,
        tokens: &[u16],
        train: bool,
        noise_seed: u64,
    ) -> (Matrix, Vec<LayerTrace>) {
        let d = self.cfg.hidden_size();
        let t_len = tokens.len();
        assert!(t_len <= self.cfg.max_seq_len(), "sequence too long");
        let mut rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
        let mut x = Matrix::zeros(t_len, d);
        let tok_emb = &self.store.params()[TOK_EMB].value;
        let pos_emb = &self.store.params()[POS_EMB].value;
        for (t, &tok) in tokens.iter().enumerate() {
            let row = tok_emb.row(tok as usize);
            let pos = pos_emb.row(t);
            for ((o, &a), &b) in x.row_mut(t).iter_mut().zip(row).zip(pos) {
                *o = a + b;
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
        &self,
        layer: usize,
        x: &Matrix,
        capacity: u64,
        train: bool,
        rng: &mut rand::rngs::StdRng,
    ) -> (Matrix, LayerTrace) {
        let t_len = x.rows();
        let d = x.cols();
        let params = self.store.params();
        let lp = self.layers[layer];
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
        let b_mix = params[lp.mix_b()].value.row(0);
        let mut h = mean.matmul(&params[lp.mix_w].value);
        for t in 0..t_len {
            for ((o, &xi), &b) in h.row_mut(t).iter_mut().zip(x.row(t)).zip(b_mix) {
                *o += xi + b;
            }
        }

        if lp.moe.is_some() {
            let n = self.cfg.num_experts();
            let gate_w = &params[lp.gate_w()].value;
            let gate_b = &params[lp.gate_b()].value;
            let mut out = h.clone();
            let mut counts = vec![0u64; n];
            let mut dropped = 0u64;
            let mut tokens = Vec::with_capacity(t_len);
            for t in 0..t_len {
                // Each logit starts from its bias and adds h·W_g[:, j] in
                // hidden-index order.
                let mut logits = gate_b.row(0).to_vec();
                gemm(&mut logits, h.row(t), gate_w.data(), n, false);
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
                        act: Vec::new(),
                        mask: Vec::new(),
                        expert_out: Vec::new(),
                        dropped: true,
                    });
                    continue;
                }
                counts[expert] += 1;
                let ffn = lp.expert(expert);
                let (w1, w2) = (&params[ffn.w1].value, &params[ffn.w2].value);
                let mut a = Matrix::zeros(1, w1.cols());
                gemm(a.data_mut(), h.row(t), w1.data(), w1.cols(), true);
                for (o, &b) in a.data_mut().iter_mut().zip(params[ffn.b1].value.row(0)) {
                    *o += b;
                }
                let mask = relu_forward(&mut a);
                let mut f_out = vec![0.0f32; d];
                gemm(&mut f_out, a.data(), w2.data(), d, true);
                for (o, &b) in f_out.iter_mut().zip(params[ffn.b2].value.row(0)) {
                    *o += b;
                }
                for (o, &f) in out.row_mut(t).iter_mut().zip(&f_out) {
                    *o += prob * f;
                }
                tokens.push(MoeTokenTrace {
                    expert,
                    prob,
                    probs,
                    act: a.data().to_vec(),
                    mask,
                    expert_out: f_out,
                    dropped: false,
                });
            }
            (
                out,
                LayerTrace {
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
            let ffn = lp.dense();
            let mut a = h.matmul(&params[ffn.w1].value);
            for t in 0..t_len {
                for (o, &b) in a.row_mut(t).iter_mut().zip(params[ffn.b1].value.row(0)) {
                    *o += b;
                }
            }
            let mask = relu_forward(&mut a);
            let mut f = a.matmul(&params[ffn.w2].value);
            for t in 0..t_len {
                for (o, &b) in f.row_mut(t).iter_mut().zip(params[ffn.b2].value.row(0)) {
                    *o += b;
                }
            }
            let mut out = h.clone();
            out.add_scaled(&f, 1.0);
            (
                out,
                LayerTrace {
                    mean,
                    hidden: h,
                    ffn: FfnTrace::Dense { act: a, mask },
                },
            )
        }
    }

    fn run(&mut self, batch: &[Vec<u16>], train: bool, noise_seed: u64) -> BatchStats {
        // The weights may have moved since the last pass.
        self.transposed.fill(None);
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
            for (trace, lp) in traces.iter().zip(&self.layers) {
                if let (
                    FfnTrace::Moe {
                        counts, dropped, ..
                    },
                    Some(pos),
                ) = (&trace.ffn, lp.moe)
                {
                    for (slot, &c) in expert_loads[pos].iter_mut().zip(counts) {
                        *slot += c;
                    }
                    dropped_tokens += dropped;
                }
            }
            // Head + loss (+ backward).
            let t_len = tokens.len();
            let d = x_final.cols();
            let preds = t_len - 1;
            positions += preds as u64;
            let mut d_x = Matrix::zeros(t_len, d);
            // Tied head: logits = X·Eᵀ, every position at once.
            self.ensure_transposed(&[TOK_EMB]);
            let emb_t = self.transposed[TOK_EMB].as_ref().expect("just ensured");
            let emb = &self.store.params()[TOK_EMB].value;
            let x_pred = &x_final.data()[..preds * d];
            let mut logits = Matrix::zeros(preds, emb.rows());
            gemm(logits.data_mut(), x_pred, emb_t.data(), emb.rows(), false);
            let scale = 1.0 / (batch.len() * preds) as f32;
            let mut d_emb_out = Matrix::zeros(emb.rows(), emb.cols());
            for t in 0..preds {
                let (loss, grad) = cross_entropy(logits.row(t), tokens[t + 1] as usize);
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
                self.store.params_mut()[TOK_EMB]
                    .grad
                    .add_scaled(&d_emb_out, 1.0);
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
        let params = self.store.params_mut();
        for (t, &tok) in tokens.iter().enumerate() {
            let tok_row = params[TOK_EMB].grad.row_mut(tok as usize);
            for (o, &g) in tok_row.iter_mut().zip(d_x.row(t)) {
                *o += g;
            }
        }
        for t in 0..tokens.len() {
            for (o, &g) in params[POS_EMB].grad.row_mut(t).iter_mut().zip(d_x.row(t)) {
                *o += g;
            }
        }
    }

    fn backward_layer(&mut self, layer: usize, trace: LayerTrace, d_out: Matrix) -> Matrix {
        let t_len = d_out.rows();
        let d = d_out.cols();
        let lp = self.layers[layer];
        // Every input-gradient below is a product against a transposed
        // weight; build the ones this layer will touch.
        self.ensure_transposed(&[lp.mix_w]);
        match &trace.ffn {
            FfnTrace::Dense { .. } => {
                let ffn = lp.dense();
                self.ensure_transposed(&[ffn.w1, ffn.w2]);
            }
            FfnTrace::Moe { counts, .. } => {
                for (e, _) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
                    let ffn = lp.expert(e);
                    self.ensure_transposed(&[ffn.w1, ffn.w2]);
                }
            }
        }
        let transposed = &self.transposed;
        let wt = |i: usize| transposed[i].as_ref().expect("ensured above");
        let params = self.store.params_mut();
        // d_out = gradient at block output; residual: dH += d_out plus the
        // FFN path's contribution to dH. Weight gradients are summed into
        // a temporary first and then added, `grad += (Σ…)`.
        let mut d_h = d_out.clone();
        match trace.ffn {
            FfnTrace::Dense { act, mask } => {
                let ffn = lp.dense();
                // dF = d_out.
                let mut d_a = d_out.matmul_dense(wt(ffn.w2));
                // dW2 = actᵀ·dF ; db2 = colsum(dF).
                let d_w2 = act.transposed().matmul(&d_out);
                params[ffn.w2].grad.add_scaled(&d_w2, 1.0);
                add_colsum(&mut params[ffn.b2].grad, &d_out);
                relu_backward(&mut d_a, &mask);
                let d_w1 = trace.hidden.transposed().matmul(&d_a);
                params[ffn.w1].grad.add_scaled(&d_w1, 1.0);
                add_colsum(&mut params[ffn.b1].grad, &d_a);
                let d_h_ffn = d_a.matmul_dense(wt(ffn.w1));
                d_h.add_scaled(&d_h_ffn, 1.0);
            }
            FfnTrace::Moe { tokens, .. } => {
                let n = self.cfg.num_experts();
                for (t, tok) in tokens.iter().enumerate() {
                    if tok.dropped {
                        continue;
                    }
                    let d_out_t = d_out.row(t);
                    let h_t = trace.hidden.row(t);
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
                    gemm(params[lp.gate_w()].grad.data_mut(), h_t, &d_logits, n, true);
                    add_row(&mut params[lp.gate_b()].grad, &d_logits);
                    // dH from the gate path: Wg·d_logits.
                    let gate_w = &params[lp.gate_w()].value;
                    for (k, o) in d_h.row_mut(t).iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (&w, &dl) in gate_w.row(k).iter().zip(&d_logits) {
                            acc += w * dl;
                        }
                        *o += acc;
                    }
                    // Expert backward (per token).
                    let ffn = lp.expert(tok.expert);
                    let f_dim = tok.act.len();
                    // df = p·d_out.
                    let df: Vec<f32> = d_out_t.iter().map(|&g| g * tok.prob).collect();
                    // da = df·W2ᵀ, relu mask.
                    let mut da = vec![0.0f32; f_dim];
                    gemm(&mut da, &df, wt(ffn.w2).data(), f_dim, false);
                    for (dav, &m) in da.iter_mut().zip(&tok.mask) {
                        if !m {
                            *dav = 0.0;
                        }
                    }
                    gemm(params[ffn.w2].grad.data_mut(), &tok.act, &df, d, true);
                    add_row(&mut params[ffn.b2].grad, &df);
                    gemm(params[ffn.w1].grad.data_mut(), h_t, &da, f_dim, true);
                    add_row(&mut params[ffn.b1].grad, &da);
                    // dH from the expert input path: da·W1ᵀ.
                    let mut d_h_expert = vec![0.0f32; d];
                    gemm(&mut d_h_expert, &da, wt(ffn.w1).data(), d, false);
                    for (o, &g) in d_h.row_mut(t).iter_mut().zip(&d_h_expert) {
                        *o += g;
                    }
                }
            }
        }

        // Mixer backward: H = X + M·W_mix + b_mix.
        let d_w_mix = trace.mean.transposed().matmul(&d_h);
        params[lp.mix_w].grad.add_scaled(&d_w_mix, 1.0);
        add_colsum(&mut params[lp.mix_b()].grad, &d_h);
        let d_mean = d_h.matmul_dense(wt(lp.mix_w));
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
        d_x
    }
}

struct LayerTrace {
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

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// `grad[0][:] += row`, for bias gradients.
fn add_row(grad: &mut Matrix, row: &[f32]) {
    for (o, &g) in grad.row_mut(0).iter_mut().zip(row) {
        *o += g;
    }
}

fn add_colsum(grad: &mut Matrix, rows: &Matrix) {
    for t in 0..rows.rows() {
        add_row(grad, rows.row(t));
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

    fn tiny_cfg() -> MoeModelConfig {
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

    fn batch() -> Vec<Vec<u16>> {
        vec![vec![1, 5, 9, 2, 7, 3], vec![4, 4, 8, 1, 0, 15]]
    }

    #[test]
    fn forward_is_deterministic() {
        let mut m1 = TinyMoeLm::new(tiny_cfg(), 3);
        let mut m2 = TinyMoeLm::new(tiny_cfg(), 3);
        let a = m1.evaluate(&batch());
        let b = m2.evaluate(&batch());
        assert_eq!(a, b);
        assert!(a.loss > 0.0);
    }

    #[test]
    fn expert_loads_counted() {
        let mut m = TinyMoeLm::new(tiny_cfg(), 3);
        let stats = m.evaluate(&batch());
        assert_eq!(stats.expert_loads.len(), 1);
        let total: u64 = stats.expert_loads[0].iter().sum();
        assert_eq!(total + stats.dropped_tokens, 12, "every token routed");
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut model = TinyMoeLm::new(tiny_cfg(), 7);
        model.gate_noise_std = 0.0;
        let data = batch();
        model.store_mut().zero_grads();
        model.forward_backward(&data, 0);

        // Check a handful of parameters from every module kind.
        let checks = [
            ("embedding/tok", 5usize),
            ("embedding/pos", 3),
            ("layer0.mix/w", 11),
            ("layer0.ffn/w1", 17),
            ("layer0.ffn/b2", 2),
            ("layer1.gate/w", 9),
        ];
        let eps = 3e-3f32;
        for (name, idx) in checks {
            let analytic = model.store().grad(name).data()[idx];
            let orig = model.store().value(name).data()[idx];
            let loss_at = |m: &mut TinyMoeLm, v: f32| {
                m.store_mut().value_mut(name).data_mut()[idx] = v;
                let s = m.evaluate(&data);
                m.store_mut().value_mut(name).data_mut()[idx] = orig;
                s.loss
            };
            let lp = loss_at(&mut model, orig + eps);
            let lm = loss_at(&mut model, orig - eps);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "{name}[{idx}]: finite-diff {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn expert_gradient_check() {
        // Dedicated check through the MoE path (gate prob scaling).
        let mut model = TinyMoeLm::new(tiny_cfg(), 11);
        model.gate_noise_std = 0.0;
        let data = batch();
        model.store_mut().zero_grads();
        model.forward_backward(&data, 0);
        // Find an expert that received tokens.
        let stats = model.evaluate(&data);
        let expert = stats.expert_loads[0]
            .iter()
            .position(|&c| c > 0)
            .expect("some expert used");
        let name = format!("layer1.expert{expert}/w1");
        let idx = 4;
        let analytic = model.store().grad(&name).data()[idx];
        let orig = model.store().value(&name).data()[idx];
        let eps = 3e-3f32;
        let mut eval_at = |v: f32| {
            model.store_mut().value_mut(&name).data_mut()[idx] = v;
            let l = model.evaluate(&data).loss;
            model.store_mut().value_mut(&name).data_mut()[idx] = orig;
            l
        };
        let fd = (eval_at(orig + eps) - eval_at(orig - eps)) / (2.0 * eps);
        assert!(
            (fd - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
            "{name}[{idx}]: fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn capacity_drops_tokens() {
        let cfg = MoeModelConfig::builder("cap")
            .num_layers(1)
            .hidden_size(8)
            .num_heads(2)
            .ffn_mult(2)
            .vocab_size(16)
            .max_seq_len(16)
            .moe_layer_indices(vec![0])
            .num_experts(4)
            .top_k(1)
            .capacity_factor(0.25)
            .build()
            .unwrap();
        let mut m = TinyMoeLm::new(cfg, 0);
        let stats = m.evaluate(&[vec![1u16; 16]]);
        // Capacity ceil(0.25·16/4) = 1 per expert: at most 4 of the 16
        // tokens can be accepted; position embeddings may split the
        // routing across a few experts.
        assert!(
            stats.dropped_tokens >= 12,
            "dropped {}",
            stats.dropped_tokens
        );
    }

    #[test]
    fn resolved_indices_name_the_tensors_they_stand_for() {
        let m = TinyMoeLm::new(moc_moe::presets::tiny_lm_8e(), 1);
        let name = |i: usize| m.store.params()[i].name.as_str();
        assert_eq!(name(TOK_EMB), "embedding/tok");
        assert_eq!(name(POS_EMB), "embedding/pos");
        let mut moe_seen = 0;
        for (layer, lp) in m.layers.iter().enumerate() {
            assert_eq!(name(lp.mix_w), format!("layer{layer}.mix/w"));
            assert_eq!(name(lp.mix_b()), format!("layer{layer}.mix/b"));
            let blocks: Vec<(String, FfnParams)> = if m.cfg.is_moe_layer(layer) {
                assert_eq!(lp.moe, Some(moe_seen));
                moe_seen += 1;
                assert_eq!(name(lp.gate_w()), format!("layer{layer}.gate/w"));
                assert_eq!(name(lp.gate_b()), format!("layer{layer}.gate/b"));
                (0..m.cfg.num_experts())
                    .map(|e| (format!("layer{layer}.expert{e}"), lp.expert(e)))
                    .collect()
            } else {
                assert_eq!(lp.moe, None);
                vec![(format!("layer{layer}.ffn"), lp.dense())]
            };
            for (module, ffn) in blocks {
                assert_eq!(name(ffn.w1), format!("{module}/w1"));
                assert_eq!(name(ffn.b1), format!("{module}/b1"));
                assert_eq!(name(ffn.w2), format!("{module}/w2"));
                assert_eq!(name(ffn.b2), format!("{module}/b2"));
            }
        }
        assert_eq!(moe_seen, m.cfg.num_moe_layers());
    }

    /// Everything a pass can observe or produce, as bit patterns.
    fn pass_bits(m: &mut TinyMoeLm, data: &[Vec<u16>], noise: u64) -> (BatchStats, Vec<u32>) {
        m.store_mut().zero_grads();
        let stats = m.forward_backward(data, noise);
        let grads = (m.store().params().iter())
            .flat_map(|p| p.grad.data().iter().map(|g| g.to_bits()))
            .collect();
        (stats, grads)
    }

    /// A freshly constructed model (empty transpose cache) loaded with
    /// `src`'s complete state through the checkpoint codec.
    fn fresh_copy_of(src: &TinyMoeLm) -> TinyMoeLm {
        use crate::checkpoint::{deserialize_module, serialize_module};
        use moc_store::StatePart;
        let mut fresh = TinyMoeLm::new(src.cfg.clone(), 999);
        fresh.gate_noise_std = src.gate_noise_std;
        for module in src.store().module_names() {
            for part in [StatePart::Weights, StatePart::Optimizer] {
                let bytes = serialize_module(src, &module, part);
                deserialize_module(&mut fresh, &module, part, &bytes);
            }
        }
        fresh
    }

    #[test]
    fn transposes_never_outlive_the_weights_they_were_built_from() {
        use crate::adam::{adam_step, AdamConfig};
        use crate::checkpoint::{deserialize_module, serialize_module};
        use moc_store::StatePart;
        let data = batch();
        let mut m = TinyMoeLm::new(tiny_cfg(), 21);
        let donor = TinyMoeLm::new(tiny_cfg(), 22);
        let expect_fresh = |m: &mut TinyMoeLm, how: &str| {
            let mut fresh = fresh_copy_of(m);
            let (want_stats, want_grads) = pass_bits(&mut fresh, &data, 5);
            let (got_stats, got_grads) = pass_bits(m, &data, 5);
            assert_eq!(got_stats.loss.to_bits(), want_stats.loss.to_bits(), "{how}");
            assert_eq!(got_stats, want_stats, "{how}");
            assert_eq!(got_grads, want_grads, "{how}");
        };
        // Warm the cache, then move the weights every way the system does.
        pass_bits(&mut m, &data, 5);
        adam_step(m.store_mut(), &AdamConfig::default());
        expect_fresh(&mut m, "after adam_step");
        // PEC partial restore: one expert rolls back to other weights.
        let expert = serialize_module(&donor, "layer1.expert2", StatePart::Weights);
        deserialize_module(&mut m, "layer1.expert2", StatePart::Weights, &expert);
        expect_fresh(&mut m, "after a one-expert restore");
        // Whole-state restore.
        for module in donor.store().module_names() {
            let bytes = serialize_module(&donor, &module, StatePart::Weights);
            deserialize_module(&mut m, &module, StatePart::Weights, &bytes);
        }
        expect_fresh(&mut m, "after a whole-state restore");
        // Direct pokes, as the finite-difference tests do — on every
        // tensor whose transpose is cached.
        for name in [
            "embedding/tok",
            "layer0.mix/w",
            "layer0.ffn/w1",
            "layer0.ffn/w2",
        ] {
            m.store_mut().value_mut(name).data_mut()[3] += 0.5;
        }
        for e in 0..4 {
            for w in ["w1", "w2"] {
                let name = format!("layer1.expert{e}/{w}");
                m.store_mut().value_mut(&name).data_mut()[5] -= 0.25;
            }
        }
        expect_fresh(&mut m, "after value_mut pokes");
        // Evaluation shares the cache with training passes.
        let eval = m.evaluate(&data);
        assert_eq!(eval, fresh_copy_of(&m).evaluate(&data));
    }

    #[test]
    fn clone_mid_training_steps_identically_to_its_source() {
        use crate::adam::{adam_step, AdamConfig};
        let data = batch();
        let mut m = TinyMoeLm::new(tiny_cfg(), 31);
        for it in 0..3 {
            pass_bits(&mut m, &data, it);
            adam_step(m.store_mut(), &AdamConfig::default());
        }
        // Clone between a pass and its optimizer step: the cache is warm.
        let warm = pass_bits(&mut m, &data, 9);
        let mut twin = m.clone();
        assert_eq!(pass_bits(&mut twin, &data, 9), warm);
        for it in 10..13 {
            adam_step(m.store_mut(), &AdamConfig::default());
            adam_step(twin.store_mut(), &AdamConfig::default());
            assert_eq!(
                pass_bits(&mut twin, &data, it),
                pass_bits(&mut m, &data, it)
            );
        }
        assert_eq!(twin.store(), m.store());
    }

    #[test]
    fn predict_next_returns_valid_token() {
        let mut m = TinyMoeLm::new(tiny_cfg(), 5);
        let tok = m.predict_next(&[1, 2, 3]);
        assert!((tok as usize) < m.config().vocab_size());
    }
}
