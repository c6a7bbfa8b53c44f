//! Minimal dense-matrix kernel for the training lab.
//!
//! The lab needs exactly the operations a manual-backprop MoE transformer
//! uses: one matrix product, elementwise combinators, and a numerically
//! stable softmax/cross-entropy pair. All storage is row-major `f32`.
//!
//! # The contract: reduction order is part of the result
//!
//! Every bitwise-identity test in this workspace (faulty run ≡ fault-free
//! run, ring ≡ hierarchical, recovered ≡ never failed) and the committed
//! `golden_bits` and run-level digests compare float bit patterns, and
//! float addition does not associate. So a kernel here may change *which
//! index is the SIMD lane*, never *the order of adds into one output
//! element*: each `out[i][j]` is `Σ_k a[i][k]·b[k][j]` accumulated from
//! `0.0` with `k` ascending, one rounded multiply and one rounded add per
//! term, no FMA, no partial sums.
//!
//! [`gemm`] is the only product loop. Its reduction index `k` is the
//! *outer* loop and the contiguous output index `j` the inner one, so the
//! compiler vectorises across `j` — independent accumulators — with plain
//! safe code, while each accumulator still sees its terms in order. A
//! product against a transposed operand (`x·Wᵀ`, every input-gradient in
//! the backward pass and the tied LM head) written the obvious way is a
//! serial dot product per output element, whose `acc += a·b` chain cannot
//! be vectorised without reordering; running the same kernel against a
//! [`Matrix::transposed`] copy of `W` gives every element the identical
//! add sequence with `j` as the lane. That is why the model keeps
//! per-pass transposes of its weights, and the only reason.

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` (`[m,k]·[k,n] → [m,n]`), skipping the terms of
    /// exactly-zero entries of `self` (post-ReLU activations are half
    /// zeros).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.product(other, true)
    }

    /// `self · other` with every term added, zero or not — the sequence a
    /// dot product per element performs. Called with a
    /// [`transposed`](Self::transposed) weight it computes `self · Wᵀ`.
    pub fn matmul_dense(&self, other: &Matrix) -> Matrix {
        self.product(other, false)
    }

    fn product(&self, other: &Matrix, skip_zero: bool) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm(
            &mut out.data,
            &self.data,
            &other.data,
            other.cols,
            skip_zero,
        );
        out
    }

    /// The transposed copy (`[m,n] → [n,m]`). `aᵀ·b` is
    /// `a.transposed().matmul(b)`.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for (j, &x) in self.row(i).iter().enumerate() {
                out.data[j * self.rows + i] = x;
            }
        }
        out
    }

    /// Adds `other` scaled by `alpha` in place.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.data.len(), other.data.len(), "axpy shape");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sets all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of squared elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }
}

/// The one product kernel: `out[i][:] += Σ_k a[i][k] · b[k][:]` with `k`
/// ascending, for row-major `a: [m,k]`, `b: [k,n]`, `out: [m,n]`.
///
/// `out` is accumulated into, not overwritten, so a caller can start a row
/// from a bias; `k = 1` makes it the outer-product update
/// `out[i][:] += a[i] · b[:]` of a weight gradient. With `skip_zero` the
/// terms of exactly-zero `a[i][k]` are not added at all (post-ReLU rows
/// are half zeros); without it every term is, as a dot product would.
///
/// # Panics
///
/// Panics if the slice lengths do not describe such a product.
pub fn gemm(out: &mut [f32], a: &[f32], b: &[f32], n: usize, skip_zero: bool) {
    assert!(n > 0, "gemm shape");
    let (m, k) = (out.len() / n, b.len() / n);
    assert!(
        out.len() == m * n && b.len() == k * n && a.len() == m * k,
        "gemm shape"
    );
    if k == 0 {
        return;
    }
    for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if skip_zero && av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// In-place ReLU; returns the activation mask needed by the backward pass.
pub fn relu_forward(x: &mut Matrix) -> Vec<bool> {
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
pub fn relu_backward(grad: &mut Matrix, mask: &[bool]) {
    assert_eq!(grad.len(), mask.len(), "mask shape");
    for (g, &m) in grad.data_mut().iter_mut().zip(mask) {
        if !m {
            *g = 0.0;
        }
    }
}

/// Stable softmax over a slice, in place.
pub fn softmax_inplace(xs: &mut [f32]) {
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
pub fn cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    let mut probs = logits.to_vec();
    softmax_inplace(&mut probs);
    let p = probs[target].max(1e-12);
    let loss = -p.ln();
    probs[target] -= 1.0;
    (loss, probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// Values whose products and partial sums all round, so a changed add
    /// order shows up in the low bits.
    fn awkward(rows: usize, cols: usize, salt: u32) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) >> 8;
                (x % 2001) as f32 * 1e-3 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn dense_product_against_a_transposed_copy_is_the_serial_dot_bitwise() {
        // `a · bᵀ` written the obvious way: one serial dot product per
        // output element.
        let a = awkward(5, 37, 1);
        let b = awkward(11, 37, 2);
        let fast = a.matmul_dense(&b.transposed());
        for i in 0..5 {
            for j in 0..11 {
                let mut acc = 0.0f32;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                assert_eq!(fast.at(i, j).to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn transposed_then_matmul_is_the_weight_gradient_product_bitwise() {
        // `aᵀ · b` written without a transpose: the shared row index
        // outermost, zero entries of `a` skipped.
        let mut a = awkward(9, 6, 3);
        *a.at_mut(4, 2) = 0.0;
        let b = awkward(9, 13, 4);
        let mut expect = Matrix::zeros(6, 13);
        for k in 0..9 {
            for i in 0..6 {
                if a.at(k, i) == 0.0 {
                    continue;
                }
                for j in 0..13 {
                    *expect.at_mut(i, j) += a.at(k, i) * b.at(k, j);
                }
            }
        }
        let got = a.transposed().matmul(&b);
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    fn gemm_accumulates_onto_a_bias_and_does_outer_products() {
        // Row started from a bias: bias first, then the terms in order.
        let mut out = vec![10.0f32, 20.0];
        gemm(
            &mut out,
            &[1.0, 2.0, 3.0],
            &[1.0, 0.5, 2.0, 1.0, 3.0, 1.5],
            2,
            false,
        );
        assert_eq!(out, [10.0 + 1.0 + 4.0 + 9.0, 20.0 + 0.5 + 2.0 + 4.5]);
        // k = 1: out[i][:] += a[i]·b[:], rows of zero a[i] untouched.
        let mut grad = vec![1.0f32; 6];
        gemm(&mut grad, &[2.0, 0.0, -1.0], &[0.5, 4.0], 2, true);
        assert_eq!(grad, [2.0, 9.0, 1.0, 1.0, 0.5, -3.0]);
    }

    #[test]
    fn skip_zero_only_differs_on_non_finite_operands() {
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 1, &[f32::INFINITY, 2.0]);
        assert_eq!(a.matmul(&b).data(), &[2.0]);
        assert!(a.matmul_dense(&b).data()[0].is_nan());
    }

    #[test]
    fn transposed_handles_degenerate_shapes() {
        assert_eq!(Matrix::zeros(0, 3).transposed(), Matrix::zeros(3, 0));
        assert_eq!(Matrix::zeros(3, 0).transposed(), Matrix::zeros(0, 3));
        let t = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).transposed();
        assert_eq!(t, m(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]));
    }

    #[test]
    fn relu_roundtrip() {
        let mut x = m(1, 4, &[-1.0, 2.0, 0.0, 3.0]);
        let mask = relu_forward(&mut x);
        assert_eq!(x.data(), &[0.0, 2.0, 0.0, 3.0]);
        assert_eq!(mask, vec![false, true, false, true]);
        let mut g = m(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        relu_backward(&mut g, &mask);
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_normalises() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let (loss, grad) = cross_entropy(&[0.0, 0.0], 0);
        assert!((loss - 0.5f32.ln().abs()).abs() < 1e-6);
        assert!((grad[0] + 0.5).abs() < 1e-6);
        assert!((grad[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = vec![0.3f32, -0.7, 1.1, 0.2];
        let target = 2;
        let (_, grad) = cross_entropy(&logits, target);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus[i] += eps;
            let mut minus = logits.clone();
            minus[i] -= eps;
            let (lp, _) = cross_entropy(&plus, target);
            let (lm, _) = cross_entropy(&minus, target);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 1e-3,
                "dim {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = m(1, 3, &[1.0, 1.0, 1.0]);
        let b = m(1, 3, &[2.0, 4.0, 6.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
