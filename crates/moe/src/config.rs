//! Architecture configuration for sparse Mixture-of-Experts transformer models.
//!
//! A [`MoeModelConfig`] describes everything the checkpointing system needs to
//! know about a model: its layer structure, which feed-forward sublayers are
//! replaced by MoE layers, how many experts each MoE layer holds, and how many
//! bytes each parameter contributes to a checkpoint (weight bytes `B_w` and
//! optimizer-state bytes `B_o`, following Eq. 5 of the paper).
use std::fmt;

/// Bytes contributed by a single parameter to a checkpoint.
///
/// The paper's setting (Megatron-DeepSpeed mixed-precision training with
/// Adam) stores bf16 weights (2 bytes) and fp32 optimizer states — master
/// weight, first moment and second moment (12 bytes) — reproducing the
/// checkpoint composition of Fig. 2 (≈12% expert weights, 2% non-expert
/// weights, 74% expert optimizer, 12% non-expert optimizer for
/// GPT-350M-16E).
///
/// # Examples
///
/// ```
/// use moc_moe::StateBytes;
/// let b = StateBytes::MIXED_PRECISION_ADAM;
/// assert_eq!(b.weight, 2);
/// assert_eq!(b.optimizer, 12);
/// assert_eq!(b.total(), 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateBytes {
    /// Bytes per parameter for the learnable weight (`B_w`).
    pub weight: u64,
    /// Bytes per parameter for the optimizer state (`B_o`).
    pub optimizer: u64,
}

impl StateBytes {
    /// bf16 weights + fp32 Adam (master weight, momentum, variance).
    pub const MIXED_PRECISION_ADAM: StateBytes = StateBytes {
        weight: 2,
        optimizer: 12,
    };

    /// fp32 weights + fp32 Adam moments (no separate master copy).
    pub const FP32_ADAM: StateBytes = StateBytes {
        weight: 4,
        optimizer: 8,
    };

    /// Creates a new byte description.
    pub fn new(weight: u64, optimizer: u64) -> Self {
        Self { weight, optimizer }
    }

    /// Total bytes per parameter (`B_w + B_o`).
    pub fn total(&self) -> u64 {
        self.weight + self.optimizer
    }
}

impl Default for StateBytes {
    fn default() -> Self {
        Self::MIXED_PRECISION_ADAM
    }
}

/// Error returned when a [`MoeModelConfigBuilder`] describes an invalid model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural field was zero that must be positive.
    ZeroField(&'static str),
    /// An MoE layer index referenced a transformer layer that does not exist.
    MoeLayerOutOfRange {
        /// The offending MoE layer index.
        index: usize,
        /// The model's layer count.
        num_layers: usize,
    },
    /// The same transformer layer was marked MoE twice.
    DuplicateMoeLayer(usize),
    /// `top_k` exceeds the number of experts.
    TopKTooLarge {
        /// The requested gate fan-out.
        top_k: usize,
        /// The configured expert count.
        num_experts: usize,
    },
    /// Hidden size is not divisible by the number of attention heads.
    HeadsDoNotDivideHidden {
        /// The hidden dimension.
        hidden: usize,
        /// The head count.
        heads: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField(name) => write!(f, "field `{name}` must be positive"),
            ConfigError::MoeLayerOutOfRange { index, num_layers } => write!(
                f,
                "moe layer index {index} out of range for {num_layers} layers"
            ),
            ConfigError::DuplicateMoeLayer(i) => write!(f, "duplicate moe layer index {i}"),
            ConfigError::TopKTooLarge { top_k, num_experts } => {
                write!(f, "top_k {top_k} exceeds expert count {num_experts}")
            }
            ConfigError::HeadsDoNotDivideHidden { hidden, heads } => {
                write!(f, "hidden size {hidden} not divisible by {heads} heads")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete architectural description of a sparse-MoE transformer.
///
/// Construct via [`MoeModelConfig::builder`] or use a preset from
/// [`crate::presets`].
///
/// # Examples
///
/// ```
/// use moc_moe::MoeModelConfig;
/// let cfg = MoeModelConfig::builder("tiny")
///     .num_layers(4)
///     .hidden_size(64)
///     .num_heads(4)
///     .vocab_size(512)
///     .max_seq_len(128)
///     .moe_every_other_layer()
///     .num_experts(8)
///     .top_k(2)
///     .build()?;
/// assert_eq!(cfg.moe_layer_indices(), &[1, 3]);
/// assert_eq!(cfg.num_moe_layers(), 2);
/// # Ok::<(), moc_moe::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MoeModelConfig {
    name: String,
    num_layers: usize,
    hidden_size: usize,
    num_heads: usize,
    ffn_mult: usize,
    vocab_size: usize,
    max_seq_len: usize,
    moe_layer_indices: Vec<usize>,
    num_experts: usize,
    top_k: usize,
    capacity_factor: f64,
    bytes: StateBytes,
}

impl MoeModelConfig {
    /// Starts building a configuration with the given model name.
    pub fn builder(name: impl Into<String>) -> MoeModelConfigBuilder {
        MoeModelConfigBuilder::new(name)
    }

    /// Human-readable model name (e.g. `"GPT-350M-16E"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of transformer layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Model (hidden) dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head dimension (`hidden_size / num_heads`).
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// FFN intermediate-size multiplier (intermediate = `ffn_mult * hidden`).
    pub fn ffn_mult(&self) -> usize {
        self.ffn_mult
    }

    /// FFN intermediate dimension.
    pub fn ffn_intermediate(&self) -> usize {
        self.ffn_mult * self.hidden_size
    }

    /// Vocabulary size (token embedding rows).
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Maximum (trained) sequence length; sizes the position embedding.
    pub fn max_seq_len(&self) -> usize {
        self.max_seq_len
    }

    /// Indices (into `0..num_layers`) of layers whose FFN is an MoE layer.
    pub fn moe_layer_indices(&self) -> &[usize] {
        &self.moe_layer_indices
    }

    /// Number of MoE layers (`N_moe` in the paper).
    pub fn num_moe_layers(&self) -> usize {
        self.moe_layer_indices.len()
    }

    /// Experts per MoE layer (`N` in the paper).
    pub fn num_experts(&self) -> usize {
        self.num_experts
    }

    /// Experts activated per token by the gate (`TopK` in Eq. 7).
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Expert capacity factor controlling token dropping (Section 3.1.2).
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Checkpoint byte contributions per parameter.
    pub fn bytes(&self) -> StateBytes {
        self.bytes
    }

    /// Returns `true` if the layer at `index` hosts an MoE FFN.
    pub fn is_moe_layer(&self, index: usize) -> bool {
        self.moe_layer_indices.binary_search(&index).is_ok()
    }

    /// Position of `layer` among the MoE layers (the `l` of sequential
    /// selection), or `None` for dense layers.
    pub fn moe_layer_position(&self, layer: usize) -> Option<usize> {
        self.moe_layer_indices.binary_search(&layer).ok()
    }

    /// Total number of experts across all MoE layers.
    pub fn total_experts(&self) -> usize {
        self.num_moe_layers() * self.num_experts
    }
}

/// Builder for [`MoeModelConfig`]; see [`MoeModelConfig::builder`].
#[derive(Debug, Clone)]
pub struct MoeModelConfigBuilder {
    name: String,
    num_layers: usize,
    hidden_size: usize,
    num_heads: usize,
    ffn_mult: usize,
    vocab_size: usize,
    max_seq_len: usize,
    moe_layers: MoeLayerSpec,
    num_experts: usize,
    top_k: usize,
    capacity_factor: f64,
    bytes: StateBytes,
}

#[derive(Debug, Clone)]
enum MoeLayerSpec {
    EveryOther,
    Every(usize),
    Explicit(Vec<usize>),
    None,
}

impl MoeModelConfigBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            num_layers: 12,
            hidden_size: 768,
            num_heads: 12,
            ffn_mult: 4,
            vocab_size: 50_257,
            max_seq_len: 2048,
            moe_layers: MoeLayerSpec::EveryOther,
            num_experts: 8,
            top_k: 1,
            capacity_factor: 1.0,
            bytes: StateBytes::MIXED_PRECISION_ADAM,
        }
    }

    /// Sets the number of transformer layers.
    pub fn num_layers(mut self, n: usize) -> Self {
        self.num_layers = n;
        self
    }

    /// Sets the hidden (model) dimension.
    pub fn hidden_size(mut self, h: usize) -> Self {
        self.hidden_size = h;
        self
    }

    /// Sets the number of attention heads.
    pub fn num_heads(mut self, h: usize) -> Self {
        self.num_heads = h;
        self
    }

    /// Sets the FFN intermediate multiplier (default 4).
    pub fn ffn_mult(mut self, m: usize) -> Self {
        self.ffn_mult = m;
        self
    }

    /// Sets the vocabulary size.
    pub fn vocab_size(mut self, v: usize) -> Self {
        self.vocab_size = v;
        self
    }

    /// Sets the maximum sequence length.
    pub fn max_seq_len(mut self, s: usize) -> Self {
        self.max_seq_len = s;
        self
    }

    /// Places an MoE layer at every other transformer layer (odd indices),
    /// the GPT-MoE convention used by DeepSpeed-MoE.
    pub fn moe_every_other_layer(mut self) -> Self {
        self.moe_layers = MoeLayerSpec::EveryOther;
        self
    }

    /// Places an MoE layer every `stride` layers starting at `stride - 1`.
    pub fn moe_every(mut self, stride: usize) -> Self {
        self.moe_layers = MoeLayerSpec::Every(stride);
        self
    }

    /// Uses an explicit list of MoE layer indices.
    pub fn moe_layer_indices(mut self, indices: Vec<usize>) -> Self {
        self.moe_layers = MoeLayerSpec::Explicit(indices);
        self
    }

    /// Builds a dense model with no MoE layers.
    pub fn dense(mut self) -> Self {
        self.moe_layers = MoeLayerSpec::None;
        self
    }

    /// Sets the number of experts per MoE layer.
    pub fn num_experts(mut self, n: usize) -> Self {
        self.num_experts = n;
        self
    }

    /// Sets the gate's top-k.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Sets the expert capacity factor.
    pub fn capacity_factor(mut self, c: f64) -> Self {
        self.capacity_factor = c;
        self
    }

    /// Sets the per-parameter checkpoint byte contributions.
    pub fn bytes(mut self, b: StateBytes) -> Self {
        self.bytes = b;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any structural field is zero, an MoE
    /// layer index is out of range or duplicated, `top_k > num_experts`, or
    /// the head count does not divide the hidden size.
    pub fn build(self) -> Result<MoeModelConfig, ConfigError> {
        if self.num_layers == 0 {
            return Err(ConfigError::ZeroField("num_layers"));
        }
        if self.hidden_size == 0 {
            return Err(ConfigError::ZeroField("hidden_size"));
        }
        if self.num_heads == 0 {
            return Err(ConfigError::ZeroField("num_heads"));
        }
        if self.vocab_size == 0 {
            return Err(ConfigError::ZeroField("vocab_size"));
        }
        if self.max_seq_len == 0 {
            return Err(ConfigError::ZeroField("max_seq_len"));
        }
        if self.ffn_mult == 0 {
            return Err(ConfigError::ZeroField("ffn_mult"));
        }
        if !self.hidden_size.is_multiple_of(self.num_heads) {
            return Err(ConfigError::HeadsDoNotDivideHidden {
                hidden: self.hidden_size,
                heads: self.num_heads,
            });
        }
        let mut indices = match self.moe_layers {
            MoeLayerSpec::EveryOther => (0..self.num_layers).filter(|i| i % 2 == 1).collect(),
            MoeLayerSpec::Every(stride) => {
                if stride == 0 {
                    return Err(ConfigError::ZeroField("moe stride"));
                }
                (0..self.num_layers)
                    .filter(|i| i % stride == stride - 1)
                    .collect()
            }
            MoeLayerSpec::Explicit(v) => v,
            MoeLayerSpec::None => Vec::new(),
        };
        indices.sort_unstable();
        for pair in indices.windows(2) {
            if pair[0] == pair[1] {
                return Err(ConfigError::DuplicateMoeLayer(pair[0]));
            }
        }
        if let Some(&max) = indices.last() {
            if max >= self.num_layers {
                return Err(ConfigError::MoeLayerOutOfRange {
                    index: max,
                    num_layers: self.num_layers,
                });
            }
        }
        if !indices.is_empty() {
            if self.num_experts == 0 {
                return Err(ConfigError::ZeroField("num_experts"));
            }
            if self.top_k == 0 {
                return Err(ConfigError::ZeroField("top_k"));
            }
            if self.top_k > self.num_experts {
                return Err(ConfigError::TopKTooLarge {
                    top_k: self.top_k,
                    num_experts: self.num_experts,
                });
            }
        }
        Ok(MoeModelConfig {
            name: self.name,
            num_layers: self.num_layers,
            hidden_size: self.hidden_size,
            num_heads: self.num_heads,
            ffn_mult: self.ffn_mult,
            vocab_size: self.vocab_size,
            max_seq_len: self.max_seq_len,
            moe_layer_indices: indices,
            num_experts: self.num_experts,
            top_k: self.top_k,
            capacity_factor: self.capacity_factor,
            bytes: self.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_produce_every_other_moe() {
        let cfg = MoeModelConfig::builder("t").build().unwrap();
        assert_eq!(cfg.moe_layer_indices(), &[1, 3, 5, 7, 9, 11]);
        assert_eq!(cfg.num_moe_layers(), 6);
        assert!(cfg.is_moe_layer(1));
        assert!(!cfg.is_moe_layer(0));
    }

    #[test]
    fn moe_layer_position_is_rank_among_moe_layers() {
        let cfg = MoeModelConfig::builder("t").build().unwrap();
        assert_eq!(cfg.moe_layer_position(1), Some(0));
        assert_eq!(cfg.moe_layer_position(3), Some(1));
        assert_eq!(cfg.moe_layer_position(0), None);
    }

    #[test]
    fn zero_layers_rejected() {
        let err = MoeModelConfig::builder("t").num_layers(0).build();
        assert_eq!(err, Err(ConfigError::ZeroField("num_layers")));
    }

    #[test]
    fn top_k_exceeding_experts_rejected() {
        let err = MoeModelConfig::builder("t").num_experts(4).top_k(5).build();
        assert_eq!(
            err,
            Err(ConfigError::TopKTooLarge {
                top_k: 5,
                num_experts: 4
            })
        );
    }

    #[test]
    fn out_of_range_moe_index_rejected() {
        let err = MoeModelConfig::builder("t")
            .num_layers(4)
            .moe_layer_indices(vec![1, 9])
            .build();
        assert_eq!(
            err,
            Err(ConfigError::MoeLayerOutOfRange {
                index: 9,
                num_layers: 4
            })
        );
    }

    #[test]
    fn duplicate_moe_index_rejected() {
        let err = MoeModelConfig::builder("t")
            .moe_layer_indices(vec![1, 1])
            .build();
        assert_eq!(err, Err(ConfigError::DuplicateMoeLayer(1)));
    }

    #[test]
    fn heads_must_divide_hidden() {
        let err = MoeModelConfig::builder("t")
            .hidden_size(100)
            .num_heads(3)
            .build();
        assert!(matches!(
            err,
            Err(ConfigError::HeadsDoNotDivideHidden { .. })
        ));
    }

    #[test]
    fn dense_model_has_no_experts() {
        let cfg = MoeModelConfig::builder("d").dense().build().unwrap();
        assert_eq!(cfg.num_moe_layers(), 0);
        assert_eq!(cfg.total_experts(), 0);
    }

    #[test]
    fn moe_every_stride() {
        let cfg = MoeModelConfig::builder("t")
            .num_layers(9)
            .moe_every(3)
            .build()
            .unwrap();
        assert_eq!(cfg.moe_layer_indices(), &[2, 5, 8]);
    }

    #[test]
    fn state_bytes_total() {
        assert_eq!(StateBytes::MIXED_PRECISION_ADAM.total(), 14);
        assert_eq!(StateBytes::FP32_ADAM.total(), 12);
        assert_eq!(StateBytes::default(), StateBytes::MIXED_PRECISION_ADAM);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ConfigError::TopKTooLarge {
            top_k: 3,
            num_experts: 2,
        };
        assert!(e.to_string().contains("top_k 3"));
    }
}
