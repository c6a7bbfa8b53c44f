//! Checkpoint shard keys.
//!
//! The two-level checkpointing management of the paper (Section 5.1)
//! "utilizes key-value pairs for efficient retrieval from both memory and
//! distributed storage". A [`ShardKey`] names one saved unit of model
//! state: a module (expert or non-expert layer), which state category it
//! carries, and the training iteration it was captured at.
use std::fmt;

/// Which category of state a shard carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StatePart {
    /// Learnable weights (`B_w` bytes per parameter).
    Weights,
    /// Optimizer states (`B_o` bytes per parameter).
    Optimizer,
    /// Other crucial states: iteration counters, RNG states, … (<1% of a
    /// checkpoint, Fig. 2).
    Extra,
}

impl StatePart {
    /// Short stable tag used in file names and display output.
    pub fn tag(&self) -> &'static str {
        match self {
            StatePart::Weights => "w",
            StatePart::Optimizer => "o",
            StatePart::Extra => "x",
        }
    }

    /// All parts in serialization order.
    pub const ALL: [StatePart; 3] = [StatePart::Weights, StatePart::Optimizer, StatePart::Extra];
}

impl fmt::Display for StatePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Identity of one checkpoint shard.
///
/// # Examples
///
/// ```
/// use moc_store::{ShardKey, StatePart};
/// let key = ShardKey::new("layer3.expert5", StatePart::Optimizer, 2000);
/// assert_eq!(key.to_string(), "layer3.expert5@o:2000");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardKey {
    /// Module name (see `moc_moe::ModuleDesc::name`), e.g. `"layer3.expert5"`.
    pub module: String,
    /// State category.
    pub part: StatePart,
    /// Training iteration the state was captured at.
    pub version: u64,
}

impl ShardKey {
    /// Creates a shard key.
    pub fn new(module: impl Into<String>, part: StatePart, version: u64) -> Self {
        Self {
            module: module.into(),
            part,
            version,
        }
    }

    /// The `(module, part)` pair ignoring the version — the identity a
    /// store indexes by when looking up "latest".
    pub fn slot(&self) -> (&str, StatePart) {
        (&self.module, self.part)
    }

    /// A filesystem-safe encoding of the key.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .module
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}.{}.{:012}.shard", self.part.tag(), self.version)
    }
}

impl fmt::Display for ShardKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.module, self.part, self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_tags() {
        let k = ShardKey::new("embedding", StatePart::Weights, 7);
        assert_eq!(k.to_string(), "embedding@w:7");
        assert_eq!(StatePart::Extra.tag(), "x");
    }

    #[test]
    fn file_name_sanitizes() {
        let k = ShardKey::new("layer0/weird name", StatePart::Optimizer, 12);
        let f = k.file_name();
        assert!(!f.contains('/'));
        assert!(!f.contains(' '));
        assert!(f.ends_with(".shard"));
        assert!(f.contains(".o."));
    }

    #[test]
    fn slot_ignores_version() {
        let a = ShardKey::new("m", StatePart::Weights, 1);
        let b = ShardKey::new("m", StatePart::Weights, 2);
        assert_eq!(a.slot(), b.slot());
    }

    #[test]
    fn ordering_is_module_part_version() {
        let mut keys = [
            ShardKey::new("b", StatePart::Weights, 0),
            ShardKey::new("a", StatePart::Optimizer, 5),
            ShardKey::new("a", StatePart::Weights, 9),
        ];
        keys.sort();
        assert_eq!(keys[0].module, "a");
        assert_eq!(keys[0].part, StatePart::Weights);
    }
}
