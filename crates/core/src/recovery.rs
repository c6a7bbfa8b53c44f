//! Two-level recovery planning — Section 5.1 and Fig. 8.
//!
//! After a fault, every module must be restored from the freshest source
//! still holding it: faulted nodes lost their CPU memory and must read
//! persistent storage; healthy nodes can restore from their in-memory
//! snapshots, which may hold *newer* expert states than storage
//! (snapshot-PEC saves more experts than persist-PEC), reducing both
//! restore traffic and PLT.

use moc_store::{ClusterMemory, NodeId, ObjectStore, StatePart, StoreError};
use std::fmt;

/// Where a module's freshest recoverable state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// In the CPU memory of a healthy node.
    Memory {
        /// The node holding the snapshot.
        node: usize,
    },
    /// In persistent storage.
    Storage,
}

/// One restore action of a recovery plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAction {
    /// Module to restore.
    pub module: String,
    /// State category.
    pub part: StatePart,
    /// Version (iteration) that will be restored.
    pub version: u64,
    /// Where the bytes come from.
    pub source: RecoverySource,
}

/// A complete recovery plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Iteration training resumes from (the recovery baseline `r`).
    pub resume_iteration: u64,
    /// Restore actions, one per requested module slot.
    pub actions: Vec<RecoveryAction>,
}

impl RecoveryPlan {
    /// Actions restored from memory.
    pub fn memory_actions(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a.source, RecoverySource::Memory { .. }))
            .count()
    }

    /// Actions restored from storage.
    pub fn storage_actions(&self) -> usize {
        self.actions.len() - self.memory_actions()
    }

    /// Sum over actions of `resume_iteration - version`: the total
    /// staleness recovery could not avoid (drives PLT).
    pub fn total_staleness(&self) -> u64 {
        self.actions
            .iter()
            .map(|a| self.resume_iteration.saturating_sub(a.version))
            .sum()
    }
}

/// Error building a recovery plan.
#[derive(Debug)]
pub enum RecoveryError {
    /// A module has no recoverable state anywhere.
    Unrecoverable {
        /// The module missing from every source.
        module: String,
        /// Its state category.
        part: StatePart,
    },
    /// The object store failed.
    Store(StoreError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Unrecoverable { module, part } => {
                write!(f, "no recoverable state for {module}@{part}")
            }
            RecoveryError::Store(e) => write!(f, "recovery store failure: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for RecoveryError {
    fn from(e: StoreError) -> Self {
        RecoveryError::Store(e)
    }
}

/// Plans recovery of the given module slots after a fault.
///
/// * `slots` — `(module, part)` pairs that must be restored, with the node
///   that owns each module's snapshot (or `None` if the module is only in
///   storage).
/// * `healthy` — per-node health mask after the fault.
/// * `at_iteration` — upper bound on restorable versions (the iteration
///   the fault struck).
/// * `two_level` — whether in-memory snapshots may serve recovery.
///
/// # Errors
///
/// [`RecoveryError::Unrecoverable`] if neither memory nor storage holds a
/// module, or a store error.
pub fn plan_recovery(
    slots: &[(String, StatePart)],
    memory: &ClusterMemory,
    store: &dyn ObjectStore,
    healthy: &[bool],
    at_iteration: u64,
    two_level: bool,
) -> Result<RecoveryPlan, RecoveryError> {
    let mut actions = Vec::with_capacity(slots.len());
    let mut resume = u64::MAX;
    for (module, part) in slots {
        let storage_version = store.latest_version(module, *part, at_iteration)?;
        let memory_hit = if two_level {
            memory
                .newest_across(module, *part, healthy)
                .filter(|&(_, v)| v <= at_iteration)
        } else {
            None
        };
        let (version, source) = match (memory_hit, storage_version) {
            (Some((node, mv)), Some(sv)) if mv >= sv => {
                (mv, RecoverySource::Memory { node: node.0 })
            }
            (Some((node, mv)), None) => (mv, RecoverySource::Memory { node: node.0 }),
            (_, Some(sv)) => (sv, RecoverySource::Storage),
            (None, None) => {
                return Err(RecoveryError::Unrecoverable {
                    module: module.clone(),
                    part: *part,
                })
            }
        };
        resume = resume.min(version);
        actions.push(RecoveryAction {
            module: module.clone(),
            part: *part,
            version,
            source,
        });
    }
    // Training resumes from the newest iteration at which the *non-expert*
    // state is complete; under PEC the non-expert part is saved at every
    // checkpoint, so the max version across actions is that iteration.
    // Experts restored to older versions are exactly the PLT loss.
    let resume_iteration = actions.iter().map(|a| a.version).max().unwrap_or(0);
    Ok(RecoveryPlan {
        resume_iteration,
        actions,
    })
}

/// Fetches a planned action's payload bytes.
///
/// # Errors
///
/// [`RecoveryError::Unrecoverable`] if the source no longer holds the
/// shard (e.g. pruned between planning and fetching).
pub fn fetch_action(
    action: &RecoveryAction,
    memory: &ClusterMemory,
    store: &dyn ObjectStore,
) -> Result<bytes::Bytes, RecoveryError> {
    match action.source {
        RecoverySource::Memory { node } => memory
            .node(NodeId(node))
            .get(&action.module, action.part)
            .filter(|(v, _)| *v == action.version)
            .map(|(_, b)| b)
            .ok_or_else(|| RecoveryError::Unrecoverable {
                module: action.module.clone(),
                part: action.part,
            }),
        RecoverySource::Storage => {
            let key = moc_store::ShardKey::new(&action.module, action.part, action.version);
            store
                .get(&key)?
                .ok_or_else(|| RecoveryError::Unrecoverable {
                    module: action.module.clone(),
                    part: action.part,
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use moc_store::{MemoryObjectStore, ShardKey};

    fn setup() -> (ClusterMemory, MemoryObjectStore) {
        let memory = ClusterMemory::new(2);
        let store = MemoryObjectStore::new();
        // Storage has everything at version 10; node 1 memory has e1 at 20.
        for m in ["ne", "e0", "e1"] {
            store
                .put(
                    &ShardKey::new(m, StatePart::Weights, 10),
                    Bytes::from_static(b"old"),
                )
                .unwrap();
        }
        memory.node(NodeId(0)).put(
            &ShardKey::new("e0", StatePart::Weights, 20),
            Bytes::from_static(b"new0"),
        );
        memory.node(NodeId(1)).put(
            &ShardKey::new("e1", StatePart::Weights, 20),
            Bytes::from_static(b"new1"),
        );
        (memory, store)
    }

    fn slots() -> Vec<(String, StatePart)> {
        ["ne", "e0", "e1"]
            .iter()
            .map(|m| (m.to_string(), StatePart::Weights))
            .collect()
    }

    #[test]
    fn two_level_prefers_memory_on_healthy_nodes() {
        let (memory, store) = setup();
        // Node 0 died.
        let plan = plan_recovery(&slots(), &memory, &store, &[false, true], 25, true).unwrap();
        let by_module: std::collections::HashMap<_, _> = plan
            .actions
            .iter()
            .map(|a| (a.module.as_str(), a))
            .collect();
        // e0's snapshot died with node 0 -> storage at v10.
        assert_eq!(by_module["e0"].source, RecoverySource::Storage);
        assert_eq!(by_module["e0"].version, 10);
        // e1 recovers from node 1 memory at v20.
        assert_eq!(by_module["e1"].source, RecoverySource::Memory { node: 1 });
        assert_eq!(by_module["e1"].version, 20);
        assert_eq!(plan.memory_actions(), 1);
        assert_eq!(plan.storage_actions(), 2);
    }

    #[test]
    fn storage_only_ignores_memory() {
        let (memory, store) = setup();
        let plan = plan_recovery(&slots(), &memory, &store, &[true, true], 25, false).unwrap();
        assert!(plan
            .actions
            .iter()
            .all(|a| a.source == RecoverySource::Storage));
        assert!(plan.total_staleness() == 0); // everything at v10, resume at 10
    }

    #[test]
    fn two_level_reduces_staleness() {
        let (memory, store) = setup();
        let two = plan_recovery(&slots(), &memory, &store, &[false, true], 25, true).unwrap();
        let one = plan_recovery(&slots(), &memory, &store, &[false, true], 25, false).unwrap();
        // With memory, e1 restores at 20 while resume sits at 20: the
        // stale modules are ne and e0 (10 each behind).
        assert_eq!(two.resume_iteration, 20);
        assert_eq!(one.resume_iteration, 10);
        assert!(two.memory_actions() > 0);
        assert_eq!(one.memory_actions(), 0);
    }

    #[test]
    fn at_iteration_bounds_versions() {
        let (memory, store) = setup();
        // A fault at iteration 15 cannot use the v20 snapshots.
        let plan = plan_recovery(&slots(), &memory, &store, &[true, true], 15, true).unwrap();
        assert!(plan.actions.iter().all(|a| a.version <= 15));
    }

    #[test]
    fn unrecoverable_module_errors() {
        let (memory, store) = setup();
        let missing = vec![("ghost".to_string(), StatePart::Optimizer)];
        let err = plan_recovery(&missing, &memory, &store, &[true, true], 99, true);
        assert!(matches!(err, Err(RecoveryError::Unrecoverable { .. })));
    }

    #[test]
    fn fetch_returns_planned_bytes() {
        let (memory, store) = setup();
        let plan = plan_recovery(&slots(), &memory, &store, &[true, true], 25, true).unwrap();
        for action in &plan.actions {
            let bytes = fetch_action(action, &memory, &store).unwrap();
            match action.source {
                RecoverySource::Memory { .. } => {
                    assert!(bytes.starts_with(b"new"));
                }
                RecoverySource::Storage => assert_eq!(&bytes[..], b"old"),
            }
        }
    }

    #[test]
    fn memory_only_module_recovers_from_memory() {
        let memory = ClusterMemory::new(1);
        let store = MemoryObjectStore::new();
        memory.node(NodeId(0)).put(
            &ShardKey::new("only-mem", StatePart::Weights, 5),
            Bytes::from_static(b"m"),
        );
        let plan = plan_recovery(
            &[("only-mem".to_string(), StatePart::Weights)],
            &memory,
            &store,
            &[true],
            10,
            true,
        )
        .unwrap();
        assert_eq!(plan.actions[0].source, RecoverySource::Memory { node: 0 });
    }
}
