//! Triple buffering for asynchronous two-level checkpointing — Fig. 9.
//!
//! In the paper's per-node agent (Section 5.2), three buffers cycle
//! through statuses:
//!
//! ```text
//! Free ──begin_snapshot──▶ Snapshotting ──finish_snapshot──▶ Ready
//!   ▲                                                          │
//!   │                            (no buffer persisting) ───────┤
//!   │                                                          ▼
//!   └──(demoted when a newer persist completes)── Recovery ◀── Persisting
//! ```
//!
//! Invariants enforced (and property-tested):
//! * at most one buffer is `Persisting` at any time;
//! * at most one buffer is `Recovery` (the latest persisted checkpoint);
//! * a snapshot can only start into a `Free` buffer — if none is free the
//!   caller must stall (the checkpoint stall "S" of Fig. 3).
use std::fmt;

/// Index of one of the three buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub usize);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0 + 1)
    }
}

/// Lifecycle status of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferState {
    /// Empty / reusable ("snapshot status" in Fig. 9).
    Free,
    /// A GPU→CPU snapshot is being written into it.
    Snapshotting,
    /// Snapshot complete, waiting for the persist slot.
    Ready,
    /// Being written to persistent storage.
    Persisting,
    /// Holds the latest persisted checkpoint available for recovery.
    Recovery,
}

/// Error from an invalid buffer transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// No `Free` buffer: the snapshot must stall.
    NoFreeBuffer,
    /// The buffer was not in the state the transition requires.
    WrongState {
        /// The buffer concerned.
        buffer: BufferId,
        /// The state it was in.
        actual: BufferState,
        /// The state the transition requires.
        required: BufferState,
    },
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::NoFreeBuffer => write!(f, "no free buffer: checkpoint stall"),
            BufferError::WrongState {
                buffer,
                actual,
                required,
            } => write!(
                f,
                "buffer {buffer} is {actual:?}, transition requires {required:?}"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

/// What `finish_snapshot` decided about the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotOutcome {
    /// The persist slot was free: the buffer moved straight to
    /// `Persisting`; the caller should start persisting it now.
    StartPersist(BufferId),
    /// Another buffer is persisting: this one waits in `Ready`.
    Queued(BufferId),
}

/// The triple-buffer state machine of one node agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleBuffer {
    states: [BufferState; 3],
    /// Versions (checkpoint iterations) held by each buffer, for recovery
    /// bookkeeping.
    versions: [u64; 3],
}

impl Default for TripleBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TripleBuffer {
    /// Creates the machine with all buffers `Free` (Fig. 9's initial
    /// "snapshot status").
    pub fn new() -> Self {
        Self {
            states: [BufferState::Free; 3],
            versions: [0; 3],
        }
    }

    /// Current state of a buffer.
    pub fn state(&self, id: BufferId) -> BufferState {
        self.states[id.0]
    }

    /// The version a buffer holds (meaningful outside `Free`).
    pub fn version(&self, id: BufferId) -> u64 {
        self.versions[id.0]
    }

    /// The buffer holding the latest persisted checkpoint, if any.
    pub fn recovery_buffer(&self) -> Option<BufferId> {
        self.states
            .iter()
            .position(|&s| s == BufferState::Recovery)
            .map(BufferId)
    }

    /// The buffer currently persisting, if any.
    pub fn persisting_buffer(&self) -> Option<BufferId> {
        self.states
            .iter()
            .position(|&s| s == BufferState::Persisting)
            .map(BufferId)
    }

    /// Whether a snapshot could start right now without stalling.
    pub fn can_begin_snapshot(&self) -> bool {
        self.states.contains(&BufferState::Free)
    }

    /// Claims a `Free` buffer for an incoming snapshot of `version`.
    ///
    /// # Errors
    ///
    /// [`BufferError::NoFreeBuffer`] when all buffers are busy — the
    /// training step must stall until one frees up.
    pub fn begin_snapshot(&mut self, version: u64) -> Result<BufferId, BufferError> {
        let idx = self
            .states
            .iter()
            .position(|&s| s == BufferState::Free)
            .ok_or(BufferError::NoFreeBuffer)?;
        self.states[idx] = BufferState::Snapshotting;
        self.versions[idx] = version;
        Ok(BufferId(idx))
    }

    /// Completes the snapshot into `id`. If no buffer is persisting, the
    /// buffer proceeds straight to `Persisting` (Fig. 9: "snapshot finish
    /// & no persist buffer"); otherwise it queues in `Ready`.
    ///
    /// # Errors
    ///
    /// [`BufferError::WrongState`] if the buffer was not `Snapshotting`.
    pub fn finish_snapshot(&mut self, id: BufferId) -> Result<SnapshotOutcome, BufferError> {
        self.expect(id, BufferState::Snapshotting)?;
        if self.persisting_buffer().is_none() {
            self.states[id.0] = BufferState::Persisting;
            Ok(SnapshotOutcome::StartPersist(id))
        } else {
            self.states[id.0] = BufferState::Ready;
            Ok(SnapshotOutcome::Queued(id))
        }
    }

    /// Completes the persist of `id`: the buffer becomes the `Recovery`
    /// buffer (demoting the previous one to `Free`), and the oldest
    /// `Ready` buffer — if any — is promoted to `Persisting` and returned
    /// so the caller can start its persist (Fig. 9: "another persist
    /// finish").
    ///
    /// # Errors
    ///
    /// [`BufferError::WrongState`] if the buffer was not `Persisting`.
    pub fn finish_persist(&mut self, id: BufferId) -> Result<Option<BufferId>, BufferError> {
        self.expect(id, BufferState::Persisting)?;
        if let Some(old) = self.recovery_buffer() {
            self.states[old.0] = BufferState::Free;
        }
        self.states[id.0] = BufferState::Recovery;
        // Promote the oldest Ready buffer (smallest version) next.
        let next = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == BufferState::Ready)
            .min_by_key(|(i, _)| self.versions[*i])
            .map(|(i, _)| BufferId(i));
        if let Some(n) = next {
            self.states[n.0] = BufferState::Persisting;
        }
        Ok(next)
    }

    /// Checks the structural invariants; used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let persisting = self
            .states
            .iter()
            .filter(|&&s| s == BufferState::Persisting)
            .count();
        if persisting > 1 {
            return Err(format!("{persisting} buffers persisting"));
        }
        let recovery = self
            .states
            .iter()
            .filter(|&&s| s == BufferState::Recovery)
            .count();
        if recovery > 1 {
            return Err(format!("{recovery} recovery buffers"));
        }
        Ok(())
    }

    fn expect(&self, id: BufferId, required: BufferState) -> Result<(), BufferError> {
        let actual = self.states[id.0];
        if actual != required {
            return Err(BufferError::WrongState {
                buffer: id,
                actual,
                required,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_all_free() {
        let tb = TripleBuffer::new();
        assert!(tb.can_begin_snapshot());
        assert_eq!(tb.recovery_buffer(), None);
        assert_eq!(tb.persisting_buffer(), None);
    }

    #[test]
    fn fig9_happy_path() {
        let mut tb = TripleBuffer::new();
        // Checkpoint 1: snapshot then immediate persist.
        let b1 = tb.begin_snapshot(10).unwrap();
        assert_eq!(tb.state(b1), BufferState::Snapshotting);
        let out = tb.finish_snapshot(b1).unwrap();
        assert_eq!(out, SnapshotOutcome::StartPersist(b1));
        // Checkpoint 2 snapshots while 1 persists.
        let b2 = tb.begin_snapshot(20).unwrap();
        let out = tb.finish_snapshot(b2).unwrap();
        assert_eq!(out, SnapshotOutcome::Queued(b2));
        // Persist of 1 completes: 1 becomes recovery, 2 starts persisting.
        let next = tb.finish_persist(b1).unwrap();
        assert_eq!(next, Some(b2));
        assert_eq!(tb.recovery_buffer(), Some(b1));
        assert_eq!(tb.version(b1), 10);
        // Persist of 2 completes: 2 is recovery, 1 freed.
        let next = tb.finish_persist(b2).unwrap();
        assert_eq!(next, None);
        assert_eq!(tb.recovery_buffer(), Some(b2));
        assert_eq!(tb.state(b1), BufferState::Free);
        tb.check_invariants().unwrap();
    }

    #[test]
    fn stall_when_no_free_buffer() {
        let mut tb = TripleBuffer::new();
        let b1 = tb.begin_snapshot(1).unwrap();
        tb.finish_snapshot(b1).unwrap(); // persisting
        let b2 = tb.begin_snapshot(2).unwrap();
        tb.finish_snapshot(b2).unwrap(); // ready
        let _b3 = tb.begin_snapshot(3).unwrap(); // snapshotting
        assert!(!tb.can_begin_snapshot());
        assert_eq!(tb.begin_snapshot(4), Err(BufferError::NoFreeBuffer));
    }

    #[test]
    fn slow_persist_queues_in_version_order() {
        let mut tb = TripleBuffer::new();
        let b1 = tb.begin_snapshot(1).unwrap();
        tb.finish_snapshot(b1).unwrap(); // persisting (slow)
        let b2 = tb.begin_snapshot(2).unwrap();
        tb.finish_snapshot(b2).unwrap(); // ready
        let b3 = tb.begin_snapshot(3).unwrap();
        tb.finish_snapshot(b3).unwrap(); // ready
                                         // Persist finishes: the OLDEST ready buffer (b2) goes next.
        let next = tb.finish_persist(b1).unwrap();
        assert_eq!(next, Some(b2));
        let next = tb.finish_persist(b2).unwrap();
        assert_eq!(next, Some(b3));
        tb.check_invariants().unwrap();
    }

    #[test]
    fn wrong_state_transitions_rejected() {
        let mut tb = TripleBuffer::new();
        let err = tb.finish_snapshot(BufferId(0));
        assert!(matches!(err, Err(BufferError::WrongState { .. })));
        let err = tb.finish_persist(BufferId(1));
        assert!(matches!(err, Err(BufferError::WrongState { .. })));
    }

    #[test]
    fn recovery_buffer_always_latest_persisted() {
        let mut tb = TripleBuffer::new();
        for v in 1..=10u64 {
            let b = tb.begin_snapshot(v).unwrap();
            match tb.finish_snapshot(b).unwrap() {
                SnapshotOutcome::StartPersist(p) => {
                    tb.finish_persist(p).unwrap();
                }
                SnapshotOutcome::Queued(_) => unreachable!("sequential use never queues"),
            }
            assert_eq!(tb.version(tb.recovery_buffer().unwrap()), v);
            tb.check_invariants().unwrap();
        }
    }

    #[test]
    fn buffer_id_display() {
        assert_eq!(BufferId(0).to_string(), "b1");
        assert_eq!(BufferId(2).to_string(), "b3");
    }
}
