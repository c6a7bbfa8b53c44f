//! Object stores: the persistent level of the two-level hierarchy.
//!
//! [`ObjectStore`] abstracts the distributed persistent storage of Fig. 3.
//! Two implementations are provided: [`MemoryObjectStore`] (fast,
//! process-local, used by simulations and tests) and [`FileObjectStore`]
//! (real filesystem I/O, used by persistence benches and
//! crash-consistency tests). Both are thread-safe: persist agents on
//! different "nodes" write concurrently.
//!
//! # On-disk layout of a `FileObjectStore`
//!
//! ```text
//! <root>/pack-<generation>-<seq>-<pid>.shard   frame | frame | ... | frame
//! ```
//!
//! One [`ObjectStore::put_batch`] — a checkpoint's shards — becomes one
//! *pack*: its [`frame`]s back to back in one file that is created,
//! fsynced, renamed into place and never written again; `put` is a batch
//! of one. The checkpoint's manifest is a later `put`, hence a later
//! pack: a manifest on disk implies the pack it commits is on disk. A
//! key stored twice lives in two packs and the greater pack name wins,
//! at publish and at `open` alike. `prune` unlinks a pack once none of
//! its frames is live and rewrites a half-dead one. See
//! [`FileObjectStore`] for what a crash can leave behind.

use crate::frame;
use crate::key::{ShardKey, StatePart};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Error from an object store operation.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A shard existed but failed frame validation.
    Frame(frame::FrameError),
    /// The store root is not usable.
    BadRoot(PathBuf),
    /// A frame decoded cleanly but carries a different key than the one
    /// requested (e.g. a pack replaced on disk behind the store's back).
    KeyMismatch {
        /// The key that was requested.
        requested: ShardKey,
        /// The key recorded inside the frame.
        found: ShardKey,
    },
    /// An injected fault from a chaos wrapper ([`crate::ChaosStore`]).
    Injected {
        /// The operation that was faulted (`"put"`, `"get"`, ...).
        op: &'static str,
    },
    /// Every retry attempt failed ([`crate::RetryStore`] gave up).
    RetriesExhausted {
        /// The operation that kept failing (`"put"`, `"get"`, ...).
        op: &'static str,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The error of the final attempt.
        last: Box<StoreError>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "object store i/o error: {e}"),
            StoreError::Frame(e) => write!(f, "object store frame error: {e}"),
            StoreError::BadRoot(p) => write!(f, "object store root unusable: {}", p.display()),
            StoreError::KeyMismatch { requested, found } => {
                write!(
                    f,
                    "shard key mismatch: requested {requested}, found {found}"
                )
            }
            StoreError::Injected { op } => write!(f, "injected store fault on {op}"),
            StoreError::RetriesExhausted { op, attempts, last } => {
                write!(f, "store {op} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Frame(e) => Some(e),
            StoreError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            StoreError::BadRoot(_)
            | StoreError::KeyMismatch { .. }
            | StoreError::Injected { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<frame::FrameError> for StoreError {
    fn from(e: frame::FrameError) -> Self {
        StoreError::Frame(e)
    }
}

/// One shard of an [`ObjectStore::put_batch`]: the payload travels with
/// the checksum its producer already computed, so a framing store writes
/// it into the frame header instead of hashing the payload again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchShard {
    /// The shard's key.
    pub key: ShardKey,
    /// The bytes to store.
    pub payload: Bytes,
    /// [`frame::crc32`] of `payload`.
    pub crc: u32,
}

impl BatchShard {
    /// A batch entry for a payload whose checksum is not known yet.
    pub fn new(key: ShardKey, payload: Bytes) -> Self {
        let crc = frame::crc32(&payload);
        Self { key, payload, crc }
    }
}

/// A versioned key-value store of checkpoint shards.
///
/// Shards are immutable once written; "latest" queries drive recovery.
pub trait ObjectStore: Send + Sync {
    /// Stores a shard. Overwrites any shard with the identical key.
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError>;

    /// Stores the shards of one checkpoint batch, in order. A failure
    /// part-way may leave any prefix of the batch stored: a batch is a
    /// cheaper way to issue its `put`s, not a transaction — the caller's
    /// commit point (the manifest) stays a separate, later `put`. The
    /// default is exactly that loop; a store overrides it when it can
    /// make the whole batch cost one operation.
    fn put_batch(&self, batch: &[BatchShard]) -> Result<(), StoreError> {
        for shard in batch {
            self.put(&shard.key, shard.payload.clone())?;
        }
        Ok(())
    }

    /// Fetches a shard by exact key.
    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError>;

    /// Newest version of `(module, part)` no newer than `at_or_before`.
    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError>;

    /// All keys currently stored, sorted.
    fn keys(&self) -> Result<Vec<ShardKey>, StoreError>;

    /// Total payload bytes stored.
    fn total_bytes(&self) -> Result<u64, StoreError>;

    /// Deletes all shards of `(module, part)` strictly older than
    /// `before_version`, returning the number removed (garbage collection
    /// of superseded checkpoints).
    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError>;
}

/// In-memory, thread-safe object store.
#[derive(Debug, Default)]
pub struct MemoryObjectStore {
    shards: RwLock<BTreeMap<ShardKey, Bytes>>,
}

impl MemoryObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards stored.
    pub fn len(&self) -> usize {
        self.shards.read().len()
    }

    /// Whether the store holds no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.read().is_empty()
    }
}

impl ObjectStore for MemoryObjectStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.shards.write().insert(key.clone(), payload);
        Ok(())
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        Ok(self.shards.read().get(key).cloned())
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        let guard = self.shards.read();
        let lo = ShardKey::new(module, part, 0);
        let hi = ShardKey::new(module, part, at_or_before);
        Ok(guard.range(lo..=hi).next_back().map(|(k, _)| k.version))
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        Ok(self.shards.read().keys().cloned().collect())
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        Ok(self.shards.read().values().map(|b| b.len() as u64).sum())
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        let mut guard = self.shards.write();
        let doomed: Vec<ShardKey> = guard
            .range(ShardKey::new(module, part, 0)..ShardKey::new(module, part, before_version))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            guard.remove(k);
        }
        Ok(doomed.len())
    }
}

/// Where a pack sorts among the packs of a store, and its file name.
///
/// Packs are never overwritten, so a key that is put twice lives in two
/// packs; the frame in the greater pack (then at the greater offset)
/// is the live one — the same rule at `open` and at publish, so a
/// reopened store resolves duplicates exactly as the store that wrote
/// them did. Field order is the sort order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct PackId {
    /// The writing store's generation: one above every pack it found at
    /// `open` (0 for files this scheme did not name, which therefore
    /// sort below every pack).
    generation: u64,
    /// Process-wide publish counter.
    seq: u64,
    /// Writing process, keeping concurrent processes' names apart.
    pid: u32,
    /// File name under the store root.
    name: String,
}

impl PackId {
    fn new(generation: u64, seq: u64) -> Self {
        let pid = std::process::id();
        Self {
            generation,
            seq,
            pid,
            name: format!("pack-{generation:010}-{seq:012}-{pid}.shard"),
        }
    }

    /// Recovers the id from a `.shard` file name. Any other name — the
    /// one-file-per-key layout of earlier versions included — is a
    /// generation-0 pack.
    fn parse(name: &str) -> Self {
        let fields = name
            .strip_prefix("pack-")
            .and_then(|rest| rest.strip_suffix(".shard"))
            .map(|rest| rest.split('-').collect::<Vec<_>>());
        if let Some([generation, seq, pid]) = fields.as_deref() {
            if let (Ok(generation), Ok(seq), Ok(pid)) =
                (generation.parse(), seq.parse(), pid.parse())
            {
                return Self {
                    generation,
                    seq,
                    pid,
                    name: name.to_string(),
                };
            }
        }
        Self {
            generation: 0,
            seq: 0,
            pid: 0,
            name: name.to_string(),
        }
    }
}

/// Where a live frame sits on disk.
#[derive(Debug, Clone)]
struct FrameLoc {
    pack: Arc<PackId>,
    /// Offset of the frame's first header byte in the pack.
    offset: u64,
    header_len: usize,
    payload_len: u64,
}

impl FrameLoc {
    fn frame_len(&self) -> u64 {
        self.header_len as u64 + self.payload_len
    }
}

#[derive(Debug, Default)]
struct PackState {
    /// Frames of the pack the index points at.
    live: usize,
    /// Whether the file also holds frames the index does not point at
    /// (superseded or pruned) — what `prune` reclaims.
    has_dead: bool,
}

/// The in-memory view of the store: built by walking every pack at
/// `open`, updated on every publish, and the only thing reads consult.
#[derive(Debug, Default)]
struct Index {
    frames: BTreeMap<ShardKey, FrameLoc>,
    /// The packs at least one live frame sits in.
    packs: HashMap<Arc<PackId>, PackState>,
    /// Packs whose last live frame died: garbage awaiting an unlink.
    dead: Vec<Arc<PackId>>,
}

impl Index {
    /// Records the frames of `pack`, found or just published, in file
    /// order. The greater `(pack, offset)` wins a duplicate key; the
    /// loser stays on disk as a dead frame of its pack.
    fn insert_pack(
        &mut self,
        pack: &Arc<PackId>,
        frames: impl IntoIterator<Item = (ShardKey, FrameLoc)>,
    ) {
        let newer = |a: &FrameLoc, b: &FrameLoc| (&a.pack, a.offset) > (&b.pack, b.offset);
        let mut state = PackState::default();
        for (key, loc) in frames {
            if self.frames.get(&key).is_some_and(|old| newer(old, &loc)) {
                state.has_dead = true;
                continue;
            }
            match self.frames.insert(key, loc) {
                // A key twice in one pack: the earlier frame is dead.
                Some(old) if old.pack == *pack => state.has_dead = true,
                Some(old) => {
                    state.live += 1;
                    self.kill(&old.pack);
                }
                None => state.live += 1,
            }
        }
        if state.live == 0 {
            self.dead.push(pack.clone());
        } else {
            self.packs.insert(pack.clone(), state);
        }
    }

    /// One live frame of `pack` was superseded or pruned.
    fn kill(&mut self, pack: &Arc<PackId>) {
        let state = self
            .packs
            .get_mut(pack)
            .expect("live frame's pack is indexed");
        state.live -= 1;
        state.has_dead = true;
        if state.live == 0 {
            self.packs.remove(pack);
            self.dead.push(pack.clone());
        }
    }
}

/// Bytes read per frame while walking a pack: enough for the fixed
/// header and any realistic module name, so one read decodes a header.
const WALK_PREFIX: usize = 128;

/// Reads into `buf` from `offset` until it is full or the file ends,
/// returning the bytes read.
fn read_at(file: &mut std::fs::File, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
    file.seek(SeekFrom::Start(offset))?;
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Walks the frames of a pack of `file_len` bytes front to back, reading
/// only each frame's header, and calls `visit(offset, header)` for every
/// frame that lies wholly inside the file. The walk stops at the first
/// byte that does not start such a frame: what follows a torn or
/// corrupt frame cannot be delimited and is ignored.
fn walk_frames(
    file: &mut std::fs::File,
    file_len: u64,
    mut visit: impl FnMut(u64, frame::FrameHeader),
) -> std::io::Result<()> {
    let mut buf = vec![0u8; WALK_PREFIX];
    let mut offset = 0u64;
    while offset < file_len {
        let mut got = read_at(file, offset, &mut buf[..WALK_PREFIX])?;
        if let Some(need) = frame::peek_header_len(&buf[..got]) {
            if need > WALK_PREFIX {
                buf.resize(need, 0);
                got = read_at(file, offset, &mut buf[..need])?;
            }
        }
        let Ok(header) = frame::decode_header(&buf[..got]) else {
            break;
        };
        let Some(end) = (header.header_len as u64)
            .checked_add(header.payload_len)
            .and_then(|len| offset.checked_add(len))
            .filter(|&end| end <= file_len)
        else {
            break;
        };
        visit(offset, header);
        offset = end;
    }
    Ok(())
}

/// File-backed object store keeping framed shards in *packs* under a
/// root directory.
///
/// A pack is a `.shard` file of one or more [`frame`]s back to back:
/// everything one [`ObjectStore::put_batch`] stored (`put` is a batch of
/// one). Publishing a pack is crash-consistent and costs one file
/// whatever the batch size: the frames are streamed into a uniquely
/// named temporary file, fsynced, renamed to a name no pack ever had,
/// and the directory is fsynced — so a reader finds whole packs or
/// nothing, never a pack in the making, and a published pack is never
/// written again. Reads go through an in-memory index (key → pack,
/// offset, length) built at [`FileObjectStore::open`] by walking frame
/// headers and updated on every publish; every `get` still validates
/// the frame's checksum and key against the bytes on disk.
///
/// What a crash can leave behind is a `*.tmp` file (ignored: only
/// `.shard` files are walked) or a pack whose batch was never committed
/// by a manifest (orphan frames, invisible through
/// `moc_ckpt::ChainStore`). The index reflects the directory as found
/// at `open` plus this instance's own publishes: packs another process
/// adds later are seen by the next `open`.
///
/// Stores written by earlier versions — one single-frame file per key —
/// are packs of one frame that sort below every named pack, and load
/// unchanged.
#[derive(Debug)]
pub struct FileObjectStore {
    root: PathBuf,
    /// One above the greatest generation found at `open`.
    generation: u64,
    index: RwLock<Index>,
}

impl FileObjectStore {
    /// Opens (creating if necessary) a store rooted at `root` and indexes
    /// the packs already there, reading frame headers only.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadRoot`] if `root` exists but is not a
    /// directory, or an I/O error if it cannot be created or read.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        if root.exists() && !root.is_dir() {
            return Err(StoreError::BadRoot(root));
        }
        std::fs::create_dir_all(&root)?;
        let mut found = Vec::new();
        let mut generation = 0;
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str().filter(|n| n.ends_with(".shard")) else {
                continue;
            };
            let pack = Arc::new(PackId::parse(name));
            generation = generation.max(pack.generation);
            let file_len = entry.metadata()?.len();
            let mut file = std::fs::File::open(entry.path())?;
            let mut frames = Vec::new();
            walk_frames(&mut file, file_len, |offset, header| {
                // In the one-file-per-key layout the file name, not a
                // header checksum, vouches for the key.
                if pack.generation > 0 || header.key.file_name() == pack.name {
                    let loc = FrameLoc {
                        pack: pack.clone(),
                        offset,
                        header_len: header.header_len,
                        payload_len: header.payload_len,
                    };
                    frames.push((header.key, loc));
                }
            })?;
            // A file no frame of which is usable is not this store's to
            // index — or, later, to unlink.
            if !frames.is_empty() {
                found.push((pack, frames));
            }
        }
        // Ascending pack order: the last frame inserted for a key is the
        // greatest, whatever order the directory listed the files in.
        found.sort_by(|a, b| a.0.cmp(&b.0));
        let mut index = Index::default();
        for (pack, frames) in found {
            index.insert_pack(&pack, frames);
        }
        Ok(Self {
            root,
            generation: generation + 1,
            index: RwLock::new(index),
        })
    }

    /// The root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn sync_dir(&self) -> std::io::Result<()> {
        std::fs::File::open(&self.root)?.sync_all()
    }

    /// Streams one pack through `write` into a temporary file and
    /// publishes it: fsync the data, rename to a fresh pack name, fsync
    /// the directory so the rename itself survives a crash. A failure at
    /// any step leaves no `.shard` file behind, so it must — and does —
    /// surface to the caller: the frames are not durably named yet.
    fn publish(
        &self,
        write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
    ) -> Result<Arc<PackId>, StoreError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let pack = PackId::new(self.generation, SEQ.fetch_add(1, Ordering::Relaxed));
        let final_path = self.root.join(&pack.name);
        let tmp_path = final_path.with_extension("tmp");
        let written = std::fs::File::create(&tmp_path).and_then(|mut file| {
            write(&mut file)?;
            file.sync_all()
        });
        if let Err(e) = written.and_then(|()| std::fs::rename(&tmp_path, &final_path)) {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e.into());
        }
        self.sync_dir()?;
        Ok(Arc::new(pack))
    }

    /// Unlinks the packs the index no longer points into. Their frames
    /// are superseded or pruned, so a failed unlink costs disk space, not
    /// correctness, and is not an error of the operation that found them.
    fn unlink_dead(&self, index: &mut Index) {
        for pack in index.dead.drain(..) {
            let _ = std::fs::remove_file(self.root.join(&pack.name));
        }
    }

    /// Rewrites `old` without its dead frames and repoints the index at
    /// the copy, which is durable on return: the caller may unlink `old`.
    /// On an error the index still points into `old`, dead frames
    /// included, and a later prune tries again.
    fn compact(&self, index: &mut Index, old: &Arc<PackId>) -> Result<(), StoreError> {
        let mut kept: Vec<(ShardKey, FrameLoc)> = Vec::new();
        let mut source = std::fs::File::open(self.root.join(&old.name))?;
        let file_len = source.metadata()?.len();
        walk_frames(&mut source, file_len, |offset, header| {
            if let Some(loc) = index.frames.get(&header.key) {
                if loc.pack == *old && loc.offset == offset {
                    kept.push((header.key, loc.clone()));
                }
            }
        })?;
        // A live frame the walk no longer reaches (the pack was damaged
        // after it was indexed) would be dropped with the old file.
        if kept.len() != index.packs[old].live {
            return Err(frame::FrameError::Truncated.into());
        }
        let pack = self.publish(|file| {
            let mut frame_bytes = Vec::new();
            for (_, loc) in &kept {
                frame_bytes.resize(loc.frame_len() as usize, 0);
                if read_at(&mut source, loc.offset, &mut frame_bytes)? != frame_bytes.len() {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                file.write_all(&frame_bytes)?;
            }
            Ok(())
        })?;
        let mut offset = 0;
        let moved: Vec<(ShardKey, FrameLoc)> = kept
            .into_iter()
            .map(|(key, loc)| {
                let moved = FrameLoc {
                    pack: pack.clone(),
                    offset,
                    ..loc
                };
                offset += moved.frame_len();
                (key, moved)
            })
            .collect();
        // Every moved frame supersedes its original, which kills `old`.
        index.insert_pack(&pack, moved);
        Ok(())
    }
}

impl ObjectStore for FileObjectStore {
    fn put(&self, key: &ShardKey, payload: Bytes) -> Result<(), StoreError> {
        self.put_batch(&[BatchShard::new(key.clone(), payload)])
    }

    fn put_batch(&self, batch: &[BatchShard]) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        let pack = self.publish(|file| {
            let mut header = Vec::new();
            for shard in batch {
                debug_assert_eq!(shard.crc, frame::crc32(&shard.payload), "{}", shard.key);
                header.clear();
                frame::encode_header(
                    &shard.key,
                    shard.crc,
                    shard.payload.len() as u64,
                    &mut header,
                );
                file.write_all(&header)?;
                file.write_all(&shard.payload)?;
            }
            Ok(())
        })?;
        let mut offset = 0;
        let frames = batch.iter().map(|shard| {
            let loc = FrameLoc {
                pack: pack.clone(),
                offset,
                header_len: frame::header_len(&shard.key),
                payload_len: shard.payload.len() as u64,
            };
            offset += loc.frame_len();
            (shard.key.clone(), loc)
        });
        let mut index = self.index.write();
        index.insert_pack(&pack, frames);
        self.unlink_dead(&mut index);
        Ok(())
    }

    fn get(&self, key: &ShardKey) -> Result<Option<Bytes>, StoreError> {
        // The lock is held across the read so a concurrent prune cannot
        // unlink or compact the pack between lookup and open.
        let index = self.index.read();
        let Some(loc) = index.frames.get(key) else {
            return Ok(None);
        };
        let mut framed = vec![0u8; loc.frame_len() as usize];
        let mut file = std::fs::File::open(self.root.join(&loc.pack.name))?;
        if read_at(&mut file, loc.offset, &mut framed)? != framed.len() {
            return Err(frame::FrameError::Truncated.into());
        }
        // The read path re-validates everything the write path framed:
        // `frame::decode` verifies magic, lengths and the payload CRC
        // (surfacing on-disk corruption as an error instead of returning
        // corrupt state), and the decoded key must match the requested
        // one — the index is only as good as the bytes it was built
        // from, and a pack rewritten behind the store's back must not
        // silently serve the wrong shard.
        let (decoded, payload) = frame::decode(&Bytes::from(framed))?;
        if &decoded != key {
            return Err(StoreError::KeyMismatch {
                requested: key.clone(),
                found: decoded,
            });
        }
        Ok(Some(payload))
    }

    fn latest_version(
        &self,
        module: &str,
        part: StatePart,
        at_or_before: u64,
    ) -> Result<Option<u64>, StoreError> {
        let lo = ShardKey::new(module, part, 0);
        let hi = ShardKey::new(module, part, at_or_before);
        let index = self.index.read();
        Ok(index
            .frames
            .range(lo..=hi)
            .next_back()
            .map(|(k, _)| k.version))
    }

    fn keys(&self) -> Result<Vec<ShardKey>, StoreError> {
        Ok(self.index.read().frames.keys().cloned().collect())
    }

    fn total_bytes(&self) -> Result<u64, StoreError> {
        Ok(self
            .index
            .read()
            .frames
            .values()
            .map(|loc| loc.payload_len)
            .sum())
    }

    fn prune(
        &self,
        module: &str,
        part: StatePart,
        before_version: u64,
    ) -> Result<usize, StoreError> {
        let mut index = self.index.write();
        let doomed: Vec<ShardKey> = index
            .frames
            .range(ShardKey::new(module, part, 0)..ShardKey::new(module, part, before_version))
            .map(|(k, _)| k.clone())
            .collect();
        if doomed.is_empty() {
            return Ok(0);
        }
        for key in &doomed {
            let loc = index.frames.remove(key).expect("key was just listed");
            index.kill(&loc.pack);
        }
        // A pruned frame must stay pruned across a reopen, so it has to
        // leave the disk, not just the index: a pack with no live frame
        // left is unlinked, a half-dead one is rewritten without its
        // dead frames (pruned now, or superseded earlier — either would
        // otherwise resurface once the frame that outranked it is gone).
        self.unlink_dead(&mut index);
        let half_dead: Vec<Arc<PackId>> = index
            .packs
            .iter()
            .filter(|(_, state)| state.has_dead)
            .map(|(pack, _)| pack.clone())
            .collect();
        for pack in half_dead {
            self.compact(&mut index, &pack)?;
            self.unlink_dead(&mut index);
        }
        self.sync_dir()?;
        Ok(doomed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn ObjectStore) {
        let k1 = ShardKey::new("m", StatePart::Weights, 10);
        let k2 = ShardKey::new("m", StatePart::Weights, 20);
        let k3 = ShardKey::new("m", StatePart::Optimizer, 20);
        store.put(&k1, Bytes::from_static(b"v10")).unwrap();
        store.put(&k2, Bytes::from_static(b"v20")).unwrap();
        store.put(&k3, Bytes::from_static(b"opt")).unwrap();

        assert_eq!(store.get(&k1).unwrap().unwrap(), Bytes::from_static(b"v10"));
        assert_eq!(
            store.latest_version("m", StatePart::Weights, 15).unwrap(),
            Some(10)
        );
        assert_eq!(
            store.latest_version("m", StatePart::Weights, 99).unwrap(),
            Some(20)
        );
        assert_eq!(
            store.latest_version("m", StatePart::Weights, 5).unwrap(),
            None
        );
        assert_eq!(store.keys().unwrap().len(), 3);
        assert_eq!(store.total_bytes().unwrap(), 9);

        assert_eq!(store.prune("m", StatePart::Weights, 20).unwrap(), 1);
        assert!(store.get(&k1).unwrap().is_none());
        assert!(store.get(&k2).unwrap().is_some());
    }

    #[test]
    fn memory_store_semantics() {
        let store = MemoryObjectStore::new();
        assert!(store.is_empty());
        exercise(&store);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn file_store_semantics() {
        let dir = std::env::temp_dir().join(format!("moc-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileObjectStore::open(&dir).unwrap();
        exercise(&store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("moc-store-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = ShardKey::new("e", StatePart::Extra, 3);
        {
            let store = FileObjectStore::open(&dir).unwrap();
            store.put(&key, Bytes::from_static(b"state")).unwrap();
        }
        let store = FileObjectStore::open(&dir).unwrap();
        assert_eq!(
            store.get(&key).unwrap().unwrap(),
            Bytes::from_static(b"state")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The `.shard` files under `dir`, sorted by name.
    fn packs(dir: &Path) -> Vec<PathBuf> {
        let mut packs: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "shard"))
            .collect();
        packs.sort();
        packs
    }

    /// The one pack a single put or batch left under `dir`.
    fn sole_pack(dir: &Path) -> PathBuf {
        let packs = packs(dir);
        assert_eq!(packs.len(), 1, "{packs:?}");
        packs.into_iter().next().unwrap()
    }

    #[test]
    fn file_store_ignores_torn_writes() {
        let dir = std::env::temp_dir().join(format!("moc-store-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileObjectStore::open(&dir).unwrap();
        let key = ShardKey::new("good", StatePart::Weights, 1);
        store.put(&key, Bytes::from_static(b"fine")).unwrap();
        // Simulate a torn write: garbage in a .shard file.
        std::fs::write(dir.join("torn.w.000000000001.shard"), b"garbage").unwrap();
        assert_eq!(store.keys().unwrap().len(), 1);
        // The walk at open skips it too.
        let reopened = FileObjectStore::open(&dir).unwrap();
        assert_eq!(reopened.keys().unwrap(), vec![key.clone()]);
        // ...and leaves it alone: only packs this store indexed are
        // ever unlinked.
        reopened.put(&key, Bytes::from_static(b"newer")).unwrap();
        assert!(dir.join("torn.w.000000000001.shard").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite (read-path audit): a shard corrupted *on disk* after a
    /// clean write must surface as an error on `get`, never as silently
    /// corrupt payload bytes — flipping any single byte of the file
    /// yields an error or, at worst, a different-but-valid frame that the
    /// key check rejects.
    #[test]
    fn file_store_get_detects_corruption_on_read() {
        let dir =
            std::env::temp_dir().join(format!("moc-store-readcorrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileObjectStore::open(&dir).unwrap();
        let key = ShardKey::new("layer1.expert2", StatePart::Weights, 9);
        let payload = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        store.put(&key, payload.clone()).unwrap();
        let path = sole_pack(&dir);
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[byte] ^= 0xA5;
            std::fs::write(&path, &corrupt).unwrap();
            match store.get(&key) {
                Err(_) => {}
                Ok(got) => assert_ne!(
                    got,
                    Some(payload.clone()),
                    "byte {byte} corrupted on disk yet get returned the original payload"
                ),
            }
        }
        // Restore and confirm the clean read still works.
        std::fs::write(&path, &clean).unwrap();
        assert_eq!(store.get(&key).unwrap(), Some(payload));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A decodable frame sitting where the index expects another key's
    /// frame (e.g. a pack restored from a backup over the wrong file) is
    /// rejected by the key check.
    #[test]
    fn file_store_get_rejects_swapped_pack() {
        let dir = std::env::temp_dir().join(format!("moc-store-misname-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileObjectStore::open(&dir).unwrap();
        let real = ShardKey::new("layer1.expert0", StatePart::Weights, 1);
        let other = ShardKey::new("layer1.expert1", StatePart::Weights, 1);
        store.put(&real, Bytes::from_static(b"mine")).unwrap();
        store.put(&other, Bytes::from_static(b"ours")).unwrap();
        let packs = packs(&dir);
        std::fs::copy(&packs[0], &packs[1]).unwrap();
        match store.get(&other) {
            Err(StoreError::KeyMismatch { requested, found }) => {
                assert_eq!(requested, other);
                assert_eq!(found, real);
            }
            other_result => panic!("expected KeyMismatch, got {other_result:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Key listing reads frame headers only: a shard whose *payload*
    /// bytes are corrupt on disk (header intact, length unchanged) still
    /// lists, live and after a reopen — proof the walk never
    /// deserializes payloads — while the read path still rejects it. A
    /// payload-only *truncation* leaves a frame that overruns its file
    /// and is skipped as a torn write.
    #[test]
    fn key_listing_reads_headers_not_payloads() {
        let dir = std::env::temp_dir().join(format!("moc-store-hdrscan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileObjectStore::open(&dir).unwrap();
        let key = ShardKey::new("layer1.expert4", StatePart::Weights, 7);
        let payload = Bytes::from(vec![0x5Au8; 4096]);
        store.put(&key, payload).unwrap();
        let path = sole_pack(&dir);
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip a payload byte: header-only scan cannot notice, get must.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let store = FileObjectStore::open(&dir).unwrap();
        assert_eq!(store.keys().unwrap(), vec![key.clone()]);
        assert_eq!(store.total_bytes().unwrap(), 4096);
        assert_eq!(
            store
                .latest_version("layer1.expert4", StatePart::Weights, 99)
                .unwrap(),
            Some(7)
        );
        assert!(store.get(&key).is_err(), "get still validates the CRC");

        // Truncate the payload: the header/length mismatch marks a torn
        // write and the shard disappears from listings.
        bytes.truncate(bytes.len() - 16);
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.get(&key).is_err(), "the live index never serves it");
        let store = FileObjectStore::open(&dir).unwrap();
        assert!(store.keys().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moc-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(module: &str, version: u64) -> ShardKey {
        ShardKey::new(module, StatePart::Weights, version)
    }

    fn batch(entries: &[(&ShardKey, &[u8])]) -> Vec<BatchShard> {
        entries
            .iter()
            .map(|(k, p)| BatchShard::new((*k).clone(), Bytes::copy_from_slice(p)))
            .collect()
    }

    /// Everything a reader can ask of a store, for before/after
    /// comparisons.
    fn snapshot(store: &dyn ObjectStore) -> (Vec<ShardKey>, Vec<Option<Bytes>>, u64) {
        let keys = store.keys().unwrap();
        let payloads = keys.iter().map(|k| store.get(k).unwrap()).collect();
        (keys, payloads, store.total_bytes().unwrap())
    }

    #[test]
    fn batch_is_one_pack_and_reads_back() {
        let dir = scratch("batch");
        let store = FileObjectStore::open(&dir).unwrap();
        let (a, b, c) = (key("a", 1), key("b", 1), key("c", 1));
        store
            .put_batch(&batch(&[(&a, b"alpha"), (&b, b""), (&c, b"gamma!")]))
            .unwrap();
        sole_pack(&dir);
        assert_eq!(
            store.get(&a).unwrap().unwrap(),
            Bytes::from_static(b"alpha")
        );
        assert_eq!(store.get(&b).unwrap().unwrap(), Bytes::new());
        assert_eq!(
            store.get(&c).unwrap().unwrap(),
            Bytes::from_static(b"gamma!")
        );
        assert_eq!(store.total_bytes().unwrap(), 11);
        store.put_batch(&[]).unwrap();
        sole_pack(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A published pack cut short anywhere inside its second frame still
    /// serves frame one, and serves nothing — never wrong bytes — for
    /// the frames it lost, through a fresh open and through the stale
    /// index of the store that wrote it.
    #[test]
    fn truncated_pack_serves_its_intact_prefix() {
        let dir = scratch("truncate");
        let store = FileObjectStore::open(&dir).unwrap();
        let (k1, k2, k3) = (key("one", 1), key("two", 1), key("three", 1));
        let (p1, p2, p3) = ([1u8; 40], [2u8; 56], [3u8; 24]);
        store
            .put_batch(&batch(&[(&k1, &p1), (&k2, &p2), (&k3, &p3)]))
            .unwrap();
        let path = sole_pack(&dir);
        let clean = std::fs::read(&path).unwrap();
        let frame_one = frame::header_len(&k1) + p1.len();
        let frame_two = frame::header_len(&k2) + p2.len();
        for cut in frame_one..frame_one + frame_two {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let reopened = FileObjectStore::open(&dir).unwrap();
            assert_eq!(reopened.keys().unwrap(), vec![k1.clone()], "cut {cut}");
            assert_eq!(&reopened.get(&k1).unwrap().unwrap()[..], &p1[..]);
            assert_eq!(reopened.get(&k2).unwrap(), None, "cut {cut}");
            assert_eq!(reopened.get(&k3).unwrap(), None, "cut {cut}");
            assert_eq!(&store.get(&k1).unwrap().unwrap()[..], &p1[..]);
            assert!(store.get(&k2).is_err(), "cut {cut}");
            assert!(store.get(&k3).is_err(), "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The single-bit corruption sweep over a multi-frame pack: whatever
    /// bit of the file flips, every key reads back as its original
    /// payload, as an error, or as absent — never as other bytes.
    #[test]
    fn single_bit_flips_in_a_pack_never_serve_wrong_bytes() {
        let dir = scratch("bitflip");
        let store = FileObjectStore::open(&dir).unwrap();
        let entries = [
            (key("layer0.gate", 3), vec![0xA1u8; 24]),
            (key("layer1.expert2", 3), (0..32u8).collect::<Vec<u8>>()),
            (key("layer1.expert3", 3), vec![0x5Cu8; 16]),
        ];
        let shards: Vec<BatchShard> = entries
            .iter()
            .map(|(k, p)| BatchShard::new(k.clone(), Bytes::from(p.clone())))
            .collect();
        store.put_batch(&shards).unwrap();
        let path = sole_pack(&dir);
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&path, &corrupt).unwrap();
                let reopened = FileObjectStore::open(&dir).unwrap();
                for view in [&store, &reopened] {
                    for (k, p) in &entries {
                        if let Ok(Some(got)) = view.get(k) {
                            assert_eq!(&got[..], &p[..], "bit {bit} of byte {byte}, key {k}");
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `keys`, `get` and `total_bytes` after a reopen equal the values
    /// before the close — across batches, overwrites and a prune.
    #[test]
    fn reopen_sees_what_the_writer_saw() {
        let dir = scratch("reopen-equal");
        let store = FileObjectStore::open(&dir).unwrap();
        for v in 1..=4u64 {
            let (a, b) = (key("a", v), key("b", v));
            store
                .put_batch(&batch(&[(&a, &[v as u8; 33]), (&b, &[v as u8 + 100; 7])]))
                .unwrap();
        }
        store
            .put(&key("a", 2), Bytes::from_static(b"rewritten"))
            .unwrap();
        assert_eq!(store.prune("b", StatePart::Weights, 3).unwrap(), 2);
        let before = snapshot(&store);
        assert_eq!(before.0.len(), 6);
        drop(store);
        let reopened = FileObjectStore::open(&dir).unwrap();
        assert_eq!(snapshot(&reopened), before);
        // A second generation keeps publishing above the first.
        reopened
            .put(&key("a", 2), Bytes::from_static(b"again"))
            .unwrap();
        let before = snapshot(&reopened);
        drop(reopened);
        assert_eq!(snapshot(&FileObjectStore::open(&dir).unwrap()), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two writers batching into one store at once: every key reads back
    /// as one writer's whole payload, and a reopen agrees with the live
    /// index on which.
    #[test]
    fn concurrent_put_batch_never_tears() {
        let dir = scratch("batch-race");
        let store = std::sync::Arc::new(FileObjectStore::open(&dir).unwrap());
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2u8)
            .map(|t| {
                let (store, start) = (store.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..16u64 {
                        let own = key(&format!("own{t}"), round);
                        let shared = key("shared", round % 4);
                        store
                            .put_batch(&batch(&[(&own, &[t; 300]), (&shared, &[t + 10; 700])]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let live = snapshot(&*store);
        assert_eq!(live.0.len(), 2 * 16 + 4);
        for (k, p) in live.0.iter().zip(&live.1) {
            let p = p.as_ref().expect("listed key reads back");
            let expected_len = if k.module == "shared" { 700 } else { 300 };
            assert_eq!(p.len(), expected_len, "{k}");
            assert!(p.iter().all(|&b| b == p[0]), "{k} interleaves two writers");
        }
        assert_eq!(snapshot(&FileObjectStore::open(&dir).unwrap()), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A key stored twice lives in two packs; the later pack wins, live
    /// and after a reopen, and the neighbours of the superseded frame
    /// keep reading from the older pack.
    #[test]
    fn duplicate_key_across_packs_resolves_to_the_later_pack() {
        let dir = scratch("duplicate");
        let store = FileObjectStore::open(&dir).unwrap();
        let (a, b) = (key("a", 10), key("b", 10));
        store
            .put_batch(&batch(&[(&a, b"a-first"), (&b, b"b-first")]))
            .unwrap();
        store.put_batch(&batch(&[(&a, b"a-second")])).unwrap();
        assert_eq!(packs(&dir).len(), 2, "the half-dead pack stays");
        for view in [&store, &FileObjectStore::open(&dir).unwrap()] {
            assert_eq!(&view.get(&a).unwrap().unwrap()[..], b"a-second");
            assert_eq!(&view.get(&b).unwrap().unwrap()[..], b"b-first");
            assert_eq!(view.total_bytes().unwrap(), 15);
        }
        // Superseding the last live frame of a pack unlinks it.
        store.put(&b, Bytes::from_static(b"b-second")).unwrap();
        assert_eq!(packs(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `prune` on a half-dead pack rewrites it: the bytes leave the disk
    /// as well as `total_bytes`, the survivors still read back, and a
    /// superseded duplicate of a pruned key does not resurface on reopen.
    #[test]
    fn prune_compacts_half_dead_packs() {
        let dir = scratch("prune-pack");
        let store = FileObjectStore::open(&dir).unwrap();
        let (m1, m2, n1) = (key("m", 1), key("m", 2), key("n", 1));
        store
            .put_batch(&batch(&[
                (&m1, &[1; 4096]),
                (&m2, &[2; 512]),
                (&n1, &[3; 256]),
            ]))
            .unwrap();
        // A second, newer copy of m@1 in a pack of its own.
        store.put(&m1, Bytes::from(vec![9u8; 64])).unwrap();
        let disk = |dir: &Path| -> u64 {
            packs(dir)
                .iter()
                .map(|p| std::fs::metadata(p).unwrap().len())
                .sum()
        };
        let (bytes_before, disk_before) = (store.total_bytes().unwrap(), disk(&dir));
        assert_eq!(store.prune("m", StatePart::Weights, 2).unwrap(), 1);
        assert_eq!(store.total_bytes().unwrap(), bytes_before - 64);
        assert!(
            disk(&dir) < disk_before - 4096,
            "both copies of m@1 must leave the disk: {} vs {disk_before}",
            disk(&dir)
        );
        sole_pack(&dir);
        for view in [&store, &FileObjectStore::open(&dir).unwrap()] {
            assert_eq!(view.keys().unwrap(), vec![m2.clone(), n1.clone()]);
            assert_eq!(view.get(&m1).unwrap(), None);
            assert_eq!(&view.get(&m2).unwrap().unwrap()[..], &[2u8; 512][..]);
            assert_eq!(&view.get(&n1).unwrap().unwrap()[..], &[3u8; 256][..]);
        }
        // Pruning the rest unlinks the pack.
        assert_eq!(store.prune("m", StatePart::Weights, 9).unwrap(), 1);
        assert_eq!(store.prune("n", StatePart::Weights, 9).unwrap(), 1);
        assert!(packs(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store written in the one-file-per-key layout of earlier versions
    /// still loads, and anything this version publishes outranks it.
    #[test]
    fn one_file_per_key_layout_still_loads() {
        let dir = scratch("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (key("layer1.expert0", 7), key("layer1.expert1", 7));
        for (k, p) in [(&a, &b"old-a"[..]), (&b, &b"old-b"[..])] {
            std::fs::write(dir.join(k.file_name()), frame::encode_v1(k, p)).unwrap();
        }
        let store = FileObjectStore::open(&dir).unwrap();
        assert_eq!(store.keys().unwrap(), vec![a.clone(), b.clone()]);
        assert_eq!(&store.get(&a).unwrap().unwrap()[..], b"old-a");
        store.put(&a, Bytes::from_static(b"new-a")).unwrap();
        assert!(
            !dir.join(a.file_name()).exists(),
            "superseded file is unlinked"
        );
        let reopened = FileObjectStore::open(&dir).unwrap();
        assert_eq!(&reopened.get(&a).unwrap().unwrap()[..], b"new-a");
        assert_eq!(&reopened.get(&b).unwrap().unwrap()[..], b"old-b");
        // A bit flipped in an old file's key ("expert1" -> "expert0")
        // must not pass it off as a copy of the other key.
        let mut flipped = frame::encode_v1(&b, b"old-b");
        let name_end = 8 + b.module.len();
        flipped[name_end - 1] ^= 1;
        std::fs::write(dir.join(b.file_name()), flipped).unwrap();
        let reopened = FileObjectStore::open(&dir).unwrap();
        assert_eq!(&reopened.get(&a).unwrap().unwrap()[..], b"new-a");
        assert_eq!(reopened.get(&b).unwrap(), None);
        std::fs::write(dir.join(b.file_name()), frame::encode_v1(&b, b"old-b")).unwrap();
        let reopened = FileObjectStore::open(&dir).unwrap();
        assert_eq!(reopened.prune(&b.module, b.part, 8).unwrap(), 1);
        assert!(!dir.join(b.file_name()).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_overwrites_same_key() {
        let store = MemoryObjectStore::new();
        let k = ShardKey::new("m", StatePart::Weights, 1);
        store.put(&k, Bytes::from_static(b"a")).unwrap();
        store.put(&k, Bytes::from_static(b"bb")).unwrap();
        assert_eq!(store.get(&k).unwrap().unwrap(), Bytes::from_static(b"bb"));
        assert_eq!(store.total_bytes().unwrap(), 2);
    }

    #[test]
    fn concurrent_same_key_file_puts_never_tear() {
        let dir = std::env::temp_dir().join(format!("moc-store-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(FileObjectStore::open(&dir).unwrap());
        let key = ShardKey::new("contended", StatePart::Weights, 1);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let s = store.clone();
            let k = key.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..16 {
                    s.put(&k, Bytes::from(vec![t; 512])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The surviving shard decodes cleanly to one writer's payload —
        // never an interleaving of two writers.
        let payload = store.get(&key).unwrap().expect("shard present");
        assert_eq!(payload.len(), 512);
        assert!(payload.iter().all(|&b| b == payload[0]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_puts_are_safe() {
        let store = std::sync::Arc::new(MemoryObjectStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for v in 0..50u64 {
                    let k = ShardKey::new(format!("m{t}"), StatePart::Weights, v);
                    s.put(&k, Bytes::from(vec![t as u8; 16])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 50);
    }
}
