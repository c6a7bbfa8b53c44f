//! Property tests of the manifest chain's crash consistency.
//!
//! The central guarantee the checkpoint engine makes: for **any prefix**
//! of the global put order (the state any crash point leaves behind in
//! the store), the chain view either reconstructs bitwise-identical
//! payloads for every slot of every committed version, or rejects the
//! incomplete tail entirely — it never serves partially persisted state.

use bytes::Bytes;
use moc_ckpt::testing::RecordingStore;
use moc_ckpt::{ChainStore, EngineConfig, ShardWriter};
use moc_store::{MemoryObjectStore, ObjectStore, ShardKey, StatePart};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const SLOTS: [&str; 3] = ["layer1.expert0", "layer1.expert1", "embedding"];

/// Deterministic slot payload at a version: a float ramp whose low bytes
/// drift per version (delta-friendly) plus a version-dependent patch in a
/// region selected by `mask` (so consecutive payloads always differ and
/// delta sizes vary).
fn payload(slot: usize, version: u64, mask: u8) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..128u32)
        .flat_map(|i| ((i as f32) * 0.25 + slot as f32).to_le_bytes())
        .collect();
    let start = (usize::from(mask) * 16) % (bytes.len() - 24);
    for (offset, b) in bytes[start..start + 16].iter_mut().enumerate() {
        *b = b.wrapping_add(version as u8).wrapping_add(offset as u8);
    }
    bytes
}

/// Drives `checkpoints` batches through per-writer `ShardWriter`s over a
/// recording store; returns the store and the reference payloads.
#[allow(clippy::type_complexity)]
fn drive(
    checkpoints: &[u8],
    writers: usize,
    rebase_interval: u64,
) -> (Arc<RecordingStore>, HashMap<(usize, u64), Vec<u8>>) {
    let store = Arc::new(RecordingStore::new());
    let as_dyn: Arc<dyn ObjectStore> = store.clone();
    let config = EngineConfig {
        delta: true,
        rebase_interval,
        ..EngineConfig::default()
    };
    let mut shard_writers: Vec<ShardWriter> = (0..writers)
        .map(|w| ShardWriter::new(w, as_dyn.clone(), config))
        .collect();
    let mut reference = HashMap::new();
    for (i, &mask) in checkpoints.iter().enumerate() {
        let version = 10 * (i as u64 + 1);
        for (w, writer) in shard_writers.iter_mut().enumerate() {
            let owned: Vec<(ShardKey, Vec<u8>)> = SLOTS
                .iter()
                .enumerate()
                .filter(|(s, _)| s % writers == w)
                .map(|(s, name)| {
                    let p = payload(s, version, mask);
                    reference.insert((s, version), p.clone());
                    (ShardKey::new(*name, StatePart::Weights, version), p)
                })
                .collect();
            writer
                .persist(version, owned.iter().map(|(k, p)| (k, &p[..])))
                .expect("memory store persists");
        }
    }
    (store, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any prefix of the put log reconstructs every committed slot
    /// bitwise, and never surfaces a version past the last complete
    /// manifest set.
    #[test]
    fn any_prefix_reconstructs_bitwise_or_rejects(
        checkpoints in proptest::collection::vec(0u8..8, 1..5),
        writers in 1usize..3,
        rebase_interval in 1u64..4,
    ) {
        let (store, reference) = drive(&checkpoints, writers, rebase_interval);
        let log_len = store.log().len();
        for cut in 0..=log_len {
            let prefix: Arc<dyn ObjectStore> = Arc::new(store.prefix(cut));
            let chain = ChainStore::load_expecting(prefix, Some(writers))
                .expect("load never fails on a healthy store");
            let committed = chain.committed_versions();
            // Committed versions are a prefix of the checkpoint sequence.
            let all_versions: Vec<u64> =
                (1..=checkpoints.len() as u64).map(|i| 10 * i).collect();
            prop_assert_eq!(
                &committed[..],
                &all_versions[..committed.len()],
                "cut {}: committed set must be a version prefix", cut
            );
            // Every slot of every committed version reconstructs bitwise.
            for &v in &committed {
                for (s, name) in SLOTS.iter().enumerate() {
                    let key = ShardKey::new(*name, StatePart::Weights, v);
                    let got = chain
                        .get(&key)
                        .expect("committed shard reconstructs")
                        .expect("committed shard present");
                    let want = &reference[&(s, v)];
                    prop_assert_eq!(&got[..], &want[..], "cut {} {}@{}", cut, name, v);
                }
            }
            // Nothing newer than the last complete manifest set leaks out.
            let newest = chain.newest_committed().unwrap_or(0);
            for name in SLOTS {
                let latest = chain
                    .latest_version(name, StatePart::Weights, u64::MAX)
                    .expect("latest_version");
                prop_assert!(
                    latest.unwrap_or(0) <= newest,
                    "cut {}: {} surfaced uncommitted version {:?} past {}",
                    cut, name, latest, newest
                );
            }
        }
    }
}

/// The full log (no crash) commits every checkpoint — the property above
/// is not vacuous.
#[test]
fn full_log_commits_everything() {
    let checkpoints = [0u8, 3, 6, 1];
    let (store, _) = drive(&checkpoints, 2, 3);
    let prefix: Arc<dyn ObjectStore> = Arc::new(store.prefix(store.log().len()));
    let chain = ChainStore::load(prefix).unwrap();
    assert_eq!(chain.committed_versions(), vec![10, 20, 30, 40]);
}

/// A cut strictly inside a batch (after its first put, before its
/// manifest) must reject exactly that version — directly modelling a
/// writer death between shard writes.
#[test]
fn mid_batch_cut_rejects_exactly_the_torn_version() {
    let checkpoints = [0u8, 2, 4];
    let (store, reference) = drive(&checkpoints, 1, 2);
    let log = store.log();
    // Find the first put of version 20 (batch 2) and cut just after it.
    let v20_start = log
        .iter()
        .position(|(k, _)| k.version == 20)
        .expect("version 20 written");
    let prefix: Arc<dyn ObjectStore> = Arc::new(store.prefix(v20_start + 1));
    let chain = ChainStore::load(prefix).unwrap();
    assert_eq!(chain.newest_committed(), Some(10), "version 20 is torn");
    // Version 10 still reconstructs bitwise.
    let got = chain
        .get(&ShardKey::new(SLOTS[0], StatePart::Weights, 10))
        .unwrap()
        .unwrap();
    assert_eq!(Bytes::from(reference[&(0usize, 10u64)].clone()), got);
}

/// PEC-style persist scripts: checkpoint `i` (version `10 * (i + 1)`)
/// persists slot `s` of [`SLOTS`] when bit `s` of its mask is set. The
/// non-expert `embedding` (bit 2) persists every time; the experts are
/// skipped on some checkpoints, so GC meets slots whose only version —
/// or only version below the keep anchor — must survive.
const GC_SCRIPTS: [&[u8]; 3] = [
    // Bootstrap, then a K_persist = 1 rotation over the two experts.
    &[0b111, 0b101, 0b110, 0b101, 0b110, 0b101, 0b110, 0b101],
    // expert1 persisted once at bootstrap, then skipped until late.
    &[0b111, 0b101, 0b101, 0b101, 0b101, 0b101, 0b111, 0b101],
    // Irregular: runs of skips for both experts.
    &[
        0b111, 0b100, 0b110, 0b100, 0b100, 0b101, 0b111, 0b100, 0b110,
    ],
];

/// FNV-1a-64 of the store's sorted key list after each script, hashed
/// over every `(gc_keep_last, rebase_interval)` cell in order. Recorded
/// at commit `4fcc5a0`, whose GC nominated through
/// `moc_core::manifest::Manifest::prunable`; any change to which shard
/// versions GC deletes changes them. A deliberate change re-blesses by
/// pasting the digest the failing assertion prints, and has to explain
/// why.
const GC_KEY_DIGESTS: [u64; 3] = [
    0x6340_71ce_fc47_2dc6,
    0x6b69_d8bf_ece8_f4c0,
    0x472d_1df5_fb40_61e9,
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs one script with GC after every commit, checks that every version
/// the chain reports reconstructs bitwise after every pass, and folds
/// the final sorted key list into `hash`.
fn run_gc_script(script: &[u8], keep_last: usize, rebase_interval: u64, hash: &mut u64) {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryObjectStore::new());
    let config = EngineConfig {
        delta: true,
        rebase_interval,
        gc_keep_last: keep_last,
        ..EngineConfig::with_gc(1)
    };
    let mut writer = ShardWriter::new(0, store.clone(), config);
    let cell = format!("keep_last {keep_last} rebase {rebase_interval}");
    // Per slot, the versions the script persisted, ascending.
    let mut written: Vec<Vec<u64>> = vec![Vec::new(); SLOTS.len()];
    for (i, &mask) in script.iter().enumerate() {
        let version = 10 * (i as u64 + 1);
        let shards: Vec<(ShardKey, Vec<u8>)> = SLOTS
            .iter()
            .enumerate()
            .filter(|(s, _)| mask & (1 << s) != 0)
            .map(|(s, name)| {
                written[s].push(version);
                let key = ShardKey::new(*name, StatePart::Weights, version);
                (key, payload(s, version, i as u8))
            })
            .collect();
        writer
            .persist(version, shards.iter().map(|(k, p)| (k, &p[..])))
            .expect("memory store persists");
        writer.gc().expect("memory store prunes");

        let chain = ChainStore::load(store.clone()).unwrap();
        let committed = chain.committed_versions();
        let script_versions: Vec<u64> = (1..=i as u64 + 1).map(|n| 10 * n).collect();
        // The newest `keep_last` versions are always committed, and every
        // slot there resolves to its newest persisted version.
        let anchored = &script_versions[script_versions.len().saturating_sub(keep_last)..];
        for &v in anchored {
            assert!(committed.contains(&v), "{cell}: v{v} not committed");
            for (s, name) in SLOTS.iter().enumerate() {
                let want = written[s].iter().copied().rfind(|&u| u <= v);
                let got = chain.latest_version(name, StatePart::Weights, v).unwrap();
                assert_eq!(got, want, "{cell}: {name} at v{v}");
            }
        }
        // Whatever any committed version still resolves reconstructs
        // bitwise.
        for &v in &committed {
            for (s, name) in SLOTS.iter().enumerate() {
                let Some(u) = chain.latest_version(name, StatePart::Weights, v).unwrap() else {
                    continue;
                };
                let idx = script_versions.iter().position(|&x| x == u).unwrap();
                let got = chain
                    .get(&ShardKey::new(*name, StatePart::Weights, u))
                    .unwrap()
                    .expect("resolved version is served");
                assert_eq!(
                    &got[..],
                    &payload(s, u, idx as u8)[..],
                    "{cell}: {name}@{u}"
                );
            }
        }
    }

    let mut keys = store.keys().unwrap();
    keys.sort();
    for key in keys {
        fnv1a(hash, key.to_string().as_bytes());
        fnv1a(hash, b"\n");
    }
}

/// GC under partial expert persistence: a skipped expert keeps its only
/// version, superseded versions go, every version the chain still
/// reports reconstructs bitwise, and the surviving key set is pinned
/// across commits by a digest.
#[test]
fn gc_under_partial_persistence_keeps_anchors_and_matches_committed_keys() {
    for (script, &committed) in GC_SCRIPTS.iter().zip(&GC_KEY_DIGESTS) {
        let mut observed = 0xCBF2_9CE4_8422_2325u64;
        for keep_last in [1usize, 2, 3] {
            for rebase_interval in [1u64, 3] {
                run_gc_script(script, keep_last, rebase_interval, &mut observed);
            }
        }
        assert_eq!(
            observed, committed,
            "script {script:?}: GC key digest is {observed:#018x}, committed {committed:#018x} — \
             GC now keeps a different key set; if that is deliberate, paste the observed digest \
             into GC_KEY_DIGESTS and explain it"
        );
    }
}
