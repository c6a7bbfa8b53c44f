//! Key listing and recovery *planning* must not scale with stored
//! payload bytes: `FileObjectStore` lists keys from an index it builds
//! from frame headers only, and `ChainStore::load` — which lists keys and decodes manifests —
//! fetches manifest payloads but never shard payloads. The
//! [`CountingStore`] wrapper observes every `get` crossing the store
//! boundary, so the property is checked literally.

use moc_ckpt::testing::CountingStore;
use moc_ckpt::{manifest_writer, ChainStore, EngineConfig, ShardWriter};
use moc_store::{FileObjectStore, ObjectStore, ShardKey, StatePart};
use std::sync::Arc;

fn payload(tag: u8, n: usize) -> Vec<u8> {
    (0..n).map(|i| (i as u8).wrapping_mul(tag)).collect()
}

/// Loading the committed chain view over a file-backed store with large
/// shard payloads reads only manifest payloads: shard bytes cross the
/// store boundary exclusively when a recovery plan fetches them.
#[test]
fn chain_load_never_deserializes_shard_payloads() {
    let root = std::env::temp_dir().join(format!("moc-ckpt-keylist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let file_store: Arc<dyn ObjectStore> = Arc::new(FileObjectStore::open(&root).unwrap());
    let counting = Arc::new(CountingStore::new(file_store));
    let store: Arc<dyn ObjectStore> = counting.clone();

    // Persist three checkpoints of two large modules (full shards only,
    // so payload sizes are predictable and dwarf the manifests).
    const SHARD_BYTES: usize = 64 * 1024;
    let mut writer = ShardWriter::new(0, store.clone(), EngineConfig::full_only());
    for v in [10u64, 20, 30] {
        let a = payload(v as u8 + 1, SHARD_BYTES);
        let b = payload(v as u8 + 2, SHARD_BYTES);
        let ka = ShardKey::new("layer1.expert0", StatePart::Weights, v);
        let kb = ShardKey::new("layer1.expert1", StatePart::Weights, v);
        writer.persist(v, [(&ka, &a[..]), (&kb, &b[..])]).unwrap();
    }

    let puts_done_gets = counting.gets();
    let chain = ChainStore::load(store).unwrap();
    assert_eq!(chain.committed_versions(), vec![10, 20, 30]);

    // Every get the load performed was a manifest, never a shard.
    assert!(counting.key_listings() >= 1, "load lists keys");
    let manifest_keys: Vec<ShardKey> = counting
        .keys()
        .unwrap()
        .into_iter()
        .filter(|k| manifest_writer(&k.module).is_some())
        .collect();
    let load_gets = counting.gets() - puts_done_gets;
    assert_eq!(
        load_gets,
        manifest_keys.len() as i64,
        "chain load must fetch exactly the manifests"
    );
    assert!(
        counting.get_bytes() < (SHARD_BYTES / 2) as i64,
        "bytes served during load ({}) must not include any {SHARD_BYTES}-byte shard",
        counting.get_bytes()
    );

    // Fetching one committed shard through the view reads exactly that
    // shard's payload (plus nothing else).
    let before = counting.get_bytes();
    let got = chain
        .get(&ShardKey::new("layer1.expert0", StatePart::Weights, 30))
        .unwrap()
        .unwrap();
    assert_eq!(got.len(), SHARD_BYTES);
    assert_eq!(counting.get_bytes() - before, SHARD_BYTES as i64);
    std::fs::remove_dir_all(&root).unwrap();
}
