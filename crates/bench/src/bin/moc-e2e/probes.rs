//! Layer probes: direct timed calls into each crate's public functions
//! at the workloads' real sizes.
//!
//! Every timed call is wrapped in a benchmark-side span (name, start,
//! end, parent) kept in memory and written as a Chrome trace when the
//! pass ends; spans inside the program are the runtime's own `moc-obs`
//! trace. Each probe reports the median over [`CALLS`] calls after
//! [`WARM_UPS`] untimed ones.

use crate::metrics::MetricSet;
use crate::stats::{summarize, Summary};
use crate::workloads::{Workload, BATCH, SEQ_LEN};
use bytes::Bytes;
use moc_ckpt::{delta, ChainStore, CkptEngine, EngineConfig, PartialPlan, ShardWriter};
use moc_core::sharding::{ShardingPlanner, ShardingStrategy};
use moc_core::twolevel::ShardJob;
use moc_obs::{Flow, Json, ObsConfig, Report, SpanKind, TraceCollector, TraceSink};
use moc_runtime::collective::ring_all_reduce;
use moc_runtime::{owner_rank, RingMesh, RuntimeConfig};
use moc_store::{
    frame, FileObjectStore, MemoryObjectStore, NodeMemoryStore, ObjectStore, ShardKey, StatePart,
};
use moc_train::checkpoint::{deserialize_module, expert_of, serialize_module};
use moc_train::{adam_step, MarkovCorpus, Matrix, TinyMoeLm};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Timed calls per probe.
pub const CALLS: usize = 30;
/// Untimed calls before them.
pub const WARM_UPS: usize = 3;

/// One benchmark-side span.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span log of the probes.
#[derive(Debug)]
pub struct SpanLog {
    anchor: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// An empty log anchored at now.
    pub fn new() -> Self {
        Self {
            anchor: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Records a finished span under the innermost open one.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start - self.anchor,
            end: end - self.anchor,
            parent: self.open.last().copied(),
        });
    }

    /// Runs `f` inside a span named `name`; spans recorded meanwhile
    /// become its children.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let id = self.spans.len();
        self.record(name, start, start);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now() - self.anchor;
        out
    }

    /// Writes the spans as Chrome-trace complete events; each carries
    /// its own index and its parent's in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let micros = |d: Duration| Json::Num(d.as_nanos() as f64 / 1e3);
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let args = Report::new()
                    .field("id", id)
                    .field("parent", s.parent.map_or(Json::Null, Json::from));
                Report::new()
                    .field("name", s.name)
                    .field("ph", "X")
                    .field("pid", 0u64)
                    .field("tid", 0u64)
                    .field("ts", micros(s.start))
                    .field("dur", micros(s.end.saturating_sub(s.start)))
                    .field("args", args.json())
                    .json()
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Report::new().field("traceEvents", events).write(path)
    }
}

/// Times `timed(setup(i))` for [`WARM_UPS`] untimed and [`CALLS`] timed
/// calls, a span around each timed one; returns seconds per call. The
/// result of `timed` is dropped outside the timed region.
fn sample<S, R>(
    log: &mut SpanLog,
    name: &'static str,
    mut setup: impl FnMut(usize) -> S,
    mut timed: impl FnMut(S) -> R,
) -> Vec<f64> {
    let mut secs = Vec::with_capacity(CALLS);
    for i in 0..WARM_UPS + CALLS {
        let input = setup(i);
        let start = Instant::now();
        let out = black_box(timed(black_box(input)));
        let end = Instant::now();
        drop(out);
        if i >= WARM_UPS {
            log.record(name, start, end);
            secs.push((end - start).as_secs_f64());
        }
    }
    secs
}

/// Scales every sample, e.g. seconds per call to milliseconds.
fn scaled(secs: &[f64], factor: f64) -> Summary {
    summarize(&secs.iter().map(|s| s * factor).collect::<Vec<_>>())
}

/// `amount` per second, from seconds per call.
fn rate(secs: &[f64], amount: f64) -> Summary {
    summarize(&secs.iter().map(|s| amount / s).collect::<Vec<_>>())
}

/// The shard jobs rank `rank` hands its node's engine at a checkpoint
/// with the given expert `selection`, as `moc-runtime`'s rank thread
/// builds them.
fn shard_jobs(
    model: &TinyMoeLm,
    cfg: &RuntimeConfig,
    rank: usize,
    selection: &moc_ckpt::CheckpointSelection,
    version: u64,
) -> Vec<ShardJob> {
    let mut jobs = Vec::new();
    for module in model.store().module_names() {
        if owner_rank(&cfg.topology, &cfg.model, &module) != rank {
            continue;
        }
        let expert = expert_of(&cfg.model, &module);
        for part in [StatePart::Weights, StatePart::Optimizer] {
            let governed = match part {
                StatePart::Weights => cfg.pec_mode.weights,
                _ => cfg.pec_mode.optimizer,
            };
            let (snapshot, persist) = match expert {
                Some(id) if governed => (
                    selection.snapshot.contains(&id),
                    selection.persist.contains(&id),
                ),
                _ => (true, true),
            };
            if snapshot {
                jobs.push(ShardJob {
                    key: ShardKey::new(module.clone(), part, version),
                    payload: serialize_module(model, &module, part),
                    persist,
                });
            }
        }
    }
    jobs
}

/// Every `(module, part)` payload of the model: one full checkpoint
/// (keyed at version 0; [`persist`] rekeys).
fn full_state(model: &TinyMoeLm) -> Vec<(ShardKey, Bytes)> {
    let mut out = Vec::new();
    for module in model.store().module_names() {
        for part in [StatePart::Weights, StatePart::Optimizer] {
            out.push((
                ShardKey::new(module.clone(), part, 0),
                serialize_module(model, &module, part),
            ));
        }
    }
    out
}

fn total_len(shards: &[(ShardKey, Bytes)]) -> f64 {
    shards.iter().map(|(_, b)| b.len()).sum::<usize>() as f64
}

/// Persists `shards` through `writer` as checkpoint `version`.
fn persist(writer: &mut ShardWriter, version: u64, shards: &[(ShardKey, Bytes)]) {
    let rekeyed: Vec<(ShardKey, &[u8])> = shards
        .iter()
        .map(|(k, b)| (ShardKey::new(k.module.clone(), k.part, version), &b[..]))
        .collect();
    writer
        .persist(version, rekeyed.iter().map(|(k, b)| (k, *b)))
        .expect("probe store accepts the checkpoint");
}

/// What every probe shares: the configuration that sizes them, where
/// they record spans and report, and a scratch directory for the
/// file-store ones.
struct Probes<'a> {
    /// The paper's MoC configuration: it fixes the model, topology, PEC
    /// degrees and engine policy.
    cfg: RuntimeConfig,
    seed: u64,
    dir: &'a Path,
    log: &'a mut SpanLog,
    set: &'a mut MetricSet,
}

/// A model a few steps into training, with one full checkpoint of it
/// four optimizer steps before the end (`early`) and one at the end
/// (`late`): `ckpt_async`'s `i_ckpt`.
struct Trained {
    model: TinyMoeLm,
    early: Vec<(ShardKey, Bytes)>,
    late: Vec<(ShardKey, Bytes)>,
}

/// Runs every probe, reporting the P metrics into `set`. `dir` is an
/// empty scratch directory for the file-store probes.
pub fn run_probes(seed: u64, dir: &Path, log: &mut SpanLog, set: &mut MetricSet) {
    let mut probes = Probes {
        cfg: Workload::CkptAsync.config(seed, 0, ObsConfig::default()),
        seed,
        dir,
        log,
        set,
    };
    let trained = probes.rank_step();
    probes.train(&trained);
    probes.core();
    probes.ckpt(&trained);
    probes.store(&trained);
    probes.collective(&trained);
    probes.obs();
}

impl Probes<'_> {
    fn corpus(&self) -> MarkovCorpus {
        MarkovCorpus::new(self.cfg.model.vocab_size(), self.cfg.topics, self.seed)
    }

    fn pec_plan(&self) -> PartialPlan {
        let model = &self.cfg.model;
        PartialPlan::new(
            self.cfg.k_snapshot,
            self.cfg.k_persist,
            model.num_experts(),
            model.num_moe_layers(),
        )
    }

    /// train + moe: one rank's step — forward/backward on its 4 × 32
    /// slice, then Adam — call by call, with the routing counts of each.
    /// Returns the trained model.
    fn rank_step(&mut self) -> Trained {
        let corpus = self.corpus();
        let (cfg, seed) = (&self.cfg, self.seed);
        let per_rank = cfg.batch_per_rank();
        let mut model = TinyMoeLm::new(cfg.model.clone(), seed);
        let mut fwd_bwd = Vec::new();
        let mut adam = Vec::new();
        let mut imbalance = Vec::new();
        let (mut dropped, mut routed) = (0u64, 0u64);
        let mut early = Vec::new();
        self.log.scope("train", |log| {
            for i in 0..WARM_UPS + CALLS {
                let batch = corpus.batch(i as u64, BATCH, SEQ_LEN);
                model.store_mut().zero_grads();
                let start = Instant::now();
                let stats = model.forward_backward(&batch[..per_rank], seed ^ i as u64);
                let mid = Instant::now();
                black_box(adam_step(model.store_mut(), &cfg.adam));
                let end = Instant::now();
                if i < WARM_UPS {
                    continue;
                }
                log.record("train.fwd_bwd", start, mid);
                log.record("train.adam_step", mid, end);
                fwd_bwd.push((mid - start).as_secs_f64());
                adam.push((end - mid).as_secs_f64());
                for loads in &stats.expert_loads {
                    let total: u64 = loads.iter().sum();
                    let max = loads.iter().copied().max().unwrap_or(0);
                    if total > 0 {
                        imbalance.push(max as f64 * loads.len() as f64 / total as f64);
                    }
                    routed += total;
                }
                dropped += stats.dropped_tokens;
                if i + 5 == WARM_UPS + CALLS {
                    early = full_state(&model);
                }
            }
        });
        self.set.put("train.fwd_bwd_ms", scaled(&fwd_bwd, 1e3));
        self.set.put("train.adam_step_ms", scaled(&adam, 1e3));
        self.set.put("moe.load_imbalance", summarize(&imbalance));
        self.set.put_value(
            "moe.dropped_token_ratio",
            dropped as f64 / (routed + dropped).max(1) as f64,
        );
        let late = full_state(&model);
        Trained { model, early, late }
    }

    /// train: the dominant matmul, the one-worker baseline, and
    /// (de)serialization of the whole state.
    fn train(&mut self, trained: &Trained) {
        let corpus = self.corpus();
        let (cfg, seed, set) = (&self.cfg, self.seed, &mut *self.set);
        self.log.scope("train", |log| {
            // One sequence's activations through an expert's first
            // projection.
            let (m, k, n) = (
                SEQ_LEN,
                cfg.model.hidden_size(),
                cfg.model.ffn_intermediate(),
            );
            let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 7) as f32 * 0.25).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 5) as f32 * 0.5).collect());
            const REPS: usize = 200;
            let secs = sample(
                log,
                "train.matmul",
                |_| (),
                |()| {
                    (0..REPS)
                        .map(|_| black_box(&a).matmul(black_box(&b)).at(0, 0))
                        .sum::<f32>()
                },
            );
            set.put(
                "train.matmul_gflops",
                rate(&secs, (2 * m * k * n * REPS) as f64 / 1e9),
            );

            // The plain one-worker baseline: the whole global batch on
            // one thread, no collective, no coordinator.
            let mut solo = TinyMoeLm::new(cfg.model.clone(), seed);
            let secs = sample(
                log,
                "train.single_rank_step",
                |i| corpus.batch(i as u64, BATCH, SEQ_LEN),
                |batch| {
                    solo.store_mut().zero_grads();
                    solo.forward_backward(&batch, seed);
                    adam_step(solo.store_mut(), &cfg.adam)
                },
            );
            set.put(
                "train.single_rank_tokens_per_s",
                rate(&secs, (BATCH * SEQ_LEN) as f64),
            );

            let mb = total_len(&trained.late) / 1e6;
            let secs = sample(
                log,
                "train.serialize",
                |_| (),
                |()| full_state(&trained.model),
            );
            set.put("train.serialize_mb_per_s", rate(&secs, mb));
            let mut target = trained.model.clone();
            let secs = sample(
                log,
                "train.deserialize",
                |_| (),
                |()| {
                    for (key, bytes) in &trained.late {
                        deserialize_module(&mut target, &key.module, key.part, bytes);
                    }
                },
            );
            set.put("train.deserialize_mb_per_s", rate(&secs, mb));
        });
    }

    /// core: PEC selection plus its sharded snapshot/persist workloads.
    fn core(&mut self) {
        let plan = self.pec_plan();
        let planner = ShardingPlanner::new(self.cfg.model.clone(), self.cfg.topology)
            .expect("experts divide over ep");
        let strategy = ShardingStrategy::FullySharded;
        let set = &mut *self.set;
        self.log.scope("core", |log| {
            let secs = sample(
                log,
                "core.pec_select",
                |i| i as u64,
                |t| {
                    (
                        plan.at(t),
                        plan.snapshot_workload(&planner, strategy, t),
                        plan.persist_workload(&planner, strategy, t),
                    )
                },
            );
            set.put("core.pec_select_us", scaled(&secs, 1e6));
        });
    }

    /// ckpt: engine submit, delta encode/apply, the blocking writer, and
    /// the chain load recovery starts with.
    fn ckpt(&mut self, trained: &Trained) {
        let plan = self.pec_plan();
        let (cfg, dir, set) = (&self.cfg, self.dir, &mut *self.set);
        let owned_by = |writer: usize, state: &[(ShardKey, Bytes)]| -> Vec<(ShardKey, Bytes)> {
            state
                .iter()
                .filter(|(key, _)| owner_rank(&cfg.topology, &cfg.model, &key.module) == writer)
                .cloned()
                .collect()
        };
        self.log.scope("ckpt", |log| {
            // Submit: node 0's share of one PEC checkpoint into an engine
            // over a memory store — snapshot-tier put plus pooled copy,
            // no store I/O on this thread.
            let engine = CkptEngine::spawn(
                0,
                Some(Arc::new(NodeMemoryStore::new())),
                Arc::new(MemoryObjectStore::new()),
                cfg.ckpt,
            );
            let secs = sample(
                log,
                "ckpt.submit",
                |i| {
                    engine.wait_idle();
                    let version = i as u64 + 1;
                    let jobs = shard_jobs(&trained.model, cfg, 0, &plan.at(version), version);
                    (version, jobs)
                },
                |(version, jobs)| engine.submit(version, jobs),
            );
            set.put("ckpt.submit_ms", scaled(&secs, 1e3));
            let stats = engine.shutdown();
            assert!(stats.errors.is_empty(), "submit probe: {:?}", stats.errors);

            // Delta: every optimizer shard against itself four
            // iterations earlier.
            let pairs: Vec<(&Bytes, &Bytes)> = trained
                .early
                .iter()
                .zip(&trained.late)
                .filter(|((key, _), _)| key.part == StatePart::Optimizer)
                .map(|((_, old), (_, new))| (old, new))
                .collect();
            let raw: usize = pairs.iter().map(|(_, new)| new.len()).sum();
            let mut deltas: Vec<Vec<u8>> = vec![Vec::new(); pairs.len()];
            let mut encoded = vec![false; pairs.len()];
            let secs = sample(
                log,
                "ckpt.delta_encode",
                |_| (),
                |()| {
                    for (i, (old, new)) in pairs.iter().enumerate() {
                        encoded[i] = delta::encode_into(old, new, 0, &mut deltas[i]);
                    }
                },
            );
            set.put("ckpt.delta_encode_mb_per_s", rate(&secs, raw as f64 / 1e6));
            // A shard whose delta is not smaller is stored whole.
            let stored: usize = (0..pairs.len())
                .map(|i| {
                    if encoded[i] {
                        deltas[i].len()
                    } else {
                        pairs[i].1.len()
                    }
                })
                .sum();
            set.put_value("ckpt.delta_ratio", stored as f64 / raw as f64);
            let applied: usize = (0..pairs.len())
                .filter(|&i| encoded[i])
                .map(|i| pairs[i].1.len())
                .sum();
            let secs = sample(
                log,
                "ckpt.delta_apply",
                |_| (),
                |()| {
                    for (i, (old, _)) in pairs.iter().enumerate() {
                        if encoded[i] {
                            black_box(
                                delta::apply(old, &deltas[i]).expect("delta applies to its base"),
                            );
                        }
                    }
                },
            );
            set.put(
                "ckpt.delta_apply_mb_per_s",
                rate(&secs, applied.max(1) as f64 / 1e6),
            );

            // The paper's blocking baseline: one full checkpoint written
            // through the synchronous writer core, full shards only.
            let mut mem_writer = ShardWriter::new(
                0,
                Arc::new(MemoryObjectStore::new()),
                EngineConfig::full_only(),
            );
            let secs = sample(
                log,
                "ckpt.writer_persist_mem",
                |i| i as u64 + 1,
                |version| persist(&mut mem_writer, version, &trained.late),
            );
            set.put("ckpt.writer_persist_mem_ms", scaled(&secs, 1e3));
            let file_dir = dir.join("writer");
            let mut file_writer =
                ShardWriter::new(0, open_file_store(&file_dir), EngineConfig::full_only());
            let secs = sample(
                log,
                "ckpt.writer_persist_file",
                |i| i as u64 + 1,
                |version| persist(&mut file_writer, version, &trained.late),
            );
            set.put("ckpt.writer_persist_file_ms", scaled(&secs, 1e3));
            drop(file_writer);
            let _ = std::fs::remove_dir_all(&file_dir);

            // Chain load: two writers' chains of a bootstrap plus six
            // delta-encoded checkpoints on disk.
            let chain_dir = dir.join("chain");
            let chain_store = open_file_store(&chain_dir);
            for writer_id in 0..2 {
                let mut writer = ShardWriter::new(writer_id, chain_store.clone(), cfg.ckpt);
                let states = [
                    owned_by(writer_id, &trained.early),
                    owned_by(writer_id, &trained.late),
                ];
                for version in 0..7u64 {
                    persist(&mut writer, version, &states[version as usize % 2]);
                }
            }
            let secs = sample(
                log,
                "ckpt.chain_load",
                |_| (),
                |()| ChainStore::load_expecting(chain_store.clone(), Some(2)).expect("chain loads"),
            );
            set.put("ckpt.chain_load_ms", scaled(&secs, 1e3));
            let _ = std::fs::remove_dir_all(&chain_dir);
        });
    }

    /// store: checksum, framing, and put/get at the run's mean shard
    /// size (a full checkpoint's bytes over its shard count).
    fn store(&mut self, trained: &Trained) {
        let (dir, set) = (self.dir, &mut *self.set);
        self.log.scope("store", |log| {
            let shard_len = (total_len(&trained.late) / trained.late.len() as f64) as usize;
            let blob: Vec<u8> = trained
                .late
                .iter()
                .flat_map(|(_, b)| b.iter().copied())
                .collect();
            let payload = Bytes::from(blob[..shard_len].to_vec());
            let mb = shard_len as f64 / 1e6;
            let key = |i: usize| ShardKey::new("probe/shard", StatePart::Weights, i as u64);

            let secs = sample(
                log,
                "store.crc32",
                |_| (),
                |()| frame::crc32(black_box(&blob)),
            );
            set.put("store.crc32_mb_per_s", rate(&secs, blob.len() as f64 / 1e6));
            let secs = sample(log, "store.frame_encode", key, |k| {
                frame::encode(&k, &payload)
            });
            set.put("store.frame_encode_mb_per_s", rate(&secs, mb));
            let framed = frame::encode(&key(0), &payload);
            let secs = sample(
                log,
                "store.frame_decode",
                |_| (),
                |()| frame::decode(&framed).expect("frame round-trips"),
            );
            set.put("store.frame_decode_mb_per_s", rate(&secs, mb));

            let file_dir = dir.join("store");
            let files = open_file_store(&file_dir);
            let secs = sample(
                log,
                "store.file_put",
                |i| (key(i), payload.clone()),
                |(k, p)| files.put(&k, p).expect("file put"),
            );
            set.put("store.file_put_ms_p50", scaled(&secs, 1e3));
            set.put("store.file_put_mb_per_s", rate(&secs, mb));
            let secs = sample(log, "store.file_get", key, |k| {
                files.get(&k).expect("file get").expect("shard was put")
            });
            set.put("store.file_get_mb_per_s", rate(&secs, mb));
            let _ = std::fs::remove_dir_all(&file_dir);

            let memory = NodeMemoryStore::new();
            let secs = sample(
                log,
                "store.mem_put",
                |i| (key(i), payload.clone()),
                |(k, p)| memory.put(&k, p),
            );
            set.put("store.mem_put_us", scaled(&secs, 1e6));
        });
    }

    /// collective: the world-2 ring on the model-sized gradient and on a
    /// single chunk, plus the computed traffic of one step.
    fn collective(&mut self, trained: &Trained) {
        let (world, chunk) = (self.cfg.topology.dp(), self.cfg.ring_chunk);
        let grad_len =
            usize::try_from(trained.model.store().scalar_count()).expect("model fits memory");
        let set = &mut *self.set;
        self.log.scope("collective", |log| {
            let full = ring_probe(log, "collective.ring_allreduce", world, grad_len, chunk);
            set.put("collective.ring_allreduce_ms", scaled(&full, 1e3));
            // One chunk makes two channel hops in a world of two: out on
            // the reduce leg, back on the gather leg.
            let one = ring_probe(log, "collective.ring_one_chunk", world, chunk, chunk);
            let hops = 2 * (world - 1);
            set.put("collective.ring_hop_us", scaled(&one, 1e6 / hops as f64));
            let chunks = grad_len.div_ceil(chunk);
            set.put_value("collective.bytes_per_step", (grad_len * 4 * hops) as f64);
            set.put_value("collective.msgs_per_step", (chunks * hops) as f64);
        });
    }

    /// obs: what recording one span costs, enabled and dark.
    fn obs(&mut self) {
        const SPANS: usize = 1000;
        let record = |sink: &mut TraceSink| {
            for i in 0..SPANS {
                sink.record(SpanKind::Phase, "compute", i as u64, 0.0, 1e-6, Flow::None);
            }
        };
        let set = &mut *self.set;
        self.log.scope("obs", |log| {
            let collector = TraceCollector::new(&ObsConfig::enabled());
            let mut sink = collector.sink(0, 0, "bench", "probe");
            let secs = sample(
                log,
                "obs.span_record",
                |_| (),
                |()| record(black_box(&mut sink)),
            );
            set.put("obs.span_record_ns", scaled(&secs, 1e9 / SPANS as f64));
            let mut dark = TraceSink::disabled();
            let secs = sample(
                log,
                "obs.span_disabled",
                |_| (),
                |()| record(black_box(&mut dark)),
            );
            set.put("obs.span_disabled_ns", scaled(&secs, 1e9 / SPANS as f64));
        });
    }
}

fn open_file_store(dir: &Path) -> Arc<dyn ObjectStore> {
    Arc::new(FileObjectStore::open(dir).expect("scratch directory is writable"))
}

/// Times `ring_all_reduce` on a standalone mesh, one thread per rank in
/// lock step; returns rank 0's seconds per collective.
fn ring_probe(
    log: &mut SpanLog,
    name: &'static str,
    world: usize,
    grad_len: usize,
    chunk: usize,
) -> Vec<f64> {
    let mesh = RingMesh::new(world, grad_len, chunk);
    let barrier = Barrier::new(world);
    let timeout = Duration::from_secs(5);
    let mut timings: Vec<(Instant, Instant)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let endpoints = mesh.endpoints(rank);
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut grad = vec![rank as f32 + 0.5; grad_len];
                    let mut spans = Vec::with_capacity(CALLS);
                    for i in 0..WARM_UPS + CALLS {
                        barrier.wait();
                        let start = Instant::now();
                        ring_all_reduce(&endpoints, &mut grad, 0, i as u64, timeout)
                            .expect("standalone ring completes");
                        if i >= WARM_UPS {
                            spans.push((start, Instant::now()));
                        }
                    }
                    spans
                })
            })
            .collect();
        for (rank, handle) in handles.into_iter().enumerate() {
            let spans = handle.join().expect("ring probe thread");
            if rank == 0 {
                timings = spans;
            }
        }
    });
    timings
        .into_iter()
        .map(|(start, end)| {
            log.record(name, start, end);
            (end - start).as_secs_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_scope() {
        let mut log = SpanLog::new();
        log.scope("outer", |log| {
            let now = Instant::now();
            log.record("leaf", now, now);
            log.scope("inner", |log| log.record("deep", now, now));
        });
        let parents: Vec<(&str, Option<usize>)> =
            log.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("leaf", Some(0)),
                ("inner", Some(0)),
                ("deep", Some(2))
            ]
        );
        assert!(log.spans[0].end >= log.spans[3].end);
        assert!(log.open.is_empty());
    }

    #[test]
    fn sample_times_only_the_calls_after_the_warm_ups() {
        let mut log = SpanLog::new();
        let mut seen = Vec::new();
        let secs = sample(&mut log, "probe", |i| i, |i| seen.push(i));
        assert_eq!(secs.len(), CALLS);
        assert_eq!(seen.len(), WARM_UPS + CALLS);
        assert_eq!(log.spans.len(), CALLS);
    }
}
