//! The declared metrics — the same names, units and bounds
//! `BENCHMARK.json` lists — and the collector every pass reports
//! through, which refuses an undeclared or repeated name.

use crate::stats::Summary;
use moc_obs::Json;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, overheads).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; layer metrics carry 0).
    pub bound: f64,
    /// Whether a layer probe measures it (P): the same on every workload,
    /// so `run` probes once. The other layer metrics (R) come from the
    /// traced jobs.
    pub probed: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        probed: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        probed: false,
    }
}

const fn probe(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        probed: true,
        ..layer(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured dark, defined and non-zero on all four
/// workloads (the driver divides by the parent's median).
pub const END_TO_END: &[MetricDef] = &[
    e2e("tokens_per_s", "1/s", Higher, 0.25),
    e2e("persisted_mb_per_ckpt", "MB", Lower, 0.03),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics: probes (P) and traced-run summaries (R).
pub const PER_LAYER: &[MetricDef] = &[
    // train
    probe("train.fwd_bwd_ms", "ms", Lower),
    probe("train.adam_step_ms", "ms", Lower),
    probe("train.matmul_gflops", "GFLOP/s", Higher),
    probe("train.single_rank_tokens_per_s", "1/s", Higher),
    probe("train.serialize_mb_per_s", "MB/s", Higher),
    probe("train.deserialize_mb_per_s", "MB/s", Higher),
    layer("train.compute_share", "ratio", Lower),
    layer("train.apply_share", "ratio", Lower),
    // moe
    probe("moe.load_imbalance", "ratio", Lower),
    probe("moe.dropped_token_ratio", "ratio", Lower),
    // core
    probe("core.pec_select_us", "us", Lower),
    layer("core.recovery_plan_ms", "ms", Lower),
    // ckpt
    layer("ckpt.o_save_ms_p50", "ms", Lower),
    layer("ckpt.o_save_ms_p90", "ms", Lower),
    layer("ckpt.stall_ratio", "ratio", Lower),
    probe("ckpt.submit_ms", "ms", Lower),
    probe("ckpt.delta_encode_mb_per_s", "MB/s", Higher),
    probe("ckpt.delta_ratio", "ratio", Lower),
    probe("ckpt.delta_apply_mb_per_s", "MB/s", Higher),
    probe("ckpt.writer_persist_mem_ms", "ms", Lower),
    probe("ckpt.writer_persist_file_ms", "ms", Lower),
    probe("ckpt.chain_load_ms", "ms", Lower),
    layer("ckpt.writer_busy_share", "ratio", Lower),
    layer("ckpt.encode_s", "s", Lower),
    layer("ckpt.persist_s", "s", Lower),
    layer("ckpt.pool_allocs", "count", Lower),
    layer("ckpt.stalls", "count", Lower),
    // store
    probe("store.crc32_mb_per_s", "MB/s", Higher),
    probe("store.frame_encode_mb_per_s", "MB/s", Higher),
    probe("store.frame_decode_mb_per_s", "MB/s", Higher),
    probe("store.file_put_ms_p50", "ms", Lower),
    probe("store.file_put_mb_per_s", "MB/s", Higher),
    probe("store.file_get_mb_per_s", "MB/s", Higher),
    probe("store.mem_put_us", "us", Lower),
    layer("store.retries", "count", Lower),
    layer("store.write_amplification", "ratio", Lower),
    // collective
    probe("collective.ring_allreduce_ms", "ms", Lower),
    probe("collective.ring_hop_us", "us", Lower),
    probe("collective.bytes_per_step", "B", Lower),
    probe("collective.msgs_per_step", "count", Lower),
    layer("collective.ring_wait_ms", "ms", Lower),
    layer("collective.fold_ms", "ms", Lower),
    layer("collective.star_reduce_ms", "ms", Lower),
    layer("collective.allocs", "count", Lower),
    // coordinator
    layer("coordinator.iter_overhead_ms", "ms", Lower),
    layer("coordinator.control_share", "ratio", Lower),
    layer("coordinator.idle_share", "ratio", Lower),
    layer("coordinator.setup_ms", "ms", Lower),
    // recovery / detector
    layer("recovery.fault_to_resume_s_p50", "s", Lower),
    layer("recovery.recover_s_p50", "s", Lower),
    layer("recovery.replayed_iters_per_fault", "count", Lower),
    layer("recovery.fetch_ms", "ms", Lower),
    layer("recovery.restore_ms", "ms", Lower),
    layer("recovery.memory_hit_ratio", "ratio", Higher),
    layer("recovery.bytes", "B", Lower),
    layer("detector.detect_s_p50", "s", Lower),
    layer("detector.windows_to_declare", "count", Lower),
    // elastic
    layer("elastic.expand_s_p50", "s", Lower),
    layer("elastic.shrink_rebalance_us", "us", Lower),
    layer("elastic.expand_restore_ms", "ms", Lower),
    layer("elastic.degraded_iters", "count", Lower),
    layer("elastic.survivor_ring_iters", "count", Higher),
    // obs
    layer("obs.trace_overhead_ratio", "ratio", Higher),
    layer("obs.spans_per_iter", "count", Lower),
    probe("obs.span_record_ns", "ns", Lower),
    probe("obs.span_disabled_ns", "ns", Lower),
    layer("obs.finish_ms", "ms", Lower),
    layer("obs.audit_violations", "count", Lower),
    layer("obs.blame_unaccounted_share", "ratio", Lower),
];

/// One reported value.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    /// The declaration it answers.
    pub def: &'static MetricDef,
    /// Median (or the single measurement) with its sample count and
    /// spread.
    pub summary: Summary,
}

/// Collects the values of one pass against a declared table.
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [MetricDef],
    values: Vec<Reported>,
}

impl MetricSet {
    /// An empty set answering `table`.
    pub fn new(table: &'static [MetricDef]) -> Self {
        Self {
            table,
            values: Vec::new(),
        }
    }

    /// Reports `name` from per-sample values.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the table or was already reported:
    /// both are bugs in the benchmark, not in the program measured.
    pub fn put(&mut self, name: &str, summary: Summary) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(
            self.values.iter().all(|r| r.def.name != name),
            "metric {name} reported twice"
        );
        self.values.push(Reported { def, summary });
    }

    /// Reports a single measurement.
    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(
            name,
            Summary {
                value,
                n: 1,
                spread: 0.0,
            },
        );
    }

    /// The value already reported as `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was not reported yet.
    pub fn value(&self, name: &str) -> f64 {
        let reported = self.values.iter().find(|r| r.def.name == name);
        reported
            .unwrap_or_else(|| panic!("metric {name} was not reported yet"))
            .summary
            .value
    }

    /// Reports every probed metric from `record`, the detailed record
    /// ([`to_json`]) of an earlier pass that ran the probes.
    pub fn fill_probed_from(&mut self, record: &Json) -> Result<(), String> {
        for def in self.table.iter().filter(|d| d.probed) {
            let field = |key: &str| {
                let metric = record.get("metrics")?.get(def.name)?;
                metric.get(key)?.as_f64()
            };
            let (Some(value), Some(n), Some(spread)) =
                (field("value"), field("n"), field("spread"))
            else {
                return Err(format!("{} is missing from the earlier record", def.name));
            };
            let n = n as usize;
            self.put(def.name, Summary { value, n, spread });
        }
        Ok(())
    }

    /// The reported values in table order.
    ///
    /// # Panics
    ///
    /// Panics when a declared metric was never reported.
    pub fn finish(self) -> Vec<Reported> {
        self.table
            .iter()
            .map(|def| {
                *self
                    .values
                    .iter()
                    .find(|r| r.def.name == def.name)
                    .unwrap_or_else(|| panic!("metric {} was never reported", def.name))
            })
            .collect()
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}` — the `metrics` object of
/// the driver's result line. With `detailed`, each value also carries its
/// sample count and spread: the form the `run` report records and
/// `compare` reads.
pub fn to_json(values: &[Reported], detailed: bool) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(r.summary.value)),
                    ("unit".to_string(), Json::from(r.def.unit)),
                ];
                if detailed {
                    fields.push(("n".to_string(), Json::from(r.summary.n)));
                    fields.push(("spread".to_string(), Json::Num(r.summary.spread)));
                }
                (r.def.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn declared_names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(def.name), "bad name {}", def.name);
            assert!(seen.insert(def.name), "{} declared twice", def.name);
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                !def.unit.is_empty() && def.unit.len() <= 16 && def.unit.chars().all(unit_ok),
                "bad unit {} on {}",
                def.unit,
                def.name
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_tables() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
            let text =
                |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            doc.get(section)
                .and_then(Json::as_array)
                .expect(section)
                .iter()
                .map(|m| {
                    (
                        text(m, "name"),
                        text(m, "unit"),
                        text(m, "better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let declared =
            |table: &[MetricDef], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                table
                    .iter()
                    .map(|d| {
                        let better = if d.better == Higher {
                            "higher"
                        } else {
                            "lower"
                        };
                        (
                            d.name.to_string(),
                            d.unit.to_string(),
                            better.to_string(),
                            bounded.then_some(d.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(listed("end_to_end"), declared(END_TO_END, true));
        assert_eq!(listed("per_layer"), declared(PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_full_set_emits_each_declared_name_exactly_once() {
        for table in [END_TO_END, PER_LAYER] {
            let mut set = MetricSet::new(table);
            for def in table.iter().rev() {
                set.put_value(def.name, 1.0);
            }
            let out = set.finish();
            let names: Vec<&str> = out.iter().map(|r| r.def.name).collect();
            let declared: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, declared);
            assert_eq!(
                to_json(&out, false).as_object().map(<[_]>::len),
                Some(table.len())
            );
        }
    }

    #[test]
    fn probed_values_carry_over_from_an_earlier_record() {
        let mut first = MetricSet::new(PER_LAYER);
        for (i, def) in PER_LAYER.iter().enumerate() {
            first.put_value(def.name, i as f64);
        }
        let metrics = to_json(&first.finish(), true);
        let record = Json::Obj(vec![("metrics".to_string(), metrics)]);
        let mut later = MetricSet::new(PER_LAYER);
        later.fill_probed_from(&record).expect("complete record");
        for (i, def) in PER_LAYER.iter().enumerate() {
            let carried = later.values.iter().find(|r| r.def.name == def.name);
            assert_eq!(
                carried.map(|r| r.summary.value),
                def.probed.then_some(i as f64)
            );
        }
        let empty = Json::Obj(Vec::new());
        assert!(MetricSet::new(PER_LAYER).fill_probed_from(&empty).is_err());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_repeated_name_is_refused() {
        let mut set = MetricSet::new(END_TO_END);
        set.put_value("setup_s", 1.0);
        set.put_value("setup_s", 2.0);
    }

    #[test]
    #[should_panic(expected = "never reported")]
    fn a_missing_name_is_refused() {
        MetricSet::new(END_TO_END).finish();
    }
}
