//! The metric catalog. Every workload prints every metric of the set
//! its mode asks for, so runs of different workloads compare name by
//! name. A per-layer metric of a layer the workload never calls reads 0:
//! the layer was bypassed, which the layer map in `README.md` predicts.

use std::collections::BTreeMap;

use crate::report::Metric;

/// End-to-end metrics (`--trace 0`): what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), named `<crate>.<what>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("core.baselines_s", "s"),
    ("core.grid_s", "s"),
    ("core.cell_max_s", "s"),
    ("core.units_per_s", "units/s"),
    ("core.timeouts", "count"),
    ("core.cost_units", "units"),
    ("families.enumerate_s", "s"),
    ("families.sample_s", "s"),
    ("families.queries", "count"),
    ("advisor.advise_s", "s"),
    ("advisor.recommend_s", "s"),
    ("advisor.search_s", "s"),
    ("advisor.presearch_s", "s"),
    ("advisor.whatif_calls", "count"),
    ("advisor.planner_calls", "count"),
    ("advisor.cache_hit_rate", "share"),
    ("storage.config_build_s", "s"),
    ("storage.wal_bytes_per_insert", "B"),
    ("storage.retained_mb_per_insert", "MB"),
    ("storage.recover_s", "s"),
    ("sqlq.parse_us", "us"),
    ("engine.run_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.state_clone_ms", "ms"),
    ("engine.replay_ms_per_insert", "ms"),
    ("server.ping_p50_ms", "ms"),
    ("server.query_overhead_ms", "ms"),
    ("server.insert_overhead_ms", "ms"),
    ("server.shed", "count"),
    ("server.refused", "count"),
    ("trace.overhead_share", "share"),
];

/// Metric values set by a workload, looked up by catalog name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Set a metric. The name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// The metrics of one mode, in catalog order. An end-to-end metric
    /// the workload did not set is a bug in the workload; an unset
    /// per-layer metric belongs to a bypassed layer and reads 0.
    pub fn finish(&self, per_layer: bool) -> Vec<Metric> {
        let catalog = if per_layer { PER_LAYER } else { END_TO_END };
        catalog
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if per_layer => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                Metric { name, value, unit }
            })
            .collect()
    }
}
