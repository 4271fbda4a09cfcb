//! Metric catalogue and the result a run prints.
//!
//! Every workload reports the same end-to-end metrics (a `--trace 0` run)
//! and the same per-layer metrics (a `--trace 1` run). A per-layer metric
//! whose layer does no work on a workload reads 0 there; an end-to-end
//! metric is never 0.

use crate::stats::{summarize, Summary};
use goldfinger_obs::Json;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_s", "s"),
    ("quality", "ratio"),
];

/// `(name, unit)` of every per-layer metric, grouped by the workload whose
/// layers produce them.
pub const PER_LAYER: [(&str, &str); 77] = [
    // build-ml1m.
    ("datasets.prepare_s", "s"),
    ("shf.fingerprint_s", "s"),
    ("knn.bf.build_s", "s"),
    ("knn.bf.candidates_s", "s"),
    ("knn.bf.join_s", "s"),
    ("knn.bf.merge_s", "s"),
    ("knn.bf.unattributed_s", "s"),
    ("knn.bf.evals", "count"),
    ("knn.bf.ns_per_eval", "ns"),
    ("knn.bf.useful_ratio", "ratio"),
    ("knn.bf.quality", "ratio"),
    ("kernels.bf.batched_share", "ratio"),
    ("knn.nndescent.build_s", "s"),
    ("knn.nndescent.candidates_s", "s"),
    ("knn.nndescent.join_s", "s"),
    ("knn.nndescent.merge_s", "s"),
    ("knn.nndescent.unattributed_s", "s"),
    ("knn.nndescent.evals", "count"),
    ("knn.nndescent.ns_per_eval", "ns"),
    ("knn.nndescent.useful_ratio", "ratio"),
    ("knn.nndescent.quality", "ratio"),
    ("kernels.nndescent.batched_share", "ratio"),
    ("knn.lsh.build_s", "s"),
    ("knn.lsh.candidates_s", "s"),
    ("knn.lsh.join_s", "s"),
    ("knn.lsh.merge_s", "s"),
    ("knn.lsh.unattributed_s", "s"),
    ("knn.lsh.evals", "count"),
    ("knn.lsh.ns_per_eval", "ns"),
    ("knn.lsh.useful_ratio", "ratio"),
    ("knn.lsh.quality", "ratio"),
    ("kernels.lsh.batched_share", "ratio"),
    ("knn.cluster.build_s", "s"),
    ("knn.cluster.candidates_s", "s"),
    ("knn.cluster.join_s", "s"),
    ("knn.cluster.merge_s", "s"),
    ("knn.cluster.unattributed_s", "s"),
    ("knn.cluster.evals", "count"),
    ("knn.cluster.ns_per_eval", "ns"),
    ("knn.cluster.useful_ratio", "ratio"),
    ("knn.cluster.quality", "ratio"),
    ("kernels.cluster.batched_share", "ratio"),
    ("knn.bf.pruned_share", "ratio"),
    ("knn.nndescent.iterations", "count"),
    ("knn.cluster.capped", "count"),
    ("knn.cluster.dedup_rate", "ratio"),
    // Out-of-core build.
    ("datasets.generate_s", "s"),
    ("oocbuild.fingerprint_s", "s"),
    ("oocbuild.index_s", "s"),
    ("oocbuild.scan_s", "s"),
    ("oocbuild.stitch_s", "s"),
    ("oocbuild.evals", "count"),
    ("oocbuild.ns_per_eval", "ns"),
    ("oocbuild.shards", "count"),
    ("oocbuild.spilled_mb", "MiB"),
    ("oocbuild.graph_mb", "MiB"),
    ("oocbuild.empty_share", "ratio"),
    ("serial.read_s", "s"),
    // Serve replay.
    ("serve.initial_build_s", "s"),
    ("serve.ops_per_s", "1/s"),
    ("serve.visible_p50_ms", "ms"),
    ("serve.visible_p95_ms", "ms"),
    ("serve.visible_samples", "count"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.lookup_samples", "count"),
    ("serve.drain_p50_ms", "ms"),
    ("serve.drain_p95_ms", "ms"),
    ("serve.enqueue_p99_us", "us"),
    ("serve.drains", "count"),
    ("serve.repairs", "count"),
    ("serve.evals_per_repair", "count"),
    ("pool.dispatches_per_drain", "count"),
    ("pool.steals_per_drain", "count"),
    ("pool.parks_per_drain", "count"),
    // Every workload.
    ("mem.growth_mb", "MiB"),
    ("trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Timed operations (builds, replayed ops).
    pub attempted: u64,
    /// Timed operations whose output failed a check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    values: BTreeMap<String, f64>,
    spreads: Vec<(String, Summary)>,
}

impl Report {
    /// Records a single-valued metric (a count, a ratio, an exact order
    /// statistic).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records the median of `samples` and keeps its quartiles for the
    /// human-readable summary.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let s = summarize(samples);
        self.values.insert(name.to_string(), s.median);
        self.spreads.push((name.to_string(), s));
    }

    /// Records a failed check; `op_failed` also counts a failed operation.
    pub fn fail(&mut self, op_failed: bool, msg: String) {
        if op_failed {
            self.failed += 1;
        }
        self.failures.push(msg);
    }

    /// Folds a check result in, counting a failed operation on error.
    pub fn check<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(true, format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Human-readable lines: every recorded metric with its unit, and the
    /// quartiles of the metrics measured more than once.
    pub fn describe(&self, workload: &str, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "workload {workload}: ops_attempted {} ops_failed {}\n",
            self.attempted, self.failed
        );
        for (name, unit) in catalogue {
            let Some(v) = self.values.get(*name) else {
                continue;
            };
            out += &format!("  {name:<28} {v:>14.6} {unit}");
            if let Some((_, s)) = self.spreads.iter().find(|(n, _)| n == name) {
                out += &format!("  (q1 {:.6} q3 {:.6}, n {})", s.q1, s.q3, s.n);
            }
            out.push('\n');
        }
        for f in &self.failures {
            out += &format!("  FAILED {f}\n");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue` with its unit. With `fill_zero` a metric that was not
    /// measured reads 0 (a per-layer metric whose layer a workload does not
    /// exercise, or any metric of a failed run); otherwise it is a bug.
    pub fn result_json(&self, catalogue: &[(&'static str, &'static str)], fill_zero: bool) -> Json {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if fill_zero => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue must match `BENCHMARK.json` name for name and unit for
    /// unit, in both lists.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
