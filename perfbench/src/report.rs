//! Metric declarations, output checks and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`. The
/// same names, units and order appear in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("heldout_nll_per_token", "nats"),
    ("train_nll_per_token", "nats"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A layer
/// the workload does not load reads 0. Same names, units and order as in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_s", "s"),
    ("corpus.views_s", "s"),
    ("warp.iter_s", "s"),
    ("warp.word_phase_s", "s"),
    ("warp.doc_phase_s", "s"),
    ("warp.outside_phase_s", "s"),
    ("warp.allocs_per_iter", "count"),
    ("warp.topic_change_frac", "ratio"),
    ("sampling.alias_build_ns_per_entry", "ns"),
    ("sampling.alias_draw_ns", "ns"),
    ("cachesim.accesses_per_token", "count"),
    ("cachesim.mean_latency_cycles", "cycles"),
    ("trainer.time_to_target_s", "s"),
    ("trainer.iters_to_target", "count"),
    ("trainer.eval_s", "s"),
    ("trainer.tail_s", "s"),
    ("pipeline.wall_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "B"),
    ("model.freeze_s", "s"),
    ("model.save_s", "s"),
    ("model.load_s", "s"),
    ("model.bytes", "B"),
    ("infer.us_per_token", "us"),
    ("infer.allocs_per_request", "count"),
    ("server.p50_us", "us"),
    ("server.p99_us", "us"),
    ("server.client_gap_us", "us"),
    ("server.shed", "count"),
    ("server.deadline_expired", "count"),
    ("serve.gen_late_max_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.response_bytes", "B"),
    ("dist.spawn_s", "s"),
    ("dist.iter_s", "s"),
    ("dist.bytes_per_token_iter", "B"),
    ("dist.overhead_s_per_iter", "s"),
    ("dist.worker_busy_frac", "ratio"),
    ("dist.coordinator_cpu_s_per_iter", "s"),
    ("dist.worker_rss_mb", "MB"),
    ("dist.recoveries", "count"),
    ("proc.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.top_level_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_pct", "%"),
    ("host.probe_us", "us"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Everything one benchmark invocation reports.
pub struct Report {
    traced: bool,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: Vec<String>,
    lines: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        let mut metrics = BTreeMap::new();
        if traced {
            // A layer the workload never reaches did no work in it.
            metrics.extend(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)));
        }
        Self { traced, metrics, attempted: 0, failed: Vec::new(), lines: Vec::new() }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Records a metric of the table this run reports (end-to-end when
    /// untraced, per-layer when traced); metrics of the other table are
    /// ignored so workload code can set both unconditionally.
    ///
    /// # Panics
    /// Panics on a name declared in neither table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        if unit_of(table, name).is_some() {
            self.metrics.insert(name, value);
        } else {
            assert!(
                unit_of(END_TO_END, name).or(unit_of(PER_LAYER, name)).is_some(),
                "undeclared metric {name}"
            );
        }
    }

    /// Restates the end-to-end timings at the reference host speed (see
    /// `calib`): times are multiplied by `factor`, rates divided by it. The
    /// human lines keep the raw values.
    pub fn normalize(&mut self, factor: f64) {
        if self.traced {
            return;
        }
        for name in ["setup_s", "latency_p50_ms", "latency_tail_ms"] {
            if let Some(v) = self.metrics.get_mut(name) {
                *v *= factor;
            }
        }
        if let Some(v) = self.metrics.get_mut("throughput_per_s") {
            *v /= factor;
        }
        self.show(
            "host speed factor",
            factor,
            "x",
            "end-to-end timings are reported at reference speed",
        );
    }

    /// Adds a human-readable result line (printed before the result).
    pub fn show(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.lines.push(format!("  {name:<34} {value:>14.6} {unit:<6} {note}"));
    }

    /// Counts `n` operations attempted (iterations, requests, checks).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed.push(what);
    }

    /// An output check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempt(1);
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    pub fn failed(&self) -> usize {
        self.failed.len()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed.len() as f64 / self.attempted.max(1) as f64
    }

    /// Names the declared metrics of this run's table that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        table.iter().map(|(n, _)| *n).filter(|n| !self.metrics.contains_key(n)).collect()
    }

    /// The human-readable block: result lines, then every failure.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        for f in &self.failed {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and every
    /// metric of this run's table with its unit.
    pub fn result_line(&self) -> String {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .filter_map(|(n, u)| {
                let v = self.metrics.get(n)?;
                Some(format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed.is_empty(),
            self.attempted.max(1),
            self.failed.len(),
            metrics.join(", ")
        )
    }
}

/// A finite number in full precision; JSON has no NaN or infinity, so those
/// become `null`, which a result reader rejects.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_against_attempts() {
        let mut r = Report::new(false);
        r.attempt(8);
        r.fail("request 3: error reply".into());
        r.check(true, "c_k sums to T");
        r.check(false, "theta sums to 1");
        assert_eq!(r.failed(), 2);
        assert!((r.failed_frac() - 2.0 / 10.0).abs() < 1e-12);
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2,"));
    }

    #[test]
    fn a_run_reports_only_its_own_table() {
        let mut r = Report::new(false);
        r.set("setup_s", 1.5);
        r.set("warp.iter_s", 0.1);
        assert!(r.result_line().contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!r.result_line().contains("warp.iter_s"));
        assert!(r.missing().contains(&"peak_rss_mb"));
        // A traced run starts with every layer at zero.
        assert!(Report::new(true).missing().is_empty());
    }

    /// The metric names and units this program emits are exactly the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                        let v = &entry[at..];
                        let v = &v[v.find('"').expect("string value") + 1..];
                        v[..v.find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }
}
