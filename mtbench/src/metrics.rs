//! The metrics the benchmark reports, with units. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs of every workload.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cpu_us_per_row", "us")];

/// Per-layer metrics, printed by traced runs of every workload. A layer
/// the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.ns_per_instr", "ns"),
    ("sim.gen_ns_per_instr", "ns"),
    ("sim.instr", "count"),
    ("sim.sections", "count"),
    ("sim.self_ms", "ms"),
    ("counters.write_ns_per_row", "ns"),
    ("counters.read_ns_per_row", "ns"),
    ("counters.self_ms", "ms"),
    ("mtree.fit_s", "s"),
    ("mtree.leaves", "count"),
    ("mtree.depth", "count"),
    ("mtree.self_ms", "ms"),
    ("eval.evaluate_s", "s"),
    ("eval.cv_s", "s"),
    ("eval.cv_c", "ratio"),
    ("eval.cv_mae", "cpi"),
    ("eval.self_ms", "ms"),
    ("compiled.compile_us", "us"),
    ("compiled.ns_per_row_1k", "ns"),
    ("compiled.ns_per_row_64k", "ns"),
    ("compiled.frac_of_copy_bw", "ratio"),
    ("compiled.self_ms", "ms"),
    ("pool.dispatch_overhead_us", "us"),
    ("sweep.configs_per_s", "1/s"),
    ("sweep.enumerate_ms", "ms"),
    ("sweep.predict_s", "s"),
    ("sweep.blame_s", "s"),
    ("sweep.transplant_s", "s"),
    ("sweep.self_ms", "ms"),
    ("protocol.decode_ns_per_row", "ns"),
    ("protocol.decode_us_per_req", "us"),
    ("protocol.encode_ns_per_row", "ns"),
    ("protocol.self_ms", "ms"),
    ("validate.self_ms", "ms"),
    ("transport.frame_ns_per_byte", "ns"),
    ("transport.frac_of_echo", "ratio"),
    ("cache.hit_frac", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("cache.self_ms", "ms"),
    ("admission.push_pop_ns", "ns"),
    ("admission.overloaded", "count"),
    ("admission.quota_refusals", "count"),
    ("admission.self_ms", "ms"),
    ("engine.load_validate_ms", "ms"),
    ("engine.predict_ns_per_row_small", "ns"),
    ("engine.self_ms", "ms"),
    ("router.self_ms", "ms"),
    ("registry.write_p50_ms", "ms"),
    ("registry.writes", "count"),
    ("fleet.hop_p50_ms", "ms"),
    ("loadgen.lateness_p50_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("memory.peak_rss_mb", "MB"),
    ("throughput.rows_per_s", "rows/s"),
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The metrics object of the result line: every declared metric of
    /// the run's kind, in declaration order.
    pub fn render(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = match self.0.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &serde::Value, key: &str) -> Vec<(String, String)> {
        let serde::Value::Array(items) = v.get_field(key).expect(key) else {
            panic!("{key} is not an array")
        };
        items
            .iter()
            .map(|m| {
                let name = m.get_field("name").and_then(|n| n.as_str()).expect("name");
                let unit = m.get_field("unit").and_then(|n| n.as_str()).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(PER_LAYER));
    }
}
