//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here, once, with its
//! unit; `BENCHMARK.json` declares the same names (a test keeps the two
//! equal). A run must fill exactly the declared set or it fails.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics gated by `BENCHMARK.json`, measured with tracing
/// off: the paired host tax, set-up time, memory, and the deterministic
/// simulated clock.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tax_geomean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_geomean_ms", "ms"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_goodput_rps", "req/s"),
];

/// End-to-end host wall-clock metrics, measured with tracing off and
/// printed with every run but not gated: on a shared two-vCPU host the
/// machine's speed drifts by a third over minutes, which moves these raw
/// times beyond any bound of 25%. `tax_geomean` divides the same wall
/// times by a yardstick timed beside them and carries the gate instead.
pub const HOST_WALL: &[(&str, &str)] = &[
    ("wall_ms_p50", "ms"),
    ("wall_ms_p90", "ms"),
    ("host_mnnz_per_s", "Mnnz/s"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.spmv_ref_ms", "ms"),
    ("sparse.convert_ms", "ms"),
    ("sparse.rebuilt_frac", "ratio"),
    ("simt.run_blocks_ms", "ms"),
    ("simt.ns_per_nnz", "ns/nnz"),
    ("simt.launch_rest_ms", "ms"),
    ("simt.par2_speedup", "ratio"),
    ("simt.bytes_moved", "bytes"),
    ("core.tax.thread-mapped", "ratio"),
    ("core.tax.work-queue-4", "ratio"),
    ("core.tax.warp-mapped", "ratio"),
    ("core.tax.block-mapped", "ratio"),
    ("core.tax.group-mapped-64", "ratio"),
    ("core.tax.lrb", "ratio"),
    ("core.tax.merge-path", "ratio"),
    ("core.tax_vs_cub", "ratio"),
    ("core.plan_prepare_ms", "ms"),
    ("core.warm_over_cold", "ratio"),
    ("kernels.pagerank_ms", "ms"),
    ("kernels.pagerank_iters", "count"),
    ("kernels.max_rel_error", "ratio"),
    ("runtime.host.admit_ms", "ms"),
    ("runtime.host.replay_ms", "ms"),
    ("runtime.host.complete_ms", "ms"),
    ("runtime.fingerprint_ms", "ms"),
    ("runtime.memo_hit_us", "us"),
    ("runtime.plan_hit_rate", "ratio"),
    ("runtime.memo_hit_rate", "ratio"),
    ("runtime.batched_frac", "ratio"),
    ("runtime.tune_explore_frac", "ratio"),
    ("runtime.mutate_ms", "ms"),
    ("runtime.retired_plans", "count"),
    ("trace.overhead", "ratio"),
];

/// Metric values collected by a run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// Check that exactly the names of `catalogue` were recorded, each
    /// with a finite value.
    pub fn check_complete(&self, catalogue: &[(&str, &str)]) -> Result<(), String> {
        let missing: Vec<&str> = catalogue
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.0.contains_key(n))
            .collect();
        let extra: Vec<&str> = self
            .0
            .keys()
            .copied()
            .filter(|n| !catalogue.iter().any(|(c, _)| c == n))
            .collect();
        let bad: Vec<&str> = self
            .0
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect();
        if missing.is_empty() && extra.is_empty() && bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metric set mismatch: missing {missing:?}, undeclared {extra:?}, non-finite {bad:?}"
            ))
        }
    }

    /// `name value unit` lines in catalogue order.
    pub fn table(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue {
            if let Some(v) = self.0.get(name) {
                let _ = writeln!(out, "  {name:<28} {v:>18.6} {unit}");
            }
        }
        out
    }

    /// The `"metrics"` JSON object over `catalogue`, values printed with
    /// every digit (shortest round-trip form).
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .filter_map(|(name, unit)| {
                self.0.get(name).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(*v)
                    )
                })
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(HOST_WALL)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite f64 as a JSON number, in Rust's shortest round-trip form.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    debug_assert!(v.is_finite(), "non-finite metric {s}");
    s
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough to read `BENCHMARK.json` and the
    /// manifest.
    mod json {
        #[derive(Debug)]
        pub enum Value {
            Null,
            Bool(bool),
            Num(f64),
            Str(String),
            Arr(Vec<Value>),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub fn get(&self, key: &str) -> Option<&Value> {
                match self {
                    Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }
            pub fn str(&self) -> Option<&str> {
                match self {
                    Value::Str(s) => Some(s),
                    _ => None,
                }
            }
            pub fn arr(&self) -> &[Value] {
                match self {
                    Value::Arr(v) => v,
                    _ => &[],
                }
            }
        }

        pub fn parse(text: &str) -> Value {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value();
            p.ws();
            assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
            v
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                    self.i += 1;
                }
            }
            fn eat(&mut self, c: u8) {
                self.ws();
                assert_eq!(
                    self.s[self.i], c,
                    "expected {:?} at byte {}",
                    c as char, self.i
                );
                self.i += 1;
            }
            fn peek(&mut self) -> u8 {
                self.ws();
                self.s[self.i]
            }
            fn value(&mut self) -> Value {
                match self.peek() {
                    b'{' => {
                        self.eat(b'{');
                        let mut fields = Vec::new();
                        if self.peek() != b'}' {
                            loop {
                                let k = self.string();
                                self.eat(b':');
                                fields.push((k, self.value()));
                                if self.peek() == b',' {
                                    self.eat(b',');
                                } else {
                                    break;
                                }
                            }
                        }
                        self.eat(b'}');
                        Value::Obj(fields)
                    }
                    b'[' => {
                        self.eat(b'[');
                        let mut items = Vec::new();
                        if self.peek() != b']' {
                            loop {
                                items.push(self.value());
                                if self.peek() == b',' {
                                    self.eat(b',');
                                } else {
                                    break;
                                }
                            }
                        }
                        self.eat(b']');
                        Value::Arr(items)
                    }
                    b'"' => Value::Str(self.string()),
                    b't' => self.word("true", Value::Bool(true)),
                    b'f' => self.word("false", Value::Bool(false)),
                    b'n' => self.word("null", Value::Null),
                    _ => {
                        let start = self.i;
                        while self.i < self.s.len()
                            && matches!(
                                self.s[self.i],
                                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                            )
                        {
                            self.i += 1;
                        }
                        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                        Value::Num(text.parse().expect("number"))
                    }
                }
            }
            fn word(&mut self, w: &str, v: Value) -> Value {
                assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
                self.i += w.len();
                v
            }
            fn string(&mut self) -> String {
                self.eat(b'"');
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => break,
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => {
                            // Copy one UTF-8 sequence whole.
                            let len = match c {
                                0xF0..=0xFF => 4,
                                0xE0..=0xEF => 3,
                                0xC0..=0xDF => 2,
                                _ => 1,
                            };
                            let bytes = &self.s[self.i - 1..self.i - 1 + len];
                            out.push_str(std::str::from_utf8(bytes).expect("utf-8"));
                            self.i += len - 1;
                        }
                    }
                }
                out
            }
        }
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text);
        doc.get(section)
            .expect("section present")
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(json::Value::str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(json::Value::str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_names_equal_the_declared_names() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn workloads_in_benchmark_json_are_the_ones_the_benchmark_runs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
        let names: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::str).expect("name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn manifest_maps_every_layer_metric_onto_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/manifest.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("manifest.json"));
        let Some(json::Value::Obj(map)) = doc.get("layer_to_end_to_end") else {
            panic!("layer_to_end_to_end is an object");
        };
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(keys, declared);
        for (layer, targets) in map {
            for t in targets.arr() {
                let metric = t.get("metric").and_then(json::Value::str).expect("metric");
                let workload = t
                    .get("workload")
                    .and_then(json::Value::str)
                    .expect("workload");
                assert!(
                    END_TO_END
                        .iter()
                        .chain(HOST_WALL)
                        .any(|(n, _)| *n == metric),
                    "{layer} -> {metric}"
                );
                assert!(
                    crate::WORKLOADS.contains(&workload),
                    "{layer} -> {workload}"
                );
            }
        }
        let Some(json::Value::Obj(workloads)) = doc.get("workloads") else {
            panic!("workloads is an object");
        };
        let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
        assert!(
            matches!(doc.get("default_seed"), Some(json::Value::Num(n)) if *n == crate::DEFAULT_SEED as f64)
        );
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64);
        }
        m.check_complete(END_TO_END).expect("complete");
        assert!(m.check_complete(PER_LAYER).is_err());
        let line = result_line(true, 12, 0, &m.json(END_TO_END));
        let doc = json::parse(&line);
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let entry = metrics.get(name).expect("metric present");
            assert_eq!(entry.get("unit").and_then(json::Value::str), Some(*unit));
            assert!(matches!(entry.get("value"), Some(json::Value::Num(_))));
        }
        assert!(matches!(doc.get("correct"), Some(json::Value::Bool(true))));
        assert!(matches!(doc.get("attempted"), Some(json::Value::Num(n)) if *n == 12.0));
    }
}
