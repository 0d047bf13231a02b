//! The metric tables, the run report, and the `BENCHMARK.json` schema.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what a run
//! reports; a test holds `BENCHMARK.json` to them.

use cachedse_json::Value;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "higher" => Some(Self::Higher),
            _ => None,
        }
    }
}

/// The end-to-end metrics of an untraced run: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, Better); 3] = [
    ("setup_s", "s", Better::Lower),
    ("jobs_per_s", "jobs/s", Better::Higher),
    ("latency_p50_ms", "ms", Better::Lower),
];

/// The per-layer metrics of a traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 27] = [
    ("trace.read_din.ns_per_ref", "ns/ref", Better::Lower),
    ("trace.read_din.share", "fraction", Better::Lower),
    ("trace.strip.ns_per_ref", "ns/ref", Better::Lower),
    ("trace.strip.share", "fraction", Better::Lower),
    ("trace.digest.ns_per_ref", "ns/ref", Better::Lower),
    ("core.prepare.ns_per_ref", "ns/ref", Better::Lower),
    ("core.prepare.ns_per_conflict", "ns/conflict", Better::Lower),
    ("core.prepare.share", "fraction", Better::Lower),
    ("core.result.ns", "ns", Better::Lower),
    ("core.engine.streamed_ms", "ms", Better::Lower),
    ("core.engine.depth_first_ms", "ms", Better::Lower),
    ("core.engine.default_over_best", "ratio", Better::Lower),
    ("store.codec.encode_ns_per_byte", "ns/B", Better::Lower),
    (
        "store.codec.decode_validated_ns_per_byte",
        "ns/B",
        Better::Lower,
    ),
    ("store.disk.save_ms", "ms", Better::Lower),
    ("store.disk.load_ms", "ms", Better::Lower),
    ("store.disk.open_ms", "ms", Better::Lower),
    ("store.entry_bytes", "bytes", Better::Lower),
    ("serve.queue_wait_ms_p50", "ms", Better::Lower),
    ("serve.stage.load_us", "us", Better::Lower),
    ("serve.stage.analyze_us", "us", Better::Lower),
    ("serve.stage.frontier_us", "us", Better::Lower),
    ("serve.cache.hit_ratio", "fraction", Better::Higher),
    ("json.spec_parse_ns", "ns", Better::Lower),
    ("json.outcome_render_ns", "ns", Better::Lower),
    ("bench.trace_overhead_ratio", "ratio", Better::Lower),
    ("process.peak_rss_mb", "MiB", Better::Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in the tables above.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line of one run: the last line of its standard output.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// No answer was wrong and no request failed.
    pub correct: bool,
    /// Requests made (set-up and measured rounds alike).
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The report as its JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Value::object([
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit.as_str())),
                ]),
            )
        });
        Value::object([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics.collect())),
        ])
    }

    /// Reads a report back from its JSON object.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let metrics = value
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("report has no \"metrics\" object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(Metric {
                        name: name.clone(),
                        value,
                        unit: unit.to_owned(),
                    }),
                    _ => Err(format!("metric {name} lacks a numeric value or a unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            correct: value
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("report has no boolean \"correct\"")?,
            attempted: value
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or("report has no \"attempted\" count")?,
            failed: value
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or("report has no \"failed\" count")?,
            metrics,
        })
    }

    /// The value of metric `name`, if reported.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One metric's entry in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The contents of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkFile {
    /// The program and arguments that run one workload.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// Gated metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl BenchmarkFile {
    /// Parses `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .and_then(|a| a.iter().map(|s| s.as_str().map(str::to_owned)).collect())
                .ok_or_else(|| format!("BENCHMARK.json: \"{key}\" is not a list of strings"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .and_then(|a| {
                    a.iter()
                        .map(|m| {
                            Some(MetricSpec {
                                name: m.get("name")?.as_str()?.to_owned(),
                                unit: m.get("unit")?.as_str()?.to_owned(),
                                better: Better::parse(m.get("better")?.as_str()?)?,
                                bound: match m.get("bound") {
                                    Some(b) => Some(b.as_f64()?),
                                    None => None,
                                },
                            })
                        })
                        .collect()
                })
                .ok_or_else(|| format!("BENCHMARK.json: malformed \"{key}\""))
        };
        let workloads = v
            .get("workloads")
            .and_then(Value::as_array)
            .and_then(|a| {
                a.iter()
                    .map(|w| {
                        Some((
                            w.get("name")?.as_str()?.to_owned(),
                            w.get("why")?.as_str()?.to_owned(),
                        ))
                    })
                    .collect()
            })
            .ok_or("BENCHMARK.json: malformed \"workloads\"")?;
        Ok(Self {
            command: strings("command")?,
            paths: strings("paths")?,
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: \"run_seconds\" is not a whole number")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The file as its JSON object, keys in the order `BENCHMARK.json` uses.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let strings = |list: &[String]| Value::array(list.iter().map(|s| Value::from(s.as_str())));
        let metrics = |list: &[MetricSpec]| {
            Value::array(list.iter().map(|m| {
                let mut pairs = vec![
                    ("name".to_owned(), Value::from(m.name.as_str())),
                    ("unit".to_owned(), Value::from(m.unit.as_str())),
                    ("better".to_owned(), Value::from(m.better.as_str())),
                ];
                if let Some(bound) = m.bound {
                    pairs.push(("bound".to_owned(), Value::from(bound)));
                }
                Value::Object(pairs)
            }))
        };
        Value::object([
            ("command", strings(&self.command)),
            ("paths", strings(&self.paths)),
            ("run_seconds", Value::from(self.run_seconds)),
            (
                "workloads",
                Value::array(self.workloads.iter().map(|(name, why)| {
                    Value::object([
                        ("name", Value::from(name.as_str())),
                        ("why", Value::from(why.as_str())),
                    ])
                })),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    /// The bound and direction of end-to-end metric `name`.
    #[must_use]
    pub fn gate(&self, name: &str) -> Option<(Better, f64)> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| Some((m.better, m.bound?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn benchmark_file() -> BenchmarkFile {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        BenchmarkFile::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_metric_tables() {
        let file = benchmark_file();
        let again = BenchmarkFile::parse(&file.to_json().render()).unwrap();
        assert_eq!(again, file);

        let table = |list: &[MetricSpec]| -> Vec<(String, String, Better)> {
            list.iter()
                .map(|m| (m.name.clone(), m.unit.clone(), m.better))
                .collect()
        };
        let code = |list: &[(&str, &str, Better)]| -> Vec<(String, String, Better)> {
            list.iter()
                .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b))
                .collect()
        };
        assert_eq!(table(&file.end_to_end), code(&END_TO_END));
        assert_eq!(table(&file.per_layer), code(&PER_LAYER));
        assert!(file.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(file.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = file.gate("setup_s").unwrap().1;
        assert!(file.end_to_end.iter().all(|m| m.bound.unwrap() <= setup));

        let names: Vec<&str> = file.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
        assert_eq!(file.paths, ["benchmark"]);
    }

    #[test]
    fn report_round_trips_through_its_json_line() {
        let report = Report {
            correct: true,
            attempted: 192,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p50_ms".to_owned(),
                    value: 1.203_456_789,
                    unit: "ms".to_owned(),
                },
                Metric {
                    name: "setup_s".to_owned(),
                    value: 0.812_7,
                    unit: "s".to_owned(),
                },
            ],
        };
        let line = report.to_json().render();
        assert!(line.starts_with(r#"{"correct":true,"attempted":192,"failed":0,"metrics":{"#));
        let back = Report::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.value("setup_s"), Some(0.812_7));
        assert!(Report::from_json(&Value::parse(r#"{"correct":true}"#).unwrap()).is_err());
    }
}
