//! The traced run's per-layer numbers.
//!
//! [`probe`] calls each layer once per trace file of the workload, from
//! outside and inside a span: the explore request taken apart (`read_din`
//! → strip → `prepare_stripped` → `result`), the digest, every budget's
//! frontier walk, both engines, the codec, the disk store, and a K-sweep
//! through the serve tier. [`metrics`] turns those spans, and the spans of
//! the workload's own traced rounds, into the [`PER_LAYER`] table.
//!
//! [`PER_LAYER`]: crate::report::PER_LAYER

use std::collections::HashMap;
use std::path::Path;

use cachedse_core::{prepare_stripped, Engine, MissBudget};
use cachedse_serve::HistogramSnapshot;
use cachedse_store::{
    codec, decode_validated, ArtifactKey, ArtifactStore, DiskStore, TraceArtifacts,
};

use crate::inputs::{Inputs, TraceInput, BUDGETS, EXPLORE_BUDGET};
use crate::report::{Metric, PER_LAYER};
use crate::spans::{self_times, At, Recorder, Span};
use crate::stats::median;
use crate::workloads::{explore_budget, explore_traced, serve_round, Answer, Job, Round};

/// What the probe measured besides its spans.
#[derive(Debug)]
pub struct Probe {
    /// Every answer the probe produced, for the golden check.
    pub answers: Vec<Answer>,
    /// Σ encoded store entry sizes over the files.
    pub entry_bytes: u64,
    /// The serve-tier K-sweep round.
    pub serve: Round,
}

/// Runs every layer once per file in `files`, recording spans in `rec`
/// and keeping its store under `work`.
///
/// # Errors
///
/// A store directory that cannot be created, written, reopened or removed.
pub fn probe(
    inputs: &Inputs,
    files: &[usize],
    work: &Path,
    rec: &mut Recorder,
) -> Result<Probe, String> {
    let dir = work.join("probe-store");
    let store = DiskStore::open(&dir).map_err(|e| e.to_string())?;
    let mut answers = Vec::new();
    let mut entry_bytes = 0;
    let mut keys = Vec::new();
    let answer = |input, budget, outcome| Answer {
        input,
        budget,
        outcome,
    };
    for &input in files {
        let at = At {
            request: rec.request(),
            parent: None,
            input: Some(input),
        };
        let parts = match explore_traced(rec, at, &inputs.traces[input].path) {
            Ok(parts) => parts,
            Err(e) => {
                answers.push(answer(input, EXPLORE_BUDGET, Err(e)));
                continue;
            }
        };
        answers.push(answer(input, EXPLORE_BUDGET, Ok(parts.result)));
        let key = rec.span(at, "trace.digest", |_, _| {
            ArtifactKey::of(&parts.trace, parts.trace.address_bits())
        });
        for (k, &fraction) in BUDGETS.iter().enumerate() {
            let result = rec.span(at, "core.result", |_, _| {
                parts
                    .exploration
                    .result(MissBudget::FractionOfMax(fraction))
            });
            answers.push(answer(input, k, result.map_err(|e| e.to_string())));
        }
        for (name, engine) in [
            ("core.engine.streamed", Engine::Streamed),
            ("core.engine.depth_first", Engine::DepthFirst),
        ] {
            let exploration = rec.span(at, name, |_, _| {
                prepare_stripped(&parts.stripped, None, engine, None)
            });
            let result = exploration.and_then(|e| e.result(explore_budget()));
            answers.push(answer(
                input,
                EXPLORE_BUDGET,
                result.map_err(|e| e.to_string()),
            ));
        }
        let artifacts = TraceArtifacts {
            stripped: parts.stripped,
            tree: None,
            exploration: parts.exploration,
        };
        let bytes = rec.span(at, "store.codec.encode", |_, _| {
            codec::encode(&key, &artifacts)
        });
        let decoded = rec.span(at, "store.codec.decode_validated", |_, _| {
            decode_validated(&key, &bytes)
        });
        let outcome = match decoded {
            Ok(decoded) if decoded == artifacts => decoded
                .exploration
                .result(explore_budget())
                .map_err(|e| e.to_string()),
            Ok(_) => Err("decoded entry differs from the encoded artifacts".to_owned()),
            Err(e) => Err(e.to_string()),
        };
        answers.push(answer(input, EXPLORE_BUDGET, outcome));
        rec.span(at, "store.disk.save", |_, _| store.save(&key, &artifacts))
            .map_err(|e| e.to_string())?;
        entry_bytes += bytes.len() as u64;
        keys.push((input, key));
    }
    drop(store);

    let request = rec.request();
    let reopened = rec
        .span(
            At {
                request,
                parent: None,
                input: None,
            },
            "store.disk.open",
            |_, _| DiskStore::open(&dir),
        )
        .map_err(|e| e.to_string())?;
    for (input, key) in keys {
        let at = At {
            request,
            parent: None,
            input: Some(input),
        };
        let loaded = rec.span(at, "store.disk.load", |_, _| reopened.load(&key));
        let outcome = match loaded {
            Ok(Some(artifacts)) => artifacts
                .exploration
                .result(explore_budget())
                .map_err(|e| e.to_string()),
            Ok(None) => Err("saved entry not found on reopen".to_owned()),
            Err(e) => Err(e.to_string()),
        };
        answers.push(answer(input, EXPLORE_BUDGET, outcome));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;

    let sweep: Vec<Job> = files
        .iter()
        .flat_map(|&i| (0..BUDGETS.len()).map(move |k| Job::file(inputs, i, k)))
        .collect();
    let mut serve = serve_round(&sweep, None, rec)?;
    answers.append(&mut serve.answers);
    Ok(Probe {
        answers,
        entry_bytes,
        serve,
    })
}

/// Span sums and medians by name.
struct Spans<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    inputs: &'a Inputs,
}

impl Spans<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = (&'s Span, u64)> + 's {
        self.spans
            .iter()
            .zip(self.self_ns.iter().copied())
            .filter(move |(s, _)| s.name == name)
    }

    fn self_sum(&self, name: &str) -> f64 {
        self.named(name).map(|(_, ns)| ns as f64).sum()
    }

    fn duration_sum(&self, name: &str) -> f64 {
        self.named(name).map(|(s, _)| s.duration_ns() as f64).sum()
    }

    /// Σ of an input property over the spans named `name`.
    fn work(&self, name: &str, of: impl Fn(&TraceInput) -> u64) -> f64 {
        self.named(name)
            .filter_map(|(s, _)| s.input)
            .map(|i| of(&self.inputs.traces[i]) as f64)
            .sum()
    }

    fn median_ns(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .named(name)
            .map(|(s, _)| s.duration_ns() as f64)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            median(&durations)
        }
    }

    /// Median duration of the spans named `name` on each input.
    fn per_input_median(&self, name: &str) -> HashMap<usize, f64> {
        let mut by_input: HashMap<usize, Vec<f64>> = HashMap::new();
        for (s, _) in self.named(name) {
            if let Some(i) = s.input {
                by_input.entry(i).or_default().push(s.duration_ns() as f64);
            }
        }
        by_input.into_iter().map(|(i, d)| (i, median(&d))).collect()
    }
}

/// Mean of a log2-bucketed µs histogram, each sample at its bucket's
/// midpoint: the resolution the serve tier's stats expose.
fn histogram_mean_us(h: &HistogramSnapshot) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let total: f64 = h
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mid = if i == 0 {
                1.0
            } else {
                1.5 * (1u64 << i) as f64
            };
            n as f64 * mid
        })
        .sum();
    total / count as f64
}

/// The [`PER_LAYER`] table from the run's spans, the probe, the ratio of
/// the median traced to the median untraced round, and the process's
/// peak resident memory.
#[must_use]
pub fn metrics(
    inputs: &Inputs,
    spans: &[Span],
    probe: &Probe,
    overhead_ratio: f64,
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let s = Spans {
        spans,
        self_ns: self_times(spans),
        inputs,
    };
    let explore_ns = s.duration_sum("explore");
    let per_ref = |name: &str| s.self_sum(name) / s.work(name, |t| t.refs);
    let share = |name: &str| s.self_sum(name) / explore_ns;

    let default = s.per_input_median("core.prepare");
    let streamed = s.per_input_median("core.engine.streamed");
    let dfs = s.per_input_median("core.engine.depth_first");
    let (default_sum, best_sum) = streamed
        .iter()
        .filter_map(|(i, &st)| Some((default.get(i)?, st.min(*dfs.get(i)?))))
        .fold((0.0, 0.0), |(d, b), (di, bi)| (d + di, b + bi));

    let entry_bytes = probe.entry_bytes;
    let stats = probe.serve.stats.as_ref();
    let stage = |pick: fn(&cachedse_serve::StatsSnapshot) -> &HistogramSnapshot| {
        stats.map_or(0.0, |st| histogram_mean_us(pick(st)))
    };
    let hit_ratio = stats.map_or(0.0, |st| {
        st.cache_hits as f64 / (st.cache_hits + st.cache_misses + st.store_hits).max(1) as f64
    });
    let queue_wait = if probe.serve.queue_wait_ms.is_empty() {
        0.0
    } else {
        median(&probe.serve.queue_wait_ms)
    };

    let values: [f64; PER_LAYER.len()] = [
        per_ref("trace.read_din"),
        share("trace.read_din"),
        per_ref("trace.strip"),
        share("trace.strip"),
        per_ref("trace.digest"),
        per_ref("core.prepare"),
        s.self_sum("core.prepare") / s.work("core.prepare", |t| t.conflicts),
        share("core.prepare"),
        s.median_ns("core.result"),
        s.duration_sum("core.engine.streamed") / 1e6,
        s.duration_sum("core.engine.depth_first") / 1e6,
        default_sum / best_sum,
        s.duration_sum("store.codec.encode") / entry_bytes as f64,
        s.duration_sum("store.codec.decode_validated") / entry_bytes as f64,
        s.median_ns("store.disk.save") / 1e6,
        s.median_ns("store.disk.load") / 1e6,
        s.median_ns("store.disk.open") / 1e6,
        entry_bytes as f64,
        queue_wait,
        stage(|st| &st.load),
        stage(|st| &st.analyze),
        stage(|st| &st.frontier),
        hit_ratio,
        s.median_ns("json.spec_parse"),
        s.median_ns("json.outcome_render"),
        overhead_ratio,
        peak_rss_mib,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        })
        .collect()
}
