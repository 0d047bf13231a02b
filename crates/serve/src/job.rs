//! Job specifications and results, with their JSONL wire encoding.
//!
//! A *job* is one design-space query: a trace source, a miss budget, and
//! optional knobs (index-bit cap, line size, timeout). Specs arrive as one
//! JSON object per line (JSONL); results leave the same way — one object
//! per job, `"ok"` discriminating success from a structured error.
//!
//! ## Spec format
//!
//! ```json
//! {"id":"crc-5pct",
//!  "trace":{"workload":"crc","side":"data","seed":1},
//!  "budget":{"fraction":0.05},
//!  "max_bits":10,"line_bits":0,"timeout_ms":5000}
//! ```
//!
//! Trace sources: `{"file": "path.din"}` (Dinero text in a regular file;
//! a FIFO or a pipe such as `/dev/stdin` is refused, since reading one
//! could block a worker past the job's deadline),
//! `{"workload": name, "side": "data"|"instr", "seed": n}` (the twelve
//! instrumented kernels), `{"pattern": kind, …}` with the generator
//! parameters of `cachedse_trace::generate`, or `{"digest": "<16 hex>"}`
//! referencing the artifacts of an already-analyzed trace by content
//! digest (answerable only from the cache/store — no trace bytes travel
//! with the job). Budgets: `{"misses": K}` or `{"fraction": F}`.
//!
//! ## Result format
//!
//! ```json
//! {"id":"crc-5pct","ok":true,"budget":412,"cache":"hit",
//!  "trace":{"refs":12320,"unique":310,"max_misses":8240,"digest":"…"},
//!  "frontier":[{"depth":1,"assoc":4,"lines":4,"misses":400}, …],
//!  "micros":{"total":812}}
//! ```
//!
//! Failures replace the payload with `"ok":false` and an `"error"` object
//! carrying a machine-readable `kind` plus human-readable `detail`.

use std::fmt;

use cachedse_core::{ExplorationResult, ExploreError, MissBudget};
use cachedse_json::Value;
use cachedse_store::Found;
use cachedse_trace::digest::TraceDigest;
use cachedse_trace::{generate, Trace};

/// Where a job's trace comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceSource {
    /// A Dinero text trace on disk.
    File(
        /// The path to read.
        String,
    ),
    /// One of the instrumented PowerStone-style kernels.
    Workload {
        /// Kernel name as listed by `cachedse workloads`.
        name: String,
        /// `"data"` or `"instr"`.
        side: TraceSide,
        /// Optional capture seed (the kernel default otherwise).
        seed: Option<u64>,
    },
    /// A synthetic generator from `cachedse_trace::generate`.
    Pattern(
        /// Which generator, with its parameters.
        PatternSpec,
    ),
    /// An already-analyzed trace, referenced by its content digest
    /// (`{"digest":"<16 hex digits>"}`). Carries no trace bytes: the job
    /// can only be answered from the artifact cache or its backing
    /// store, and fails with a structured `digest-unknown` error when
    /// neither has it.
    Digest(
        /// The FNV-1a content digest of the canonical trace.
        TraceDigest,
    ),
}

/// Which half of a kernel capture to analyze.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSide {
    /// The load/store stream.
    Data,
    /// The instruction-fetch stream.
    Instr,
}

/// A synthetic trace generator and its parameters. Job specs and the CLI
/// `gen` subcommand fill omitted fields with the same defaults.
#[derive(Clone, Debug, PartialEq)]
pub enum PatternSpec {
    /// `generate::loop_pattern(base, len, iterations)`.
    Loop {
        /// First address of the loop body.
        base: u32,
        /// Loop body length in addresses.
        len: u32,
        /// Number of iterations.
        iterations: u32,
    },
    /// `generate::strided(base, stride, count, iterations)`.
    Stride {
        /// First address.
        base: u32,
        /// Address increment.
        stride: u32,
        /// Accesses per iteration.
        count: u32,
        /// Number of iterations.
        iterations: u32,
    },
    /// `generate::uniform_random(len, space, seed)`.
    Random {
        /// Trace length.
        len: usize,
        /// Address-space size.
        space: u32,
        /// RNG seed.
        seed: u64,
    },
    /// `generate::working_set_phases(phases, len, ws, seed)`.
    Phases {
        /// Number of phases.
        phases: u32,
        /// Accesses per phase.
        len: u32,
        /// Working-set size per phase.
        ws: u32,
        /// RNG seed.
        seed: u64,
    },
}

/// The most references one pattern source may generate: 5× the largest
/// kernel trace (822k references), and small enough that one spec line
/// cannot exhaust a node's memory.
const MAX_PATTERN_REFS: u64 = 1 << 22;

impl PatternSpec {
    /// Checks the parameters, then runs the generator.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the fields the generator cannot honour.
    pub fn generate(&self) -> Result<Trace, SpecError> {
        self.check()?;
        Ok(match *self {
            Self::Loop {
                base,
                len,
                iterations,
            } => generate::loop_pattern(base, len, iterations),
            Self::Stride {
                base,
                stride,
                count,
                iterations,
            } => generate::strided(base, stride, count, iterations),
            Self::Random { len, space, seed } => generate::uniform_random(len, space, seed),
            Self::Phases {
                phases,
                len,
                ws,
                seed,
            } => generate::working_set_phases(phases, len, ws, seed),
        })
    }

    /// Refuses what the generator cannot honour: an empty address space,
    /// more than [`MAX_PATTERN_REFS`] references, or an address past the
    /// 32-bit space. Each refusal names the fields it checked. Counts and
    /// addresses are computed in `u64`, where products and sums of `u32`
    /// fields cannot overflow.
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        let wide = u64::from;
        let (refs, refs_of, top, top_of) = match *self {
            Self::Loop {
                base,
                len,
                iterations,
            } => (
                wide(len) * wide(iterations),
                "\"len\" × \"iterations\"",
                wide(base) + wide(len.saturating_sub(1)),
                "\"base\" + \"len\" − 1",
            ),
            Self::Stride {
                base,
                stride,
                count,
                iterations,
            } => (
                wide(count) * wide(iterations),
                "\"count\" × \"iterations\"",
                wide(base) + wide(count.saturating_sub(1)) * wide(stride),
                "\"base\" + (\"count\" − 1) × \"stride\"",
            ),
            Self::Random { len, space, .. } => {
                if space == 0 {
                    return Err(SpecError::new("\"space\" must be at least 1"));
                }
                let refs = u64::try_from(len).unwrap_or(u64::MAX);
                (refs, "\"len\"", wide(space) - 1, "\"space\" − 1")
            }
            Self::Phases {
                phases, len, ws, ..
            } => {
                if ws == 0 {
                    return Err(SpecError::new("\"ws\" must be at least 1"));
                }
                (
                    wide(phases) * wide(len),
                    "\"phases\" × \"len\"",
                    (wide(phases) * wide(ws)).saturating_sub(1),
                    "\"phases\" × \"ws\" − 1",
                )
            }
        };
        if refs > MAX_PATTERN_REFS {
            return Err(SpecError::new(format!(
                "{refs_of} is {refs} references; a pattern may generate at most \
                 {MAX_PATTERN_REFS}"
            )));
        }
        if top > u64::from(u32::MAX) {
            return Err(SpecError::new(format!(
                "{top_of} reaches address {top:#x}, past the 32-bit address space"
            )));
        }
        Ok(())
    }
}

/// One design-space query.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen identifier echoed into the result (defaults to the
    /// 0-based submission index rendered as a string).
    pub id: Option<String>,
    /// Where the trace comes from.
    pub trace: TraceSource,
    /// The designer's miss constraint.
    pub budget: MissBudget,
    /// Optional cap on explored index bits.
    pub max_index_bits: Option<u32>,
    /// Cache-line size as log2 bytes; 0 keeps word-granularity addresses.
    pub line_bits: u32,
    /// Per-job deadline in milliseconds (`None` = the service default).
    pub timeout_ms: Option<u64>,
}

impl JobSpec {
    /// Parses a spec from one JSONL line.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending field.
    pub fn parse(line: &str) -> Result<Self, SpecError> {
        let value = Value::parse(line).map_err(|e| SpecError::new(format!("bad JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Builds a spec from an already-parsed JSON object.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending field.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        if value.as_object().is_none() {
            return Err(SpecError::new("job spec must be a JSON object"));
        }
        let id = match value.get("id") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| SpecError::new("\"id\" must be a string"))?
                    .to_owned(),
            ),
        };
        let trace = parse_trace_source(
            value
                .get("trace")
                .ok_or_else(|| SpecError::new("missing \"trace\" object"))?,
        )?;
        let budget = parse_budget(
            value
                .get("budget")
                .ok_or_else(|| SpecError::new("missing \"budget\" object"))?,
        )?;
        let max_index_bits = opt_u32(value, "max_bits")?;
        let line_bits = opt_u32(value, "line_bits")?.unwrap_or(0);
        if line_bits > 0 && matches!(trace, TraceSource::Digest(_)) {
            return Err(SpecError::new(
                "\"line_bits\" cannot apply to a digest source: the digest \
                 names an already-aligned trace",
            ));
        }
        let timeout_ms = opt_u64(value, "timeout_ms")?;
        Ok(Self {
            id,
            trace,
            budget,
            max_index_bits,
            line_bits,
            timeout_ms,
        })
    }

    /// Renders the spec back to its JSON object form (used by tests and by
    /// clients of the TCP protocol).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = Vec::new();
        if let Some(id) = &self.id {
            pairs.push(("id".to_owned(), Value::from(id.as_str())));
        }
        pairs.push(("trace".to_owned(), trace_source_json(&self.trace)));
        let budget = match self.budget {
            MissBudget::Absolute(k) => Value::object([("misses", Value::from(k))]),
            MissBudget::FractionOfMax(f) => Value::object([("fraction", Value::from(f))]),
        };
        pairs.push(("budget".to_owned(), budget));
        if let Some(bits) = self.max_index_bits {
            pairs.push(("max_bits".to_owned(), Value::from(bits)));
        }
        if self.line_bits > 0 {
            pairs.push(("line_bits".to_owned(), Value::from(self.line_bits)));
        }
        if let Some(ms) = self.timeout_ms {
            pairs.push(("timeout_ms".to_owned(), Value::from(ms)));
        }
        Value::Object(pairs)
    }
}

fn opt_u32(value: &Value, key: &str) -> Result<Option<u32>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| SpecError::new(format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn opt_u64(value: &Value, key: &str) -> Result<Option<u64>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| SpecError::new(format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn required_u64(value: &Value, key: &str, what: &str) -> Result<u64, SpecError> {
    opt_u64(value, key)?.ok_or_else(|| SpecError::new(format!("{what} needs \"{key}\"")))
}

fn parse_trace_source(value: &Value) -> Result<TraceSource, SpecError> {
    if value.as_object().is_none() {
        return Err(SpecError::new("\"trace\" must be a JSON object"));
    }
    if let Some(path) = value.get("file") {
        let path = path
            .as_str()
            .ok_or_else(|| SpecError::new("\"file\" must be a string path"))?;
        return Ok(TraceSource::File(path.to_owned()));
    }
    if let Some(name) = value.get("workload") {
        let name = name
            .as_str()
            .ok_or_else(|| SpecError::new("\"workload\" must be a kernel name"))?;
        let side = match value.get("side").map(|v| v.as_str()) {
            None => TraceSide::Data,
            Some(Some("data")) => TraceSide::Data,
            Some(Some("instr")) => TraceSide::Instr,
            Some(_) => return Err(SpecError::new("\"side\" must be \"data\" or \"instr\"")),
        };
        return Ok(TraceSource::Workload {
            name: name.to_owned(),
            side,
            seed: opt_u64(value, "seed")?,
        });
    }
    if let Some(kind) = value.get("pattern") {
        let kind = kind
            .as_str()
            .ok_or_else(|| SpecError::new("\"pattern\" must be a string kind"))?;
        let spec = match kind {
            "loop" => PatternSpec::Loop {
                base: opt_u32(value, "base")?.unwrap_or(0),
                len: u32::try_from(required_u64(value, "len", "pattern \"loop\"")?)
                    .map_err(|_| SpecError::new("\"len\" out of range"))?,
                iterations: opt_u32(value, "iterations")?.unwrap_or(100),
            },
            "stride" => PatternSpec::Stride {
                base: opt_u32(value, "base")?.unwrap_or(0),
                stride: u32::try_from(required_u64(value, "stride", "pattern \"stride\"")?)
                    .map_err(|_| SpecError::new("\"stride\" out of range"))?,
                count: u32::try_from(required_u64(value, "count", "pattern \"stride\"")?)
                    .map_err(|_| SpecError::new("\"count\" out of range"))?,
                iterations: opt_u32(value, "iterations")?.unwrap_or(100),
            },
            "random" => PatternSpec::Random {
                len: usize::try_from(opt_u64(value, "len")?.unwrap_or(100_000))
                    .map_err(|_| SpecError::new("\"len\" out of range"))?,
                space: opt_u32(value, "space")?.unwrap_or(1 << 16),
                seed: opt_u64(value, "seed")?.unwrap_or(1),
            },
            "phases" => PatternSpec::Phases {
                phases: opt_u32(value, "phases")?.unwrap_or(8),
                len: opt_u32(value, "len")?.unwrap_or(10_000),
                ws: opt_u32(value, "ws")?.unwrap_or(256),
                seed: opt_u64(value, "seed")?.unwrap_or(1),
            },
            other => {
                return Err(SpecError::new(format!(
                    "unknown pattern {other:?}; expected loop|stride|random|phases"
                )))
            }
        };
        spec.check()?;
        return Ok(TraceSource::Pattern(spec));
    }
    if let Some(digest) = value.get("digest") {
        let hex = digest
            .as_str()
            .ok_or_else(|| SpecError::new("\"digest\" must be a 16-hex-digit string"))?;
        if hex.len() != 16 {
            return Err(SpecError::new(format!(
                "\"digest\" must be exactly 16 hex digits, got {} characters",
                hex.len()
            )));
        }
        let raw = u64::from_str_radix(hex, 16)
            .map_err(|_| SpecError::new(format!("\"digest\" {hex:?} is not hexadecimal")))?;
        return Ok(TraceSource::Digest(TraceDigest::from_raw(raw)));
    }
    Err(SpecError::new(
        "\"trace\" needs \"file\", \"workload\", \"pattern\", or \"digest\"",
    ))
}

fn trace_source_json(source: &TraceSource) -> Value {
    match source {
        TraceSource::File(path) => Value::object([("file", Value::from(path.as_str()))]),
        TraceSource::Digest(digest) => Value::object([("digest", Value::from(digest.to_string()))]),
        TraceSource::Workload { name, side, seed } => {
            let mut pairs = vec![
                ("workload".to_owned(), Value::from(name.as_str())),
                (
                    "side".to_owned(),
                    Value::from(match side {
                        TraceSide::Data => "data",
                        TraceSide::Instr => "instr",
                    }),
                ),
            ];
            if let Some(seed) = seed {
                pairs.push(("seed".to_owned(), Value::from(*seed)));
            }
            Value::Object(pairs)
        }
        TraceSource::Pattern(spec) => match *spec {
            PatternSpec::Loop {
                base,
                len,
                iterations,
            } => Value::object([
                ("pattern", Value::from("loop")),
                ("base", Value::from(base)),
                ("len", Value::from(len)),
                ("iterations", Value::from(iterations)),
            ]),
            PatternSpec::Stride {
                base,
                stride,
                count,
                iterations,
            } => Value::object([
                ("pattern", Value::from("stride")),
                ("base", Value::from(base)),
                ("stride", Value::from(stride)),
                ("count", Value::from(count)),
                ("iterations", Value::from(iterations)),
            ]),
            PatternSpec::Random { len, space, seed } => Value::object([
                ("pattern", Value::from("random")),
                ("len", Value::from(len)),
                ("space", Value::from(space)),
                ("seed", Value::from(seed)),
            ]),
            PatternSpec::Phases {
                phases,
                len,
                ws,
                seed,
            } => Value::object([
                ("pattern", Value::from("phases")),
                ("phases", Value::from(phases)),
                ("len", Value::from(len)),
                ("ws", Value::from(ws)),
                ("seed", Value::from(seed)),
            ]),
        },
    }
}

fn parse_budget(value: &Value) -> Result<MissBudget, SpecError> {
    match (value.get("misses"), value.get("fraction")) {
        (Some(k), None) => k
            .as_u64()
            .map(MissBudget::Absolute)
            .ok_or_else(|| SpecError::new("\"misses\" must be a non-negative integer")),
        (None, Some(f)) => f
            .as_f64()
            .map(MissBudget::FractionOfMax)
            .ok_or_else(|| SpecError::new("\"fraction\" must be a number")),
        (Some(_), Some(_)) => Err(SpecError::new(
            "\"misses\" and \"fraction\" are mutually exclusive",
        )),
        (None, None) => Err(SpecError::new(
            "\"budget\" needs \"misses\" or \"fraction\"",
        )),
    }
}

/// A malformed job specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

/// A successful job: the frontier plus provenance and timing.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// The echoed job identifier.
    pub id: String,
    /// The exploration result (pairs, misses, budget, trace stats).
    pub result: ExplorationResult,
    /// Where the artifacts came from: in-memory cache (`Hit`), the
    /// persistent store (`Warm`), or a fresh analysis (`Miss`).
    pub cache: Found,
    /// The analyzed trace's content digest.
    pub digest: TraceDigest,
    /// End-to-end wall clock in microseconds (queue wait excluded).
    pub total_micros: u64,
}

impl JobOutput {
    /// Renders the result JSONL object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let stats = self.result.stats();
        Value::object([
            ("id", Value::from(self.id.as_str())),
            ("ok", Value::from(true)),
            ("budget", Value::from(self.result.budget())),
            ("cache", Value::from(self.cache.tag())),
            (
                "trace",
                Value::object([
                    ("refs", Value::from(stats.total)),
                    ("unique", Value::from(stats.unique)),
                    ("max_misses", Value::from(stats.max_misses)),
                    ("digest", Value::from(self.digest.to_string())),
                ]),
            ),
            ("frontier", frontier_json(&self.result)),
            (
                "micros",
                Value::object([("total", Value::from(self.total_micros))]),
            ),
        ])
    }
}

/// The `frontier` array of a result: per (depth, associativity) pair, its
/// size in lines and its miss count. `cachedse explore --format json`
/// renders the same array.
#[must_use]
pub fn frontier_json(result: &ExplorationResult) -> Value {
    Value::array(result.pairs().iter().map(|p| {
        Value::object([
            ("depth", Value::from(p.depth)),
            ("assoc", Value::from(p.associativity)),
            ("lines", Value::from(p.size_lines())),
            (
                "misses",
                Value::from(result.misses_of(p.depth).unwrap_or(0)),
            ),
        ])
    }))
}

/// Why a job failed, as a machine-readable kind.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The spec line was not a valid job object.
    BadSpec(
        /// What was wrong with it.
        String,
    ),
    /// The trace could not be loaded or generated.
    Trace(
        /// The loader's error text.
        String,
    ),
    /// The exploration itself failed.
    Explore(
        /// The propagated [`ExploreError`].
        ExploreError,
    ),
    /// The job missed its deadline.
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The queue was full when the job was submitted.
    QueueFull {
        /// The configured queue bound.
        depth: usize,
    },
    /// Cached artifacts failed re-validation (`--validate` mode).
    ArtifactCorrupt(
        /// The depths whose profiles differ.
        String,
    ),
    /// A digest-referenced job named a trace nobody has analyzed: the
    /// digest is in neither the in-memory cache nor the backing store.
    DigestUnknown {
        /// The digest the job asked for.
        digest: TraceDigest,
    },
    /// The service is shutting down.
    Shutdown,
}

impl JobError {
    /// The machine-readable error kind tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::BadSpec(_) => "bad-spec",
            Self::Trace(_) => "trace",
            Self::Explore(_) => "explore",
            Self::Timeout { .. } => "timeout",
            Self::QueueFull { .. } => "queue-full",
            Self::ArtifactCorrupt(_) => "artifact-corrupt",
            Self::DigestUnknown { .. } => "digest-unknown",
            Self::Shutdown => "shutdown",
        }
    }

    /// Renders the failure JSONL object for job `id`.
    #[must_use]
    pub fn to_json(&self, id: &str) -> Value {
        Value::object([
            ("id", Value::from(id)),
            ("ok", Value::from(false)),
            (
                "error",
                Value::object([
                    ("kind", Value::from(self.kind())),
                    ("detail", Value::from(self.to_string())),
                ]),
            ),
        ])
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadSpec(detail) => write!(f, "bad job spec: {detail}"),
            Self::Trace(detail) => write!(f, "trace load failed: {detail}"),
            Self::Explore(e) => write!(f, "exploration failed: {e}"),
            Self::Timeout { limit_ms } => write!(f, "job exceeded its {limit_ms} ms deadline"),
            Self::QueueFull { depth } => {
                write!(f, "queue full ({depth} jobs pending); resubmit later")
            }
            Self::ArtifactCorrupt(report) => {
                write!(f, "cached artifacts failed validation: {report}")
            }
            Self::DigestUnknown { digest } => write!(
                f,
                "no stored artifacts for digest {digest}; submit the trace itself once first"
            ),
            Self::Shutdown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ExploreError> for JobError {
    fn from(e: ExploreError) -> Self {
        Self::Explore(e)
    }
}

/// The outcome of one job: a frontier or a structured failure.
pub type JobOutcome = Result<JobOutput, JobError>;

/// Renders any outcome as its JSONL line.
#[must_use]
pub fn outcome_json(id: &str, outcome: &JobOutcome) -> Value {
    match outcome {
        Ok(output) => output.to_json(),
        Err(error) => error.to_json(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workload_spec() {
        let spec = JobSpec::parse(
            r#"{"id":"j1","trace":{"workload":"crc","side":"instr","seed":7},
               "budget":{"misses":100},"max_bits":10,"line_bits":2,"timeout_ms":5000}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        assert_eq!(spec.id.as_deref(), Some("j1"));
        assert_eq!(
            spec.trace,
            TraceSource::Workload {
                name: "crc".to_owned(),
                side: TraceSide::Instr,
                seed: Some(7),
            }
        );
        assert_eq!(spec.budget, MissBudget::Absolute(100));
        assert_eq!(spec.max_index_bits, Some(10));
        assert_eq!(spec.line_bits, 2);
        assert_eq!(spec.timeout_ms, Some(5000));
    }

    #[test]
    fn parses_file_and_pattern_specs() {
        let spec =
            JobSpec::parse(r#"{"trace":{"file":"t.din"},"budget":{"fraction":0.05}}"#).unwrap();
        assert_eq!(spec.trace, TraceSource::File("t.din".to_owned()));
        assert_eq!(spec.budget, MissBudget::FractionOfMax(0.05));
        assert_eq!(spec.line_bits, 0);

        let spec = JobSpec::parse(
            r#"{"trace":{"pattern":"loop","len":64,"iterations":10},"budget":{"misses":0}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.trace,
            TraceSource::Pattern(PatternSpec::Loop {
                base: 0,
                len: 64,
                iterations: 10
            })
        );
    }

    #[test]
    fn spec_round_trips_through_json() {
        let original = JobSpec {
            id: Some("roundtrip".to_owned()),
            trace: TraceSource::Pattern(PatternSpec::Phases {
                phases: 4,
                len: 500,
                ws: 64,
                seed: 9,
            }),
            budget: MissBudget::Absolute(25),
            max_index_bits: Some(8),
            line_bits: 2,
            timeout_ms: Some(100),
        };
        let line = original.to_json().render();
        assert_eq!(JobSpec::parse(&line).unwrap(), original);
    }

    #[test]
    fn rejects_malformed_specs() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("[]", "must be a JSON object"),
            (r#"{"budget":{"misses":1}}"#, "missing \"trace\""),
            (r#"{"trace":{"file":"x"}}"#, "missing \"budget\""),
            (r#"{"trace":{},"budget":{"misses":1}}"#, "\"trace\" needs"),
            (r#"{"trace":{"file":"x"},"budget":{}}"#, "\"budget\" needs"),
            (
                r#"{"trace":{"file":"x"},"budget":{"misses":1,"fraction":0.5}}"#,
                "mutually exclusive",
            ),
            (
                r#"{"trace":{"workload":"crc","side":"both"},"budget":{"misses":1}}"#,
                "\"side\"",
            ),
            (
                r#"{"trace":{"pattern":"zigzag"},"budget":{"misses":1}}"#,
                "unknown pattern",
            ),
            (
                r#"{"trace":{"file":"x"},"budget":{"misses":-3}}"#,
                "non-negative",
            ),
        ] {
            let err = JobSpec::parse(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line} gave {err}, wanted {needle}"
            );
        }
    }

    /// Pattern fields the generators cannot honour are refused at parse
    /// time, naming the field, instead of panicking a worker or aborting
    /// the process on a huge allocation.
    #[test]
    fn rejects_pattern_fields_the_generators_cannot_honour() {
        for (trace, needle) in [
            (
                r#"{"pattern":"phases","ws":0}"#,
                "\"ws\" must be at least 1",
            ),
            (
                r#"{"pattern":"random","space":0,"len":10}"#,
                "\"space\" must be at least 1",
            ),
            (
                r#"{"pattern":"loop","len":4294967295,"iterations":4294967295}"#,
                "\"len\" × \"iterations\" is 18446744065119617025 references",
            ),
            (
                r#"{"pattern":"random","len":1099511627776}"#,
                "\"len\" is 1099511627776 references",
            ),
            (
                r#"{"pattern":"loop","len":4194305,"iterations":1}"#,
                "at most 4194304",
            ),
            (
                r#"{"pattern":"phases","phases":65536,"len":65536}"#,
                "\"phases\" × \"len\"",
            ),
            (
                r#"{"pattern":"stride","stride":1,"count":1,"iterations":4194305}"#,
                "\"count\" × \"iterations\"",
            ),
            (
                r#"{"pattern":"loop","base":4294967295,"len":2}"#,
                "\"base\" + \"len\" − 1 reaches address 0x100000000",
            ),
            (
                r#"{"pattern":"stride","stride":65536,"count":65537,"iterations":1}"#,
                "(\"count\" − 1) × \"stride\" reaches address 0x100000000",
            ),
            (
                r#"{"pattern":"phases","phases":2,"len":1,"ws":2147483649}"#,
                "\"phases\" × \"ws\" − 1 reaches address 0x100000001",
            ),
        ] {
            let line = format!(r#"{{"trace":{trace},"budget":{{"misses":0}}}}"#);
            let err = JobSpec::parse(&line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line} gave {err}, wanted {needle}"
            );
        }
        // The limits themselves are allowed.
        for trace in [
            r#"{"pattern":"loop","len":4194304,"iterations":1}"#,
            r#"{"pattern":"loop","base":4294967294,"len":2}"#,
            r#"{"pattern":"stride","base":1,"stride":65536,"count":65536,"iterations":1}"#,
            r#"{"pattern":"phases","phases":2,"len":1,"ws":2147483648}"#,
            r#"{"pattern":"random","len":4194304,"space":1}"#,
        ] {
            let line = format!(r#"{{"trace":{trace},"budget":{{"misses":0}}}}"#);
            assert!(JobSpec::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn parses_and_round_trips_digest_spec() {
        let spec = JobSpec::parse(
            r#"{"trace":{"digest":"00000000deadbeef"},"budget":{"misses":4},"max_bits":6}"#,
        )
        .unwrap();
        assert_eq!(
            spec.trace,
            TraceSource::Digest(TraceDigest::from_raw(0xDEAD_BEEF))
        );
        let line = spec.to_json().render();
        assert_eq!(JobSpec::parse(&line).unwrap(), spec);
    }

    #[test]
    fn rejects_malformed_digest_specs() {
        for (line, needle) in [
            (
                r#"{"trace":{"digest":"abc"},"budget":{"misses":1}}"#,
                "16 hex digits",
            ),
            (
                r#"{"trace":{"digest":"zzzzzzzzzzzzzzzz"},"budget":{"misses":1}}"#,
                "not hexadecimal",
            ),
            (
                r#"{"trace":{"digest":12},"budget":{"misses":1}}"#,
                "must be a 16-hex-digit string",
            ),
            (
                r#"{"trace":{"digest":"00000000deadbeef"},"budget":{"misses":1},"line_bits":2}"#,
                "cannot apply to a digest source",
            ),
        ] {
            let err = JobSpec::parse(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line} gave {err}, wanted {needle}"
            );
        }
    }

    #[test]
    fn error_json_shape() {
        let err = JobError::Timeout { limit_ms: 50 };
        let json = err.to_json("j9");
        assert_eq!(json.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(json.get("id").and_then(Value::as_str), Some("j9"));
        let error = json.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Value::as_str), Some("timeout"));
        assert!(error
            .get("detail")
            .and_then(Value::as_str)
            .unwrap()
            .contains("50 ms"));
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(JobError::BadSpec(String::new()).kind(), "bad-spec");
        assert_eq!(JobError::QueueFull { depth: 4 }.kind(), "queue-full");
        assert_eq!(JobError::Shutdown.kind(), "shutdown");
        assert_eq!(
            JobError::ArtifactCorrupt(String::new()).kind(),
            "artifact-corrupt"
        );
        let unknown = JobError::DigestUnknown {
            digest: TraceDigest::from_raw(0xAB),
        };
        assert_eq!(unknown.kind(), "digest-unknown");
        assert!(unknown.to_string().contains("00000000000000ab"));
    }
}
