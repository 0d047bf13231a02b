//! One-shot batch mode: JSONL specs in, JSONL results out.
//!
//! [`run_batch`] reads job specs (one JSON object per line, `#` comments
//! and blank lines ignored), submits them all with blocking admission (so
//! the queue bound throttles rather than rejects), and writes exactly one
//! result line per input line **in input order**, regardless of the order
//! workers finish in. Malformed spec lines, and lines past the 64 KiB line
//! cap, do not abort the batch — they yield a structured `bad-spec` error
//! line in their slot, and count as `bad_requests` in the stats. A final
//! `stats: …` summary goes to the provided status sink (the CLI points it
//! at stderr so stdout stays pure JSONL).

use std::io::{BufRead, Write};

use crate::job::{outcome_json, JobError, JobSpec};
use crate::line::{Line, LineReader};
use crate::metrics::StatsSnapshot;
use crate::service::{JobId, Service, ServiceConfig};

/// The outcome of a whole batch.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// Lines read that contained a job spec (malformed ones included).
    pub jobs: usize,
    /// Jobs that produced a successful result line.
    pub succeeded: usize,
    /// Jobs that produced an error line (bad spec, trace, timeout, …).
    pub failed: usize,
    /// The service's final metrics.
    pub stats: StatsSnapshot,
}

impl BatchSummary {
    /// `true` when every job succeeded.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}

enum Slot {
    /// The line never reached the service (malformed spec, or rejected at
    /// submission with the contained error).
    Immediate(String, JobError),
    /// Admitted; redeem the id with the service.
    Pending(JobId),
}

/// Runs every JSONL job spec from `input` through a fresh [`Service`],
/// writing one JSONL result per job to `output` in input order and the
/// final `stats:` line to `status`.
///
/// # Errors
///
/// Only I/O errors on the output sinks abort a batch; per-job failures are
/// reported in-band as `"ok":false` lines and tallied in the summary.
pub fn run_batch(
    config: ServiceConfig,
    input: impl BufRead,
    mut output: impl Write,
    mut status: impl Write,
) -> std::io::Result<BatchSummary> {
    let service = Service::start(config);
    let mut slots: Vec<Slot> = Vec::new();
    for (index, line) in LineReader::new(input).enumerate() {
        let spec = match line? {
            Line::Text(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                JobSpec::parse(trimmed).map_err(|e| e.to_string())
            }
            Line::Refused(detail) => Err(detail),
        };
        let slot = match spec {
            Ok(mut spec) => {
                if spec.id.is_none() {
                    spec.id = Some(format!("job-{index}"));
                }
                let label = spec.id.clone().unwrap_or_default();
                match service.submit_blocking(spec) {
                    Ok(id) => Slot::Pending(id),
                    Err(e) => Slot::Immediate(label, e),
                }
            }
            Err(detail) => {
                service.count_bad_request();
                Slot::Immediate(format!("line-{}", index + 1), JobError::BadSpec(detail))
            }
        };
        slots.push(slot);
    }

    let mut succeeded = 0usize;
    let mut failed = 0usize;
    let jobs = slots.len();
    for slot in slots {
        let (label, outcome) = match slot {
            Slot::Immediate(label, error) => (label, Err(error)),
            Slot::Pending(id) => service.wait(id),
        };
        if outcome.is_ok() {
            succeeded += 1;
        } else {
            failed += 1;
        }
        writeln!(output, "{}", outcome_json(&label, &outcome).render())?;
    }
    output.flush()?;

    let stats = service.shutdown();
    writeln!(status, "{stats}")?;
    status.flush()?;
    Ok(BatchSummary {
        jobs,
        succeeded,
        failed,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachedse_json::Value;

    fn run(input: &str, config: ServiceConfig) -> (BatchSummary, Vec<Value>, String) {
        let mut out = Vec::new();
        let mut status = Vec::new();
        let summary = run_batch(config, input.as_bytes(), &mut out, &mut status).unwrap();
        let lines = String::from_utf8(out).unwrap();
        let values = lines
            .lines()
            .map(|l| Value::parse(l).unwrap())
            .collect::<Vec<_>>();
        (summary, values, String::from_utf8(status).unwrap())
    }

    #[test]
    fn results_arrive_in_input_order_with_shared_analysis() {
        let input = "\
# five budgets against one trace: one analysis expected
{\"id\":\"k0\",\"trace\":{\"pattern\":\"loop\",\"len\":64,\"iterations\":10},\"budget\":{\"misses\":0}}\n\
{\"id\":\"k1\",\"trace\":{\"pattern\":\"loop\",\"len\":64,\"iterations\":10},\"budget\":{\"misses\":8}}\n\
\n\
{\"id\":\"k2\",\"trace\":{\"pattern\":\"loop\",\"len\":64,\"iterations\":10},\"budget\":{\"misses\":16}}\n\
{\"id\":\"k3\",\"trace\":{\"pattern\":\"loop\",\"len\":64,\"iterations\":10},\"budget\":{\"misses\":32}}\n";
        let (summary, values, status) = run(
            input,
            ServiceConfig {
                workers: 4,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(summary.jobs, 4);
        assert_eq!(summary.succeeded, 4);
        assert!(summary.all_ok());
        let ids: Vec<&str> = values
            .iter()
            .map(|v| v.get("id").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(ids, ["k0", "k1", "k2", "k3"]);
        assert_eq!(summary.stats.cache_misses, 1);
        assert_eq!(summary.stats.cache_hits, 3);
        assert!(status.contains("cache_misses=1"), "{status}");
    }

    #[test]
    fn malformed_lines_become_bad_spec_results_in_place() {
        let good = "{\"id\":\"good\",\"trace\":{\"pattern\":\"loop\",\"len\":32,\"iterations\":5},\
                    \"budget\":{\"misses\":0}}";
        // A valid spec, refused for its length alone.
        let over_cap = good.replace("good", &"x".repeat(70_000));
        let input = format!(
            "{good}\nthis is not json\n{{\"trace\":{{\"file\":\"x\"}}}}\n{over_cap}\n{good}\n"
        );
        let (summary, values, _) = run(&input, ServiceConfig::default());
        assert_eq!(summary.jobs, 5);
        assert_eq!(summary.succeeded, 2);
        assert_eq!(summary.failed, 3);
        assert_eq!(summary.stats.bad_requests, 3);
        assert!(!summary.all_ok());
        assert_eq!(values[0].get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(values[4].get("ok").and_then(Value::as_bool), Some(true));
        for bad in &values[1..4] {
            assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
            assert_eq!(
                bad.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Value::as_str),
                Some("bad-spec")
            );
        }
        // The malformed lines carry their 1-based input line number.
        assert_eq!(values[1].get("id").and_then(Value::as_str), Some("line-2"));
        assert!(
            values[3].render().contains("line longer than 65536 bytes"),
            "{}",
            values[3].render()
        );
    }

    #[test]
    fn empty_input_is_an_empty_batch() {
        let (summary, values, status) = run("\n# nothing\n", ServiceConfig::default());
        assert_eq!(summary.jobs, 0);
        assert!(summary.all_ok());
        assert!(values.is_empty());
        assert!(status.starts_with("stats: accepted=0 "));
    }
}
