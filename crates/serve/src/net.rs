//! Long-running TCP mode (`cachedse serve`).
//!
//! The wire protocol is line-delimited JSON over a plain TCP stream, one
//! request per line:
//!
//! - a job-spec object (see [`crate::job`]) — submitted with **rejecting**
//!   admission, so a saturated queue answers immediately with a
//!   `queue-full` error line instead of stalling the connection;
//! - `{"op":"stats"}` — answered with the metrics snapshot object;
//! - `{"op":"shutdown"}` — acknowledged, then the whole server drains and
//!   exits (its final stats are returned to the caller of [`serve`]).
//!
//! Every request produces exactly one response line, **in request order**
//! per connection, `"ok"` discriminating results from structured errors. A
//! malformed line — not JSON, not a job spec, an unknown op, or longer
//! than the 64 KiB line cap — is answered with a `bad-spec` error and the
//! connection stays usable. Connections are handled on scoped threads
//! that poll a shared stop flag with a short read timeout, so a
//! `shutdown` on one connection unwedges all of them.

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use cachedse_json::Value;
use cachedse_sync::atomic::{AtomicBool, Ordering};
use cachedse_sync::thread;

use crate::job::{outcome_json, JobError, JobSpec};
use crate::line::{Line, LineReader};
use crate::metrics::StatsSnapshot;
use crate::service::{JobId, Service, ServiceConfig};

/// How often blocked readers and the accept loop re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Serves the JSONL protocol on `listener` until a client sends
/// `{"op":"shutdown"}`, then drains in-flight jobs and returns the final
/// metrics snapshot.
///
/// # Errors
///
/// Propagates I/O errors from the listener itself; per-connection I/O
/// errors just drop that connection.
pub fn serve(listener: TcpListener, config: ServiceConfig) -> std::io::Result<StatsSnapshot> {
    listener.set_nonblocking(true)?;
    let service = Service::start(config);
    let stop = AtomicBool::new(false);
    thread::scope(|scope| -> std::io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let service = &service;
                    let stop = &stop;
                    scope.spawn(move || {
                        // A dropped connection is the client's problem, not
                        // the server's.
                        let _ = handle_connection(stream, service, stop);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if stop.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    })?;
    Ok(service.shutdown())
}

enum Reply {
    /// Already-rendered response text (errors, stats, acks).
    Text(String),
    /// An admitted job; redeem with the service when it finishes.
    Job(JobId),
}

fn handle_connection(
    stream: TcpStream,
    service: &Service,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut lines = LineReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = stream;
    let mut pending: VecDeque<Reply> = VecDeque::new();
    loop {
        flush_ready(&mut pending, service, &mut writer)?;
        match lines.next() {
            None => break,
            Some(Ok(Line::Text(line))) => {
                let request = line.trim();
                if !request.is_empty() {
                    pending.push_back(handle_request(request, service, stop));
                }
            }
            Some(Ok(Line::Refused(detail))) => pending.push_back(bad_request(detail)),
            Some(Err(e)) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // The reader keeps any partial line; just poll.
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Some(Err(e)) => return Err(e),
        }
    }
    // EOF (or shutdown): answer everything still owed, blocking as needed.
    for reply in pending {
        let text = match reply {
            Reply::Text(text) => text,
            Reply::Job(id) => {
                let (label, outcome) = service.wait(id);
                outcome_json(&label, &outcome).render()
            }
        };
        writeln!(writer, "{text}")?;
    }
    writer.flush()
}

/// Writes every response that is ready without blocking, preserving
/// request order (a finished job behind an unfinished one stays queued).
fn flush_ready(
    pending: &mut VecDeque<Reply>,
    service: &Service,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    while let Some(front) = pending.front() {
        let text = match front {
            Reply::Text(text) => text.clone(),
            Reply::Job(id) => match service.poll(*id) {
                Some((label, outcome)) => outcome_json(&label, &outcome).render(),
                None => return Ok(()),
            },
        };
        pending.pop_front();
        writeln!(writer, "{text}")?;
    }
    Ok(())
}

fn bad_request(detail: String) -> Reply {
    Reply::Text(JobError::BadSpec(detail).to_json("request").render())
}

fn handle_request(request: &str, service: &Service, stop: &AtomicBool) -> Reply {
    let value = match Value::parse(request) {
        Ok(value) => value,
        Err(e) => return bad_request(format!("bad JSON: {e}")),
    };
    if let Some(op) = value.get("op").and_then(Value::as_str) {
        return match op {
            "stats" => Reply::Text(
                Value::object([
                    ("ok", Value::from(true)),
                    ("stats", service.stats().to_json()),
                ])
                .render(),
            ),
            "shutdown" => {
                stop.store(true, Ordering::Release);
                Reply::Text(
                    Value::object([("ok", Value::from(true)), ("op", Value::from("shutdown"))])
                        .render(),
                )
            }
            other => bad_request(format!("unknown op {other:?}; expected stats|shutdown")),
        };
    }
    match JobSpec::from_value(&value) {
        Ok(spec) => {
            let label = spec.id.clone().unwrap_or_else(|| "job".to_owned());
            match service.submit(spec) {
                Ok(id) => Reply::Job(id),
                Err(e) => Reply::Text(e.to_json(&label).render()),
            }
        }
        Err(e) => bad_request(e.to_string()),
    }
}
