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
//! malformed line is answered with a `bad-spec` error and the connection
//! stays usable. Connections are handled on scoped threads that poll a
//! shared stop flag with a short read timeout, so a `shutdown` on one
//! connection unwedges all of them.
//!
//! # Sharded mode
//!
//! [`serve_with`] plus [`ShardOptions`] turns a node into one member of a
//! consistent-hash ring over trace digests (`cachedse serve --join`). Four
//! peer ops extend the protocol:
//!
//! - `{"op":"join","addr":"host:port"}` — adds the address to this node's
//!   ring and answers with the full member list, which the joiner adopts
//!   and then announces itself to (one round of seed-relayed gossip — every
//!   member converges on the same ring without a coordinator);
//! - `{"op":"ring"}` — this node's advertised address and sorted members;
//! - `{"op":"artifact_get","digest":…,"bits":…}` — the encoded artifact
//!   bundle for a key, hex-encoded, if this node holds it;
//! - `{"op":"artifact_put","artifact":"<hex>"}` — decodes, **re-validates**
//!   (the codec's checksum and structural gates, then the stats gate — a
//!   peer is untrusted input like any disk file), and caches a pushed
//!   bundle.
//!
//! A job whose digest hashes to another member is forwarded over the same
//! line protocol and answered with the owner's response plus a
//! `"forwarded":true` marker; if the owner is unreachable the job runs
//! locally instead (availability over placement). Digest-only specs that
//! miss locally are also retried against the owner before failing.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachedse_json::Value;
use cachedse_store::{codec, ArtifactStore, HashRing, StoreError, TraceArtifacts};
use cachedse_sync::atomic::{AtomicBool, Ordering};
use cachedse_sync::thread;
use cachedse_sync::Mutex;
use cachedse_trace::digest::TraceDigest;

use crate::cache::ArtifactKey;
use crate::job::{outcome_json, JobError, JobSpec, TraceSource};
use crate::metrics::StatsSnapshot;
use crate::service::{JobId, Service, ServiceConfig};

/// How often blocked readers and the accept loop re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a node waits on a peer (connect, or the single response line)
/// before falling back to local execution.
const PEER_TIMEOUT: Duration = Duration::from_secs(10);

/// Serves the JSONL protocol on `listener` until a client sends
/// `{"op":"shutdown"}`, then drains in-flight jobs and returns the final
/// metrics snapshot.
///
/// # Errors
///
/// Propagates I/O errors from the listener itself; per-connection I/O
/// errors just drop that connection.
pub fn serve(listener: TcpListener, config: ServiceConfig) -> std::io::Result<StatsSnapshot> {
    serve_with(listener, config, None)
}

/// Membership knobs for the sharded serve tier.
#[derive(Clone, Debug, Default)]
pub struct ShardOptions {
    /// The address peers reach *this* node at (what `join` announces and
    /// what forwarded jobs dial) — the CLI's `--advertise`, defaulting to
    /// the listener's local address.
    pub advertise: String,
    /// Existing members to join through (`--join host:port`, repeatable).
    /// Empty starts a fresh single-node ring that others may join later.
    pub join: Vec<String>,
}

/// [`serve`], optionally as a member of a consistent-hash ring: with
/// `shard` set, the node joins through the given seeds before accepting
/// connections, forwards jobs it does not own, and answers the peer ops.
///
/// # Errors
///
/// Propagates I/O errors from the listener and from the initial join
/// handshake (an unreachable `--join` seed is a startup error, not a
/// silent solo ring); per-connection I/O errors just drop that connection.
pub fn serve_with(
    listener: TcpListener,
    mut config: ServiceConfig,
    shard: Option<ShardOptions>,
) -> std::io::Result<StatsSnapshot> {
    listener.set_nonblocking(true)?;
    let shard = match shard {
        Some(options) => {
            let shard = Arc::new(Shard::join(options)?);
            // Chain the peer tier behind whatever store was configured:
            // local disk answers first, then the ring owner.
            config.store = Some(Arc::new(ShardStore {
                local: config.store.take(),
                shard: Arc::clone(&shard),
            }));
            Some(shard)
        }
        None => None,
    };
    let shard = shard.as_deref();
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
                        let _ = handle_connection(stream, service, stop, shard);
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

/// One node's view of the ring: its own advertised address plus the
/// (mutex-guarded, join-mutated) membership.
#[derive(Debug)]
struct Shard {
    self_addr: String,
    ring: Mutex<HashRing>,
}

impl Shard {
    /// Builds the node's ring by announcing itself to every seed, adopting
    /// the union of their member lists, and announcing itself to each
    /// newly learned member in turn (so the whole ring hears of this node
    /// even when seeded through a single peer).
    fn join(options: ShardOptions) -> std::io::Result<Self> {
        let shard = Self {
            ring: Mutex::new(HashRing::new([options.advertise.clone()])),
            self_addr: options.advertise,
        };
        let mut contacted = vec![shard.self_addr.clone()];
        let mut frontier = options.join;
        while let Some(peer) = frontier.pop() {
            if contacted.contains(&peer) {
                continue;
            }
            contacted.push(peer.clone());
            let request = Value::object([
                ("op", Value::from("join")),
                ("addr", Value::from(shard.self_addr.as_str())),
            ]);
            let reply = exchange_line(&peer, &request.render())?;
            let reply = Value::parse(&reply)
                .map_err(|e| peer_protocol_error(&peer, &format!("bad join reply: {e}")))?;
            let members = reply
                .get("members")
                .and_then(Value::as_array)
                .ok_or_else(|| peer_protocol_error(&peer, "join reply lacks members"))?;
            let mut ring = shard.ring.lock();
            for member in members {
                let member = member
                    .as_str()
                    .ok_or_else(|| peer_protocol_error(&peer, "non-string ring member"))?;
                if !ring.contains(member) {
                    let mut all: Vec<String> = ring.members().to_vec();
                    all.push(member.to_owned());
                    *ring = HashRing::new(all);
                }
                if !contacted.contains(&member.to_owned()) {
                    frontier.push(member.to_owned());
                }
            }
        }
        Ok(shard)
    }

    /// Adds a member announced by a peer's `join`; returns the resulting
    /// member list.
    fn admit(&self, addr: &str) -> Vec<String> {
        let mut ring = self.ring.lock();
        if !ring.contains(addr) {
            let mut all: Vec<String> = ring.members().to_vec();
            all.push(addr.to_owned());
            *ring = HashRing::new(all);
        }
        ring.members().to_vec()
    }

    /// The member owning `digest`, or `None` when that is this node.
    fn remote_owner(&self, digest: TraceDigest) -> Option<String> {
        let ring = self.ring.lock();
        let owner = ring.owner(digest)?;
        (owner != self.self_addr).then(|| owner.to_owned())
    }
}

fn peer_protocol_error(peer: &str, detail: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, format!("peer {peer}: {detail}"))
}

/// Sends one request line to `addr` and reads the single response line,
/// bounded end-to-end by [`PEER_TIMEOUT`].
fn exchange_line(addr: &str, request: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(PEER_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    writeln!(writer, "{request}")?;
    writer.flush()?;
    let deadline = Instant::now() + PEER_TIMEOUT;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    loop {
        match reader.read_line(&mut response) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("peer {addr} closed before answering"),
                ))
            }
            Ok(_) => return Ok(response.trim().to_owned()),
            // `read_line` keeps the partial line in `response`; keep
            // polling until the peer deadline.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!("peer {addr} did not answer within {PEER_TIMEOUT:?}"),
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The remote tier: an [`ArtifactStore`] that answers from the optional
/// local store first and otherwise fetches from / pushes to the ring
/// member owning the digest, over the line protocol.
#[derive(Debug)]
struct ShardStore {
    local: Option<Arc<dyn ArtifactStore>>,
    shard: Arc<Shard>,
}

impl ShardStore {
    fn fetch_from_peer(
        &self,
        peer: &str,
        key: &ArtifactKey,
    ) -> Result<Option<TraceArtifacts>, StoreError> {
        let request = Value::object([
            ("op", Value::from("artifact_get")),
            ("digest", Value::from(key.digest.to_string())),
            ("bits", Value::from(u64::from(key.max_index_bits))),
        ]);
        let reply =
            exchange_line(peer, &request.render()).map_err(|e| StoreError::Io(e.to_string()))?;
        let reply = Value::parse(&reply)
            .map_err(|e| StoreError::Corrupt(format!("peer {peer}: bad reply: {e}")))?;
        if reply.get("found").and_then(Value::as_bool) != Some(true) {
            return Ok(None);
        }
        let hex = reply
            .get("artifact")
            .and_then(Value::as_str)
            .ok_or_else(|| StoreError::Corrupt(format!("peer {peer}: reply lacks artifact")))?;
        let bytes = from_hex(hex)
            .ok_or_else(|| StoreError::Corrupt(format!("peer {peer}: artifact is not hex")))?;
        // A peer is untrusted input like any disk file: the codec's
        // checksum and structural gates plus the stats gate before
        // anything is served from it.
        cachedse_store::decode_validated(key, &bytes).map(Some)
    }
}

impl ArtifactStore for ShardStore {
    fn load(&self, key: &ArtifactKey) -> Result<Option<TraceArtifacts>, StoreError> {
        if let Some(local) = &self.local {
            if let Some(artifacts) = local.load(key)? {
                return Ok(Some(artifacts));
            }
        }
        match self.shard.remote_owner(key.digest) {
            Some(peer) => self.fetch_from_peer(&peer, key),
            None => Ok(None),
        }
    }

    fn save(&self, key: &ArtifactKey, artifacts: &TraceArtifacts) -> Result<(), StoreError> {
        if let Some(local) = &self.local {
            local.save(key, artifacts)?;
        }
        // Push a locally built bundle to its owner (this node built it as
        // an availability fallback, or the spec pinned it here) so future
        // digest queries anywhere on the ring resolve. Best-effort: an
        // unreachable owner must not fail the job that built the bundle.
        if let Some(peer) = self.shard.remote_owner(key.digest) {
            let request = Value::object([
                ("op", Value::from("artifact_put")),
                (
                    "artifact",
                    Value::from(to_hex(&codec::encode(key, artifacts))),
                ),
            ]);
            let _ = exchange_line(&peer, &request.render());
        }
        Ok(())
    }

    fn remove(&self, key: &ArtifactKey) -> Result<(), StoreError> {
        // Eviction is a local concern; the owner keeps its copy.
        match &self.local {
            Some(local) => local.remove(key),
            None => Ok(()),
        }
    }

    fn keys_for(&self, digest: TraceDigest) -> Vec<ArtifactKey> {
        match &self.local {
            Some(local) => local.keys_for(digest),
            None => Vec::new(),
        }
    }

    fn stored_bytes(&self) -> u64 {
        self.local.as_ref().map_or(0, |local| local.stored_bytes())
    }
}

/// Lowercase hex, two digits per byte, through a digit table.
fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut hex = String::with_capacity(bytes.len() * 2);
    for &byte in bytes {
        hex.push(char::from(DIGITS[usize::from(byte >> 4)]));
        hex.push(char::from(DIGITS[usize::from(byte & 0xF)]));
    }
    hex
}

/// The inverse of [`to_hex`], accepting either case; any other byte (a
/// sign, a `0x` prefix, non-ASCII) or an odd length is `None`.
fn from_hex(hex: &str) -> Option<Vec<u8>> {
    fn nibble(digit: u8) -> Option<u8> {
        match digit {
            b'0'..=b'9' => Some(digit - b'0'),
            b'a'..=b'f' => Some(digit - b'a' + 10),
            b'A'..=b'F' => Some(digit - b'A' + 10),
            _ => None,
        }
    }
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    hex.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
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
    shard: Option<&Shard>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut pending: VecDeque<Reply> = VecDeque::new();
    let mut line = String::new();
    loop {
        flush_ready(&mut pending, service, &mut writer)?;
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let request = line.trim();
                if !request.is_empty() {
                    if let Some(reply) = handle_request(request, service, stop, shard) {
                        pending.push_back(reply);
                    }
                }
                line.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // `read_line` keeps any partial line in `line`; just poll.
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
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

fn handle_request(
    request: &str,
    service: &Service,
    stop: &AtomicBool,
    shard: Option<&Shard>,
) -> Option<Reply> {
    let value = match Value::parse(request) {
        Ok(value) => value,
        Err(e) => {
            let error = JobError::BadSpec(format!("bad JSON: {e}"));
            return Some(Reply::Text(error.to_json("request").render()));
        }
    };
    if let Some(op) = value.get("op").and_then(Value::as_str) {
        return Some(match op {
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
            "join" | "ring" | "artifact_get" | "artifact_put" => match shard {
                Some(shard) => Reply::Text(handle_peer_op(op, &value, service, shard).render()),
                None => Reply::Text(
                    JobError::BadSpec(format!(
                        "op {op:?} requires sharded mode (serve --join / --advertise)"
                    ))
                    .to_json("request")
                    .render(),
                ),
            },
            other => Reply::Text(
                JobError::BadSpec(format!(
                    "unknown op {other:?}; expected \
                     stats|shutdown|join|ring|artifact_get|artifact_put"
                ))
                .to_json("request")
                .render(),
            ),
        });
    }
    match JobSpec::from_value(&value) {
        Ok(spec) => {
            if let Some(shard) = shard {
                if let Some(reply) = forward_if_remote(request, &spec, shard) {
                    return Some(reply);
                }
            }
            let label = spec.id.clone().unwrap_or_else(|| "job".to_owned());
            match service.submit(spec) {
                Ok(id) => Some(Reply::Job(id)),
                Err(e) => Some(Reply::Text(e.to_json(&label).render())),
            }
        }
        Err(e) => Some(Reply::Text(
            JobError::BadSpec(e.to_string()).to_json("request").render(),
        )),
    }
}

/// Answers the four peer ops of sharded mode.
fn handle_peer_op(op: &str, value: &Value, service: &Service, shard: &Shard) -> Value {
    match op {
        "join" => match value.get("addr").and_then(Value::as_str) {
            Some(addr) => {
                let members = shard.admit(addr);
                Value::object([
                    ("ok", Value::from(true)),
                    (
                        "members",
                        Value::array(members.into_iter().map(Value::from)),
                    ),
                ])
            }
            None => JobError::BadSpec("join requires an addr string".to_owned()).to_json("request"),
        },
        "ring" => {
            let members = shard.ring.lock().members().to_vec();
            Value::object([
                ("ok", Value::from(true)),
                ("self", Value::from(shard.self_addr.as_str())),
                (
                    "members",
                    Value::array(members.into_iter().map(Value::from)),
                ),
            ])
        }
        "artifact_get" => match artifact_key_of(value) {
            Ok(key) => match service.cache().get(&key) {
                Some((artifacts, _)) => Value::object([
                    ("ok", Value::from(true)),
                    ("found", Value::from(true)),
                    (
                        "artifact",
                        Value::from(to_hex(&codec::encode(&key, &artifacts))),
                    ),
                ]),
                None => Value::object([("ok", Value::from(true)), ("found", Value::from(false))]),
            },
            Err(detail) => JobError::BadSpec(detail).to_json("request"),
        },
        "artifact_put" => {
            let Some(hex) = value.get("artifact").and_then(Value::as_str) else {
                return JobError::BadSpec("artifact_put requires a hex artifact string".to_owned())
                    .to_json("request");
            };
            let Some(bytes) = from_hex(hex) else {
                return JobError::BadSpec("artifact is not hex".to_owned()).to_json("request");
            };
            // Same trust boundary as a disk load: the codec's checksum and
            // structural gates, then the stats gate, before the bundle may
            // be served.
            match codec::decode(&bytes).and_then(|(key, artifacts)| {
                cachedse_store::validate_loaded(&artifacts).map(|()| (key, artifacts))
            }) {
                Ok((key, artifacts)) => {
                    service.cache().insert(key, artifacts);
                    Value::object([
                        ("ok", Value::from(true)),
                        ("digest", Value::from(key.digest.to_string())),
                    ])
                }
                Err(e) => JobError::ArtifactCorrupt(e.to_string()).to_json("request"),
            }
        }
        _ => unreachable!("dispatched ops are exhaustive"),
    }
}

/// Parses `{"digest":"<16 hex>","bits":N}` into an [`ArtifactKey`].
fn artifact_key_of(value: &Value) -> Result<ArtifactKey, String> {
    let digest = value
        .get("digest")
        .and_then(Value::as_str)
        .ok_or("artifact op requires a digest string")?;
    if digest.len() != 16 {
        return Err(format!("digest must be 16 hex chars, got {digest:?}"));
    }
    let raw = u64::from_str_radix(digest, 16).map_err(|e| format!("bad digest: {e}"))?;
    let bits = value
        .get("bits")
        .and_then(Value::as_u64)
        .ok_or("artifact op requires integer bits")?;
    let bits = u32::try_from(bits).map_err(|_| "bits out of range".to_owned())?;
    Ok(ArtifactKey {
        digest: TraceDigest::from_raw(raw),
        max_index_bits: bits,
    })
}

/// Forwards a job owned by another ring member, returning its response
/// (marked `"forwarded":true`) — or `None` when the job is local, the
/// digest cannot be determined, or the owner is unreachable (availability
/// over placement: the caller then runs it locally).
fn forward_if_remote(request: &str, spec: &JobSpec, shard: &Shard) -> Option<Reply> {
    let digest = match &spec.trace {
        TraceSource::Digest(digest) => *digest,
        source => {
            // Owning is decided by the same canonical digest the cache
            // keys on, so the trace is resolved once here. Pattern and
            // kernel sources are cheap; an unreadable file falls through
            // to local submission, which reports the structured error.
            let mut trace = crate::service::load_trace(source).ok()?;
            if spec.line_bits > 0 {
                trace = trace.block_aligned(spec.line_bits);
            }
            let bits = spec.max_index_bits.unwrap_or_else(|| trace.address_bits());
            ArtifactKey::of(&trace, bits).digest
        }
    };
    let owner = shard.remote_owner(digest)?;
    let response = exchange_line(&owner, request).ok()?;
    let parsed = Value::parse(&response).ok()?;
    let pairs = parsed.as_object()?;
    let marked = Value::object(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .chain([("forwarded".to_owned(), Value::from(true))]),
    );
    Some(Reply::Text(marked.render()))
}

#[cfg(test)]
mod tests {
    use super::{from_hex, to_hex};

    #[test]
    fn hex_round_trips_every_byte_value() {
        let bytes: Vec<u8> = (0..=u8::MAX).collect();
        let hex = to_hex(&bytes);
        let expected: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected, "lowercase, two digits per byte");
        assert_eq!(from_hex(&hex), Some(bytes.clone()));
        assert_eq!(from_hex(&hex.to_uppercase()), Some(bytes));
        assert_eq!(from_hex(""), Some(Vec::new()));
    }

    #[test]
    fn hex_refuses_signs_prefixes_odd_lengths_and_non_ascii() {
        for bad in [
            "+f+f",
            "+0",
            "-f",
            "0x",
            "0x0f",
            "f",
            "abc",
            "g0",
            " f",
            "é",
            "éé",
            "0é",
            "0\u{0660}0",
        ] {
            assert_eq!(from_hex(bad), None, "{bad:?}");
        }
    }
}
