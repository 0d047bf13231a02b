//! TCP serve-mode robustness: one scripted client session drives the
//! server through malformed and over-long requests, a deterministic job
//! timeout, queue saturation, and a stats query — the connection and the
//! worker pool must survive all of it, and shutdown must return clean
//! final stats.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use cachedse_json::Value;
use cachedse_serve::{serve, ServiceConfig};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Self { reader, writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        Value::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

fn error_kind(response: &Value) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
}

fn error_detail(response: &Value) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("detail"))
        .and_then(Value::as_str)
}

fn job_line(id: &str, seed: u64, budget: u64, extra: &str) -> String {
    format!(
        concat!(
            "{{\"id\":\"{}\",",
            "\"trace\":{{\"pattern\":\"phases\",\"phases\":4,\"len\":4000,\"ws\":256,\"seed\":{}}},",
            "\"budget\":{{\"misses\":{}}}{}}}"
        ),
        id, seed, budget, extra
    )
}

#[test]
fn server_survives_malformed_requests_timeouts_and_saturation() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let config = ServiceConfig {
        workers: 1,
        queue_depth: 1,
        // Large enough that the burst below cannot evict the warmup trace.
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let server = cachedse_sync::thread::spawn(move || serve(listener, config).expect("serve"));

    let mut client = Client::connect(addr);

    // 1. A malformed request gets a structured error, not a dropped
    //    connection.
    client.send("this is not even json {");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(error_kind(&response), Some("bad-spec"));

    // ... and so does a well-formed object that is not a valid spec.
    client.send(r#"{"trace":{},"budget":{"misses":1}}"#);
    assert_eq!(error_kind(&client.recv()), Some("bad-spec"));

    // ... and an unknown op, the four ops of the retired shard protocol
    // included.
    for op in ["dance", "join", "ring", "artifact_get", "artifact_put"] {
        client.send(&format!(
            r#"{{"op":"{op}","addr":"127.0.0.1:1","digest":"0000000000000001","bits":4,"artifact":"00"}}"#
        ));
        let response = client.recv();
        assert_eq!(error_kind(&response), Some("bad-spec"), "{op}");
        assert_eq!(
            error_detail(&response),
            Some(format!("bad job spec: unknown op \"{op}\"; expected stats|shutdown").as_str())
        );
    }

    // ... and a line past the 64 KiB cap, refused for its length alone: it
    // is a valid job spec.
    client.send(&job_line(&"x".repeat(70_000), 7, 0, ""));
    let response = client.recv();
    assert_eq!(error_kind(&response), Some("bad-spec"));
    assert_eq!(
        error_detail(&response),
        Some("bad job spec: line longer than 65536 bytes")
    );

    // 2. The connection still works: a real job completes.
    client.send(&job_line("warmup", 7, 0, ""));
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Value::as_str), Some("warmup"));
    assert_eq!(response.get("cache").and_then(Value::as_str), Some("miss"));

    // 3. A zero-millisecond deadline deterministically times out without
    //    taking the worker down.
    client.send(&job_line("deadline", 7, 0, ",\"timeout_ms\":0"));
    let response = client.recv();
    assert_eq!(response.get("id").and_then(Value::as_str), Some("deadline"));
    assert_eq!(error_kind(&response), Some("timeout"));

    // 4. Saturation: with one worker and a queue bound of one, a burst of
    //    jobs written in a single flush must produce at least one
    //    structured queue-full rejection — and every burst job still gets
    //    exactly one in-order response. Each burst job uses a distinct
    //    seed, so every one the worker runs is a full (slow) analysis and
    //    the submission loop reliably outpaces it.
    const BURST: usize = 24;
    let burst: String = (0..BURST)
        .map(|i| job_line(&format!("burst-{i}"), 100 + i as u64, 0, "") + "\n")
        .collect();
    client.writer.write_all(burst.as_bytes()).expect("burst");
    let mut completed = 0u32;
    let mut rejected = 0u32;
    for i in 0..BURST {
        let response = client.recv();
        assert_eq!(
            response.get("id").and_then(Value::as_str),
            Some(format!("burst-{i}").as_str()),
            "responses out of order"
        );
        match error_kind(&response) {
            None => completed += 1,
            Some("queue-full") => rejected += 1,
            Some(other) => panic!("burst-{i}: unexpected error kind {other}"),
        }
    }
    assert!(completed > 0, "no burst job completed");
    assert!(rejected > 0, "queue bound never produced a rejection");

    // 5. The pool is not wedged: another job still completes, as a cache
    //    hit on the warmup trace.
    client.send(&job_line("after-burst", 7, 50, ""));
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("cache").and_then(Value::as_str), Some("hit"));

    // 6. The stats op reports the carnage.
    client.send(r#"{"op":"stats"}"#);
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let stats = response.get("stats").expect("stats payload");
    assert_eq!(
        stats.get("rejected").and_then(Value::as_u64),
        Some(u64::from(rejected))
    );
    assert_eq!(stats.get("timeouts").and_then(Value::as_u64), Some(1));
    // One analysis for the warmup trace plus one per completed burst job.
    assert_eq!(
        stats.get("cache_misses").and_then(Value::as_u64),
        Some(1 + u64::from(completed))
    );
    assert_eq!(stats.get("cache_hits").and_then(Value::as_u64), Some(1));

    // 7. Shutdown is acknowledged and the server exits with final stats.
    client.send(r#"{"op":"shutdown"}"#);
    let response = client.recv();
    assert_eq!(response.get("op").and_then(Value::as_str), Some("shutdown"));
    let final_stats = server.join().expect("server thread");
    assert_eq!(final_stats.rejected, u64::from(rejected));
    assert_eq!(
        final_stats.completed,
        u64::from(completed) + 2 // warmup + after-burst
    );
    assert_eq!(final_stats.failed, 1); // the deadline job
}

#[test]
fn two_connections_share_one_cache_and_shutdown_unwedges_both() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let server = cachedse_sync::thread::spawn(move || serve(listener, config).expect("serve"));

    let mut first = Client::connect(addr);
    let mut second = Client::connect(addr);
    first.send(&job_line("conn1", 7, 0, ""));
    assert_eq!(first.recv().get("ok").and_then(Value::as_bool), Some(true));
    second.send(&job_line("conn2", 7, 100, ""));
    let response = second.recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    // The second connection's identical trace hits the shared cache.
    assert_eq!(response.get("cache").and_then(Value::as_str), Some("hit"));

    // Shutdown arrives on the second connection; the first, idle in its
    // read loop, must still unwedge.
    second.send(r#"{"op":"shutdown"}"#);
    assert_eq!(
        second.recv().get("op").and_then(Value::as_str),
        Some("shutdown")
    );
    let stats = server.join().expect("server thread");
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
}
