//! Black-box tests of the batch/serve subcommands and `--format json`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use cachedse_json::Value;

fn cachedse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn cachedse_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn job(id: &str, budget: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"trace\":{{\"pattern\":\"loop\",\"len\":64,\"iterations\":10}},\
         \"budget\":{{\"misses\":{budget}}}}}"
    )
}

#[test]
fn batch_shares_one_analysis_across_budgets() {
    let jobs: String = (0..5)
        .map(|k| job(&format!("k{k}"), k * 8) + "\n")
        .collect();
    let out = cachedse_stdin(&["batch", "-", "--workers", "2"], &jobs);
    assert!(out.status.success(), "{}", stderr(&out));
    let lines: Vec<Value> = stdout(&out)
        .lines()
        .map(|l| Value::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(lines.len(), 5);
    for (k, line) in lines.iter().enumerate() {
        assert_eq!(
            line.get("id").and_then(Value::as_str),
            Some(format!("k{k}").as_str()),
            "results out of input order"
        );
        assert_eq!(line.get("ok").and_then(Value::as_bool), Some(true));
    }
    let status = stderr(&out);
    assert!(status.contains("cache_misses=1"), "{status}");
    assert!(status.contains("cache_hits=4"), "{status}");
}

/// A store entry that fails its load is reported on stderr by the worker
/// that loads it, while the batch's own thread waits for that job. The
/// batch must still finish: quarantine the entry, rebuild it, and say so.
#[test]
fn batch_rebuilds_a_corrupt_store_entry_instead_of_hanging() {
    let dir = std::env::temp_dir().join(format!("cachedse-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("temp dir is UTF-8");
    let jobs = job("seed", 0) + "\n";
    let out = cachedse_stdin(&["batch", "-", "--store-dir", store], &jobs);
    assert!(out.status.success(), "{}", stderr(&out));
    let entry = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "cdse"))
        .expect("one stored entry");
    let mut bytes = std::fs::read(&entry).expect("entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&entry, &bytes).expect("corrupt the entry");

    let mut child = Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(["batch", "-", "--store-dir", store])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(jobs.as_bytes())
        .expect("write stdin");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll the batch").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("batch hung on a corrupt store entry");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("batch output");
    let status = stderr(&out);
    assert!(out.status.success(), "{status}");
    assert!(status.contains("cachedse-store: load"), "{status}");
    assert!(status.contains("checksum mismatch"), "{status}");
    assert!(status.contains("cache_misses=1 "), "{status}");
    assert!(status.contains("store_hits=0 "), "{status}");
    assert!(entry.with_extension("bad").exists(), "not quarantined");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn batch_reports_bad_specs_in_place_and_fails() {
    let jobs = format!("{}\nnot a job\n", job("good", 0));
    let out = cachedse_stdin(&["batch"], &jobs);
    assert!(!out.status.success());
    let lines: Vec<Value> = stdout(&out)
        .lines()
        .map(|l| Value::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0].get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        lines[1]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("bad-spec")
    );
    assert!(stderr(&out).contains("1 of 2 job(s) failed"));
}

/// A hostile line of deeply nested brackets is a bad spec like any other,
/// not a stack overflow that aborts the whole batch.
#[test]
fn batch_survives_deeply_nested_json() {
    let jobs = format!("{}\n{}\n", "[".repeat(200_000), job("after", 0));
    let out = cachedse_stdin(&["batch"], &jobs);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains(r#""kind":"bad-spec""#), "{}", lines[0]);
    assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
}

#[test]
fn explore_format_json_emits_the_frontier() {
    let path = std::env::temp_dir().join(format!("cachedse-json-{}.din", std::process::id()));
    std::fs::write(&path, "0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n").unwrap();
    let out = cachedse(&[
        "explore",
        path.to_str().unwrap(),
        "--misses",
        "0",
        "--format",
        "json",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", stderr(&out));
    let value = Value::parse(stdout(&out).trim()).expect("output is one JSON object");
    assert_eq!(value.get("budget").and_then(Value::as_u64), Some(0));
    let engine = value.get("engine").and_then(Value::as_str);
    assert!(
        matches!(engine, Some("streamed" | "depth-first")),
        "{engine:?}"
    );
    let frontier = value.get("frontier").and_then(Value::as_array).unwrap();
    // The paper's running example: depth 2 needs associativity 3.
    assert!(frontier.iter().any(|p| {
        p.get("depth").and_then(Value::as_u64) == Some(2)
            && p.get("assoc").and_then(Value::as_u64) == Some(3)
    }));
}

#[test]
fn check_format_json_reports_clean_and_faulty_runs() {
    let path = std::env::temp_dir().join(format!("cachedse-chk-{}.din", std::process::id()));
    std::fs::write(&path, "0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n").unwrap();
    let out = cachedse(&["check", path.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let value = Value::parse(stdout(&out).trim()).expect("report is JSON");
    assert_eq!(value.get("clean").and_then(Value::as_bool), Some(true));

    let out = cachedse(&[
        "check",
        path.to_str().unwrap(),
        "--format",
        "json",
        "--inject-fault",
        "bcat-drop-ref",
    ]);
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let value = Value::parse(stdout(&out).trim()).expect("report is JSON");
    assert_eq!(value.get("clean").and_then(Value::as_bool), Some(false));
    assert!(value.get("total").and_then(Value::as_u64).unwrap() > 0);
}

#[test]
fn serve_answers_jobs_over_tcp_and_shuts_down() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(["serve", "--bind", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut child_err = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut banner = String::new();
    child_err.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut recv = move || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        Value::parse(line.trim()).expect("response is JSON")
    };

    writeln!(writer, "{}", job("tcp-job", 0)).expect("send job");
    let response = recv();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Value::as_str), Some("tcp-job"));

    writeln!(writer, "{{\"op\":\"stats\"}}").expect("send stats");
    let response = recv();
    assert_eq!(
        response
            .get("stats")
            .and_then(|s| s.get("completed"))
            .and_then(Value::as_u64),
        Some(1)
    );

    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
    let response = recv();
    assert_eq!(response.get("op").and_then(Value::as_str), Some("shutdown"));

    let status = child.wait().expect("serve exits");
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut child_err, &mut rest).expect("drain stderr");
    assert!(rest.contains("stats: accepted=1 "), "{rest}");
}
