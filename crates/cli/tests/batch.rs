//! Black-box tests of the batch/serve subcommands and `--format json`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use cachedse_json::Value;

fn cachedse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Starts `cachedse` with `input` written to its stdin, which is then closed.
fn spawn_with_stdin(args: &[&str], input: &str) -> Child {
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
    child
}

fn cachedse_stdin(args: &[&str], input: &str) -> Output {
    spawn_with_stdin(args, input)
        .wait_with_output()
        .expect("binary runs")
}

/// Runs `cachedse` on `input` and fails the test, rather than hanging it,
/// when the process is still running after 60 s. Its output must fit the
/// pipe buffers, since nothing reads them before it exits.
fn cachedse_within_a_minute(args: &[&str], input: &str) -> Output {
    within_a_minute(spawn_with_stdin(args, input), args)
}

/// Waits for `child`, killing it and failing the test when it is still
/// running after 60 s.
fn within_a_minute(mut child: Child, args: &[&str]) -> Output {
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cachedse {args:?} hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
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

/// `--queue 0` admits like `--queue 1` rather than blocking the first
/// job forever.
#[test]
fn batch_shares_one_analysis_across_budgets() {
    let jobs: String = (0..5)
        .map(|k| job(&format!("k{k}"), k * 8) + "\n")
        .collect();
    let out = cachedse_within_a_minute(&["batch", "-", "--workers", "2", "--queue", "0"], &jobs);
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

    let out = cachedse_within_a_minute(&["batch", "-", "--store-dir", store], &jobs);
    let status = stderr(&out);
    assert!(out.status.success(), "{status}");
    assert!(status.contains("cachedse-store: load"), "{status}");
    assert!(status.contains("checksum mismatch"), "{status}");
    assert!(status.contains("cache_misses=1 "), "{status}");
    assert!(status.contains("store_hits=0 "), "{status}");
    assert!(entry.with_extension("bad").exists(), "not quarantined");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// A version-1 entry (written by an earlier build for the CI store job's
/// line) is refused, rebuilt and counted; the log line names the entry by
/// its file stem, and the rebuilt entry answers the rerun warm.
#[test]
fn batch_names_and_counts_a_retired_store_entry() {
    let dir = std::env::temp_dir().join(format!("cachedse-cli-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/v1_entry.cdse"
    );
    std::fs::copy(fixture, dir.join("f301cd62042bc445-11.cdse")).expect("copy the fixture");
    let store = dir.to_str().expect("temp dir is UTF-8");
    let jobs = "{\"id\":\"a\",\"trace\":{\"pattern\":\"phases\",\"len\":2000,\"seed\":7},\
                \"budget\":{\"misses\":0}}\n";

    let out = cachedse_within_a_minute(&["batch", "-", "--store-dir", store], jobs);
    let status = stderr(&out);
    assert!(out.status.success(), "{status}");
    assert!(
        status.contains("cachedse-store: load f301cd62042bc445-11: "),
        "{status}"
    );
    assert!(status.contains("retired format version 1"), "{status}");
    assert!(status.contains("cache_misses=1 "), "{status}");
    assert!(status.contains("store_hits=0 "), "{status}");
    assert!(status.contains(" store_errors=1"), "{status}");
    assert!(
        dir.join("f301cd62042bc445-11.bad").exists(),
        "not quarantined"
    );

    let out = cachedse_within_a_minute(&["batch", "-", "--store-dir", store], jobs);
    let status = stderr(&out);
    assert!(out.status.success(), "{status}");
    assert!(status.contains("store_hits=1 "), "{status}");
    assert!(status.contains("cache_misses=0 "), "{status}");
    assert!(status.contains(" store_errors=0"), "{status}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// Pattern fields the generators cannot honour are `bad-spec` lines in
/// place, never a panicked worker (which left its job without an outcome
/// and the batch waiting forever) or an aborted process. A line size of
/// 2^40 words puts every address in block 0.
#[test]
fn batch_refuses_hostile_pattern_specs_in_place() {
    let hostile = [
        r#"{"pattern":"phases","ws":0}"#,
        r#"{"pattern":"random","space":0,"len":10}"#,
        r#"{"pattern":"loop","len":4294967295,"iterations":4294967295}"#,
        r#"{"pattern":"random","len":1099511627776}"#,
        r#"{"pattern":"loop","base":4294967295,"len":2}"#,
    ];
    let mut jobs: String = hostile
        .iter()
        .map(|trace| format!("{{\"trace\":{trace},\"budget\":{{\"misses\":0}}}}\n"))
        .collect();
    jobs.push_str(
        "{\"id\":\"wide\",\"trace\":{\"pattern\":\"phases\",\"len\":2000,\"seed\":7},\
         \"budget\":{\"misses\":0},\"line_bits\":40}\n",
    );
    jobs.push_str(&(job("good", 0) + "\n"));

    let out = cachedse_within_a_minute(&["batch", "-", "--workers", "1"], &jobs);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("5 of 7 job(s) failed"),
        "{}",
        stderr(&out)
    );
    let lines: Vec<Value> = stdout(&out)
        .lines()
        .map(|l| Value::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(lines.len(), 7, "{}", stdout(&out));
    // A line that fails to parse is labelled by its 1-based line number.
    for (i, line) in lines[..5].iter().enumerate() {
        assert_eq!(
            line.get("id").and_then(Value::as_str),
            Some(format!("line-{}", i + 1).as_str())
        );
        assert_eq!(
            line.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("bad-spec"),
            "{}",
            line.render()
        );
    }
    assert_eq!(lines[5].get("id").and_then(Value::as_str), Some("wide"));
    assert_eq!(
        lines[5]
            .get("trace")
            .and_then(|t| t.get("unique"))
            .and_then(Value::as_u64),
        Some(1),
        "{}",
        lines[5].render()
    );
    assert_eq!(lines[6].get("id").and_then(Value::as_str), Some("good"));
    assert_eq!(lines[6].get("ok").and_then(Value::as_bool), Some(true));
}

/// A `file` job naming a FIFO or a pipe is refused by name: opening or
/// reading one blocks until a writer comes and goes, past any
/// `timeout_ms`. Here the FIFO never gets a writer and `/dev/stdin` is a
/// pipe the test holds open and never writes. A regular file still
/// answers.
#[cfg(unix)]
#[test]
fn batch_refuses_file_sources_that_are_not_regular_files() {
    let dir = std::env::temp_dir().join(format!("cachedse-cli-fifo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("trace.fifo");
    let made = Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo {}", fifo.display());
    let regular = dir.join("trace.din");
    std::fs::write(&regular, "0 10\n0 20\n0 10\n0 30\n0 20\n").expect("write trace");
    let sources = [
        ("fifo", fifo.to_str().expect("UTF-8 path")),
        ("stdin", "/dev/stdin"),
        ("regular", regular.to_str().expect("UTF-8 path")),
    ];
    let jobs: String = sources
        .iter()
        .map(|(id, path)| {
            format!(
                "{{\"id\":\"{id}\",\"trace\":{{\"file\":\"{path}\"}},\
                 \"budget\":{{\"misses\":0}},\"timeout_ms\":1000}}\n"
            )
        })
        .collect();
    let jobs_file = dir.join("jobs.jsonl");
    std::fs::write(&jobs_file, jobs).expect("write jobs");

    let args = ["batch", jobs_file.to_str().expect("UTF-8 path")];
    let mut child = Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let open_stdin = child.stdin.take();
    let out = within_a_minute(child, &args);
    drop(open_stdin);

    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let lines: Vec<Value> = stdout(&out)
        .lines()
        .map(|l| Value::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(lines.len(), 3, "{}", stdout(&out));
    for (line, (id, path)) in lines.iter().zip(&sources[..2]) {
        assert_eq!(line.get("id").and_then(Value::as_str), Some(*id));
        assert_eq!(line.get("ok").and_then(Value::as_bool), Some(false));
        let detail = line
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(Value::as_str)
            .unwrap_or_default();
        assert!(
            detail.contains(&format!("{path}: not a regular file")),
            "{}",
            line.render()
        );
    }
    assert_eq!(lines[2].get("id").and_then(Value::as_str), Some("regular"));
    assert_eq!(lines[2].get("ok").and_then(Value::as_bool), Some(true));
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

/// `explore --format json` and a batch reply render the frontier through
/// one function, so for the same trace and budget the bytes agree.
#[test]
fn explore_and_batch_render_the_same_frontier_bytes() {
    let path = std::env::temp_dir().join(format!("cachedse-frontier-{}.din", std::process::id()));
    let path_str = path.to_str().unwrap();
    let gen = cachedse(&[
        "gen",
        "--pattern",
        "phases",
        "--len",
        "4000",
        "--seed",
        "7",
        "--out",
        path_str,
    ]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let explore = cachedse(&["explore", path_str, "--fraction", "0.1", "--format", "json"]);
    let spec = format!(
        "{{\"id\":\"f\",\"trace\":{{\"file\":{}}},\"budget\":{{\"fraction\":0.1}}}}\n",
        Value::from(path_str).render()
    );
    let batch = cachedse_within_a_minute(&["batch", "-"], &spec);
    let _ = std::fs::remove_file(&path);
    assert!(explore.status.success(), "{}", stderr(&explore));
    assert!(batch.status.success(), "{}", stderr(&batch));
    let frontier_bytes = |out: &Output| {
        let text = stdout(out);
        let start = text.find("\"frontier\":[").expect("a frontier array");
        let end = start + text[start..].find(']').expect("the array closes") + 1;
        text[start..end].to_owned()
    };
    let from_explore = frontier_bytes(&explore);
    assert!(from_explore.contains("\"depth\":1,"), "{from_explore}");
    assert_eq!(from_explore, frontier_bytes(&batch));
}

#[test]
fn check_format_json_reports_clean_and_faulty_runs() {
    let path = std::env::temp_dir().join(format!("cachedse-chk-{}.din", std::process::id()));
    std::fs::write(&path, "0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n").unwrap();
    let out = cachedse(&["check", path.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let value = Value::parse(stdout(&out).trim()).expect("report is JSON");
    assert_eq!(value.get("clean").and_then(Value::as_bool), Some(true));
    let counts = value.get("counts").and_then(Value::as_object).unwrap();
    let families: Vec<&str> = counts.iter().map(|(f, _)| f.as_str()).collect();
    let expected = ["zero_one", "bcat", "mrct", "frontier", "engine", "profiles"];
    assert_eq!(families, expected);

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
