//! Black-box tests of the `cachedse` binary.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `cachedse` with stdin closed, failing the test if it still runs
/// after 30 s (a `serve` that should have refused its options listens).
/// Its output must fit the pipe buffers: nothing reads them before exit.
fn cachedse(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cachedse {args:?} was still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("child output")
}

fn write_trace(lines: &str) -> tempfile::TempPath {
    let mut file = tempfile::NamedTempFile::new().expect("temp file");
    file.write_all(lines.as_bytes()).expect("write");
    file.into_temp_path()
}

/// Minimal stand-in for the `tempfile` crate: plain std temp files.
mod tempfile {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct NamedTempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<Self> {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("cachedse-cli-test-{}-{n}.din", std::process::id()));
            Ok(Self {
                file: std::fs::File::create(&path)?,
                path,
            })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.file.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = cachedse(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage: cachedse"));
}

#[test]
fn unknown_command_fails() {
    let out = cachedse(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn workloads_lists_all_twelve() {
    let out = cachedse(&["workloads"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 12);
    assert!(text.contains("g3fax"));
}

#[test]
fn stats_on_a_trace_file() {
    let path = write_trace("0 b\n0 c\n0 b\n");
    let out = cachedse(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("references (N):       3"));
    assert!(text.contains("unique (N'):          2"));
}

#[test]
fn explore_paper_example_with_verification() {
    // The paper's Table 1 trace.
    let path = write_trace("0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n");
    let out = cachedse(&[
        "explore",
        path.to_str().unwrap(),
        "--misses",
        "0",
        "--verify",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("budget K = 0"));
    // Depth 2 -> associativity 3 (Section 2.3).
    assert!(text.lines().any(|l| {
        let fields: Vec<&str> = l.split_whitespace().collect();
        fields.first() == Some(&"2") && fields.get(1) == Some(&"3")
    }));
    assert!(text.contains("verified 5 configurations"));
}

/// The engine is chosen per trace, so `--engine` is refused — whatever
/// its value, the retired `tree` and `parallel` names included — on every
/// subcommand that used to take it, instead of being silently ignored.
#[test]
fn engine_flag_is_retired() {
    let path = write_trace("0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n");
    let trace = path.to_str().unwrap();
    let commands: [&[&str]; 3] = [
        &["explore", trace, "--misses", "0"],
        &["batch", "-"],
        &["serve", "--bind", "127.0.0.1:0"],
    ];
    for command in commands {
        for engine in ["dfs", "streamed", "tree", "parallel"] {
            let mut args = command.to_vec();
            args.extend(["--engine", engine]);
            let out = cachedse(&args);
            assert!(!out.status.success(), "{args:?}");
            let message = stderr(&out);
            assert!(
                message.contains("--engine is retired: the engine is now chosen per trace"),
                "{args:?}: {message}"
            );
        }
    }
}

/// `explore --format json` names the engine that ran: a kernel's data
/// trace reuses across long spans and goes to depth-first, its
/// instruction trace loops tightly and goes to the streamed fold.
#[test]
fn explore_reports_the_engine_picked_for_the_trace() {
    for (side, engine) in [("data", "depth-first"), ("instr", "streamed")] {
        let path =
            std::env::temp_dir().join(format!("cachedse-crc-{side}-{}.din", std::process::id()));
        let path_str = path.to_str().unwrap();
        let gen = format!("gen --workload crc --side {side} --out");
        let mut gen_args: Vec<&str> = gen.split(' ').collect();
        gen_args.push(path_str);
        let out = cachedse(&gen_args);
        assert!(out.status.success(), "{}", stderr(&out));
        let out = cachedse(&["explore", path_str, "--fraction", "0.1", "--format", "json"]);
        let _ = std::fs::remove_file(&path);
        assert!(out.status.success(), "{}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains(&format!("\"engine\":\"{engine}\"")),
            "crc.{side}: {text}"
        );
    }
}

#[test]
fn explore_requires_a_budget() {
    let path = write_trace("0 1\n");
    let out = cachedse(&["explore", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--misses K or --fraction F"));
}

#[test]
fn simulate_reports_misses() {
    let path = write_trace("0 0\n0 2\n0 0\n0 2\n");
    let out = cachedse(&[
        "simulate",
        path.to_str().unwrap(),
        "--depth",
        "2",
        "--assoc",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // 0 and 2 share row 0 of a depth-2 cache: all four accesses miss.
    assert!(text.contains("misses:    4 (cold 2, avoidable 2)"));
}

#[test]
fn gen_round_trips_through_stats() {
    let dir = std::env::temp_dir().join(format!("cachedse-gen-{}.din", std::process::id()));
    let out = cachedse(&[
        "gen",
        "--pattern",
        "loop",
        "--len",
        "16",
        "--iterations",
        "4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = cachedse(&["stats", dir.to_str().unwrap()]);
    assert!(stdout(&out).contains("references (N):       64"));
    let _ = std::fs::remove_file(&dir);
}

#[test]
fn sweep_prints_budget_grid() {
    let path = write_trace("0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n");
    let out = cachedse(&["sweep", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("5%"));
    assert!(text.contains("20%"));
}

#[test]
fn bad_trace_file_reports_line() {
    let path = write_trace("0 b\n9 c\n");
    let out = cachedse(&["stats", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 2"));
}

#[test]
fn bad_trace_error_names_the_file() {
    let dir = std::env::temp_dir().join(format!("cachedse-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.din");
    std::fs::write(&path, "0 b\n9 c\n").expect("write");
    let out = cachedse(&["explore", path.to_str().unwrap(), "--fraction", "0.1"]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("bad.din: malformed trace line 2 (byte offset 4)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn rank_orders_by_energy() {
    let path = write_trace("0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n");
    let out = cachedse(&["rank", path.to_str().unwrap(), "--misses", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("energy nJ"));
    // Energies in the table are ascending.
    let energies: Vec<f64> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().nth(3))
        .filter_map(|v| v.parse().ok())
        .collect();
    assert!(energies.len() >= 2);
    assert!(energies.windows(2).all(|w| w[0] <= w[1]), "{energies:?}");
}

/// One analysis runs on one thread, so `--threads` is refused by name on
/// every command that took it — before the trace or jobs file is opened
/// (neither path exists) and before `serve` binds (stderr would name the
/// address).
#[test]
fn threads_flag_is_retired() {
    let commands: [&[&str]; 3] = [
        &["explore", "/nonexistent/t.din", "--misses", "0"],
        &["batch", "/nonexistent/jobs.jsonl"],
        &["serve", "--bind", "127.0.0.1:0"],
    ];
    for command in commands {
        let out = cachedse(&[command, &["--threads", "2"]].concat());
        assert_eq!(out.status.code(), Some(1), "{command:?}");
        assert!(stdout(&out).is_empty(), "{command:?}: {}", stdout(&out));
        assert_eq!(
            stderr(&out),
            "cachedse: --threads is retired: one analysis runs on one thread; batch and \
             serve run --workers jobs at once\n",
            "{command:?}"
        );
    }
}

/// Each command takes a fixed number of positional arguments — one TRACE,
/// at most one jobs file, or none — and names the first surplus word
/// instead of silently dropping it.
#[test]
fn surplus_positionals_are_refused_by_name() {
    let path = write_trace("0 b\n0 c\n0 b\n");
    let trace = path.to_str().unwrap();
    let commands: [&[&str]; 10] = [
        &["gen", "--pattern", "loop", "--len", "4"],
        &["stats", trace],
        &["simulate", trace, "--depth", "2"],
        &["explore", trace, "--misses", "0"],
        &["sweep", trace],
        &["rank", trace],
        &["check", trace],
        &["batch", "a.jsonl"],
        &["serve", "--bind", "127.0.0.1:0"],
        &["workloads"],
    ];
    for command in commands {
        for extra in ["/nonexistent/other.din", "b.jsonl"] {
            let out = cachedse(&[command, &[extra]].concat());
            assert_eq!(out.status.code(), Some(1), "{command:?} {extra}");
            assert!(stdout(&out).is_empty(), "{command:?}: {}", stdout(&out));
            assert_eq!(
                stderr(&out),
                format!("cachedse: unexpected argument {extra:?}; see `cachedse --help`\n"),
                "{command:?} {extra}"
            );
        }
    }
}

/// `gen` refuses an unknown kernel, and a pattern the job-spec rules
/// refuse, with a one-line error rather than a panic.
#[test]
fn gen_refuses_what_it_cannot_generate() {
    let out = cachedse(&["gen", "--workload", "doom"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown workload"));

    let out = cachedse(&["gen", "--pattern", "phases", "--ws", "0", "--len", "10"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        "cachedse: bad --pattern: \"ws\" must be at least 1\n"
    );
}

/// Every command refuses an option it does not take, by name, whether or
/// not a value follows, before it does anything else; and `--help` after
/// any command prints the usage and exits 0 without running it (`serve
/// --help` starts no server).
#[test]
fn every_command_refuses_unknown_options_and_answers_help() {
    let path = write_trace("0 b\n0 c\n0 b\n");
    let trace = path.to_str().unwrap();
    let commands: [&[&str]; 10] = [
        &["gen", "--pattern", "loop", "--len", "4"],
        &["stats", trace],
        &["simulate", trace, "--depth", "2"],
        &["explore", trace, "--misses", "0"],
        &["sweep", trace],
        &["rank", trace],
        &["check", trace],
        &["batch", "-"],
        &["serve", "--bind", "127.0.0.1:0"],
        &["workloads"],
    ];
    for command in commands {
        for bogus in [&["--bogus", "1"][..], &["--bogus"]] {
            let out = cachedse(&[command, bogus].concat());
            assert_eq!(out.status.code(), Some(1), "{command:?} {bogus:?}");
            assert!(stdout(&out).is_empty(), "{command:?}: {}", stdout(&out));
            assert_eq!(
                stderr(&out),
                "cachedse: unknown option --bogus; see `cachedse --help`\n",
                "{command:?} {bogus:?}"
            );
        }
        let out = cachedse(&[command, &["--help"]].concat());
        assert_eq!(out.status.code(), Some(0), "{command:?}: {}", stderr(&out));
        assert!(stdout(&out).starts_with("usage: cachedse"), "{command:?}");
        assert!(stderr(&out).is_empty(), "{command:?}: {}", stderr(&out));
    }
}

/// The shard tier is gone: `serve --join` and `--advertise` are refused
/// by name instead of dialling a peer.
#[test]
fn serve_refuses_the_retired_shard_options() {
    for option in ["--join", "--advertise"] {
        let out = cachedse(&["serve", "--bind", "127.0.0.1:0", option, "127.0.0.1:1"]);
        assert_eq!(out.status.code(), Some(1), "{option}");
        let retired = format!("cachedse: {option} is retired: serve runs as one node");
        assert!(stderr(&out).starts_with(&retired), "{}", stderr(&out));
    }
}
