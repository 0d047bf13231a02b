//! Black-box tests of the `cachedse` binary.

use std::io::Write as _;
use std::process::{Command, Output};

fn cachedse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .output()
        .expect("binary runs")
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

/// The materialized Algorithms 1–3 are the reference the engines are
/// checked against, not an engine: `tree` is an unknown engine name.
#[test]
fn retired_tree_engine_is_an_unknown_engine() {
    let path = write_trace("0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n");
    let out = cachedse(&[
        "explore",
        path.to_str().unwrap(),
        "--misses",
        "0",
        "--engine",
        "tree",
    ]);
    assert!(!out.status.success());
    let message = stderr(&out);
    assert!(message.contains("unknown engine \"tree\""), "{message}");
    assert!(message.contains("expected streamed|dfs "), "{message}");
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

/// Parallel depth-first is `--engine dfs --threads N`, answering exactly
/// what the serial engine does; the retired `parallel` name points there.
#[test]
fn dfs_with_threads_matches_serial_dfs() {
    let path = std::env::temp_dir().join(format!("cachedse-dfs-{}.din", std::process::id()));
    let path_str = path.to_str().unwrap();
    let mut gen_args: Vec<&str> = "gen --pattern phases --phases 4 --len 3000 --ws 96 --out"
        .split(' ')
        .collect();
    gen_args.push(path_str);
    let out = cachedse(&gen_args);
    assert!(out.status.success(), "{}", stderr(&out));
    let explore = |extra: &[&str]| {
        let mut args = vec!["explore", path_str, "--misses", "0", "--format", "json"];
        args.extend_from_slice(extra);
        cachedse(&args)
    };
    let serial = explore(&["--engine", "dfs"]);
    let parallel = explore(&["--engine", "dfs", "--threads", "2"]);
    assert!(serial.status.success(), "{}", stderr(&serial));
    assert!(parallel.status.success(), "{}", stderr(&parallel));
    assert_eq!(stdout(&serial), stdout(&parallel));

    let retired = explore(&["--engine", "parallel"]);
    assert!(!retired.status.success());
    let message = stderr(&retired);
    assert!(message.contains("unknown engine"), "{message}");
    assert!(message.contains("--engine dfs --threads N"), "{message}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_workload_is_a_clean_error() {
    let out = cachedse(&["gen", "--workload", "doom"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown workload"));
}
