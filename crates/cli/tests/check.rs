//! Black-box tests of the `cachedse check` subcommand: a clean trace passes
//! all four invariant classes, and a deliberately corrupted BCAT or MRCT
//! makes the process exit non-zero.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn cachedse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cachedse"))
        .args(args)
        .output()
        .expect("binary runs")
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `lines` to a fresh temp `.din` file and returns its path.
fn write_trace(lines: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "cachedse-check-test-{}-{n}.din",
        std::process::id()
    ));
    let mut file = std::fs::File::create(&path).expect("temp file");
    file.write_all(lines.as_bytes()).expect("write");
    path
}

const PAPER_TRACE: &str = "0 b\n0 c\n0 6\n0 3\n0 b\n0 4\n0 c\n0 3\n0 b\n0 6\n";

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_trace_passes_and_reports_all_classes() {
    let path = write_trace(PAPER_TRACE);
    let out = cachedse(&["check", path.to_str().unwrap(), "--misses", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for class in ["zero/one", "BCAT", "MRCT", "frontier"] {
        assert!(text.contains(class), "summary must mention {class}: {text}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn default_budget_grid_is_clean() {
    let path = write_trace(PAPER_TRACE);
    let out = cachedse(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("4 frontier(s)"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_bcat_exits_nonzero() {
    let path = write_trace(PAPER_TRACE);
    let out = cachedse(&[
        "check",
        path.to_str().unwrap(),
        "--inject-fault",
        "bcat-duplicate-ref",
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("bcat-"), "{}", stdout(&out));
    assert!(stderr(&out).contains("violation"), "{}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_mrct_exits_nonzero() {
    let path = write_trace(PAPER_TRACE);
    let out = cachedse(&[
        "check",
        path.to_str().unwrap(),
        "--inject-fault",
        "mrct-drop-set",
    ]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("mrct-"), "{}", stdout(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_fault_kind_is_rejected() {
    let path = write_trace(PAPER_TRACE);
    for kind in [
        "bcat-drop-ref",
        "bcat-duplicate-ref",
        "bcat-premature-leaf",
        "bcat-permutation-swap",
        "mrct-self-conflict",
        "mrct-drop-set",
        "mrct-unsorted-set",
    ] {
        let out = cachedse(&[
            "check",
            path.to_str().unwrap(),
            "--inject-fault",
            kind,
            "--quiet",
        ]);
        assert!(!out.status.success(), "{kind} was not rejected");
    }
    let _ = std::fs::remove_file(&path);
}

/// `check --model` is retired by name, also when a trace follows: running
/// the artifact check instead would let a stale script pass without
/// exploring a single schedule.
#[test]
fn model_flag_is_retired_by_name() {
    let path = write_trace(PAPER_TRACE);
    let trace = path.to_str().unwrap();
    for args in [&["check", "--model"][..], &["check", "--model", trace]] {
        let out = cachedse(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
        let message = stderr(&out);
        assert!(
            message.contains(
                "check --model is retired: run the model scenarios with \
                 RUSTFLAGS=\"--cfg cachedse_model\" cargo test -p cachedse \
                 --test model_serve --test model_store"
            ),
            "{args:?}: {message}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_fault_name_is_a_clean_error() {
    let path = write_trace(PAPER_TRACE);
    let out = cachedse(&["check", path.to_str().unwrap(), "--inject-fault", "doom"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown fault"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn budget_flags_are_mutually_exclusive() {
    let path = write_trace(PAPER_TRACE);
    let out = cachedse(&[
        "check",
        path.to_str().unwrap(),
        "--misses",
        "1",
        "--fraction",
        "0.1",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("mutually exclusive"));
    let _ = std::fs::remove_file(&path);
}
