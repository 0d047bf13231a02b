//! Workspace lint: concurrency primitives must go through `cachedse-sync`.
//!
//! The model checker can only explore operations it can see, and it sees
//! them by interposing on the shim in `crates/sync`. A direct
//! `std::sync` mutex/condvar or a raw `std::thread` spawn/scope anywhere
//! else compiles fine and runs fine — and silently removes those
//! interactions from every schedule the explorer enumerates. This test
//! turns that silent gap into a red build; CI runs it as its own
//! `sync-shim-lint` job (`cargo test --test sync_shim_lint`).
//!
//! The forbidden patterns are assembled by string concatenation so this
//! file never matches itself.

use std::fs;
use std::path::{Path, PathBuf};

/// Recursively collects `.rs` files under `dir`, skipping the shim crate
/// itself (the one place the raw primitives are allowed to live).
fn rs_files(dir: &Path, skip: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path == skip {
            continue;
        }
        if path.is_dir() {
            rs_files(&path, skip, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Coverage cross-check: every workspace crate must live inside the
/// `crates/` tree this lint scans and must contribute at least one source
/// file to the scan. A crate declared at another path — or an empty crate
/// directory — would escape the lint silently; this turns that into a red
/// build the moment the crate is added.
#[test]
fn every_workspace_crate_is_inside_the_scanned_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");

    let mut dep_paths = Vec::new();
    for line in manifest.lines() {
        let Some(rest) = line.trim_start().strip_prefix("cachedse-") else {
            continue;
        };
        if let Some(idx) = rest.find("path = \"") {
            let tail = &rest[idx + "path = \"".len()..];
            let path = tail.split('"').next().expect("closing quote");
            dep_paths.push(path.to_owned());
        }
    }
    assert!(
        dep_paths.len() >= 11,
        "found only {} workspace crate paths — manifest layout changed?",
        dep_paths.len()
    );
    for path in &dep_paths {
        assert!(
            path.starts_with("crates/"),
            "workspace crate at '{path}' is outside crates/ — the sync-shim \
             lint does not scan it; move it or extend the scan here"
        );
    }
    assert!(
        dep_paths.iter().any(|p| p == "crates/store"),
        "the artifact store crate must stay under lint coverage"
    );

    // Every crate directory must actually contribute sources to the scan.
    for entry in fs::read_dir(root.join("crates")).expect("crates/ listing") {
        let dir = entry.expect("crates/ entry").path();
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&dir, Path::new(""), &mut files);
        assert!(
            !files.is_empty(),
            "no .rs sources under {} — the sync-shim lint scanned nothing there",
            dir.display()
        );
    }
}

#[test]
fn concurrency_primitives_go_through_the_shim() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sync_crate = root.join("crates").join("sync");

    let std_sync = String::from("std") + "::sync::";
    let std_thread = String::from("std") + "::thread::";
    // RwLock/Barrier/mpsc have no shim equivalent today; they are listed
    // so new parallel worker code cannot adopt a blocking primitive the
    // model scheduler cannot see without extending the shim first.
    let forbidden: Vec<String> = vec![
        format!("{std_sync}Mutex"),
        format!("{std_sync}Condvar"),
        format!("{std_sync}RwLock"),
        format!("{std_sync}Barrier"),
        format!("{std_sync}mpsc"),
        format!("{std_thread}spawn"),
        format!("{std_thread}scope"),
    ];

    let mut files = Vec::new();
    for top in ["crates", "tests", "src"] {
        rs_files(&root.join(top), &sync_crate, &mut files);
    }
    assert!(
        files.len() > 20,
        "lint scanned only {} files — workspace layout changed?",
        files.len()
    );

    let mut offenses = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("workspace source is readable");
        for (lineno, line) in text.lines().enumerate() {
            for pat in &forbidden {
                if line.contains(pat.as_str()) {
                    offenses.push(format!(
                        "{}:{}: {}",
                        file.strip_prefix(root).unwrap_or(file).display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        offenses.is_empty(),
        "direct std concurrency primitive use outside crates/sync — route it \
         through the cachedse-sync shim so the model scheduler can see it \
         (DESIGN.md section 14):\n{}",
        offenses.join("\n")
    );
}
