//! Crash-recovery behaviour of the persistent artifact store, end to end:
//! a killed-and-restarted node warm-starts from its `--store-dir`, and a
//! store file truncated or flipped at *any* interesting byte offset —
//! inside the header, mid-arena, inside the trailing checksum — is
//! rejected with a structured error, quarantined, and transparently
//! rebuilt by the next job. No torn file is ever served, and no torn file
//! ever panics the decoder. An entry that decodes cleanly but carries
//! wrong profiles is caught by a `--validate` service on its warm load.
//! A tree-bearing entry left by an earlier build, and a version-1 entry
//! (the current layout under the retired FNV-1a checksum), are quarantined
//! and rebuilt the same way.

use std::path::PathBuf;
use std::sync::Arc;

use cachedse_check::{inject_profiles, FaultKind};
use cachedse_core::{Exploration, MissBudget};
use cachedse_serve::{Found, JobError, JobSpec, PatternSpec, Service, ServiceConfig, TraceSource};
use cachedse_store::{codec, ArtifactKey, ArtifactStore, DiskStore, StoreError, TraceArtifacts};
use cachedse_trace::{generate, paper_running_example};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cachedse-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(id: &str, budget: u64) -> JobSpec {
    JobSpec {
        id: Some(id.to_owned()),
        trace: TraceSource::Pattern(PatternSpec::Phases {
            phases: 3,
            len: 2_000,
            ws: 128,
            seed: 11,
        }),
        budget: MissBudget::Absolute(budget),
        max_index_bits: None,
        line_bits: 0,
        timeout_ms: None,
    }
}

fn config(dir: &PathBuf) -> ServiceConfig {
    let store: Arc<dyn ArtifactStore> = Arc::new(DiskStore::open(dir).unwrap());
    ServiceConfig {
        workers: 1,
        store: Some(store),
        ..ServiceConfig::default()
    }
}

/// The acceptance scenario: a node killed after one job and restarted
/// over the same `--store-dir` answers the first repeat-trace job with a
/// store hit — no rebuild.
#[test]
fn restarted_service_warm_starts_from_its_store_dir() {
    let dir = tmp_dir("warm-start");

    let first = Service::start(config(&dir));
    let id = first.submit(job("cold", 0)).unwrap();
    let (_, outcome) = first.wait(id);
    let cold = outcome.unwrap();
    assert_eq!(cold.cache, Found::Miss);
    // "Killed": dropped without any graceful artifact handoff — the disk
    // write-through already happened at build time.
    drop(first);

    let second = Service::start(config(&dir));
    let id = second.submit(job("repeat", 0)).unwrap();
    let (_, outcome) = second.wait(id);
    let warm = outcome.unwrap();
    assert_eq!(warm.cache, Found::Warm, "restart must not re-analyze");
    assert_eq!(warm.result, cold.result);
    let stats = second.shutdown();
    assert_eq!(stats.store_hits, 1);
    assert_eq!(stats.cache_misses, 0, "no rebuild after restart");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Truncation at each structurally distinct offset: rejected as
/// `StoreError::Corrupt`, quarantined to `.bad`, then rebuilt cleanly.
#[test]
fn truncated_entries_are_rejected_quarantined_and_rebuilt() {
    let dir = tmp_dir("truncate");
    let trace = generate::working_set_phases(2, 600, 64, 5);
    let key = ArtifactKey::of(&trace, trace.address_bits());
    let artifacts = TraceArtifacts::build(&trace, key.max_index_bits).unwrap();

    let pristine = {
        let store = DiskStore::open(&dir).unwrap();
        store.save(&key, &artifacts).unwrap();
        std::fs::read(store.path_of(&key)).unwrap()
    };
    // Inside the magic/version header, just before the header ends, a few
    // mid-arena cuts, inside the trailing checksum, and the empty file.
    let cuts = [
        0,
        4,
        12,
        pristine.len() / 4,
        pristine.len() / 2,
        pristine.len() - 9,
        pristine.len() - 4,
        pristine.len() - 1,
    ];
    for &cut in &cuts {
        // Each iteration is a fresh "restart" over a directory holding a
        // torn file (the crash happened mid-write on the previous node).
        let store = DiskStore::open(&dir).unwrap();
        let path = store.path_of(&key);
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let err = store
            .load(&key)
            .expect_err(&format!("truncation at {cut} must not decode"));
        assert!(
            matches!(err, StoreError::Corrupt(_)),
            "truncation at {cut}: expected Corrupt, got {err:?}"
        );
        assert!(
            path.with_extension("bad").exists(),
            "truncation at {cut}: torn file not quarantined"
        );
        // The rebuild: a fresh save over the quarantined slot serves again.
        store.save(&key, &artifacts).unwrap();
        assert_eq!(store.load(&key).unwrap().unwrap(), artifacts);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupted (bit-flipped, not truncated) entry is detected by the
/// checksum and rebuilt by the next job through the service — the
/// integration path of the acceptance criterion.
#[test]
fn corrupted_entry_is_detected_and_rebuilt_by_the_next_job() {
    let dir = tmp_dir("flip");

    let first = Service::start(config(&dir));
    let id = first.submit(job("seed", 0)).unwrap();
    first.wait(id).1.unwrap();
    drop(first);

    // Flip one byte in the middle of the only stored entry.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "cdse"))
        .expect("one stored entry");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&entry, &bytes).unwrap();

    let second = Service::start(config(&dir));
    let id = second.submit(job("rebuild", 0)).unwrap();
    let (_, outcome) = second.wait(id);
    let output = outcome.unwrap();
    // The corrupt load degrades to a rebuild, never an error or a wrong
    // answer.
    assert_eq!(output.cache, Found::Miss);
    assert!(entry.with_extension("bad").exists(), "no quarantine");
    let stats = second.shutdown();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.store_hits, 0);
    // The rebuild wrote through: a third node warm-starts again.
    let third = Service::start(config(&dir));
    let id = third.submit(job("warm", 0)).unwrap();
    let (_, outcome) = third.wait(id);
    assert_eq!(outcome.unwrap().cache, Found::Warm);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A profiles-only entry skewed on disk keeps its totals, so it passes the
/// store's stats gate; a validating service must still re-check the warm
/// load, evict it from memory and store, and fail the job.
#[test]
fn validating_service_rejects_a_skewed_warm_entry() {
    let dir = tmp_dir("skew");

    let first = Service::start(config(&dir));
    let id = first.submit(job("seed", 0)).unwrap();
    let digest = first.wait(id).1.unwrap().digest;
    drop(first);

    let store = DiskStore::open(&dir).unwrap();
    let key = store.keys_for(digest)[0];
    let stored = store.load(&key).unwrap().expect("entry persisted");
    let mut profiles = stored.exploration.profiles().to_vec();
    assert!(inject_profiles(&mut profiles, FaultKind::StreamedCountSkew));
    let exploration = Exploration::from_parts(
        profiles,
        stored.exploration.stats(),
        stored.exploration.engine(),
    )
    .unwrap();
    store
        .save(
            &key,
            &TraceArtifacts {
                exploration,
                ..stored
            },
        )
        .unwrap();
    drop(store);

    let validating = Service::start(ServiceConfig {
        validate: true,
        ..config(&dir)
    });
    let spec = JobSpec {
        trace: TraceSource::Digest(digest),
        ..job("skewed", 0)
    };
    let id = validating.submit(spec).unwrap();
    let err = validating.wait(id).1.unwrap_err();
    assert!(matches!(err, JobError::ArtifactCorrupt(_)), "{err:?}");
    assert!(
        validating.cache().keys_for(digest).is_empty(),
        "the skewed entry must be gone from memory and store"
    );
    let stats = validating.shutdown();
    assert_eq!(stats.validations, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What an earlier build wrote for the paper's running example under the
/// tree-table engine: flag bit 0 set, and the zero/one sets, BCAT and MRCT
/// appended after the profiles. That format is retired.
const LEGACY_TREE_ENTRY: &[u8] = include_bytes!("fixtures/legacy_tree_entry.cdse");

/// Byte offset of the codec's `flags` word: magic, version, digest, bits.
const FLAGS_AT: usize = 8 + 4 + 8 + 4;

/// A tree-bearing entry is refused under the retired format's name,
/// quarantined by the disk store, and rebuilt by the next job as a
/// profiles-only entry that a restarted node then warm-starts from.
#[test]
fn legacy_tree_entry_is_quarantined_and_rebuilt_profiles_only() {
    let trace = paper_running_example();
    let key = ArtifactKey::of(&trace, trace.address_bits());
    let err = codec::decode(LEGACY_TREE_ENTRY).unwrap_err();
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.contains("retired tree-bearing")),
        "{err:?}"
    );

    let dir = tmp_dir("legacy-tree");
    let path = DiskStore::open(&dir).unwrap().path_of(&key);
    std::fs::write(&path, LEGACY_TREE_ENTRY).unwrap();
    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.keys_for(key.digest), vec![key], "indexed by its name");
    let err = store.load(&key).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    assert!(path.with_extension("bad").exists(), "not quarantined");
    drop(store);

    let din = std::env::temp_dir().join(format!("cachedse-legacy-{}.din", std::process::id()));
    cachedse_trace::io::write_din(std::fs::File::create(&din).unwrap(), &trace).unwrap();
    let spec = |id: &str| JobSpec {
        trace: TraceSource::File(din.display().to_string()),
        ..job(id, 0)
    };
    let service = Service::start(config(&dir));
    let id = service.submit(spec("rebuild")).unwrap();
    let rebuilt = service.wait(id).1.unwrap();
    assert_eq!(rebuilt.cache, Found::Miss);
    assert_eq!(rebuilt.digest, key.digest);
    let _ = service.shutdown();

    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        u32::from_le_bytes(bytes[FLAGS_AT..FLAGS_AT + 4].try_into().unwrap()),
        1 << 1,
        "rebuilt entry is profiles-only"
    );
    let (decoded_key, decoded) = codec::decode(&bytes).unwrap();
    assert_eq!(decoded_key, key);
    assert_eq!(
        decoded,
        TraceArtifacts::build(&trace, key.max_index_bits).unwrap()
    );

    let restarted = Service::start(config(&dir));
    let id = restarted.submit(spec("warm")).unwrap();
    let warm = restarted.wait(id).1.unwrap();
    assert_eq!(warm.cache, Found::Warm);
    assert_eq!(warm.result, rebuilt.result);
    let _ = restarted.shutdown();
    std::fs::remove_file(&din).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a version-1 build wrote for the trace of
/// `{"pattern":"phases","len":2000,"seed":7}`, filed under its key as
/// `f301cd62042bc445-11.cdse`: the current layout under the retired
/// byte-wise FNV-1a checksum.
const V1_ENTRY: &[u8] = include_bytes!("fixtures/v1_entry.cdse");

/// A version-1 entry is refused by name before its checksum is looked at,
/// quarantined by the disk store, and rebuilt by the next job as a
/// version-2 entry of the same length that differs only in its version
/// word and checksum; a restarted node then answers warm from it.
#[test]
fn v1_entry_is_quarantined_and_rebuilt() {
    let trace = generate::working_set_phases(8, 2_000, 256, 7);
    let key = ArtifactKey::of(&trace, trace.address_bits());
    let err = codec::decode(V1_ENTRY).unwrap_err();
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.contains("retired format version 1")),
        "{err:?}"
    );

    let dir = tmp_dir("v1");
    let path = DiskStore::open(&dir).unwrap().path_of(&key);
    assert_eq!(
        path.file_name().unwrap().to_str(),
        Some("f301cd62042bc445-11.cdse")
    );
    std::fs::write(&path, V1_ENTRY).unwrap();
    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.keys_for(key.digest), vec![key], "indexed by its name");
    let err = store.load(&key).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    assert!(path.with_extension("bad").exists(), "not quarantined");
    assert!(!path.exists(), "quarantine moves the entry aside");
    drop(store);

    let din = std::env::temp_dir().join(format!("cachedse-v1-{}.din", std::process::id()));
    cachedse_trace::io::write_din(std::fs::File::create(&din).unwrap(), &trace).unwrap();
    let spec = |id: &str| JobSpec {
        trace: TraceSource::File(din.display().to_string()),
        ..job(id, 0)
    };
    let service = Service::start(config(&dir));
    let id = service.submit(spec("rebuild")).unwrap();
    let rebuilt = service.wait(id).1.unwrap();
    assert_eq!(rebuilt.cache, Found::Miss);
    assert_eq!(rebuilt.digest, key.digest);
    let stats = service.shutdown();
    assert_eq!((stats.cache_misses, stats.store_hits), (1, 0));

    let bytes = std::fs::read(&path).unwrap();
    let n = V1_ENTRY.len();
    assert_eq!(bytes.len(), n, "the layout is unchanged");
    assert_eq!(&bytes[..8], &V1_ENTRY[..8]);
    assert_eq!(bytes[8..12], codec::VERSION.to_le_bytes());
    assert_eq!(
        &bytes[12..n - 8],
        &V1_ENTRY[12..n - 8],
        "only the version and the checksum differ"
    );
    assert_ne!(&bytes[n - 8..], &V1_ENTRY[n - 8..]);
    let (decoded_key, decoded) = codec::decode(&bytes).unwrap();
    assert_eq!(decoded_key, key);
    assert_eq!(
        decoded,
        TraceArtifacts::build(&trace, key.max_index_bits).unwrap()
    );

    let restarted = Service::start(config(&dir));
    let id = restarted.submit(spec("warm")).unwrap();
    let warm = restarted.wait(id).1.unwrap();
    assert_eq!(warm.cache, Found::Warm);
    assert_eq!(warm.result, rebuilt.result);
    let stats = restarted.shutdown();
    assert_eq!((stats.cache_misses, stats.store_hits), (0, 1));
    std::fs::remove_file(&din).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// No prefix of a retired entry decodes or panics, including the 20–27
/// byte ones whose body is too short to hold the flags word the
/// version-1 message reads.
#[test]
fn every_prefix_of_a_retired_entry_is_corrupt() {
    for (name, entry) in [("v1", V1_ENTRY), ("tree", LEGACY_TREE_ENTRY)] {
        for len in 0..=entry.len() {
            let err = codec::decode(&entry[..len]).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "{name} prefix of {len} bytes: {err:?}"
            );
        }
    }
}
