//! Persistence round-trip over every embedded kernel: artifacts written
//! through the disk store and loaded back by a *fresh* store (a restarted
//! node) must compare equal to a from-scratch analysis — stripped trace,
//! profiles, and all. Equality here is structural over every field the
//! codec persists, so any lossy encoding shows up as a hard `!=`, not as a
//! subtly different frontier three layers later. The entry format is the
//! same whichever engine built it: only the engine tag and the checksum
//! may differ.

use std::path::PathBuf;

use cachedse::workloads::{
    adpcm::Adpcm, bcnt::Bcnt, blit::Blit, compress::Compress, crc::Crc, des::Des, engine::Engine,
    fir::Fir, g3fax::G3fax, pocsag::Pocsag, qurt::Qurt, ucbqsort::Ucbqsort, Kernel, KernelRun,
};
use cachedse_core::Engine as Analysis;
use cachedse_store::{codec, ArtifactKey, ArtifactStore, DiskStore, TraceArtifacts};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cachedse-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small-parameter instances of all twelve kernels (the same sizing as the
/// simulator-replay oracle): enough references to exercise every arena the
/// codec persists, small enough for debug builds.
fn small_runs() -> Vec<KernelRun> {
    vec![
        Adpcm { samples: 300 }.capture(),
        Bcnt {
            buffer_len: 256,
            passes: 2,
        }
        .capture(),
        Blit {
            row_words: 8,
            rows: 24,
            ops: 6,
        }
        .capture(),
        Compress { input_len: 600 }.capture(),
        Crc {
            message_len: 400,
            passes: 2,
        }
        .capture(),
        Des { blocks: 20 }.capture(),
        Engine { ticks: 250 }.capture(),
        Fir {
            taps: 10,
            samples: 400,
        }
        .capture(),
        G3fax { lines: 12 }.capture(),
        Pocsag { batches: 6 }.capture(),
        Qurt { equations: 100 }.capture(),
        Ucbqsort { elements: 300 }.capture(),
    ]
}

#[test]
fn every_kernel_round_trips_through_a_restarted_disk_store() {
    let dir = tmp_dir("kernels");
    let runs = small_runs();
    assert_eq!(runs.len(), 12, "one instance per bundled kernel");

    let mut built = Vec::new();
    {
        let store = DiskStore::open(&dir).unwrap();
        for run in &runs {
            // Cap the index bits so the widest kernels stay quick; the
            // codec path is identical at any cap.
            let bits = run.data.address_bits().min(10);
            let key = ArtifactKey::of(&run.data, bits);
            let artifacts = TraceArtifacts::build(&run.data, bits)
                .unwrap_or_else(|e| panic!("{}: build failed: {e}", run.name));
            store.save(&key, &artifacts).unwrap();
            built.push((run.name, key, artifacts));
        }
        assert_eq!(store.len(), built.len());
    }

    // The restart: a fresh index over the same directory, decoding lazily.
    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.len(), built.len());
    for (name, key, fresh) in &built {
        let loaded = store
            .load(key)
            .unwrap_or_else(|e| panic!("{name}: load failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: entry missing after restart"));
        assert_eq!(&loaded, fresh, "{name}: disk round-trip diverged");
        // The loaded bundle answers budgets identically, not just
        // structurally: same frontier for the paper's 10% budget.
        let budget = cachedse_core::MissBudget::FractionOfMax(0.10);
        assert_eq!(
            loaded.exploration.result(budget).unwrap(),
            fresh.exploration.result(budget).unwrap(),
            "{name}: frontier diverged after disk round-trip"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Byte offset of the codec's `engine` tag: magic, version, digest, bits,
/// flags, address bits, and the three stats words precede it.
const ENGINE_AT: usize = 8 + 4 + 8 + 4 + 4 + 4 + 24;

#[test]
fn every_engine_writes_the_same_entry_up_to_its_tag() {
    for run in small_runs() {
        let bits = run.data.address_bits().min(10);
        let key = ArtifactKey::of(&run.data, bits);
        let encode_with = |engine| {
            let artifacts = TraceArtifacts::build_with(&run.data, bits, engine)
                .unwrap_or_else(|e| panic!("{}: {engine} build failed: {e}", run.name));
            codec::encode(&key, &artifacts)
        };
        let reference = encode_with(Analysis::Streamed);
        let checksum_at = reference.len() - 8;
        let bytes = encode_with(Analysis::DepthFirst);
        assert_eq!(bytes.len(), reference.len(), "{}: entry length", run.name);
        let stray = (0..bytes.len()).find(|&i| {
            bytes[i] != reference[i] && !(ENGINE_AT..ENGINE_AT + 4).contains(&i) && i < checksum_at
        });
        assert_eq!(
            stray, None,
            "{}: depth-first differs beyond its tag",
            run.name
        );
        assert_ne!(
            bytes[ENGINE_AT..ENGINE_AT + 4],
            reference[ENGINE_AT..ENGINE_AT + 4],
            "{}: depth-first tag",
            run.name
        );
    }
}
