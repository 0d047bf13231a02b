//! End-to-end pipeline: capture a workload, serialize its trace to the
//! Dinero text format, read it back, explore, and verify — the full path a
//! downstream user takes through the public API.

use std::io::Read;

use cachedse::core::{verify, DesignSpaceExplorer, MissBudget};
use cachedse::trace::digest::TraceDigest;
use cachedse::trace::io::{read_din, write_din};
use cachedse::trace::rng::SplitMix64;
use cachedse::workloads::{pocsag::Pocsag, Kernel};

#[test]
fn capture_serialize_parse_explore_verify() {
    let run = Pocsag { batches: 12 }.capture();

    let mut bytes = Vec::new();
    write_din(&mut bytes, &run.data).expect("in-memory write cannot fail");
    let parsed = read_din(bytes.as_slice()).expect("own output parses");
    assert_eq!(parsed, run.data);

    let result = DesignSpaceExplorer::new(&parsed)
        .explore(MissBudget::FractionOfMax(0.10))
        .expect("non-empty trace");
    assert!(!result.pairs().is_empty());
    verify::check_result(&parsed, &result).expect("analytical result verifies");

    // Exploring the parsed copy gives the same result as the original.
    let original = DesignSpaceExplorer::new(&run.data)
        .explore(MissBudget::FractionOfMax(0.10))
        .expect("non-empty trace");
    assert_eq!(result, original);
}

/// A reader that hands out its bytes 1–13 at a time, so lines straddle
/// every kind of chunk boundary.
struct Dribble<'a> {
    bytes: &'a [u8],
    rng: SplitMix64,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1..=13usize)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn all_24_kernel_traces_round_trip_through_dinero_text() {
    for kernel in cachedse::workloads::all() {
        let run = kernel.capture();
        for (side, trace) in [("data", &run.data), ("instr", &run.instr)] {
            let mut bytes = Vec::new();
            write_din(&mut bytes, trace).expect("in-memory write cannot fail");
            let parsed = read_din(Dribble {
                bytes: &bytes,
                rng: SplitMix64::seed_from_u64(bytes.len() as u64),
            })
            .expect("own output parses");
            assert!(
                parsed == *trace,
                "{}.{side} changed in the round trip",
                run.name
            );
            assert_eq!(
                TraceDigest::of_trace(&parsed),
                TraceDigest::of_trace(trace),
                "{}.{side}",
                run.name
            );
        }
    }
}

#[test]
fn hierarchy_l1_agrees_with_analytical_prediction() {
    use cachedse::core::DesignSpaceExplorer;
    use cachedse::sim::hierarchy::Hierarchy;
    use cachedse::sim::CacheConfig;

    // Instruction traces are read-only, so the L1 of a hierarchy behaves
    // exactly like a standalone cache — and must match the analytical
    // prediction for its geometry.
    let run = Pocsag { batches: 10 }.capture();
    let exploration = DesignSpaceExplorer::new(&run.instr)
        .prepare()
        .expect("non-empty");
    for (depth, assoc) in [(16u32, 1u32), (64, 2), (256, 1)] {
        let mut h = Hierarchy::new(
            CacheConfig::lru(depth, assoc).expect("valid"),
            CacheConfig::lru(4096, 4).expect("valid"),
        )
        .expect("compatible levels");
        h.run(&run.instr);
        assert_eq!(
            h.l1().avoidable_misses(),
            exploration.misses_at(depth, assoc).expect("explored depth"),
            "depth {depth}, {assoc}-way"
        );
    }
}

#[test]
fn parallel_engine_full_pipeline() {
    use cachedse::core::{verify, DesignSpaceExplorer, Engine, MissBudget};
    let run = Pocsag { batches: 16 }.capture();
    let serial = DesignSpaceExplorer::new(&run.data)
        .explore(MissBudget::FractionOfMax(0.10))
        .expect("non-empty");
    let parallel = DesignSpaceExplorer::new(&run.data)
        .engine(Engine::DepthFirst)
        .threads(std::num::NonZeroUsize::new(2).expect("nonzero"))
        .explore(MissBudget::FractionOfMax(0.10))
        .expect("non-empty");
    assert_eq!(serial, parallel);
    verify::check_result(&run.data, &parallel).expect("verified");
}

#[test]
fn line_size_coarsening_composes() {
    let run = Pocsag { batches: 8 }.capture();
    let coarse = run.data.block_aligned(2); // 4-word lines
    let result = DesignSpaceExplorer::new(&coarse)
        .explore(MissBudget::Absolute(5))
        .expect("non-empty trace");
    verify::check_result(&coarse, &result).expect("verifies on the block trace");
}
