//! End-to-end pipeline: capture a workload, serialize its trace to the
//! Dinero text format, read it back, explore, and verify — the full path a
//! downstream user takes through the public API.

use cachedse::core::{verify, DesignSpaceExplorer, MissBudget};
use cachedse::trace::io::{read_din, write_din};
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
