//! Demonstrates the exactness claim: the analytical model's miss counts are
//! not estimates — for LRU caches they equal trace-driven simulation,
//! configuration for configuration.
//!
//! ```sh
//! cargo run --release --example validate_against_simulator
//! ```

use cachedse::core::{dfs, DesignSpaceExplorer, Engine, MissBudget};
use cachedse::sim::onepass::profile_depths;
use cachedse::sim::{simulate, CacheConfig};
use cachedse::trace::strip::StrippedTrace;
use cachedse::workloads::{crc::Crc, Kernel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = Crc {
        message_len: 1024,
        passes: 3,
    }
    .capture();
    let trace = &run.data;
    let bits = trace.address_bits();

    // 1. Profile equality: the analytical engine and the one-pass simulator
    //    produce identical per-depth miss histograms.
    let analytical = dfs::level_profiles(&StrippedTrace::from_trace(trace), bits);
    let simulated = profile_depths(trace, bits);
    assert_eq!(analytical, simulated);
    println!("per-depth miss profiles identical for depths 1..=2^{bits}");

    // 2. Point equality: spot-check raw miss counts against individual
    //    cache simulations.
    for (depth, assoc) in [(16u32, 1u32), (64, 2), (256, 1), (1024, 4)] {
        let predicted = analytical[depth.trailing_zeros() as usize].misses_at(assoc);
        let observed = simulate(trace, &CacheConfig::lru(depth, assoc)?).avoidable_misses();
        assert_eq!(predicted, observed);
        println!(
            "depth {depth:>5}, {assoc}-way: predicted {predicted:>6} = simulated {observed:>6}"
        );
    }

    // 3. End-to-end: both engines return the same optimal set, and every
    //    returned point is minimal under simulation.
    for engine in [Engine::Streamed, Engine::DepthFirst] {
        let result = DesignSpaceExplorer::new(trace)
            .engine(engine)
            .explore(MissBudget::FractionOfMax(0.10))?;
        let checks = cachedse::core::verify::check_result(trace, &result)?;
        println!("{engine}: {} optimal configurations verified", checks.len());
    }
    Ok(())
}
