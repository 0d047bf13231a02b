//! Size one cache for a whole application set, then evaluate it inside a
//! two-level hierarchy — the system-on-chip scenario the paper's
//! introduction motivates (one tuned cache serving the device's application
//! mix).
//!
//! ```sh
//! cargo run --release --example shared_cache
//! ```

use cachedse::core::{explore_shared, MissBudget};
use cachedse::sim::hierarchy::Hierarchy;
use cachedse::sim::CacheConfig;
use cachedse::trace::Trace;
use cachedse::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The device runs a pager stack: protocol decode, checksum, and codec.
    let apps: Vec<(&str, Trace)> = ["pocsag", "crc", "adpcm"]
        .iter()
        .map(|name| {
            let run = by_name(name).expect("registered kernel").capture();
            (run.name, run.data)
        })
        .collect();

    // One shared data cache must hold every application under 10% of its
    // own worst case.
    let traces: Vec<&Trace> = apps.iter().map(|(_, t)| t).collect();
    let shared = explore_shared(&traces, MissBudget::FractionOfMax(0.10))?;
    println!("shared data cache requirements (every app within 10%):");
    for point in &shared {
        println!("  depth {:>6} -> {}-way", point.depth, point.associativity);
    }

    // Pick the smallest-capacity shared point and check it per application.
    let best = shared
        .iter()
        .min_by_key(|p| (p.size_lines(), p.depth))
        .expect("non-empty design space");
    println!("\nchosen shared L1: {best} ({} lines)", best.size_lines());
    let l1 = CacheConfig::lru(best.depth, best.associativity)?;
    let l2 = CacheConfig::lru(16384, 4)?;
    println!("backing L2: {l2}");
    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>14}",
        "app", "accesses", "L1 misses", "L2 misses", "memory traffic"
    );
    for (name, trace) in &apps {
        let mut h = Hierarchy::new(l1, l2)?;
        h.run(trace);
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>14}",
            name,
            h.l1().accesses,
            h.l1().misses,
            h.l2().misses,
            h.memory_traffic()
        );
    }
    Ok(())
}
