//! The workspace-level soundness property: the analytical method (both
//! engines) agrees exactly with trace-driven simulation, on random traces
//! and on the instrumented workloads.

use cachedse::core::{dfs, verify, DesignSpaceExplorer, Engine, MissBudget};
use cachedse::sim::onepass::profile_depths;
use cachedse::sim::{simulate, CacheConfig};
use cachedse::trace::rng::SplitMix64;
use cachedse::trace::strip::StrippedTrace;
use cachedse::trace::{generate, Trace};

fn random_trace(rng: &mut SplitMix64, addr_space: u32, max_len: usize) -> Trace {
    use cachedse::trace::{Address, Record};
    let len = rng.gen_range(1usize..max_len);
    (0..len)
        .map(|_| Record::read(Address::new(rng.gen_range(0..addr_space))))
        .collect()
}

/// DFS engine == one-pass simulation on arbitrary traces and depths.
/// Deterministic randomized sweep (formerly a proptest property).
#[test]
fn profiles_match_simulation() {
    let mut rng = SplitMix64::seed_from_u64(0x0DF5);
    for _ in 0..64 {
        let trace = random_trace(&mut rng, 128, 400);
        let max_bits = rng.gen_range(0u32..8);
        let stripped = StrippedTrace::from_trace(&trace);
        assert_eq!(
            dfs::level_profiles(&stripped, max_bits),
            profile_depths(&trace, max_bits)
        );
    }
}

/// Every explored point is within budget and minimal when simulated.
#[test]
fn results_verify() {
    let mut rng = SplitMix64::seed_from_u64(0x5E11F);
    for _ in 0..64 {
        let trace = random_trace(&mut rng, 96, 300);
        let budget = rng.gen_range(0u64..40);
        let result = DesignSpaceExplorer::new(&trace)
            .explore(MissBudget::Absolute(budget))
            .expect("non-empty");
        assert!(verify::check_result(&trace, &result).is_ok());
    }
}

/// Small-parameter versions of several kernels, checked under the paper's
/// budget grid with both engines.
#[test]
fn workload_explorations_verify() {
    use cachedse::workloads::{
        bcnt::Bcnt, crc::Crc, engine::Engine as EngineKernel, fir::Fir, qurt::Qurt, Kernel,
    };
    let runs = [
        Crc {
            message_len: 600,
            passes: 2,
        }
        .capture(),
        Fir {
            taps: 12,
            samples: 600,
        }
        .capture(),
        Bcnt {
            buffer_len: 400,
            passes: 2,
        }
        .capture(),
        EngineKernel { ticks: 400 }.capture(),
        Qurt { equations: 150 }.capture(),
    ];
    for run in &runs {
        for trace in [&run.data, &run.instr] {
            for fraction in [0.05, 0.10, 0.15, 0.20] {
                for engine in [Engine::Streamed, Engine::DepthFirst] {
                    let result = DesignSpaceExplorer::new(trace)
                        .engine(engine)
                        .explore(MissBudget::FractionOfMax(fraction))
                        .expect("non-empty");
                    verify::check_result(trace, &result)
                        .unwrap_or_else(|e| panic!("{} {engine} K={fraction}: {e}", run.name));
                }
            }
        }
    }
}

/// Spot-check raw miss counts across the design plane on a structured
/// trace.
#[test]
fn miss_counts_match_pointwise() {
    let trace = generate::loop_with_excursions(0, 80, 60, 9, 1 << 11, 17);
    let bits = trace.address_bits();
    let profiles = dfs::level_profiles(&StrippedTrace::from_trace(&trace), bits);
    for profile in &profiles {
        for assoc in [1u32, 2, 3, 5, 8] {
            let config = CacheConfig::lru(profile.depth(), assoc).expect("valid");
            assert_eq!(
                profile.misses_at(assoc),
                simulate(&trace, &config).avoidable_misses(),
                "depth {} assoc {assoc}",
                profile.depth()
            );
        }
    }
}

/// `Trace::dedup_consecutive` is an exact reduction: for every depth and
/// associativity >= 1 the avoidable-miss counts are unchanged (the
/// trace-stripping property of the paper's references [14][15]).
/// Deterministic randomized sweep (formerly a proptest property).
#[test]
fn dedup_preserves_all_miss_counts() {
    let mut rng = SplitMix64::seed_from_u64(0xDED);
    for _ in 0..48 {
        let trace = random_trace(&mut rng, 24, 250);
        let max_bits = rng.gen_range(0u32..5);
        let reduced = trace.dedup_consecutive();
        assert!(reduced.len() <= trace.len());
        let full = dfs::level_profiles(&StrippedTrace::from_trace(&trace), max_bits);
        let small = dfs::level_profiles(&StrippedTrace::from_trace(&reduced), max_bits);
        for (a, b) in full.iter().zip(&small) {
            for assoc in 1..=8u32 {
                assert_eq!(
                    a.misses_at(assoc),
                    b.misses_at(assoc),
                    "depth {} assoc {}",
                    a.depth(),
                    assoc
                );
            }
            assert_eq!(a.cold(), b.cold());
        }
    }
}

/// The associativity tables are monotone: deeper rows and looser budgets
/// never need more ways.
#[test]
fn tables_are_monotone() {
    let trace = generate::working_set_phases(6, 500, 64, 23);
    let exploration = DesignSpaceExplorer::new(&trace)
        .prepare()
        .expect("non-empty");
    let mut prev: Option<Vec<u32>> = None;
    for fraction in [0.05, 0.10, 0.15, 0.20] {
        let result = exploration
            .result(MissBudget::FractionOfMax(fraction))
            .expect("valid fraction");
        let assocs: Vec<u32> = result.pairs().iter().map(|p| p.associativity).collect();
        // Monotone in depth.
        assert!(assocs.windows(2).all(|w| w[1] <= w[0]), "{assocs:?}");
        // Monotone in budget.
        if let Some(prev) = &prev {
            assert!(prev.iter().zip(&assocs).all(|(a, b)| b <= a));
        }
        prev = Some(assocs);
    }
}
