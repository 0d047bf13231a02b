//! Differential oracle for the depth-first engine.
//!
//! The scratch-arena engine must produce *byte-identical* per-level
//! conflict-depth profiles to the materialized reference
//! (`postlude::materialized_profiles`: BCAT, MRCT, Algorithm 3) — that
//! equality is what lets the serve cache key stay engine-free. Two corpora
//! exercise it:
//!
//! 1. every bundled kernel (both captured sides) at small parameters, and
//! 2. a seeded SplitMix64 sweep of synthetic traces covering degenerate
//!    shapes (single address, all-distinct, heavy reuse, power-of-two strides).
//!
//! It also pins the engine `Engine::Auto` picks on each full-size kernel
//! trace: the pick is recorded in store entries and in `explore --format
//! json`, so it may change only with DESIGN.md §16's table.

use std::sync::OnceLock;

use cachedse::core::{dfs, postlude, DesignSpaceExplorer, Engine as EngineChoice};
use cachedse::sim::onepass::DepthProfile;
use cachedse::trace::strip::StrippedTrace;
use cachedse::trace::{Address, Record, Trace};
use cachedse::workloads::{
    adpcm::Adpcm, bcnt::Bcnt, blit::Blit, compress::Compress, crc::Crc, des::Des, engine::Engine,
    fir::Fir, g3fax::G3fax, pocsag::Pocsag, qurt::Qurt, ucbqsort::Ucbqsort, Kernel, KernelRun,
};

/// Small-parameter instances of all twelve kernels (mirrors the simulator
/// oracle corpus in `verify_workloads.rs`).
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

/// One (kernel, trace-kind) oracle: the stripped trace plus its
/// materialized golden, built exactly once and shared by every
/// engine-variant test.
struct OracleCase {
    label: String,
    stripped: StrippedTrace,
    bits: u32,
    golden: Vec<DepthProfile>,
}

impl OracleCase {
    fn of(label: String, trace: &Trace) -> Self {
        let stripped = StrippedTrace::from_trace(trace);
        let bits = trace.address_bits();
        let golden = postlude::materialized_profiles(&stripped, bits);
        Self {
            label,
            stripped,
            bits,
            golden,
        }
    }
}

/// The 24 kernel oracles (12 kernels × data+instr). The materialized golden
/// is the expensive part of this suite, so it is built once per
/// (kernel, trace-kind) here.
fn kernel_oracles() -> &'static [OracleCase] {
    static CASES: OnceLock<Vec<OracleCase>> = OnceLock::new();
    CASES.get_or_init(|| {
        small_runs()
            .iter()
            .flat_map(|run| {
                [
                    OracleCase::of(format!("{}.data", run.name), &run.data),
                    OracleCase::of(format!("{}.instr", run.name), &run.instr),
                ]
            })
            .collect()
    })
}

/// Asserts depth-first reproduces a prebuilt golden.
fn assert_engines_match_golden(
    label: &str,
    stripped: &StrippedTrace,
    bits: u32,
    golden: &[DepthProfile],
) {
    assert_eq!(
        dfs::level_profiles(stripped, bits),
        golden,
        "{label}: dfs diverged from the materialized reference"
    );
}

/// Asserts depth-first matches the materialized reference on `trace`.
fn assert_engines_agree(label: &str, trace: &Trace) {
    let case = OracleCase::of(label.to_owned(), trace);
    assert_engines_match_golden(&case.label, &case.stripped, case.bits, &case.golden);
}

#[test]
fn all_kernels_all_engines_agree() {
    for case in kernel_oracles() {
        assert_engines_match_golden(&case.label, &case.stripped, case.bits, &case.golden);
    }
}

/// SplitMix64: tiny, seedable, and good enough to scatter addresses.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (bound > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A randomized trace whose shape is picked by `rng`: address-space width,
/// length, and access pattern (uniform, strided, or hot/cold mixture) all
/// vary so the sweep covers skewed partitions and deep recursions.
fn random_trace(rng: &mut SplitMix64) -> Trace {
    let space = 1u64 << (2 + rng.below(10)); // 4 .. 4096 distinct lines
    let len = 16 + rng.below(1500);
    let pattern = rng.below(4);
    let mut trace = Trace::new();
    let mut walker = rng.below(space);
    for t in 0..len {
        let addr = match pattern {
            // Uniform random.
            0 => rng.below(space),
            // Strided with occasional random jumps (loop-like reuse).
            1 => {
                walker = if rng.below(16) == 0 {
                    rng.below(space)
                } else {
                    (walker + 1) % space
                };
                walker
            }
            // Hot/cold: 80% of accesses hit an 8-line hot set.
            2 => {
                if rng.below(10) < 8 {
                    rng.below(8.min(space))
                } else {
                    rng.below(space)
                }
            }
            // Repeated sweep over a prefix (deterministic heavy reuse).
            _ => t % (1 + space / 2),
        };
        // Spread across cache lines so index bits are meaningful.
        let addr = u32::try_from(addr << 2).expect("address fits u32");
        trace.push(Record::read(Address::new(addr)));
    }
    trace
}

#[test]
fn seeded_random_sweep_agrees() {
    let mut rng = SplitMix64(0xDA7E_2003_C0FF_EE00);
    for case in 0..64 {
        let trace = random_trace(&mut rng);
        assert_engines_agree(&format!("random[{case}]"), &trace);
    }
}

#[test]
fn degenerate_traces_agree() {
    // Single repeated address.
    let single: Trace = (0..100).map(|_| Record::read(Address::new(64))).collect();
    assert_engines_agree("single-address", &single);

    // All-distinct addresses (no reuse anywhere).
    let distinct: Trace = (0..256u32)
        .map(|t| Record::read(Address::new(t << 2)))
        .collect();
    assert_engines_agree("all-distinct", &distinct);

    // Power-of-two stride: every access lands in the same low-index class.
    let strided: Trace = (0..200u32)
        .map(|t| Record::read(Address::new((t % 16) << 8)))
        .collect();
    assert_engines_agree("pow2-stride", &strided);
}

/// DESIGN.md §16's table: at `K = 27` the fold runs on all 12 instruction
/// traces and on engine.data and pocsag.data, depth-first on the other 10
/// data traces. A faster engine must not move a pick without a new
/// calibration recorded there.
#[test]
fn auto_picks_the_recorded_engine_on_every_kernel() {
    let folded_data = ["engine", "pocsag"];
    let mut picks = Vec::new();
    let mut expected = Vec::new();
    for kernel in cachedse::workloads::all() {
        let run = kernel.capture();
        for (side, trace) in [("data", &run.data), ("instr", &run.instr)] {
            let label = format!("{}.{side}", run.name);
            let exploration = DesignSpaceExplorer::new(trace)
                .prepare()
                .expect("kernel traces are non-empty");
            picks.push((label.clone(), exploration.engine()));
            let fold = side == "instr" || folded_data.contains(&run.name);
            let engine = if fold {
                EngineChoice::Streamed
            } else {
                EngineChoice::DepthFirst
            };
            expected.push((label, engine));
        }
    }
    assert_eq!(picks, expected);
}
