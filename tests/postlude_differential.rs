//! Byte-identity of the streamed postlude fusion (`DESIGN.md` §16): for
//! every trace and index-bit budget, `streamed::level_profiles` must
//! return *exactly* the profiles of the materialized reference,
//! `postlude::materialized_profiles` (`Bcat::from_stripped` →
//! `Mrct::build` → Algorithm 3) — same depths, same histograms, byte for
//! byte. The fusion is a pure evaluation-order change; any divergence is
//! a bug, not drift.
//!
//! Coverage: all 24 paper kernel traces at full size (release-mode CI
//! job; `#[ignore]`d here because the materialized reference takes
//! minutes per big data trace without optimizations), scaled-down kernels
//! for the debug tier, a 96-trace seeded random sweep, and the structural
//! edge cases (empty trace, single reference, everything on one row,
//! index budget past the address width).

use cachedse::core::{postlude, streamed};
use cachedse::trace::rng::SplitMix64;
use cachedse::trace::strip::StrippedTrace;
use cachedse::trace::{Address, Record, Trace};

fn assert_identical(trace: &Trace, max_bits: u32, what: &str) {
    let stripped = StrippedTrace::from_trace(trace);
    let fused = streamed::level_profiles(&stripped, max_bits);
    let golden = postlude::materialized_profiles(&stripped, max_bits);
    assert_eq!(
        fused, golden,
        "{what}: streamed diverged from materialized at max_bits {max_bits}"
    );
}

/// Every one of the paper's 24 benchmark traces (12 kernels × data+instr)
/// at full published size, at the trace's own address width.
///
/// Ignored in the default (debug) test run: the materialized reference
/// spends minutes on the big data traces without optimizations. The CI
/// offline job runs it in release mode via `--include-ignored`; the
/// scaled-kernel test below keeps debug-tier coverage.
#[test]
#[ignore = "full-size sweep; run in release (CI does, via --include-ignored)"]
fn all_24_kernel_traces_are_byte_identical() {
    for kernel in cachedse::workloads::all() {
        let run = kernel.capture();
        for (side, trace) in [("data", &run.data), ("instr", &run.instr)] {
            let bits = trace.address_bits();
            assert_identical(trace, bits, &format!("{}.{side}", run.name));
        }
    }
}

/// Small-parameter versions of five structurally distinct kernels, at the
/// trace's own width and at a deliberately tighter budget.
#[test]
fn scaled_kernel_traces_are_byte_identical() {
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
        for (side, trace) in [("data", &run.data), ("instr", &run.instr)] {
            let bits = trace.address_bits();
            for max_bits in [bits, bits.saturating_sub(3)] {
                assert_identical(trace, max_bits, &format!("{}.{side}", run.name));
            }
        }
    }
}

/// 96 seeded random traces across address-space shapes and budgets.
#[test]
fn random_sweep_is_byte_identical() {
    let mut rng = SplitMix64::seed_from_u64(0x5742_EA12);
    for round in 0..96 {
        let addr_space = 1u32 << rng.gen_range(2u32..10);
        let len = rng.gen_range(1usize..400);
        let trace: Trace = (0..len)
            .map(|_| Record::read(Address::new(rng.gen_range(0..addr_space))))
            .collect();
        let max_bits = rng.gen_range(0u32..12);
        assert_identical(&trace, max_bits, &format!("random trace #{round}"));
    }
}

/// An empty trace yields the same (all-zero) profiles from both paths.
#[test]
fn empty_trace_is_byte_identical() {
    assert_identical(&Trace::new(), 6, "empty trace");
}

/// A single reference: one cold miss, no conflict sets anywhere.
#[test]
fn single_reference_is_byte_identical() {
    let trace: Trace = [Record::read(Address::new(42))].into_iter().collect();
    assert_identical(&trace, 8, "single reference");
}

/// Addresses that agree on their low 8 bits (multiples of 256): every
/// level up to 8 maps the whole working set onto one row, the worst case
/// for conflict-set width.
#[test]
fn all_same_row_is_byte_identical() {
    let trace: Trace = (0..200u32)
        .map(|i| Record::read(Address::new((i % 32) << 8)))
        .collect();
    for max_bits in [4, 8] {
        assert_identical(&trace, max_bits, "all-same-row");
    }
}

/// An index budget far past the address width: the extra levels split
/// nothing further, and both paths must agree on that plateau too.
#[test]
fn over_budget_index_bits_are_byte_identical() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    let trace: Trace = (0..120)
        .map(|_| Record::read(Address::new(rng.gen_range(0u32..16))))
        .collect();
    assert_identical(&trace, 12, "over-budget index bits");
}
