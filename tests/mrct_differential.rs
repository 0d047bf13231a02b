//! Differential oracle for the output-optimal MRCT builder.
//!
//! `Mrct::build` (Fenwick-sized CSR arena + tombstone recency array, see
//! DESIGN.md §12) must be *exactly*
//! equal — same sets, same order, same flat-arena representation — to
//! `Mrct::build_naive`, the paper's Algorithm 2 verbatim. Three corpora
//! exercise it:
//!
//! 1. every bundled kernel (both captured sides) at small parameters, so
//!    the quadratic oracle stays tractable in debug builds;
//! 2. a seeded SplitMix64 sweep of synthetic traces across uniform,
//!    strided, hot/cold, and sweep-reuse shapes;
//! 3. hand-built CSR arena edge cases: single-occurrence-only traces,
//!    all-same-address traces, and empty conflict sets bordering
//!    non-empty ones.

use cachedse::core::Mrct;
use cachedse::trace::strip::{RefId, StrippedTrace};
use cachedse::trace::{Address, Record, Trace};
use cachedse::workloads::{
    adpcm::Adpcm, bcnt::Bcnt, blit::Blit, compress::Compress, crc::Crc, des::Des, engine::Engine,
    fir::Fir, g3fax::G3fax, pocsag::Pocsag, qurt::Qurt, ucbqsort::Ucbqsort, Kernel, KernelRun,
};

/// Small-parameter instances of all twelve kernels (mirrors the corpora in
/// `verify_workloads.rs` / `engine_differential.rs`).
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

fn assert_builders_agree(label: &str, trace: &Trace) {
    let stripped = StrippedTrace::from_trace(trace);
    let fast = Mrct::build(&stripped);
    let naive = Mrct::build_naive(&stripped);
    assert_eq!(
        fast, naive,
        "{label}: fast builder diverged from Algorithm 2"
    );
}

#[test]
fn all_kernels_builders_agree() {
    for run in small_runs() {
        assert_builders_agree(&format!("{}.data", run.name), &run.data);
        assert_builders_agree(&format!("{}.instr", run.name), &run.instr);
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
/// length, and access pattern all vary, so the sweep covers deep recency
/// lists, immediate repeats, and single-occurrence tails alike.
fn random_trace(rng: &mut SplitMix64) -> Trace {
    let space = 1u64 << (1 + rng.below(9)); // 2 .. 1024 distinct addresses
    let len = 8 + rng.below(900);
    let pattern = rng.below(4);
    let mut trace = Trace::new();
    let mut walker = rng.below(space);
    for t in 0..len {
        let addr = match pattern {
            0 => rng.below(space),
            1 => {
                walker = if rng.below(16) == 0 {
                    rng.below(space)
                } else {
                    (walker + 1) % space
                };
                walker
            }
            2 => {
                if rng.below(10) < 8 {
                    rng.below(8.min(space))
                } else {
                    rng.below(space)
                }
            }
            _ => t % (1 + space / 2),
        };
        trace.push(Record::read(Address::new(
            u32::try_from(addr).expect("address fits u32"),
        )));
    }
    trace
}

#[test]
fn seeded_random_sweep_agrees() {
    let mut rng = SplitMix64(0x2003_0C5E_A12E_57AB);
    for case in 0..96 {
        let trace = random_trace(&mut rng);
        assert_builders_agree(&format!("random[{case}]"), &trace);
    }
}

/// Every address occurs exactly once: the arena is empty, every reference
/// has a zero-length set range, and the bounds arrays still line up.
#[test]
fn single_occurrence_only_trace() {
    let trace: Trace = (0..128u32)
        .map(|t| Record::read(Address::new(t << 3)))
        .collect();
    let stripped = StrippedTrace::from_trace(&trace);
    let mrct = Mrct::build(&stripped);
    assert_eq!(mrct.unique_len(), 128);
    assert_eq!(mrct.total_sets(), 0);
    assert_eq!(mrct.total_elements(), 0);
    for (_, sets) in mrct.iter() {
        assert!(sets.is_empty());
        assert_eq!(sets.get(0), None);
    }
    assert_eq!(mrct, Mrct::build_naive(&stripped));
}

/// One address repeated: maximum set count, every set empty — the arena
/// holds zero identifiers but `N - 1` set boundaries.
#[test]
fn all_same_address_trace() {
    let trace: Trace = (0..200).map(|_| Record::read(Address::new(42))).collect();
    let stripped = StrippedTrace::from_trace(&trace);
    let mrct = Mrct::build(&stripped);
    assert_eq!(mrct.unique_len(), 1);
    assert_eq!(mrct.total_sets(), 199);
    assert_eq!(mrct.total_elements(), 0);
    let sets = mrct.conflict_sets(RefId::new(0));
    assert_eq!(sets.len(), 199);
    for set in sets {
        assert!(set.is_empty());
    }
    assert_eq!(mrct, Mrct::build_naive(&stripped));
}

/// Empty conflict sets sandwiched between non-empty ones: `a b a a b a`
/// gives reference `a` the sets `{b}`, `{}`, `{b}` — zero-length arena
/// ranges must sit *between* occupied ranges without shifting them.
#[test]
fn empty_sets_between_occupied_ranges() {
    let trace: Trace = [1u32, 2, 1, 1, 2, 1]
        .into_iter()
        .map(|a| Record::read(Address::new(a)))
        .collect();
    let stripped = StrippedTrace::from_trace(&trace);
    let mrct = Mrct::build(&stripped);
    let a = mrct.conflict_sets(RefId::new(0));
    let collected: Vec<&[u32]> = a.iter().collect();
    assert_eq!(collected, vec![&[1u32][..], &[][..], &[1u32][..]]);
    let b = mrct.conflict_sets(RefId::new(1));
    let collected: Vec<&[u32]> = b.iter().collect();
    assert_eq!(collected, vec![&[0u32][..]]);
    assert_eq!(mrct, Mrct::build_naive(&stripped));
}

/// The empty trace: all three arrays degenerate but consistent.
#[test]
fn empty_trace() {
    let stripped = StrippedTrace::from_trace(&Trace::new());
    let mrct = Mrct::build(&stripped);
    assert_eq!(mrct.unique_len(), 0);
    assert_eq!(mrct.total_sets(), 0);
    assert_eq!(mrct.total_elements(), 0);
    assert_eq!(mrct, Mrct::build_naive(&stripped));
}
