//! The fused streamed fold on synthetic loops, plus the tombstone-churn
//! stress the inline-skip fold was built for.
//!
//! The `tombstone_churn` case is the pathological shape for any fold that
//! maintains a sorted index of dead slots: a large live set (32,768
//! entries) churned by short-span recurrences that do almost no fold work
//! per access, so tombstones pile up inside every folded suffix. An
//! `O(dead)` insertion per tombstone goes quadratic between compactions
//! here. The shipped fold sends each swept tombstone to a sink bucket
//! without a branch, and compacts once its scans have stepped over more
//! tombstones than a compaction moves (`waste > live + dead`).

use cachedse_bench::crit::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cachedse_core::streamed;
use cachedse_trace::generate;
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::{Address, Record, Trace};

/// A cold sweep of `live` addresses followed by `churn` short-span
/// re-touches of the `window` most recent ones: maximum tombstone
/// accumulation per unit of fold work.
fn tombstone_churn_trace(live: u32, window: u32, churn: u32) -> Trace {
    let mut records: Vec<Record> = (0..live)
        .map(|a| Record::read(Address::new(a << 4)))
        .collect();
    for i in 0..churn {
        let a = live - 1 - (i % window);
        records.push(Record::read(Address::new(a << 4)));
    }
    records.into_iter().collect()
}

fn bench_streamed(c: &mut Criterion) {
    let mut group = c.benchmark_group("streamed");
    group.sample_size(10);

    for n in [20_000u32, 80_000] {
        let trace = generate::loop_with_excursions(0, 192, n / 192, 13, 1 << 12, 5);
        let stripped = StrippedTrace::from_trace(&trace);
        let bits = trace.address_bits();
        group.bench_with_input(BenchmarkId::new("fused_serial", n), &stripped, |b, s| {
            b.iter(|| streamed::level_profiles(std::hint::black_box(s), bits));
        });
    }

    let trace = tombstone_churn_trace(32_768, 64, 40_000);
    let stripped = StrippedTrace::from_trace(&trace);
    let bits = trace.address_bits();
    group.bench_with_input(
        BenchmarkId::new("tombstone_churn", stripped.total_len()),
        &stripped,
        |b, s| {
            b.iter(|| streamed::level_profiles(std::hint::black_box(s), bits));
        },
    );

    group.finish();
}

criterion_group!(benches, bench_streamed);
criterion_main!(benches);
