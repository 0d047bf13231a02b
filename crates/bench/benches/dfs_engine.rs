//! The §2.4 depth-first engine in isolation: the scratch-arena traversal
//! against the materialized reference (`postlude::materialized_profiles`).
//! `perf_report` runs the same comparison over every kernel and records it
//! in `BENCH_dfs.json`.

use cachedse_bench::crit::{criterion_group, criterion_main, Criterion, Throughput};

use cachedse_core::{dfs, postlude};
use cachedse_trace::strip::StrippedTrace;
use cachedse_workloads::{crc::Crc, Kernel};

fn bench_dfs_engine(c: &mut Criterion) {
    let trace = Crc {
        message_len: 2048,
        passes: 4,
    }
    .capture()
    .data;
    let stripped = StrippedTrace::from_trace(&trace);
    let bits = trace.address_bits();

    let mut group = c.benchmark_group("dfs_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stripped.total_len() as u64));
    group.bench_function("depth_first", |b| {
        b.iter(|| dfs::level_profiles(std::hint::black_box(&stripped), bits));
    });
    group.bench_function("tree_table", |b| {
        b.iter(|| postlude::materialized_profiles(std::hint::black_box(&stripped), bits));
    });
    group.finish();
}

criterion_group!(benches, bench_dfs_engine);
criterion_main!(benches);
