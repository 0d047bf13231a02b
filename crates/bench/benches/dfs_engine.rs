//! The §2.4 depth-first engine in isolation: the serial scratch-arena
//! traversal against the size-aware parallel scheduler at pinned worker
//! counts, plus the materialized reference
//! (`postlude::materialized_profiles`). `perf_report` runs the same
//! comparison over every kernel and records it in `BENCH_dfs.json`.

use std::num::NonZeroUsize;

use cachedse_bench::crit::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

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
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("depth_first_parallel", threads),
            &threads,
            |b, &threads| {
                let threads = NonZeroUsize::new(threads).expect("nonzero");
                b.iter(|| {
                    dfs::level_profiles_parallel(std::hint::black_box(&stripped), bits, threads)
                });
            },
        );
    }
    group.bench_function("tree_table", |b| {
        b.iter(|| postlude::materialized_profiles(std::hint::black_box(&stripped), bits));
    });
    group.finish();
}

criterion_group!(benches, bench_dfs_engine);
criterion_main!(benches);
