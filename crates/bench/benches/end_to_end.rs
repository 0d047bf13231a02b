//! The headline comparison (Figures 1–2): full exploration of the same
//! design space by the traditional exhaustive loop, the one-pass-per-depth
//! simulation baseline, the analytical method (both engines), and the
//! paper's Algorithms 1–3 as published (strip + the materialized
//! reference).

use cachedse_bench::crit::{criterion_group, criterion_main, Criterion};

use cachedse_core::{postlude, DesignSpaceExplorer, Engine, MissBudget};
use cachedse_sim::explore::ExhaustiveExplorer;
use cachedse_trace::stats::TraceStats;
use cachedse_trace::strip::StrippedTrace;
use cachedse_workloads::{fir::Fir, Kernel};

fn bench_end_to_end(c: &mut Criterion) {
    let trace = Fir {
        taps: 24,
        samples: 1024,
    }
    .capture()
    .data;
    let bits = trace.address_bits();
    let budget = TraceStats::of(&trace).budget(0.10);

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("figure_1a_exhaustive", |b| {
        b.iter(|| ExhaustiveExplorer::new(bits).explore(std::hint::black_box(&trace), budget));
    });
    group.bench_function("one_pass_per_depth", |b| {
        b.iter(|| {
            ExhaustiveExplorer::new(bits).explore_one_pass(std::hint::black_box(&trace), budget)
        });
    });
    group.bench_function("analytical_depth_first", |b| {
        b.iter(|| {
            DesignSpaceExplorer::new(std::hint::black_box(&trace))
                .max_index_bits(bits)
                .engine(Engine::DepthFirst)
                .explore(MissBudget::Absolute(budget))
                .expect("non-empty trace")
        });
    });
    group.bench_function("analytical_tree_table", |b| {
        b.iter(|| {
            let stripped = StrippedTrace::from_trace(std::hint::black_box(&trace));
            postlude::materialized_profiles(&stripped, bits)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
