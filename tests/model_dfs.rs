//! Model exploration of the depth-first engine's parallel work split.
//!
//! With `threads ≥ 2` the depth-first engine parks subtraces on a shared LPT-sorted work list
//! and lets scoped workers claim them through an atomic cursor; its whole
//! correctness claim is that the result is byte-identical to the serial
//! engine on **every** interleaving. Under `--cfg cachedse_model` the
//! scheduler enumerates the cursor/spawn/join interleavings of a
//! two-worker split — exhaustively at preemption bound 2, plus a seeded
//! random walk over three workers deeper into the schedule space — and the
//! equality is asserted inside the explored closure, so any
//! schedule-dependent divergence surfaces as a violation.
//!
//! Compiled only under `RUSTFLAGS="--cfg cachedse_model"`; the CI
//! `model-check` job runs this suite.
#![cfg(cachedse_model)]

use cachedse_core::{prepare_stripped, Engine};
use cachedse_sync::model::{explore, Mode, ModelConfig, Outcome};
use cachedse_trace::generate;
use cachedse_trace::strip::StrippedTrace;

/// Explores the split on `threads` workers under `config`, asserting on
/// every schedule that the profiles equal the serial engine's.
fn explore_split(config: &ModelConfig, threads: usize) -> Outcome {
    // Just past the 2048-reference parking threshold, so the gather
    // prefix parks two work items and both workers genuinely contend on
    // the cursor — while each explored execution stays cheap enough that
    // the bound-2 space finishes in CI time.
    let trace = generate::working_set_phases(4, 4096, 96, 17);
    let stripped = StrippedTrace::from_trace(&trace);
    let serial = prepare_stripped(&stripped, None, Engine::DepthFirst, None)
        .expect("non-empty trace explores");
    let out = explore(config, || {
        let threads = std::num::NonZeroUsize::new(threads);
        let parallel = prepare_stripped(&stripped, None, Engine::DepthFirst, threads)
            .expect("non-empty trace explores");
        assert_eq!(
            parallel.profiles(),
            serial.profiles(),
            "parallel split must be schedule-independent"
        );
    })
    .expect("model build");
    assert!(
        out.violation.is_none(),
        "parallel engine violated a concurrency invariant: {}",
        out.violation.unwrap()
    );
    out
}

#[test]
fn two_worker_split_matches_serial_on_every_schedule() {
    let config = ModelConfig {
        preemption_bound: Some(2),
        max_executions: 100_000,
        mode: Mode::Exhaustive,
    };
    let out = explore_split(&config, 2);
    assert!(out.complete, "bound-2 cursor space must be enumerable");
    assert!(
        out.executions > 10,
        "two workers over a shared cursor have many interleavings, got {}",
        out.executions
    );
}

#[test]
fn seeded_walks_explore_deeper_schedules() {
    let config = ModelConfig {
        preemption_bound: None,
        max_executions: 100_000,
        mode: Mode::Walks {
            count: 200,
            seed: 0xDF5_5EED,
        },
    };
    let out = explore_split(&config, 3);
    assert!(
        out.executions >= 200,
        "every requested walk must run, got {}",
        out.executions
    );
}
