//! Model exploration of the depth-first engine's parallel work split.
//!
//! With `threads ≥ 2` the depth-first engine parks subtraces on a shared LPT-sorted work list
//! and lets scoped workers claim them through an atomic cursor; its whole
//! correctness claim is that the result is byte-identical to the serial
//! engine on **every** interleaving. Under `--cfg cachedse_model` the
//! scheduler enumerates the cursor/spawn/join interleavings of a
//! two-worker split and the equality is asserted inside the explored
//! closure, so any schedule-dependent divergence surfaces as a violation.
//!
//! Compiled only under `RUSTFLAGS="--cfg cachedse_model"`; the CI
//! `model-check` job runs this suite.
#![cfg(cachedse_model)]

use cachedse_core::{prepare_stripped, Engine, MissBudget};
use cachedse_sync::model::{explore, Mode, ModelConfig};
use cachedse_trace::generate;
use cachedse_trace::strip::StrippedTrace;

#[test]
fn two_worker_split_matches_serial_on_every_schedule() {
    // Just past the 2048-reference parking threshold, so the gather
    // prefix parks two work items and both workers genuinely contend on
    // the cursor — while each explored execution stays cheap enough that
    // the bound-2 space finishes in CI time.
    let trace = generate::working_set_phases(4, 4096, 96, 17);
    let stripped = StrippedTrace::from_trace(&trace);
    let serial = prepare_stripped(&stripped, None, Engine::DepthFirst, None)
        .expect("non-empty trace explores");

    let out = explore(
        &ModelConfig {
            preemption_bound: Some(2),
            max_executions: 100_000,
            mode: Mode::Exhaustive,
        },
        || {
            let threads = std::num::NonZeroUsize::new(2);
            let parallel = prepare_stripped(&stripped, None, Engine::DepthFirst, threads)
                .expect("non-empty trace explores");
            let budget = MissBudget::FractionOfMax(0.10);
            assert_eq!(
                parallel.result(budget).expect("valid budget"),
                serial.result(budget).expect("valid budget"),
                "parallel split must be schedule-independent"
            );
        },
    )
    .expect("model build");
    assert!(
        out.violation.is_none(),
        "parallel engine violated a concurrency invariant: {}",
        out.violation.unwrap()
    );
    assert!(out.complete, "bound-2 cursor space must be enumerable");
    assert!(
        out.executions > 10,
        "two workers over a shared cursor have many interleavings, got {}",
        out.executions
    );
}
