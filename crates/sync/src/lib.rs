//! Deterministic concurrency shim for the `cachedse` workspace.
//!
//! Every synchronization primitive the workspace uses — mutexes, condition
//! variables, atomics, thread spawn/join, scoped threads — is imported from
//! this crate instead of `std::sync`/`std::thread` (a lint gate enforces
//! it). The crate has two personalities, selected at compile time:
//!
//! - **Normal builds** (the default): every type is a transparent,
//!   `#[inline]` passthrough wrapper over the corresponding `std` primitive.
//!   There is no runtime registry, no extra state, and no measurable
//!   overhead — `Mutex<T>` *is* `std::sync::Mutex<T>` plus a zero-cost
//!   newtype.
//! - **Model builds** (`RUSTFLAGS="--cfg cachedse_model"`): every
//!   lock/unlock/wait/notify/atomic op/spawn/join becomes a *schedule
//!   point* routed through a cooperative scheduler that runs exactly one
//!   logical thread at a time. The [`model`] module then explores the
//!   space of interleavings — exhaustively with a preemption bound, by
//!   seeded random walk, or by replaying a recorded schedule — and detects
//!   deadlocks, lost wakeups, synchronization misuse, and data races (via
//!   vector clocks maintained at every synchronization edge).
//!
//! The two personalities share one API so callers (`cachedse-serve`'s
//! worker pool and `cachedse-store`'s tier) compile identically under
//! both. Semantics differences from raw `std`:
//!
//! - [`Mutex::lock`] returns the guard directly and **panics** on
//!   poisoning (the workspace treats a panic while holding a lock as
//!   fatal; every previous call site wrote `.lock().expect(..)` anyway).
//! - [`Condvar::wait`] consumes and returns the guard directly, for the
//!   same reason.
//! - The model scheduler never generates spurious condvar wakeups; code
//!   must still wait in a loop (real builds *do* have them).
//!
//! See `DESIGN.md` §14 for the scheduler and detector internals, and
//! [`model`] for the exploration API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

#[cfg(not(cachedse_model))]
mod shim;
#[cfg(not(cachedse_model))]
pub use shim::{atomic, thread, Condvar, Mutex, MutexGuard, RaceCell};

#[cfg(cachedse_model)]
mod modeled;
#[cfg(cachedse_model)]
pub use modeled::{atomic, thread, Condvar, Mutex, MutexGuard, RaceCell};

/// `true` when this build was compiled with `--cfg cachedse_model`, i.e.
/// when [`model::explore`] actually explores schedules instead of
/// returning [`model::ModelUnavailable`].
#[must_use]
pub const fn model_enabled() -> bool {
    cfg!(cachedse_model)
}
