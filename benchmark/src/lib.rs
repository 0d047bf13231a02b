//! End-to-end benchmark of `cachedse`: Dinero trace files on disk in,
//! `(depth, associativity)` frontiers out, through the explore path, the
//! batch serve tier and the persistent artifact store.
//!
//! See `README.md` for the metrics, the workloads and why each exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
