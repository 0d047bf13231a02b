//! Analytical design space exploration of caches for embedded systems.
//!
//! This crate is a complete implementation of the method of **Arijit Ghosh
//! and Tony Givargis, "Analytical Design Space Exploration of Caches for
//! Embedded Systems"** (DATE 2003; UC Irvine CECS TR 02-27): given a memory
//! reference trace and a designer constraint `K` — the number of tolerable
//! cache misses beyond the unavoidable cold misses — *directly compute*, for
//! every cache depth `D`, the minimum LRU associativity `A` such that a
//! `D`-row, `A`-way cache misses at most `K` times. No per-configuration
//! simulation loop (the traditional flow of the paper's Figure 1a) is needed.
//!
//! # The method
//!
//! The **prelude phase** processes the trace once:
//!
//! * [`strip`](cachedse_trace::strip) the trace of `N` references into `N'`
//!   unique references (Tables 1–2 of the paper);
//! * build the per-address-bit zero/one sets ([`ZeroOneSets`], Table 3);
//! * build the **Binary Cache Allocation Tree** ([`Bcat`], Algorithm 1,
//!   Figure 3): level `l` of the tree partitions the unique references onto
//!   the `2^l` rows of a depth-`2^l` cache;
//! * build the **Memory Reference Conflict Table** ([`Mrct`], Algorithm 2,
//!   Table 4): for every non-first occurrence of a reference, the set of
//!   distinct other references touched since its previous occurrence.
//!
//! The **postlude phase** ([`postlude`], Algorithm 3) combines the two: an
//! occurrence of `r` with conflict set `C`, mapped to a row whose residents
//! are `S`, misses in an `A`-way LRU cache **iff** `|S ∩ C| ≥ A`. Summing
//! over a BCAT level gives the exact miss count of every `(D, A)` pair, and
//! thus the minimum `A` meeting the budget.
//!
//! Section 2.4 of the paper sketches a combined variant that never
//! materializes the tree or the table; [`dfs`] implements it with a
//! depth-first subtrace partition and distance counting over a bit per
//! position and a Fenwick tree of 64-position words, in `O(N log N)` time
//! per level and linear space. [`streamed`] goes the
//! other way: it fuses the MRCT replay with the postlude, folding every
//! conflict set into the per-level histograms the moment it is produced —
//! the profiles of all levels in one pass, `O(N')` memory, no
//! materialized table at all. Each wins on some traces, so the default,
//! [`Engine::Auto`], picks one per trace.
//!
//! # Exactness
//!
//! `|S ∩ C|` is precisely the LRU stack distance of the occurrence *within
//! its cache row*, so the analytical counts are not estimates: they equal
//! what the trace-driven simulator of `cachedse-sim` observes, access for
//! access. The [`verify`] module (and the workspace test suite) checks this
//! on every exploration.
//!
//! # Quickstart
//!
//! ```
//! use cachedse_core::{DesignSpaceExplorer, MissBudget};
//! use cachedse_trace::generate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A looping workload with excursions, 20k references.
//! let trace = generate::loop_with_excursions(0, 96, 200, 13, 1 << 12, 7);
//!
//! // Allow at most 5% of the worst-case avoidable misses.
//! let result = DesignSpaceExplorer::new(&trace)
//!     .explore(MissBudget::FractionOfMax(0.05))?;
//!
//! for point in result.pairs() {
//!     assert!(result.misses_of(point.depth).unwrap() <= result.budget());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod bcat;
pub mod dfs;
pub mod explorer;
pub mod mrct;
pub mod postlude;
pub mod report;
pub mod streamed;
pub mod verify;
pub mod zero_one;

pub use bcat::Bcat;
pub use error::ExploreError;
pub use explorer::{
    explore_shared, prepare_stripped, DesignSpaceExplorer, Engine, Exploration, ExplorationResult,
    MissBudget, SharedExploration,
};
pub use mrct::{ConflictSets, Mrct};
pub use report::BudgetGrid;
pub use zero_one::ZeroOneSets;

// The `(depth, associativity)` output type is shared with the simulator's
// exhaustive baseline so results compare with `==`.
pub use cachedse_sim::DesignPoint;
