//! The content-addressed artifact cache — re-exported from
//! [`cachedse_store`], where it moved when the persistence tier landed
//! (DESIGN.md §15).
//!
//! The stripped trace and its per-depth miss profiles depend only on the
//! trace content and the index-bit cap, and every budget query is
//! answered from them alone. The cache keys that bundle by the FNV-1a
//! [`TraceDigest`](cachedse_trace::digest::TraceDigest) of the canonical
//! trace (folded with the bit cap), so N jobs that query N budgets
//! against one trace cost **one** analysis plus N cheap frontier walks. With a backing [`ArtifactStore`](cachedse_store::ArtifactStore)
//! attached (`--store-dir`), the bundle also survives a restart: the
//! first repeat-trace job on a fresh process warm-loads from disk
//! instead of re-analyzing.
//!
//! This module keeps the crate's original import paths working; new code
//! can depend on `cachedse-store` directly.

pub use cachedse_store::{ArtifactCache, ArtifactKey, Found, TraceArtifacts};
