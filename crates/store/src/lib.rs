//! Persistent content-addressed artifact store (DESIGN.md §15).
//!
//! A budget query reads only the stripped trace and its per-depth miss
//! profiles, so that is all an entry holds, whichever engine built it: a
//! handful of contiguous `u32`/`u64` arrays plus a few scalars that
//! round-trip through a versioned, checksummed on-disk codec ([`codec`])
//! and reassemble into artifacts `==` to the freshly built originals.
//! Keyed by the FNV-1a [`TraceDigest`] of the canonical trace (folded with
//! the index-bit cap into an [`ArtifactKey`]), the store lets a restarted
//! node answer its first repeat-trace job with a load instead of an
//! analysis.
//!
//! The crate is organized as tiers behind one trait:
//!
//! - [`ArtifactStore`] — the persistence contract: load/save/remove by
//!   key, key enumeration by digest, byte accounting.
//! - [`MemoryStore`] — encoded bytes in a map; the codec round-trips on
//!   every load, so tests exercise the exact disk path without a disk.
//! - [`DiskStore`] — one file per key, atomic tmp+rename writes, lazy
//!   decode, quarantine of corrupt files.
//! - [`ArtifactCache`] — the in-memory build-once cache (moved here from
//!   `cachedse-serve`), now write-through to an optional backing store.
//!
//! Loaded bytes are untrusted: the codec bounds-checks every array
//! against the checksummed payload and requires one profile per depth,
//! the flat-parts constructors (`StrippedTrace::from_parts`,
//! `Exploration::from_parts`) re-establish every structural invariant,
//! and [`decode_validated`] cross-checks the profiles against the trace
//! statistics before anything downstream sees them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod artifacts;
pub mod codec;
mod disk;
mod memory;
mod tier;
mod xxh64;

pub use artifacts::{ArtifactKey, Found, TraceArtifacts};
pub use disk::DiskStore;
pub use memory::MemoryStore;
pub use tier::ArtifactCache;
pub use xxh64::Xxh64;

use cachedse_trace::digest::TraceDigest;
use cachedse_trace::stats::TraceStats;

/// Why a store operation failed.
///
/// The distinction matters to callers: `Io` is the environment (retry or
/// degrade to memory-only), `Corrupt` is bytes that failed the codec's
/// structural gates (checksum, magic, truncation, malformed arrays, a
/// retired format — the entry should be rebuilt), and `Invalid` is bytes
/// that *decoded* but disagree with the stripped trace they describe
/// (also rebuild, but worth a louder log: the codec was happy and the
/// stats gate was not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(String),
    /// The bytes failed a structural gate: bad magic, unsupported
    /// version, truncation, checksum mismatch, a retired or unknown flag,
    /// or a malformed array.
    Corrupt(String),
    /// The bytes decoded but failed semantic validation: their
    /// statistics disagree with the stripped trace they describe.
    Invalid(String),
}

impl StoreError {
    /// A short machine-stable tag for metrics and JSON (`io`, `corrupt`,
    /// `invalid`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Io(_) => "io",
            Self::Corrupt(_) => "corrupt",
            Self::Invalid(_) => "invalid",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(m) => write!(f, "store i/o error: {m}"),
            Self::Corrupt(m) => write!(f, "corrupt store entry: {m}"),
            Self::Invalid(m) => write!(f, "invalid store entry: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The persistence contract every store tier implements.
///
/// Implementations must be safe to share across the serve worker pool
/// (`Send + Sync`); both in-tree implementations route their locking
/// through the `cachedse-sync` shim so the model checker can schedule
/// them.
pub trait ArtifactStore: Send + Sync + fmt::Debug {
    /// Loads the artifacts stored under `key`, or `None` when the store
    /// has no entry for it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] / [`StoreError::Invalid`] when an entry
    /// exists but fails the structural or semantic gates (the
    /// implementation quarantines or drops it so a subsequent save can
    /// rebuild), [`StoreError::Io`] when the medium fails.
    fn load(&self, key: &ArtifactKey) -> Result<Option<TraceArtifacts>, StoreError>;

    /// Persists `artifacts` under `key`, overwriting any prior entry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium fails; a failed save leaves any
    /// prior entry intact (writes are atomic).
    fn save(&self, key: &ArtifactKey, artifacts: &TraceArtifacts) -> Result<(), StoreError>;

    /// Drops the entry for `key`, if present (idempotent).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium fails.
    fn remove(&self, key: &ArtifactKey) -> Result<(), StoreError>;

    /// Every key stored under `digest` (one per index-bit cap the trace
    /// was analyzed with), in unspecified order.
    fn keys_for(&self, digest: TraceDigest) -> Vec<ArtifactKey>;

    /// Total encoded bytes currently held by this store.
    fn stored_bytes(&self) -> u64;
}

/// Cross-checks loaded artifacts before anything downstream trusts them:
/// the exploration's trace statistics must match the stripped trace they
/// claim to describe, and every profile must agree with them — the
/// recompute-free gate. The serve tier's opt-in `--validate` mode adds a
/// full profile recompute on top of it.
///
/// # Errors
///
/// [`StoreError::Invalid`] naming the first violated invariant.
fn validate_loaded(artifacts: &TraceArtifacts) -> Result<(), StoreError> {
    let stats = TraceStats::of_stripped(&artifacts.stripped);
    if artifacts.exploration.stats() != stats {
        return Err(StoreError::Invalid(format!(
            "exploration stats {:?} disagree with the stripped trace's {stats:?}",
            artifacts.exploration.stats()
        )));
    }
    for profile in artifacts.exploration.profiles() {
        // A hostile histogram can hold counts whose sum wraps; checked
        // addition refuses it instead of wrapping to the expected total.
        let reuses = profile
            .histogram()
            .iter()
            .try_fold(0u64, |sum, &n| sum.checked_add(n));
        if profile.cold() != stats.unique as u64
            || profile.accesses() != stats.total as u64
            || reuses != Some((stats.total - stats.unique) as u64)
        {
            return Err(StoreError::Invalid(format!(
                "depth-{} profile disagrees with the trace statistics",
                profile.depth()
            )));
        }
    }
    Ok(())
}

/// Decodes `bytes`, checks the decoded key matches the requested `key`,
/// and cross-checks the profiles against the stripped trace's statistics
/// — the shared load path of every tier.
///
/// # Errors
///
/// Propagates the codec's [`StoreError::Corrupt`], and
/// [`StoreError::Invalid`] when the statistics disagree; a key mismatch (bytes
/// filed under the wrong name) is `Corrupt`.
pub fn decode_validated(key: &ArtifactKey, bytes: &[u8]) -> Result<TraceArtifacts, StoreError> {
    let (decoded_key, artifacts) = codec::decode(bytes)?;
    if decoded_key != *key {
        return Err(StoreError::Corrupt(format!(
            "entry is keyed {decoded_key:?} but was filed under {key:?}"
        )));
    }
    validate_loaded(&artifacts)?;
    Ok(artifacts)
}
