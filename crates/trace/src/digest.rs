//! Content-addressed trace digests.
//!
//! The batch exploration service (`cachedse-serve`) keys its artifact cache
//! by the *content* of the canonical trace, not by where it came from: the
//! same reference stream loaded from two files, or generated twice from the
//! same workload, must land on the same cache entry. This module provides
//! that key — a vendored 64-bit [FNV-1a] hash over a canonical byte encoding
//! of the trace (per record: the access-kind label byte followed by the
//! little-endian `u32` address; length is implicit in the stream, and the
//! empty trace hashes to the FNV offset basis).
//!
//! FNV-1a is not cryptographic; it is collision-resistant enough for a
//! cache key over traces produced by a trusted pipeline, dependency-free,
//! and byte-order stable across platforms — which is all a
//! content-addressed artifact cache needs. (The workspace builds with zero
//! external crates, so SipHash-with-fixed-keys via `std` internals is not an
//! option: `std::hash` explicitly does not promise cross-version stability.)
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
//!
//! # Examples
//!
//! ```
//! use cachedse_trace::digest::TraceDigest;
//! use cachedse_trace::paper_running_example;
//!
//! let a = TraceDigest::of_trace(&paper_running_example());
//! let b = TraceDigest::of_trace(&paper_running_example());
//! assert_eq!(a, b);
//! assert_eq!(a.to_string().len(), 16); // zero-padded hex
//! ```

use std::fmt;

use crate::Trace;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher over raw bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub(crate) const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds `bytes` into the state.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    #[must_use]
    pub(crate) const fn finish(self) -> u64 {
        self.0
    }
}

/// The canonical content digest of a [`Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceDigest(u64);

impl TraceDigest {
    /// Digests `trace` in canonical record order.
    #[must_use]
    pub fn of_trace(trace: &Trace) -> Self {
        let mut h = Fnv1a::new();
        for r in trace {
            h.update(&[r.kind.label()]);
            h.update(&r.addr.raw().to_le_bytes());
        }
        Self(h.finish())
    }

    /// Wraps a raw digest, as read back from a store entry or a job spec.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The digest as a raw `u64`.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Record};

    #[test]
    fn known_vectors() {
        // The classic FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_content_addressed() {
        let a: Trace = [
            Record::read(Address::new(0xB)),
            Record::write(Address::new(1)),
        ]
        .into_iter()
        .collect();
        let b: Trace = [
            Record::read(Address::new(0xB)),
            Record::write(Address::new(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(TraceDigest::of_trace(&a), TraceDigest::of_trace(&b));
    }

    #[test]
    fn digest_distinguishes_kind_address_and_order() {
        let base: Trace = [Record::read(Address::new(1)), Record::read(Address::new(2))]
            .into_iter()
            .collect();
        let kind: Trace = [
            Record::write(Address::new(1)),
            Record::read(Address::new(2)),
        ]
        .into_iter()
        .collect();
        let addr: Trace = [Record::read(Address::new(3)), Record::read(Address::new(2))]
            .into_iter()
            .collect();
        let order: Trace = [Record::read(Address::new(2)), Record::read(Address::new(1))]
            .into_iter()
            .collect();
        let d = TraceDigest::of_trace(&base);
        assert_ne!(d, TraceDigest::of_trace(&kind));
        assert_ne!(d, TraceDigest::of_trace(&addr));
        assert_ne!(d, TraceDigest::of_trace(&order));
    }

    #[test]
    fn empty_trace_is_offset_basis() {
        assert_eq!(
            TraceDigest::of_trace(&Trace::new()).raw(),
            0xcbf2_9ce4_8422_2325
        );
    }

    #[test]
    fn display_is_padded_hex() {
        let d = TraceDigest::from_raw(0xab);
        assert_eq!(d.to_string(), "00000000000000ab");
    }
}
